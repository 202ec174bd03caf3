"""trustopt: island-model evolutionary optimization in which migration is
replaced by trust- or reputation-gated exchange of candidate solutions.

Agents (islands) run an elitist real-coded EA and periodically share their
worst members with a peer; integer credibility values decide how much is
shared, how deeply the received genomes are recombined, and rise or fall
with the outcome.  The package also ships the plain island-model baseline,
six benchmark objectives, a Kruskal-Wallis / Dunn / Holm comparison
pipeline and a CLI harness for batch experiments.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule it is defined in; a name is imported on
# first access (PEP 562), so that ``import trustopt`` loads no numpy, and
# no command but ``trustopt run`` does
_EXPORTS = {
    "OBJECTIVE_NAMES": "benchmarks", "ObjectiveSpec": "benchmarks",
    "get_objective": "benchmarks",
    "AgentTemplate": "config", "ConfigError": "config", "CredibilityConfig": "config",
    "TboConfig": "config", "config_from_dict": "config", "config_to_dict": "config",
    "dump_config": "config", "load_config": "config", "validate_config": "config",
    "run_repetitions": "engine",
    "load_manifest": "manifest", "run_manifest": "harness",
    "PRESET_NAMES": "presets", "load_preset": "presets",
    "agent_stream": "rng", "derive_run_seed": "rng",
    "SampleGroup": "stats", "compare_groups": "stats", "dunn_holm": "stats",
    "holm_adjust": "stats", "kruskal_wallis": "stats", "summarize": "stats",
    "write_stats_reports": "stats",
    "write_plots": "svgchart",
    "CredibilityState": "types", "effective_rates": "types", "init_population": "types",
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        # an AttributeError lets ``from trustopt import ea`` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
