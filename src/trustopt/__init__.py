"""trustopt: island-model evolutionary optimization in which migration is
replaced by trust- or reputation-gated exchange of candidate solutions.

Agents (islands) run an elitist real-coded EA and periodically share their
worst members with a peer; integer credibility values decide how much is
shared, how deeply the received genomes are recombined, and rise or fall
with the outcome.  The package also ships the plain island-model baseline,
six benchmark objectives, a Kruskal-Wallis / Dunn / Holm comparison
pipeline and a CLI harness for batch experiments.
"""

from .benchmarks import (
    OBJECTIVE_NAMES,
    ObjectiveSpec,
    get_objective,
)
from .config import (
    AgentTemplate,
    ConfigError,
    CredibilityConfig,
    TboConfig,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
    validate_config,
)
from .ea import EaOperatorConfig
from .engine import run_repetitions
from .harness import (
    load_manifest,
    run_manifest,
    write_plots,
    write_stats_reports,
)
from .presets import PRESET_NAMES, load_preset
from .rng import agent_stream, derive_run_seed
from .stats import (
    SampleGroup,
    compare_groups,
    dunn_holm,
    holm_adjust,
    kruskal_wallis,
    summarize,
)
from .types import CredibilityState, effective_rates, init_population

__version__ = "0.1.0"
