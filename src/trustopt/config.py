"""Run configuration: schema, validation and JSON round-trip.

A :class:`TboConfig` fully describes one run (or its repetitions): the
society size, objective binding, epoch clock, credibility model, per-agent
EA/interaction parameters and the EA operator constants.
``validate_config`` collects every violation instead of stopping at the
first one.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from .benchmarks import finite_real, get_objective
from .types import CREDIBILITY_KINDS, GENE_OPS, GENOME_INTENSITIES

__all__ = [
    "AgentTemplate",
    "CredibilityConfig",
    "TboConfig",
    "ConfigError",
    "validate_config",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "dump_config",
    "ALGORITHMS",
]

ALGORITHMS = ("tbo", "island_model")


class ConfigError(ValueError):
    """Carries every validation violation found in one pass."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class AgentTemplate:
    """EA and interaction parameters of one agent (or of all agents when a
    single template is given)."""

    population_size: int = 5
    offspring_size: int = 15
    base_crossover_rate: float = 0.005
    base_mutation_rate: float = 0.0005
    genome_intensity: str = "moderate"
    gene_op: str = "swap"


@dataclass(frozen=True)
class CredibilityConfig:
    kind: str = "trust"
    start_value: int = 25
    min_value: int = 1
    max_value: int = 50


@dataclass(frozen=True)
class TboConfig:
    """Complete description of one optimisation run."""

    agent_count: int
    dimension: int
    objective: str
    epoch_length: int
    diversity_factor: float
    max_steps: int
    seed: int
    repetitions: int = 1
    algorithm: str = "tbo"
    credibility: Optional[CredibilityConfig] = field(default_factory=CredibilityConfig)
    per_agent: tuple[AgentTemplate, ...] = (AgentTemplate(),)
    objective_params: dict = field(default_factory=dict)
    # SBX and polynomial-mutation distribution indices, shared by every agent
    eta_c: float = 20.0
    eta_m: float = 40.0

    def agent_template(self, index: int) -> AgentTemplate:
        """Template for agent ``index`` (a single template applies to all)."""
        if len(self.per_agent) == 1:
            return self.per_agent[0]
        return self.per_agent[index]


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# field annotation, as written in the dataclasses -> (check, what is required)
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (finite_real, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "a mapping"),
}


def type_errors(cls, values: dict, tag: str = "") -> dict[str, str]:
    """Violation per entry of ``values`` whose type does not match the
    annotation of the same-named field of dataclass ``cls``."""
    bad = {}
    for f in fields(cls):
        check = _TYPE_CHECKS.get(f.type)
        if check and f.name in values and not check[0](values[f.name]):
            bad[f.name] = f"{tag}{f.name} must be {check[1]}, got {values[f.name]!r}"
    return bad


def seed_errors(seed) -> list[str]:
    """The root-seed rule: a seed is an unsigned 64-bit integer."""
    ok = _is_int(seed) and 0 <= seed < 2**64
    return [] if ok else [f"seed must be an unsigned 64-bit integer, got {seed!r}"]


def validate_config(cfg: TboConfig) -> None:
    """Check every schema constraint, raising :class:`ConfigError` with the
    full list of violations when any fail.  Wrongly typed values are
    reported on their own, before any range is checked.  The objective
    binding (name, dimension, parameters) is checked by
    :func:`~trustopt.benchmarks.get_objective`."""
    bad = list(type_errors(TboConfig, vars(cfg)).values())
    if isinstance(cfg.credibility, CredibilityConfig):
        bad += type_errors(CredibilityConfig, vars(cfg.credibility), "credibility ").values()
    for i, t in enumerate(cfg.per_agent):
        bad += type_errors(AgentTemplate, vars(t), f"per_agent[{i}]: ").values()
    if bad:
        raise ConfigError(bad)

    if cfg.algorithm not in ALGORITHMS:
        bad.append(f"algorithm must be one of {ALGORITHMS}, got {cfg.algorithm!r}")
    if cfg.agent_count < 2:
        bad.append("agent_count must be >= 2")
    try:
        get_objective(cfg.objective, cfg.dimension, **cfg.objective_params)
    except ValueError as err:
        bad.append(str(err))
    if cfg.epoch_length < 1:
        bad.append("epoch_length must be >= 1")
    if cfg.diversity_factor < 0:
        bad.append("diversity_factor must be >= 0")
    if cfg.max_steps < 1:
        bad.append("max_steps must be >= 1")
    bad += seed_errors(cfg.seed)
    if cfg.repetitions < 1:
        bad.append("repetitions must be >= 1")
    if cfg.eta_c <= 0:
        bad.append("eta_c must be > 0")
    if cfg.eta_m <= 0:
        bad.append("eta_m must be > 0")

    if cfg.algorithm == "tbo":
        c = cfg.credibility
        if c is None:
            bad.append("credibility section required for the tbo algorithm")
        else:
            if c.kind not in CREDIBILITY_KINDS:
                bad.append(f"credibility kind must be one of {CREDIBILITY_KINDS}")
            if c.min_value < 1:
                bad.append("credibility min_value must be >= 1")
            if c.max_value < c.min_value:
                bad.append("credibility max_value below min_value")
            if c.start_value < c.min_value:
                bad.append(f"credibility start below min ({c.start_value} < {c.min_value})")
            if c.start_value > c.max_value:
                bad.append(f"credibility start above max ({c.start_value} > {c.max_value})")

    if len(cfg.per_agent) not in (1, cfg.agent_count):
        bad.append(
            f"per_agent must hold 1 or agent_count={cfg.agent_count} templates, got {len(cfg.per_agent)}"
        )
    for i, t in enumerate(cfg.per_agent):
        tag = f"per_agent[{i}]"
        if t.population_size < 1:
            bad.append(f"{tag}: population_size must be >= 1")
        if t.offspring_size < 0:
            bad.append(f"{tag}: offspring_size must be >= 0")
        if not (0.0 <= t.base_crossover_rate <= 1.0):
            bad.append(f"{tag}: base_crossover_rate must lie in [0, 1]")
        if not (0.0 <= t.base_mutation_rate <= 1.0):
            bad.append(f"{tag}: base_mutation_rate must lie in [0, 1]")
        if t.genome_intensity not in GENOME_INTENSITIES:
            bad.append(f"{tag}: genome_intensity must be one of {GENOME_INTENSITIES}")
        if t.gene_op not in GENE_OPS:
            bad.append(f"{tag}: gene_op must be one of {GENE_OPS}")

    if len({(t.population_size, t.offspring_size) for t in cfg.per_agent}) > 1:
        bad.append("per_agent templates must share population_size and offspring_size; "
                   "the engine holds the society as one (N, n, D) stack")

    if bad:
        raise ConfigError(bad)


def config_to_dict(cfg: TboConfig) -> dict:
    """Plain-JSON form of a config; field names mirror the dataclass."""
    d = asdict(cfg)
    if cfg.credibility is None:
        d.pop("credibility")
    # a single shared template serialises as an object, a full list as a list
    agents = d.pop("per_agent")
    d["per_agent"] = agents[0] if len(agents) == 1 else agents
    if not d["objective_params"]:
        d.pop("objective_params")
    return d


def config_from_dict(data: dict) -> TboConfig:
    """Inverse of :func:`config_to_dict`; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError([f"config must be a JSON object, got {type(data).__name__}"])
    data = dict(data)
    unknown = set(data) - {f.name for f in fields(TboConfig)}
    bad = [f"unknown config field: {k}" for k in sorted(unknown)]
    bad += [f"missing config field: {f.name}" for f in fields(TboConfig)
            if f.default is MISSING and f.default_factory is MISSING and f.name not in data]
    if bad:
        raise ConfigError(bad)

    cred = data.get("credibility")
    if isinstance(cred, dict):
        extra = set(cred) - {f.name for f in fields(CredibilityConfig)}
        if extra:
            raise ConfigError([f"unknown credibility field: {k}" for k in sorted(extra)])
        data["credibility"] = CredibilityConfig(**cred)
    elif cred is not None:
        raise ConfigError([f"credibility must be an object or null, got {cred!r}"])
    elif "credibility" in data or data.get("algorithm", "tbo") != "tbo":
        data["credibility"] = None

    if "per_agent" in data:
        pa = data["per_agent"]
        items = [pa] if isinstance(pa, dict) else pa if isinstance(pa, (list, tuple)) else None
        if items is None or not all(isinstance(t, (dict, AgentTemplate)) for t in items):
            raise ConfigError([f"per_agent must be an object or a list of objects, got {pa!r}"])
        data["per_agent"] = tuple(_template_from_dict(t) if isinstance(t, dict) else t
                                  for t in items)

    return TboConfig(**data)


def _template_from_dict(d: dict) -> AgentTemplate:
    extra = set(d) - {f.name for f in fields(AgentTemplate)}
    if extra:
        raise ConfigError([f"unknown per_agent field: {k}" for k in sorted(extra)])
    return AgentTemplate(**d)


def load_config(path: Union[str, Path]) -> TboConfig:
    """Load, parse and validate a JSON config file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cfg = config_from_dict(data)
    validate_config(cfg)
    return cfg


def dump_config(cfg: TboConfig, path: Union[str, Path, None] = None) -> str:
    """Serialise a config to pretty JSON; optionally write it to ``path``."""
    text = json.dumps(config_to_dict(cfg), indent=2, sort_keys=False) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def with_cell(cfg: TboConfig, *, objective: str, dimension: int, max_steps: int,
              seed: int, repetitions: int) -> TboConfig:
    """Copy a preset config re-bound to one experiment cell."""
    return replace(cfg, objective=objective, dimension=dimension,
                   max_steps=max_steps, seed=seed, repetitions=repetitions)
