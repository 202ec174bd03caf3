"""Run configuration: schema, validation and JSON round-trip.

A :class:`TboConfig` fully describes one run (or its repetitions): the
society size, objective binding, epoch clock, credibility model, the
agent template (EA and interaction parameters shared by every agent) and
the EA operator constants.
``validate_config`` collects every violation instead of stopping at the
first one.

The objective registry table (:data:`OBJECTIVES`) lives here too, so
checking a config or a manifest loads no numpy.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from array import array
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

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
GENOME_INTENSITIES = ("weak", "moderate", "strong")
GENE_OPS = ("swap", "average")
CREDIBILITY_KINDS = ("trust", "reputation")


def finite_real(v) -> bool:
    """True for a finite real number that is not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


class _Row(NamedTuple):
    """One registered objective and everything a valid binding must meet."""

    function: str  # the name of its function in trustopt.benchmarks
    half_width: float  # search box [-half_width, half_width]^D
    min_dimension: int = 1
    # accepted parameters and their defaults (a callable default takes D);
    # noise_sigma sets the evaluation noise, the others are keywords of the function
    params: dict = {}
    optimum_value: Optional[float] = None


OBJECTIVES = {
    "sphere": _Row("sphere", 100.0, optimum_value=0.0),
    "griewank": _Row("griewank", 600.0, optimum_value=0.0),
    "rastrigin": _Row("rastrigin", 5.12, optimum_value=0.0),
    "expanded_schaffer": _Row("expanded_schaffer", 100.0, 2, optimum_value=0.0),
    "schwefel_noise": _Row("schwefel_noisy", 500.0, params={"noise_sigma": lambda d: 0.01 * d}),
    "lennard_jones": _Row("lennard_jones", 3.0, 6, params={"a": 1.0, "b": 2.0}),
}


def objective_binding(name: str, dimension: int, params: dict) -> tuple:
    """Check a binding against the registry table, the one owner of the
    rules, and return its row, keyword parameters, noise sigma and search
    box upper corner (``array("d")``).  A rejected binding raises
    ``ValueError``, and so does a box larger in bytes than the largest
    index; a box that memory cannot hold raises ``MemoryError``."""
    row = OBJECTIVES.get(name)
    if row is None:
        raise ValueError(f"unknown objective: {name!r}")
    if dimension < row.min_dimension:
        raise ValueError(f"objective {name!r} needs dimension >= {row.min_dimension}, "
                         f"got {dimension}")
    extra = set(params) - set(row.params)
    if extra:
        raise ValueError(f"objective {name!r} does not accept parameters {sorted(extra)}")
    for key, value in params.items():
        if not finite_real(value):
            raise ValueError(f"objective {name!r} parameter {key!r} must be a finite number, "
                             f"got {value!r}")
    bound = {k: float(params[k]) if k in params else float(d(dimension) if callable(d) else d)
             for k, d in row.params.items()}
    sigma = bound.pop("noise_sigma", 0.0)
    if sigma < 0:
        raise ValueError(f"objective {name!r} parameter 'noise_sigma' must be >= 0, got {sigma!r}")
    if dimension > sys.maxsize // 8:
        raise ValueError(f"objective {name!r} dimension {dimension} is too large for a search box")
    try:
        return row, bound, sigma, array("d", [row.half_width]) * dimension
    except MemoryError:
        raise MemoryError(f"no memory for the {dimension}-gene search box of {name!r}") from None


class ConfigError(ValueError):
    """Carries every validation violation found in one pass."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class AgentTemplate:
    """EA and interaction parameters shared by every agent of a run; agents
    differ only through the diversity factor, which scales their rates."""

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
    per_agent: AgentTemplate = AgentTemplate()
    objective_params: dict = field(default_factory=dict)
    # SBX and polynomial-mutation distribution indices, shared by every agent
    eta_c: float = 20.0
    eta_m: float = 40.0


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# field annotation, as written in the dataclasses -> (check, what is required)
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (finite_real, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "a mapping"),
    "AgentTemplate": (lambda v: isinstance(v, AgentTemplate), "one AgentTemplate"),
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
    :func:`objective_binding`."""
    bad = list(type_errors(TboConfig, vars(cfg)).values())
    if isinstance(cfg.credibility, CredibilityConfig):
        bad += type_errors(CredibilityConfig, vars(cfg.credibility), "credibility ").values()
    if isinstance(cfg.per_agent, AgentTemplate):
        bad += type_errors(AgentTemplate, vars(cfg.per_agent), "per_agent: ").values()
    if bad:
        raise ConfigError(bad)

    if cfg.algorithm not in ALGORITHMS:
        bad.append(f"algorithm must be one of {ALGORITHMS}, got {cfg.algorithm!r}")
    if cfg.agent_count < 2:
        bad.append("agent_count must be >= 2")
    try:
        objective_binding(cfg.objective, cfg.dimension, cfg.objective_params)
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

    t = cfg.per_agent
    if t.population_size < 1:
        bad.append("per_agent: population_size must be >= 1")
    if t.offspring_size < 0:
        bad.append("per_agent: offspring_size must be >= 0")
    if not (0.0 <= t.base_crossover_rate <= 1.0):
        bad.append("per_agent: base_crossover_rate must lie in [0, 1]")
    if not (0.0 <= t.base_mutation_rate <= 1.0):
        bad.append("per_agent: base_mutation_rate must lie in [0, 1]")
    if t.genome_intensity not in GENOME_INTENSITIES:
        bad.append(f"per_agent: genome_intensity must be one of {GENOME_INTENSITIES}")
    if t.gene_op not in GENE_OPS:
        bad.append(f"per_agent: gene_op must be one of {GENE_OPS}")

    if bad:
        raise ConfigError(bad)


def config_to_dict(cfg: TboConfig) -> dict:
    """Plain-JSON form of a config; field names mirror the dataclass."""
    d = asdict(cfg)
    if cfg.credibility is None:
        d.pop("credibility")
    d["per_agent"] = d.pop("per_agent")  # dumps keep the key order they have always had
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

    pa = data.get("per_agent")
    if isinstance(pa, dict):
        extra = set(pa) - {f.name for f in fields(AgentTemplate)}
        if extra:
            raise ConfigError([f"unknown per_agent field: {k}" for k in sorted(extra)])
        data["per_agent"] = AgentTemplate(**pa)
    elif "per_agent" in data and not isinstance(pa, AgentTemplate):
        raise ConfigError([f"per_agent must be an object, got {pa!r}"])

    return TboConfig(**data)


def read_json(path: Union[str, Path]):
    """The JSON value in ``path``; malformed JSON raises a ``ValueError`` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as err:
            why = "JSON nested too deeply to parse" if isinstance(err, RecursionError) else err
            raise ValueError(f"{path}: {why}") from None


def load_config(path: Union[str, Path]) -> TboConfig:
    """Load, parse and validate a JSON config file."""
    cfg = config_from_dict(read_json(path))
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
