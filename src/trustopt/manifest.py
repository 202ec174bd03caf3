"""Experiment manifests: schema, validation and the config of each cell.

A manifest JSON names the problems (objective, dimension, step budget),
the algorithm presets to compare, the repetition count and a root seed::

    {
      "name": "desk",
      "seed": 987654321,
      "repetitions": 8,
      "record_every": 25,
      "algorithms": ["strong_leadership", "island_model"],
      "problems": [
        {"objective": "sphere", "dimension": 50, "max_steps": 2500}
      ],
      "overrides": {"offspring_size": 10, "eta_m": 20.0}
    }

The optional ``overrides`` object replaces preset EA parameters in every
cell: population_size, offspring_size, base_crossover_rate,
base_mutation_rate, epoch_length, diversity_factor, eta_c, eta_m.

This module loads no numpy; :mod:`trustopt.harness` executes the cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Union

from .config import (AgentTemplate, ConfigError, TboConfig, objective_binding, read_json,
                     seed_errors, type_errors, validate_config, with_cell)
from .presets import PRESET_NAMES, load_preset

__all__ = ["ProblemCell", "ExperimentManifest", "load_manifest", "cell_config"]


@dataclass(frozen=True)
class ProblemCell:
    objective: str
    dimension: int
    max_steps: int
    objective_params: dict = field(default_factory=dict)


# manifest "overrides" may replace these preset values in every cell
_AGENT_OVERRIDES = ("population_size", "offspring_size",
                    "base_crossover_rate", "base_mutation_rate")
_RUN_OVERRIDES = ("epoch_length", "diversity_factor", "eta_c", "eta_m")


@dataclass(frozen=True)
class ExperimentManifest:
    name: str
    seed: int
    repetitions: int
    algorithms: tuple[str, ...]
    problems: tuple[ProblemCell, ...]
    record_every: int = 1
    overrides: dict = field(default_factory=dict)
    configs: tuple = field(init=False, repr=False, compare=False)  # [problem][algorithm]

    def __post_init__(self):
        object.__setattr__(self, "configs", _cell_configs(self))


def load_manifest(path: Union[str, Path]) -> ExperimentManifest:
    """Parse and validate a manifest file."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigError([f"manifest must be a JSON object, got {type(data).__name__}"])
    unknown = set(data) - {f.name for f in fields(ExperimentManifest) if f.init}
    bad: list[str] = [f"unknown manifest field: {k}" for k in sorted(unknown)]
    wrong = type_errors(ExperimentManifest, data)
    bad += wrong.values()

    overrides = dict(data.get("overrides", {})) if "overrides" not in wrong else {}
    for k in sorted(set(overrides) - set(_AGENT_OVERRIDES) - set(_RUN_OVERRIDES)):
        bad.append(f"overrides: unknown parameter {k!r}")
    bad += type_errors(AgentTemplate, overrides, "overrides: ").values()
    bad += type_errors(TboConfig, overrides, "overrides: ").values()

    name = data.get("name", Path(path).stem)
    seed = data.get("seed", 0)
    reps = data.get("repetitions", 1)
    record_every = data.get("record_every", 1)
    if "seed" not in wrong:
        bad += seed_errors(seed)
    if "repetitions" not in wrong and reps < 1:
        bad.append("repetitions must be >= 1")
    if "record_every" not in wrong and record_every < 1:
        bad.append("record_every must be >= 1")

    algorithms = data.get("algorithms", [])
    if not isinstance(algorithms, list):
        bad.append(f"algorithms must be a list of preset names, got {algorithms!r}")
        algorithms = []
    elif not algorithms:
        bad.append("manifest needs at least one algorithm")
    for k, a in enumerate(algorithms):
        if a not in PRESET_NAMES:
            bad.append(f"unknown algorithm preset: {a!r}")
        elif a in algorithms[:k]:
            bad.append(f"duplicate algorithm preset: {a!r}")

    problems = []
    seen: dict[tuple, int] = {}  # objective and dimension name a cell's seed and files
    raw_problems = data.get("problems", [])
    if not isinstance(raw_problems, list):
        bad.append(f"problems must be a list of objects, got {raw_problems!r}")
        raw_problems = []
    elif not raw_problems:
        bad.append("manifest needs at least one problem")
    for k, p in enumerate(raw_problems):
        if not isinstance(p, dict):
            bad.append(f"problems[{k}] must be an object, got {p!r}")
            continue
        cell_bad = [f"problems[{k}]: unknown field {e!r}"
                    for e in sorted(set(p) - {f.name for f in fields(ProblemCell)})]
        cell_bad += [f"problems[{k}]: missing field {m!r}"
                     for m in ("objective", "dimension", "max_steps") if m not in p]
        cell_bad += type_errors(ProblemCell, p, f"problems[{k}]: ").values()
        bad += cell_bad
        if cell_bad:
            continue
        # a problem's own rules are checked once, not once per algorithm
        problem = ProblemCell(**p)
        label = f"problems[{k}] {problem.objective} d={problem.dimension}: "
        try:
            objective_binding(problem.objective, problem.dimension, problem.objective_params)
        except ValueError as err:
            bad.append(label + str(err))
        if problem.max_steps < 1:
            bad.append(label + "max_steps must be >= 1")
        if (first := seen.setdefault((problem.objective, problem.dimension), k)) != k:
            bad.append(label + f"duplicates problems[{first}]")
        problems.append(problem)

    if bad:
        raise ConfigError(bad)

    return ExperimentManifest(name, seed, reps, tuple(algorithms), tuple(problems),
                              record_every, overrides)


def _cell_configs(manifest: ExperimentManifest) -> tuple:
    """Every cell config, each preset parsed once; one ConfigError names every
    cell that fails (for example an override that one preset's config rejects)."""
    presets = [load_preset(a) for a in manifest.algorithms]
    bad, configs = [], []
    for problem in manifest.problems:
        configs.append([])
        for algorithm, preset in zip(manifest.algorithms, presets):
            try:
                configs[-1].append(cell_config(manifest, problem, preset))
            except (ConfigError, ValueError) as err:
                bad.append(f"{problem.objective} d={problem.dimension} / {algorithm}: {err}")
    if bad:
        raise ConfigError(bad)
    return tuple(map(tuple, configs))


def cell_config(manifest: ExperimentManifest, problem: ProblemCell,
                preset: TboConfig) -> TboConfig:
    """The validated config of one (problem x preset) cell, with the manifest's
    repetitions and overrides, under the root seed (any derived seed is a uint64)."""
    cfg = with_cell(preset, objective=problem.objective, dimension=problem.dimension,
                    max_steps=problem.max_steps, seed=manifest.seed,
                    repetitions=manifest.repetitions)
    if problem.objective_params:
        cfg = replace(cfg, objective_params=dict(problem.objective_params))
    run_kw = {k: v for k, v in manifest.overrides.items() if k in _RUN_OVERRIDES}
    agent_kw = {k: v for k, v in manifest.overrides.items() if k in _AGENT_OVERRIDES}
    cfg = replace(cfg, **run_kw, per_agent=replace(cfg.per_agent, **agent_kw))
    validate_config(cfg)
    return cfg
