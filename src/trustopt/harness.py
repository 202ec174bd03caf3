"""Experiment manifests and batch execution.

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

Every (problem x algorithm) cell derives its own run seed from the root
seed and the cell labels, so results do not depend on manifest order or on
how many workers execute them.  A problem's cells run as one lockstep
group (:func:`~trustopt.engine.run_cells`), each giving the bytes it gives
alone; one pool task runs one problem, so ``jobs`` parallelises over
problems.  One trace CSV is written per repetition, one summary CSV per
problem.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .benchmarks import get_objective
from .config import (
    AgentTemplate,
    ConfigError,
    TboConfig,
    seed_errors,
    type_errors,
    validate_config,
    with_cell,
)
from .engine import run_cells, run_repetitions  # noqa: F401
from .presets import PRESET_NAMES, load_preset
from .results import (  # noqa: F401
    best_so_far_series,
    read_summary_csv,
    read_trace_csv,
    summary_filename,
    summary_rows,
    trace_filename,
    write_summary_csv,
    write_trace_csv,
)
from .rng import derive_run_seed
from .stats import SampleGroup, compare_groups, summarize
from .svgchart import render_convergence_svg  # noqa: F401

# run_repetitions, best_so_far_series, read_trace_csv and
# render_convergence_svg are unused here: the benchmark tracer
# (perfbench/tracer.py) looks them up on this module by name.

__all__ = [
    "ProblemCell",
    "ExperimentManifest",
    "load_manifest",
    "run_manifest",
    "write_stats_reports",
    "BASELINE_ALGORITHM",
]

BASELINE_ALGORITHM = "island_model"


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


def load_manifest(path: Union[str, Path]) -> ExperimentManifest:
    """Parse and validate a manifest file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError([f"manifest must be a JSON object, got {type(data).__name__}"])
    unknown = set(data) - {f.name for f in fields(ExperimentManifest)}
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
        # a problem's own rules are checked once, not once per algorithm, and
        # before any cell seed is derived from its dimension
        problem = ProblemCell(**p)
        label = f"problems[{k}] {problem.objective} d={problem.dimension}: "
        try:
            get_objective(problem.objective, problem.dimension, **problem.objective_params)
        except ValueError as err:
            bad.append(label + str(err))
        if problem.max_steps < 1:
            bad.append(label + "max_steps must be >= 1")
        if (first := seen.setdefault((problem.objective, problem.dimension), k)) != k:
            bad.append(label + f"duplicates problems[{first}]")
        problems.append(problem)

    if bad:
        raise ConfigError(bad)

    manifest = ExperimentManifest(name, seed, reps, tuple(algorithms), tuple(problems),
                                  record_every, overrides)
    validate_manifest_cells(manifest)
    return manifest


def validate_manifest_cells(manifest: ExperimentManifest) -> None:
    """Build every cell config once; surfaces per-cell violations (for
    example an override that one preset's configuration rejects)."""
    bad: list[str] = []
    for problem in manifest.problems:
        for algorithm in manifest.algorithms:
            try:
                _cell_config(manifest, problem, algorithm)
            except (ConfigError, ValueError) as err:
                bad.append(f"{problem.objective} d={problem.dimension} / {algorithm}: {err}")
    if bad:
        raise ConfigError(bad)


def _cell_config(manifest: ExperimentManifest, problem: ProblemCell, algorithm: str):
    cfg = with_cell(
        load_preset(algorithm),
        objective=problem.objective,
        dimension=problem.dimension,
        max_steps=problem.max_steps,
        seed=derive_run_seed(manifest.seed, problem.objective, problem.dimension, algorithm),
        repetitions=manifest.repetitions,
    )
    if problem.objective_params:
        cfg = replace(cfg, objective_params=dict(problem.objective_params))
    if manifest.overrides:
        run_kw = {k: v for k, v in manifest.overrides.items() if k in _RUN_OVERRIDES}
        agent_kw = {k: v for k, v in manifest.overrides.items() if k in _AGENT_OVERRIDES}
        if run_kw:
            cfg = replace(cfg, **run_kw)
        if agent_kw:
            cfg = replace(cfg, per_agent=replace(cfg.per_agent, **agent_kw))
    validate_config(cfg)
    return cfg


def _run_cell(args: tuple) -> list[tuple]:
    """Execute every algorithm cell of one problem, as one lockstep group,
    and write their trace files.

    Standalone so process pools can pickle it; returns the problem's
    summary rows, algorithm by algorithm.
    """
    manifest, problem, out_dir, record_every = args
    cfgs = [_cell_config(manifest, problem, a) for a in manifest.algorithms]
    out, rows = Path(out_dir), []
    for algorithm, traces in zip(manifest.algorithms, run_cells(cfgs, record_every=record_every)):
        for tr in traces:
            write_trace_csv(tr, out / trace_filename(problem.objective, problem.dimension,
                                                     algorithm, tr.repetition))
        rows += summary_rows(algorithm, traces)
    return rows


def run_manifest(
    manifest: ExperimentManifest,
    out_dir: Union[str, Path],
    *,
    jobs: int = 1,
    seed: Optional[int] = None,
    record_every: Optional[int] = None,
) -> list[Path]:
    """Execute every cell of a manifest and write traces plus summaries.

    ``seed`` overrides the manifest root seed (under the same rule, checked
    before anything is written), ``record_every`` its trace downsampling.
    ``jobs > 1`` runs problems in a process pool; outputs are identical
    either way.  Returns the written summary paths.
    """
    if seed is not None:
        manifest = replace(manifest, seed=seed)
    if bad := seed_errors(manifest.seed):
        raise ConfigError(bad)
    every = manifest.record_every if record_every is None else record_every
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tasks = [(manifest, problem, str(out), every) for problem in manifest.problems]
    if jobs > 1:
        # a forking pool starts all its workers at the first submit, so ask
        # for no more than there are problems
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            rows_per_problem = list(pool.map(_run_cell, tasks))
    else:
        rows_per_problem = [_run_cell(task) for task in tasks]

    paths = []
    for problem, rows in zip(manifest.problems, rows_per_problem):
        path = out / summary_filename(problem.objective, problem.dimension)
        write_summary_csv(rows, path)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# statistics reports

_OMNIBUS_HEADER = "problem,dim,h_statistic,p_value,df,degenerate"
_PAIRWISE_HEADER = "problem,dim,group_a,group_b,z,raw_p,adjusted_p,significant"
_BASELINE_HEADER = "problem,dim,algorithm,adjusted_p"


def _collect_groups(rows) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for r in rows:
        groups.setdefault(r.algorithm, []).append(r.final_best)
    return groups


def write_stats_reports(
    summary_paths: Sequence[Union[str, Path]],
    out_dir: Union[str, Path],
    alpha: float = 0.01,
    baseline: str = BASELINE_ALGORITHM,
) -> list[Path]:
    """Produce the comparison reports for a set of summary CSVs.

    Writes four files into ``out_dir``: ``stats_omnibus.csv`` (one
    Kruskal-Wallis row per problem), ``stats_pairwise.csv`` (every Dunn
    pair with Holm-adjusted p-values), ``stats_vs_baseline.csv`` (the
    algorithms not significantly different from the baseline at ``alpha``)
    and ``stats_report.txt`` (the same content as aligned text).  Every
    summary is read, and must be the only one of its (problem, dim) and
    hold at least 2 algorithms, before anything is written.
    """
    tables, seen = [], {}
    for path in summary_paths:
        rows = read_summary_csv(path)
        if not rows:
            raise ValueError(f"empty summary: {path}")
        key = (rows[0].problem, rows[0].dim)
        if key in seen:
            raise ValueError(f"duplicate summary for {key[0]} d={key[1]}: {seen[key]} and {path}")
        seen[key] = path
        groups = _collect_groups(rows)
        if len(groups) < 2:
            raise ValueError(f"summary {path} holds fewer than 2 algorithms")
        tables.append((key, groups))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    omnibus_lines = [_OMNIBUS_HEADER]
    pairwise_lines = [_PAIRWISE_HEADER]
    baseline_lines = [_BASELINE_HEADER]
    text: list[str] = []

    for (problem, dim), groups in tables:
        sample = [SampleGroup(k, np.array(v)) for k, v in groups.items()]
        report = compare_groups(sample, alpha)
        stats_rows = summarize(sample) if min(len(v) for v in groups.values()) >= 2 else None

        omnibus_lines.append(
            f"{problem},{dim},{report.statistic!r},{report.p_value!r},{report.df},"
            f"{'true' if report.degenerate else 'false'}"
        )
        text.append(f"== {problem} (D={dim}) ==")
        if stats_rows is not None:
            text.append(f"  {'algorithm':<20} {'mean':>14} {'sd':>14} {'n':>4}")
            for label, mean, sd, n in stats_rows:
                text.append(f"  {label:<20} {mean:>14.6g} {sd:>14.6g} {n:>4}")
        text.append(f"  Kruskal-Wallis H = {report.statistic:.6g}, "
                    f"p = {report.p_value:.6g} (df = {report.df})"
                    + ("  [degenerate]" if report.degenerate else ""))
        text.append(f"  {'pair':<42} {'z':>10} {'raw p':>12} {'adj p':>12}  sig")
        ties = []
        for c in report.pairwise:
            pairwise_lines.append(
                f"{problem},{dim},{c.group_a},{c.group_b},{c.z!r},{c.raw_p!r},"
                f"{c.adjusted_p!r},{'true' if c.significant else 'false'}"
            )
            pair = f"{c.group_a} vs {c.group_b}"
            text.append(f"  {pair:<42} {c.z:>10.4f} {c.raw_p:>12.4g} "
                        f"{c.adjusted_p:>12.4g}  {'*' if c.significant else '-'}")
            if baseline in (c.group_a, c.group_b) and not c.significant:
                other = c.group_b if c.group_a == baseline else c.group_a
                ties.append((other, c.adjusted_p))
        for other, adj in ties:
            baseline_lines.append(f"{problem},{dim},{other},{adj!r}")
        if ties:
            text.append(f"  not significantly different from {baseline} at alpha={alpha:g}: "
                        + ", ".join(o for o, _ in ties))
        else:
            text.append(f"  every algorithm differs from {baseline} at alpha={alpha:g}")
        text.append("")

    written = []
    for fname, lines in (
        ("stats_omnibus.csv", omnibus_lines),
        ("stats_pairwise.csv", pairwise_lines),
        ("stats_vs_baseline.csv", baseline_lines),
    ):
        p = out / fname
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(p)
    p = out / "stats_report.txt"
    p.write_text("\n".join(text) + "\n", encoding="utf-8")
    written.append(p)
    return written
