"""Batch execution of experiment manifests (:mod:`trustopt.manifest`).

Every (problem x algorithm) cell derives its own run seed from the root
seed and the cell labels, so results do not depend on manifest order or on
how many workers execute them.  A problem's cells run as one lockstep
group (:func:`~trustopt.engine.run_cells`), each giving the bytes it gives
alone; one pool task runs one problem, so ``jobs`` parallelises over
problems.  One trace CSV is written per repetition, one summary CSV per
problem.
"""

from __future__ import annotations

import importlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Optional, Union

from .config import ConfigError, seed_errors
from .engine import run_cells, run_repetitions  # noqa: F401
from .manifest import ExperimentManifest, ProblemCell  # noqa: F401
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

# run_repetitions, best_so_far_series, read_trace_csv, read_summary_csv and
# the three _LAZY names (imported on first access, PEP 562, so that a run
# loads neither stats nor svgchart) are unused here: the benchmark tracer
# (perfbench/tracer.py) looks them up on this module by name.
_LAZY = {"compare_groups": "stats", "summarize": "stats", "render_convergence_svg": "svgchart"}

__all__ = ["run_manifest"]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)


def _cell_configs(manifest: ExperimentManifest, k: int, root: int) -> list:
    """Problem ``k``'s cell configs under the run seeds derived from ``root``."""
    p = manifest.problems[k]
    return [replace(cfg, seed=derive_run_seed(root, p.objective, p.dimension, a))
            for a, cfg in zip(manifest.algorithms, manifest.configs[k])]


def _run_cell(args: tuple) -> list[tuple]:
    """Execute every algorithm cell of one problem, as one lockstep group,
    and write their trace files.

    Standalone so process pools can pickle it; returns the problem's
    summary rows, algorithm by algorithm.
    """
    manifest, k, root, out_dir, record_every = args
    problem, cfgs = manifest.problems[k], _cell_configs(manifest, k, root)
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
    root = manifest.seed if seed is None else seed
    if bad := seed_errors(root):
        raise ConfigError(bad)
    every = manifest.record_every if record_every is None else record_every
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tasks = [(manifest, k, root, str(out), every) for k in range(len(manifest.problems))]
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

