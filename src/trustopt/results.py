"""Result files: trace and summary CSVs plus their naming convention.

All writers are deterministic byte for byte: fixed header order, ``\\n``
newlines, floats in shortest round-trip form (``repr``).  File names embed
the cell coordinates::

    trace_{problem}_d{dim}_{algorithm}_rep{r}.csv
    summary_{problem}_d{dim}.csv

Trace columns: ``step, agent_id, best, mean`` (one row per recorded step
and agent).  Summary columns: ``problem, dim, algorithm, repetition,
final_best, steps, seed`` (one row per run).
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .types import ConvergenceTrace

__all__ = [
    "TRACE_HEADER",
    "SUMMARY_HEADER",
    "trace_filename",
    "summary_filename",
    "parse_trace_filename",
    "write_trace_csv",
    "read_trace_csv",
    "summary_rows",
    "write_summary_csv",
    "read_summary_csv",
    "best_so_far_series",
]

TRACE_HEADER = ("step", "agent_id", "best", "mean")
SUMMARY_HEADER = ("problem", "dim", "algorithm", "repetition", "final_best", "steps", "seed")

_TRACE_RE = re.compile(r"^trace_(?P<problem>.+)_d(?P<dim>\d+)_(?P<algorithm>.+)_rep(?P<rep>\d+)\.csv$")


def trace_filename(problem: str, dim: int, algorithm: str, repetition: int) -> str:
    return f"trace_{problem}_d{dim}_{algorithm}_rep{repetition}.csv"


def summary_filename(problem: str, dim: int) -> str:
    return f"summary_{problem}_d{dim}.csv"


def parse_trace_filename(name: str) -> dict:
    """Recover (problem, dim, algorithm, rep) from a trace file name."""
    m = _TRACE_RE.match(Path(name).name)
    if not m:
        raise ValueError(f"not a trace file name: {name!r}")
    d = m.groupdict()
    return {"problem": d["problem"], "dim": int(d["dim"]),
            "algorithm": d["algorithm"], "rep": int(d["rep"])}


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace_csv(trace: ConvergenceTrace, path: Union[str, Path]) -> None:
    columns = (trace.steps.tolist(), trace.agent_ids.tolist(),
               np.asarray(trace.best, dtype=float).tolist(),
               np.asarray(trace.mean, dtype=float).tolist())
    lines = [",".join(TRACE_HEADER)]
    lines += [f"{step},{agent},{best!r},{mean!r}" for step, agent, best, mean in zip(*columns)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace_csv(path: Union[str, Path]) -> dict:
    """Read a trace CSV back into parallel numpy arrays."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header in {path}: {header or 'empty file'}")
        rows = list(reader)
    try:
        steps = np.array([int(r[0]) for r in rows], dtype=np.int64)
        agent_ids = np.array([int(r[1]) for r in rows], dtype=np.int64)
        best = np.array([float(r[2]) for r in rows])
        mean = np.array([float(r[3]) for r in rows])
    except IndexError:
        raise ValueError(f"short row in trace file {path}") from None
    except ValueError as err:
        raise ValueError(f"{err} in trace file {path}") from None
    return {"step": steps, "agent_id": agent_ids, "best": best, "mean": mean}


def summary_rows(algorithm: str, traces: Sequence[ConvergenceTrace]) -> list[tuple]:
    """Summary tuples for the runs of one (problem, algorithm) cell.  The
    problem and dimension come from the traces; ``algorithm`` is the
    column's label (a manifest's preset name), which a trace does not
    carry: its ``algorithm`` is the engine's, ``tbo`` or ``island_model``."""
    return [(tr.objective, tr.dimension, algorithm, tr.repetition, tr.global_best.fitness,
             tr.total_steps, tr.seed) for tr in traces]


def write_summary_csv(rows: Iterable[tuple], path: Union[str, Path]) -> None:
    lines = [",".join(SUMMARY_HEADER)]
    for problem, dim, algorithm, rep, final_best, steps, seed in rows:
        lines.append(f"{problem},{dim},{algorithm},{rep},{_fmt(final_best)},{steps},{seed}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SummaryRow:
    problem: str
    dim: int
    algorithm: str
    repetition: int
    final_best: float
    steps: int
    seed: int


def read_summary_csv(path: Union[str, Path]) -> list[SummaryRow]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != SUMMARY_HEADER:
            raise ValueError(f"unexpected summary header in {path}: {header or 'empty file'}")
        try:
            return [
                SummaryRow(r[0], int(r[1]), r[2], int(r[3]), float(r[4]), int(r[5]), int(r[6]))
                for r in reader
            ]
        except IndexError:
            raise ValueError(f"short row in summary file {path}") from None
        except ValueError as err:
            raise ValueError(f"{err} in summary file {path}") from None


def best_so_far_series(steps: np.ndarray, best: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse per-agent records into a best-so-far curve.

    Takes the minimum over agents at each step, then the running minimum
    over steps.  ``steps`` may repeat (one entry per agent)."""
    uniq, inverse = np.unique(steps, return_inverse=True)
    per_step = np.full(len(uniq), np.inf)
    np.minimum.at(per_step, inverse, best)
    return uniq, np.minimum.accumulate(per_step)
