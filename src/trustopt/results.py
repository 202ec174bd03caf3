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
import math
import re
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:  # types imports numpy, which reading and plotting do not need
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
    "mean_curve",
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
               trace.best.tolist(), trace.mean.tolist())
    lines = [",".join(TRACE_HEADER)]
    lines += [f"{step},{agent},{best!r},{mean!r}" for step, agent, best, mean in zip(*columns)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_rows(path: Union[str, Path], header: tuple, kind: str) -> list[list[str]]:
    """The data rows of a CSV whose first row must be ``header``; every row
    must have as many fields as the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = tuple(next(reader, ()))
        if found != header:
            raise ValueError(f"unexpected {kind} header in {path}: {found or 'empty file'}")
        rows = list(reader)
    for k, r in enumerate(rows, 1):
        if len(r) != len(header):
            raise ValueError(f"row {k} has {len(r)} fields, not {len(header)}, "
                             f"in {kind} file {path}")
    return rows


def read_trace_csv(path: Union[str, Path]) -> dict:
    """Read a trace CSV back into parallel ``array.array`` columns: ``step``
    and ``agent_id`` as 64-bit integers, ``best`` and ``mean`` as doubles.
    A trace without data rows is an error: every run records at least its
    last step."""
    rows = _read_rows(path, TRACE_HEADER, "trace")
    if not rows:
        raise ValueError(f"no data rows in trace file {path}")
    try:
        return {"step": array("q", [int(r[0]) for r in rows]),
                "agent_id": array("q", [int(r[1]) for r in rows]),
                "best": array("d", [float(r[2]) for r in rows]),
                "mean": array("d", [float(r[3]) for r in rows])}
    except (ValueError, OverflowError) as err:
        raise ValueError(f"{err} in trace file {path}") from None


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
    rows = _read_rows(path, SUMMARY_HEADER, "summary")
    try:
        return [SummaryRow(r[0], int(r[1]), r[2], int(r[3]), float(r[4]), int(r[5]), int(r[6]))
                for r in rows]
    except ValueError as err:
        raise ValueError(f"{err} in summary file {path}") from None


def _minimum(a: float, b: float) -> float:
    """``numpy.minimum`` of two floats: a NaN wins, and of two equal values
    (``0.0`` and ``-0.0``) the second is returned."""
    return a if a < b or a != a else b


def best_so_far_series(steps: Sequence[int], best: Sequence[float]) -> tuple[array, array]:
    """Collapse per-agent records into a best-so-far curve.

    Takes the minimum over agents at each step, then the running minimum
    over steps, and returns the distinct steps in ascending order
    (``array("q")``) with the curve (``array("d")``).  ``steps`` may repeat
    (one entry per agent) and come in any order; a NaN propagates, as
    under ``numpy.minimum``."""
    per_step: dict[int, float] = {}
    for s, v in zip(steps, best):
        per_step[s] = _minimum(per_step.get(s, math.inf), v)
    uniq = sorted(per_step)
    curve, run = array("d"), math.inf
    for s in uniq:
        run = _minimum(run, per_step[s])
        curve.append(run)
    return array("q", uniq), curve


def mean_curve(curves: Sequence[Sequence[float]]) -> list[float]:
    """The pointwise mean of equally long curves: a left-to-right sum from
    ``0.0``, divided by the number of curves.  This is how
    ``numpy.mean(curves, axis=0)`` computes it for curves of two or more
    points; for one-point curves numpy sums eight or more values pairwise,
    so the last bit can differ."""
    sums = [0.0] * len(curves[0])
    for curve in curves:
        sums = [a + b for a, b in zip(sums, curve)]
    return [a / len(curves) for a in sums]
