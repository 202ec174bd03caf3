"""Output checks: which (problem, algorithm) cells produced wrong output.

A cell fails when any file it contributes to is missing, malformed or
wrong.  Trace files belong to one cell; a summary or chart belongs to every
cell of its problem; the stats reports belong to every cell.  The share of
failed cells is the benchmark's ``failed_share``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from workloads import Workload

STATS_FILES = ("stats_omnibus.csv", "stats_pairwise.csv", "stats_vs_baseline.csv",
               "stats_report.txt")
SUMMARY_HEADER = ["problem", "dim", "algorithm", "repetition", "final_best", "steps", "seed"]
TRACE_HEADER = ["step", "agent_id", "best", "mean"]


def file_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in ``out_dir``, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def tree_hash(hashes: dict[str, str]) -> str:
    """One sha256 over all output files (names and contents)."""
    h = hashlib.sha256()
    for name in sorted(hashes):
        h.update(f"{name}\0{hashes[name]}\n".encode())
    return h.hexdigest()


class OutputCheck:
    """Checks one output directory of a workload.

    ``objective_facts`` maps ``(objective, dim)`` to ``(noisy, optimum)``
    with ``optimum`` None when unknown; the caller takes them from the
    package's objective registry.
    """

    def __init__(self, workload: Workload, objective_facts: dict):
        self.w = workload
        self.facts = objective_facts
        self.failed: set[tuple[str, int, str]] = set()
        self.problems: list[str] = []

    # -- bookkeeping -------------------------------------------------------

    def _fail_cell(self, cell, why: str) -> None:
        self.failed.add(cell)
        self.problems.append(f"{cell[0]} d={cell[1]} {cell[2]}: {why}")

    def _fail_problem(self, objective: str, dim: int, why: str) -> None:
        for a in self.w.algorithms:
            self.failed.add((objective, dim, a))
        self.problems.append(f"{objective} d={dim}: {why}")

    def _fail_all(self, why: str) -> None:
        for o, d in self.w.problems:
            for a in self.w.algorithms:
                self.failed.add((o, d, a))
        self.problems.append(why)

    def _cells_of(self, name: str) -> list[tuple[str, int, str]]:
        """The cells an output file belongs to."""
        for o, d in self.w.problems:
            if name in (f"summary_{o}_d{d}.csv", f"convergence_{o}_d{d}.svg"):
                return [(o, d, a) for a in self.w.algorithms]
            for a in self.w.algorithms:
                if name.startswith(f"trace_{o}_d{d}_{a}_rep"):
                    return [(o, d, a)]
        return [(o, d, a) for o, d in self.w.problems for a in self.w.algorithms]

    # -- checks ------------------------------------------------------------

    def run_outputs(self, out: Path) -> None:
        """Summaries and traces, as ``trustopt run`` leaves them."""
        for o, d in self.w.problems:
            self._summary(out / f"summary_{o}_d{d}.csv", o, d)
            for a in self.w.algorithms:
                for r in range(self.w.repetitions):
                    self._trace(out / f"trace_{o}_d{d}_{a}_rep{r}.csv", (o, d, a))

    def report_outputs(self, out: Path) -> None:
        """Stats reports and charts, as ``trustopt stats`` and ``plot`` leave them."""
        missing = [f for f in STATS_FILES if not (out / f).is_file()]
        if missing:
            self._fail_all(f"missing stats files {missing}")
            return
        try:
            with open(out / "stats_omnibus.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
        except (OSError, UnicodeDecodeError, csv.Error) as err:
            self._fail_all(f"stats_omnibus.csv unreadable: {err}")
            return
        keys = [(r[0], r[1]) for r in rows if len(r) >= 2]
        for o, d in self.w.problems:
            if keys.count((o, str(d))) != 1:
                self._fail_problem(o, d, f"{keys.count((o, str(d)))} omnibus rows, want 1")
        if len(rows) != len(self.w.problems):
            self._fail_all(f"{len(rows)} omnibus rows for {len(self.w.problems)} problems")
        svgs = sorted(p.name for p in out.glob("convergence_*.svg"))
        if len(svgs) != len(self.w.problems):
            self._fail_all(f"{len(svgs)} charts for {len(self.w.problems)} problems")
        for o, d in self.w.problems:
            svg = out / f"convergence_{o}_d{d}.svg"
            if not svg.is_file():
                self._fail_problem(o, d, "chart missing")
                continue
            text = svg.read_text(encoding="utf-8", errors="replace")
            if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
                self._fail_problem(o, d, "chart is not a complete SVG")

    def same_bytes(self, hashes: dict[str, str], reference: dict[str, str]) -> None:
        """Every output file must hash as in the reference run."""
        for name in sorted(set(hashes) | set(reference)):
            if hashes.get(name) != reference.get(name):
                for cell in self._cells_of(name):
                    self.failed.add(cell)
                self.problems.append(f"{name}: bytes differ from the reference run")

    def _summary(self, path: Path, o: str, d: int) -> None:
        if not path.is_file():
            self._fail_problem(o, d, "summary missing")
            return
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except (OSError, UnicodeDecodeError, csv.Error) as err:
            self._fail_problem(o, d, f"summary unreadable: {err}")
            return
        if not rows or rows[0] != SUMMARY_HEADER:
            self._fail_problem(o, d, "summary header wrong")
            return
        noisy, optimum = self.facts[(o, d)]
        seen: dict[tuple[str, int], int] = {}
        for row in rows[1:]:
            try:
                problem, dim, alg, rep, best, steps = (row[0], int(row[1]), row[2],
                                                       int(row[3]), float(row[4]), int(row[5]))
            except (IndexError, ValueError):
                self._fail_problem(o, d, f"malformed summary row {row!r}")
                continue
            cell = (o, d, alg)
            if (problem, dim) != (o, d) or alg not in self.w.algorithms:
                self._fail_problem(o, d, f"unexpected summary row {row!r}")
                continue
            seen[(alg, rep)] = seen.get((alg, rep), 0) + 1
            if not math.isfinite(best):
                self._fail_cell(cell, f"final_best {best} is not finite")
            elif not noisy and optimum is not None and best < optimum:
                self._fail_cell(cell, f"final_best {best} below the optimum {optimum}")
            if steps != self.w.max_steps:
                self._fail_cell(cell, f"summary says {steps} steps, want {self.w.max_steps}")
        for a in self.w.algorithms:
            for r in range(self.w.repetitions):
                if seen.get((a, r)) != 1:
                    self._fail_cell((o, d, a), f"{seen.get((a, r), 0)} summary rows for rep {r}")

    def _trace(self, path: Path, cell) -> None:
        if not path.is_file():
            self._fail_cell(cell, f"{path.name} missing")
            return
        noisy, _ = self.facts[cell[:2]]
        last: dict[int, tuple[int, float]] = {}
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                if next(reader, None) != TRACE_HEADER:
                    self._fail_cell(cell, f"{path.name}: header wrong")
                    return
                n = 0
                for row in reader:
                    step, agent, best = int(row[0]), int(row[1]), float(row[2])
                    n += 1
                    if not math.isfinite(best):
                        self._fail_cell(cell, f"{path.name}: non-finite best at step {step}")
                        return
                    prev = last.get(agent)
                    if prev is not None and (step <= prev[0] or (not noisy and best > prev[1])):
                        self._fail_cell(cell, f"{path.name}: agent {agent} best rises "
                                              f"or steps go back at step {step}")
                        return
                    last[agent] = (step, best)
        except (OSError, UnicodeDecodeError, csv.Error, IndexError, ValueError) as err:
            self._fail_cell(cell, f"{path.name} unreadable: {err}")
            return
        # presets start at step 1 and manifests cannot move it
        if n == 0 or any(s != self.w.max_steps for s, _ in last.values()):
            self._fail_cell(cell, f"{path.name}: does not end at the last step")
