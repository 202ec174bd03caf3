"""Spans around the package's public functions, taken from outside it.

Nothing in ``trustopt`` knows about tracing.  A :class:`Tracer` replaces a
function with a timing wrapper at the place its caller looks the name up
(modules import names directly, so ``trustopt.engine.ea_step_all`` is
patched, not ``trustopt.ea.ea_step_all``) and puts the original back when
the ``installed`` block ends.  Spans stay in memory as parallel lists
(name, start, end, parent) and are written out once the run is over.

Three target sets exist:

* :func:`count_targets` -- objective evaluations only (the genome count
  ``evals_per_s`` divides by);
* :func:`cell_targets` -- ``run_manifest`` and one span per cell, also
  across the ``--jobs`` process pool (untraced otherwise);
* :func:`full_targets` -- every layer the benchmark reports.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span store.  Not thread-safe; the traced run is serial."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` with a span per call; ``attrs(args, result)`` adds details."""
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if attrs is not None:
                self.attrs[idx] = attrs(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span measured elsewhere (a pool worker), under the open span."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(self._stack[-1])

    # -- reading -------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(len(dur))
        parents = np.array(self.parents, dtype=np.int64)
        inner = parents >= 0
        np.add.at(child, parents[inner], dur[inner])
        out: dict[str, float] = {}
        for name, own in zip(self.names, dur - child):
            out[name] = out.get(name, 0.0) + float(own)
        return out

    def write(self, path: Path) -> None:
        """Spans as CSV: id, parent, name, start and end in microseconds."""
        t0 = min(self.starts, default=0.0)
        lines = ["id,parent,name,start_us,end_us"]
        for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
            lines.append(f"{i},{p},{n},{(s - t0) * 1e6:.1f},{(e - t0) * 1e6:.1f}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@contextmanager
def installed(targets):
    """Apply ``(owner, attribute, replacement)`` patches for one block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- span details -------------------------------------------------------------

def _genomes(args, result) -> dict:
    spec, genes = args[0], args[1]
    shape = np.shape(genes)
    return {"genomes": int(np.prod(shape[:-1])) if len(shape) > 1 else 1,
            "objective": spec.name}


def _values(args, result) -> dict:
    return {"values": int(np.size(result))}


def _interaction(args, result) -> dict:
    return {"intensity": args[0].crossover_config.genome_intensity,
            "accepted": bool(result.accepted), "improved": bool(result.improved)}


def _rows_written(args, result) -> dict:
    return {"rows": len(args[0].steps), "bytes": os.path.getsize(args[1])}


def _bytes_written(args, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _rows_read(args, result) -> dict:
    return {"rows": len(result["step"])}


class TracedGenerator:
    """A numpy Generator whose draws are spans; everything else forwards."""

    _DRAWS = ("integers", "random", "normal", "uniform")

    def __init__(self, gen: np.random.Generator, tracer: Tracer):
        self._gen = gen
        for m in self._DRAWS:
            setattr(self, m, tracer.wrap(getattr(gen, m), "rng.draw", _values))

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _timed_call(fn, arg):
    """Run one pool task in a worker and bring its own start and end back."""
    start = perf_counter()
    result = fn(arg)
    return result, start, perf_counter()


class _CellTimingPool(ProcessPoolExecutor):
    """The harness's process pool, with a ``harness.cell`` span per task."""

    def __init__(self, tracer: Tracer, max_workers: int):
        super().__init__(max_workers=max_workers)
        self._tracer = tracer

    def map(self, fn, *iterables, **kwargs):
        for result, start, end in super().map(functools.partial(_timed_call, fn),
                                              *iterables, **kwargs):
            self._tracer.record("harness.cell", start, end)
            yield result


# -- target sets ----------------------------------------------------------------

def count_targets(tracer: Tracer):
    from trustopt.benchmarks import ObjectiveSpec

    return [(ObjectiveSpec, "base", tracer.wrap(ObjectiveSpec.base, "benchmarks.base", _genomes))]


def cell_targets(tracer: Tracer, jobs: int):
    import trustopt.cli as cli
    import trustopt.harness as harness

    targets = [(cli, "run_manifest", tracer.wrap(cli.run_manifest, "harness.run_manifest"))]
    if jobs > 1:
        # the pool pickles _run_cell by name, so it must stay unwrapped here
        targets.append((harness, "ProcessPoolExecutor",
                        functools.partial(_CellTimingPool, tracer)))
    else:
        targets.append((harness, "_run_cell", tracer.wrap(harness._run_cell, "harness.cell")))
    return targets


def full_targets(tracer: Tracer):
    """Every layer, for a serial (``--jobs 1``) run driven through ``cli.main``."""
    import trustopt.cli as cli
    import trustopt.engine as engine
    import trustopt.harness as harness

    w = tracer.wrap
    agent_stream = engine.agent_stream

    def traced_stream(*args, **kwargs):
        return TracedGenerator(agent_stream(*args, **kwargs), tracer)

    return count_targets(tracer) + [
        (cli, "load_manifest", w(cli.load_manifest, "harness.load_manifest")),
        (cli, "run_manifest", w(cli.run_manifest, "harness.run_manifest")),
        (cli, "write_stats_reports", w(cli.write_stats_reports, "harness.write_stats_reports")),
        (cli, "write_plots", w(cli.write_plots, "harness.write_plots")),
        (harness, "_run_cell", w(harness._run_cell, "harness.cell")),
        (harness, "run_repetitions", w(harness.run_repetitions, "engine.run")),
        (harness, "write_trace_csv", w(harness.write_trace_csv, "results.write_trace",
                                       _rows_written)),
        (harness, "write_summary_csv", w(harness.write_summary_csv, "results.write_summary",
                                         _bytes_written)),
        (harness, "read_trace_csv", w(harness.read_trace_csv, "results.read_trace", _rows_read)),
        (harness, "read_summary_csv", w(harness.read_summary_csv, "results.read_summary")),
        (harness, "best_so_far_series", w(harness.best_so_far_series, "results.best_so_far")),
        (harness, "compare_groups", w(harness.compare_groups, "stats.compare")),
        (harness, "summarize", w(harness.summarize, "stats.summarize")),
        (harness, "render_convergence_svg", w(harness.render_convergence_svg, "svgchart.render")),
        (engine, "ea_step_all", w(engine.ea_step_all, "ea.step_all")),
        (engine, "ea_step", w(engine.ea_step, "ea.step")),
        (engine, "advance_step", w(engine.advance_step, "engine.epoch_step")),
        (engine, "interaction_step", w(engine.interaction_step, "socio.interaction",
                                       _interaction)),
        (engine, "agent_stream", traced_stream),
    ]


# -- per-layer metrics ------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def genome_count(tracer: Tracer) -> int:
    return sum(a.get("genomes", 0) for a in tracer.attrs.values())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer numbers of one fully traced run (run + stats + plot)."""
    from trustopt.types import GENOME_INTENSITIES

    names, attrs = tracer.names, tracer.attrs
    own = tracer.self_times()
    total = {}
    count = {}
    for n, s, e in zip(names, tracer.starts, tracer.ends):
        total[n] = total.get(n, 0.0) + (e - s)
        count[n] = count.get(n, 0) + 1

    def of(name):
        return [(i, a) for i, a in attrs.items() if names[i] == name]

    m: dict[str, float] = {}
    run_s = total.get("engine.run", 0.0)
    m["engine.steps"] = count.get("ea.step_all", 0) + count.get("engine.epoch_step", 0)
    m["engine.run_s"] = run_s
    m["engine.self_s"] = own.get("engine.run", 0.0) + own.get("engine.epoch_step", 0.0)
    m["engine.epoch_step_us"] = 1e6 * _ratio(total.get("engine.epoch_step", 0.0),
                                             count.get("engine.epoch_step", 0))

    ea_calls = count.get("ea.step_all", 0) + count.get("ea.step", 0)
    m["ea.calls"] = ea_calls
    m["ea.us_per_call"] = 1e6 * _ratio(total.get("ea.step_all", 0.0) + total.get("ea.step", 0.0),
                                       ea_calls)
    m["ea.self_s"] = own.get("ea.step_all", 0.0) + own.get("ea.step", 0.0)

    m["rng.calls"] = count.get("rng.draw", 0)
    m["rng.values"] = sum(a["values"] for _, a in of("rng.draw"))
    m["rng.draw_s"] = total.get("rng.draw", 0.0)
    m["rng.draw_share"] = _ratio(m["rng.draw_s"], run_s)

    evals = of("benchmarks.base")
    genomes = sum(a["genomes"] for _, a in evals)
    m["benchmarks.calls"] = len(evals)
    m["benchmarks.genomes"] = genomes
    m["benchmarks.genomes_per_call"] = _ratio(genomes, len(evals))
    m["benchmarks.us_per_genome"] = 1e6 * _ratio(total.get("benchmarks.base", 0.0), genomes)
    per_obj: dict[str, list[float]] = {}
    for i, a in evals:
        acc = per_obj.setdefault(a["objective"], [0.0, 0])
        acc[0] += tracer.ends[i] - tracer.starts[i]
        acc[1] += a["genomes"]
    for obj, (secs, n) in sorted(per_obj.items()):
        m[f"benchmarks.us_per_genome.{obj}"] = 1e6 * _ratio(secs, n)
    m["benchmarks.self_s"] = own.get("benchmarks.base", 0.0)

    inter = of("socio.interaction")
    accepted = sum(a["accepted"] for _, a in inter)
    m["socio.interactions"] = len(inter)
    by_int: dict[str, list[float]] = {k: [] for k in GENOME_INTENSITIES}
    for i, a in inter:
        by_int.setdefault(a["intensity"], []).append(tracer.ends[i] - tracer.starts[i])
    for intensity, ds in sorted(by_int.items()):
        m[f"socio.us_per_interaction.{intensity}"] = 1e6 * _ratio(sum(ds), len(ds))
    m["socio.self_s"] = own.get("socio.interaction", 0.0)
    inter_ids = {i for i, _ in inter}
    offspring = sum(a["genomes"] for i, a in evals if tracer.parents[i] in inter_ids)
    m["socio.offspring_per_interaction"] = _ratio(offspring, len(inter))
    m["socio.accept_ratio"] = _ratio(accepted, len(inter))
    m["socio.improve_ratio"] = _ratio(sum(a["improved"] for _, a in inter), accepted)

    writes = of("results.write_trace")
    rows_written = sum(a["rows"] for _, a in writes)
    rows_read = sum(a["rows"] for _, a in of("results.read_trace"))
    m["results.trace_rows"] = rows_written
    m["results.bytes_written"] = sum(a["bytes"] for _, a in writes + of("results.write_summary"))
    m["results.write_rows_per_s"] = _ratio(rows_written, total.get("results.write_trace", 0.0))
    m["results.read_rows_per_s"] = _ratio(rows_read, total.get("results.read_trace", 0.0))

    m["stats.compare_ms"] = 1e3 * (total.get("stats.compare", 0.0)
                                   + total.get("stats.summarize", 0.0))
    m["svgchart.render_ms"] = 1e3 * total.get("svgchart.render", 0.0)
    return m


# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = ("engine.steps", "benchmarks.genomes", "rng.values", "socio.interactions",
                "results.trace_rows")
