"""The trustopt benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload desk_trace --seed 1 --seconds 20 --trace 0

``--trace 0`` measures what a user sees.  It generates the workload's
manifest from the seed and drives the ``trustopt`` CLI in child processes,
with nothing traced: ``validate`` (set-up), then ``run``, ``stats`` and
``plot`` again and again until ``--seconds`` are used up.  Every output is
checked against one in-process serial run that counts objective
evaluations.  Timings are scaled by the speed of the machine during the
run, gauged with ``reference_task.py``.

``--trace 1`` gives the per-layer numbers instead.  It runs the manifest in
this process through ``trustopt.cli.main``: once untraced and serial with a
span per cell (plus once with the workload's ``--jobs`` when that is above
1), then at least twice serially with every layer traced.  The exact counts
must repeat and every output must be byte-identical to the untraced run.

The last line of standard output is the JSON result; everything before it
is a readable report.  Working files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import OutputCheck, file_hashes, tree_hash
from tracer import (EXACT_COUNTS, Tracer, cell_targets, count_targets, full_targets,
                    genome_count, installed, layer_metrics)
from workloads import WORKLOADS, Workload

SETUP_REPEATS = 3
# Median time of reference_task.py on the 2-core box the bounds were set on;
# timings are scaled by (this run's median / REFERENCE_S).  Never change it.
REFERENCE_S = 1.5
IMPORT_REPEATS = 3
MIN_ITERATIONS = 2
TIME_LIMIT_S = 170.0  # the whole run, child processes included

# -- timing summaries ------------------------------------------------------------

def tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for one."""
    xs = sorted(samples)
    k = len(xs) - 11
    if 2 * (k + 1) < len(xs):  # no such percentile at or above the median
        return "max", xs[-1]
    return f"p{100.0 * (k + 1) / len(xs):.1f}", xs[k]


def describe(samples: list[float], unit: str) -> str:
    label, value = tail(samples)
    return (f"median {statistics.median(samples):.4g} {unit}, {label} {value:.4g} {unit}, "
            f"n={len(samples)}")


# -- environment -------------------------------------------------------------------

def git_revision(root: Path) -> str | None:
    """HEAD of a git checkout at ``root``, read without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, w: Workload, seed: int, seconds: int) -> dict:
    import numpy
    import scipy

    py_files = sorted((root / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_rev": git_revision(root),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in py_files),
        "workload": w.name,
        "seed": seed,
        "manifest_seed": w.manifest(seed)["seed"],
        "max_steps": w.max_steps,
        "repetitions": w.repetitions,
        "cells": w.cells,
        "jobs": w.jobs,
        "seconds": seconds,
    }


# -- child processes ---------------------------------------------------------------

class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def run_child(argv: list[str], env: dict, deadline: Deadline, log: Path) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall s, peak RSS MB).

    The peak RSS is the largest of the child and every process it waited
    for (its pool workers).  A child still running at the deadline is
    killed with its whole process group.
    """
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT, env=env, start_new_session=True)
        reaped: dict = {}

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.update(end=time.perf_counter(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(max(deadline.left(), 1.0))
        finally:
            if waiter.is_alive():  # past the deadline, or this process is stopping
                os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
                waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return proc.returncode, reaped["end"] - start, reaped["usage"].ru_maxrss / 1024.0


def cli_in_process(argv: list[str]) -> int:
    """``trustopt.cli.main`` in this process, its path listing discarded."""
    from trustopt.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


# -- the two modes -----------------------------------------------------------------

class Bench:
    def __init__(self, root: Path, w: Workload, seed: int, seconds: int, work: Path):
        from trustopt.benchmarks import get_objective

        self.w, self.seconds, self.work = w, seconds, work
        self.manifest = w.write_manifest(seed, work / "manifest.json")
        self.deadline = Deadline(TIME_LIMIT_S)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.log = work / "children.log"
        self.facts = {}
        for o, d in w.problems:
            spec = get_objective(o, d)
            self.facts[(o, d)] = (spec.noisy, spec.optimum_value)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def cli(self, *args: str) -> tuple[int, float, float]:
        return run_child([sys.executable, "-m", "trustopt.cli", *args], self.env,
                         self.deadline, self.log)

    def check(self, out: Path, reference: dict | None) -> dict:
        """Check one output directory; counts its cells as attempted."""
        chk = OutputCheck(self.w, self.facts)
        chk.run_outputs(out)
        chk.report_outputs(out)
        hashes = file_hashes(out)
        if reference is not None:
            chk.same_bytes(hashes, reference)
        self.attempted += self.w.cells
        self.failed += len(chk.failed)
        self.notes.extend(chk.problems[:5])
        return hashes

    def fail_all(self, why: str) -> None:
        self.attempted += self.w.cells
        self.failed += self.w.cells
        self.notes.append(why)

    def in_process_run(self, out: Path, jobs: int) -> bool:
        rc = cli_in_process(["run", "--manifest", str(self.manifest), "--out", str(out),
                             "--jobs", str(jobs)])
        if rc != 0:
            self.fail_all(f"in-process run exited {rc}")
        return rc == 0

    def reports_in_process(self, out: Path) -> bool:
        rc = cli_in_process(["stats", str(out)]) or cli_in_process(["plot", str(out)])
        if rc != 0:
            self.fail_all(f"in-process stats/plot exited {rc}")
        return rc == 0

    # -- trace 0: what a user sees ---------------------------------------------------

    def time_reference_task(self) -> float:
        """Time reference_task.py once (the machine's speed, not the program's)."""
        task = str(Path(__file__).with_name("reference_task.py"))
        rc, secs, _ = run_child([sys.executable, task], self.env, self.deadline, self.log)
        if rc != 0:
            raise RuntimeError(f"reference_task.py exited {rc}; see {self.log}")
        return secs

    def measure(self) -> tuple[dict, dict]:
        w, m = self.w, str(self.manifest)
        probes = [self.time_reference_task()]
        setup = []
        for _ in range(SETUP_REPEATS):
            rc, secs, _ = self.cli("validate", "--manifest", m)
            if rc != 0:
                raise RuntimeError(f"trustopt validate exited {rc}; see {self.log}")
            setup.append(secs)

        # the serial reference run; its evaluation count is exact
        ref = self.work / "reference"
        counter = Tracer()
        with installed(count_targets(counter)):
            ok = self.in_process_run(ref, jobs=1) and self.reports_in_process(ref)
        if not ok:
            raise RuntimeError(f"the in-process reference run failed: {self.notes}")
        evals = genome_count(counter)
        reference = self.check(ref, None)

        runs, reports, walls, rss = [], [], [], []
        start = time.perf_counter()
        while self.deadline.left() > 0:
            out = self.work / "out"
            shutil.rmtree(out, ignore_errors=True)
            rc, run_s, peak = self.cli("run", "--manifest", m, "--out", str(out),
                                       "--jobs", str(w.jobs))
            if rc != 0:
                self.fail_all(f"trustopt run exited {rc}")
                break
            rc1, stats_s, _ = self.cli("stats", str(out))
            rc2, plot_s, _ = self.cli("plot", str(out))
            if rc1 or rc2:
                self.fail_all(f"trustopt stats/plot exited {rc1}/{rc2}")
                break
            self.check(out, reference)
            runs.append(run_s)
            reports.append(stats_s + plot_s)
            walls.append(run_s + stats_s + plot_s)
            rss.append(peak)
            probes.append(self.time_reference_task())
            elapsed = time.perf_counter() - start
            # stop at whichever iteration boundary lies closest to --seconds
            per_iteration = elapsed / len(runs)
            if len(runs) >= MIN_ITERATIONS and elapsed + per_iteration / 2 > self.seconds:
                break
        shutil.rmtree(self.work / "out", ignore_errors=True)
        shutil.rmtree(ref, ignore_errors=True)
        if not runs:
            raise RuntimeError(f"no complete run; see {self.log}")

        # > 1 when the machine runs slower than when the bounds were set
        slow = statistics.median(probes) / REFERENCE_S
        raw = {
            "setup_s": statistics.median(setup),
            "steps_per_s": w.society_steps / statistics.median(runs),
            "evals_per_s": evals / statistics.median(runs),
            "report_s": statistics.median(reports),
            "wall_s": statistics.median(walls),
        }
        metrics = {
            "setup_s": raw["setup_s"] / slow,
            "steps_per_s": raw["steps_per_s"] * slow,
            "evals_per_s": raw["evals_per_s"] * slow,
            "report_s": raw["report_s"] / slow,
            "wall_s": raw["wall_s"] / slow,
            "peak_rss_mb": statistics.median(rss),
            "failed_share": self.failed / self.attempted,
        }
        detail = {
            "reference_task_s": describe(probes, "s"),
            "machine_slowdown": slow,
            "unscaled": {k: round(v, 6) for k, v in raw.items()},
            "setup_s": describe(setup, "s"),
            "run_s": describe(runs, "s"),
            "report_s": describe(reports, "s"),
            "wall_s": describe(walls, "s"),
            "peak_rss_mb": describe(rss, "MB"),
            "society_steps_per_run": w.society_steps,
            "evaluations_per_run": evals,
            "output_sha256": tree_hash(reference),
        }
        return metrics, detail

    # -- trace 1: per-layer numbers ----------------------------------------------------

    def traced(self) -> tuple[dict, dict]:
        w = self.w
        imports = []
        for _ in range(IMPORT_REPEATS):
            rc, secs, _ = run_child([sys.executable, "-c", "import trustopt.cli"], self.env,
                                    self.deadline, self.log)
            if rc != 0:
                raise RuntimeError(f"importing trustopt.cli failed; see {self.log}")
            imports.append(secs)

        # untraced and serial: the reference bytes and the tracing overhead
        ref = self.work / "reference"
        serial = Tracer()
        with installed(cell_targets(serial, 1)):
            ok = self.in_process_run(ref, jobs=1)
        if not (ok and self.reports_in_process(ref)):
            raise RuntimeError(f"the in-process reference run failed: {self.notes}")
        reference = self.check(ref, None)
        untraced_cell_s = sum(serial.durations("harness.cell"))
        # the cells as the workload runs them, --jobs included
        cells = serial
        if w.jobs > 1:
            pooled = self.work / "pooled"
            cells = Tracer()
            with installed(cell_targets(cells, w.jobs)):
                ok = self.in_process_run(pooled, jobs=w.jobs)
            if not (ok and self.reports_in_process(pooled)):
                raise RuntimeError(f"the in-process --jobs {w.jobs} run failed: {self.notes}")
            self.check(pooled, reference)
            shutil.rmtree(pooled, ignore_errors=True)
        cell_s = cells.durations("harness.cell")
        (wall,) = cells.durations("harness.run_manifest")

        per_run: list[dict] = []
        traced_cell_s: list[float] = []
        start = time.perf_counter()
        while self.deadline.left() > 0:
            out = self.work / "traced"
            shutil.rmtree(out, ignore_errors=True)
            tracer = Tracer()
            with installed(full_targets(tracer)):
                with tracer.span("cli.run"):
                    ok = self.in_process_run(out, jobs=1)
                with tracer.span("cli.report"):
                    ok = ok and self.reports_in_process(out)
            if not ok:
                raise RuntimeError(f"a traced run failed: {self.notes}")
            self.check(out, reference)
            if not per_run:
                tracer.write(self.work / "spans.csv")
            per_run.append(layer_metrics(tracer))
            traced_cell_s.append(sum(tracer.durations("harness.cell")))
            elapsed = time.perf_counter() - start
            if len(per_run) >= MIN_ITERATIONS and elapsed * (1 + 0.5 / len(per_run)) > self.seconds:
                break
        shutil.rmtree(self.work / "traced", ignore_errors=True)
        shutil.rmtree(ref, ignore_errors=True)
        if len(per_run) < MIN_ITERATIONS:
            raise RuntimeError(f"fewer than {MIN_ITERATIONS} traced runs completed")

        guard = {k: sorted({r[k] for r in per_run}) for k in EXACT_COUNTS}
        for k, values in guard.items():
            if len(values) != 1:
                self.fail_all(f"count {k} differs between traced runs: {values}")

        metrics = {}
        for k in sorted(set().union(*per_run)):
            values = [r.get(k, 0.0) for r in per_run]
            metrics[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
        label, cell_tail = tail(cell_s)
        metrics.update({
            "cli.import_s": statistics.median(imports),
            "harness.cells": len(cell_s),
            "harness.cell_s.p50": statistics.median(cell_s),
            "harness.cell_s.tail": cell_tail,
            "harness.pool_idle_share": 1.0 - sum(cell_s) / (w.jobs * wall),
            "bench.trace_overhead_s": statistics.median(traced_cell_s) - untraced_cell_s,
            "failed_share": self.failed / self.attempted,
        })
        detail = {
            "cli.import_s": describe(imports, "s"),
            "harness.cell_s": describe(cell_s, "s"),
            "harness.cell_s.tail_percentile": label,
            "run_manifest_s": wall,
            "trace_overhead_share": metrics["bench.trace_overhead_s"] / untraced_cell_s,
            "traced_runs": len(per_run),
            "exact_counts": {k: v[0] if len(v) == 1 else v for k, v in guard.items()},
            "output_sha256": tree_hash(reference),
        }
        return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "trustopt" / "__init__.py").is_file():
        print("error: no src/trustopt here; run from the root of a trustopt checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = WORKLOADS[args.workload]
    work = root / ".perfbench" / f"{w.name}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    bench = Bench(root, w, args.seed, args.seconds, work)
    env = environment(root, w, args.seed, args.seconds)
    try:
        metrics, detail = bench.traced() if args.trace else bench.measure()
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (work / "result.json").write_text(json.dumps(
        {"environment": env, "metrics": metrics, "detail": detail, "result": result,
         "notes": bench.notes}, indent=1) + "\n", encoding="utf-8")

    print(f"trustopt benchmark: workload {w.name}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_share"] = "ratio"
    for name in sorted(metrics):
        unit = units.get(name, "us")  # the per-objective splits are all in us
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    for key, text in detail.items():
        print(f"  {key:<40} {text}")
    for note in bench.notes[:20]:
        print(f"  check failed: {note}")
    print(json.dumps(result))
    return 0


def _stop(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)  # so a stopped run still kills its child
    sys.exit(main())
