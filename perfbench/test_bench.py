"""Self-tests of the benchmark at tiny step budgets.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from checks import OutputCheck, file_hashes
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
# smallest budgets that still reach an epoch exchange in every workload
TINY_STEPS = {"desk_trace": 26, "highdim_jobs2": 4, "exchange_epoch2": 4}


@pytest.fixture()
def checkout(tmp_path, monkeypatch):
    """A checkout-shaped directory: BENCHMARK.json, perfbench/ and src/."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(REPO / "src")
    monkeypatch.chdir(tmp_path)
    for name, steps in TINY_STEPS.items():
        monkeypatch.setitem(WORKLOADS, name, replace(WORKLOADS[name], max_steps=steps))
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_STEPS))
def test_every_metric_is_printed_with_its_unit(checkout, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    report = lines[:-1]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in report), m["name"]
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_manifest_depends_only_on_the_seed():
    w = WORKLOADS["desk_trace"]
    assert w.manifest(5) == w.manifest(5)
    assert w.manifest(5)["seed"] != w.manifest(6)["seed"]
    assert "record_every" not in w.manifest(5)  # the desk keeps full traces


@pytest.fixture()
def good_output(checkout):
    """A correct output directory of the tiny exchange workload, checked once."""
    w = WORKLOADS["exchange_epoch2"]
    bench = run.Bench(checkout, w, 1, 1, checkout)
    out = checkout / "out"
    assert bench.in_process_run(out, jobs=1) and bench.reports_in_process(out)
    reference = bench.check(out, None)
    assert bench.failed == 0
    return bench, out, reference


def test_truncated_summary_raises_failed_share(good_output):
    bench, out, reference = good_output
    summary = out / "summary_sphere_d50.csv"
    summary.write_text("".join(summary.read_text().splitlines(keepends=True)[:-1]))
    bench.check(out, reference)
    assert 0 < bench.failed / bench.attempted


def test_rising_best_in_a_trace_is_caught(good_output):
    bench, out, _ = good_output
    trace = out / "trace_rastrigin_d50_exploration_rep0.csv"
    rows = trace.read_text().splitlines()
    step, agent, best, mean = rows[-1].split(",")
    rows[-1] = ",".join([step, agent, repr(float(best) + 1e9), mean])
    trace.write_text("\n".join(rows) + "\n")
    chk = OutputCheck(bench.w, bench.facts)
    chk.run_outputs(out)
    assert chk.failed == {("rastrigin", 50, "exploration")}


def test_changed_bytes_fail_the_cells_of_that_file(good_output):
    bench, out, reference = good_output
    svg = out / "convergence_sphere_d50.svg"
    svg.write_text(svg.read_text().replace("</svg>", "<!-- --></svg>"))
    chk = OutputCheck(bench.w, bench.facts)
    chk.same_bytes(file_hashes(out), reference)
    assert chk.failed == {("sphere", 50, a) for a in bench.w.algorithms}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk_trace",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
