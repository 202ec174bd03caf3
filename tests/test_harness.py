"""Manifest parsing, cell execution, reports and charts."""

import json

import numpy as np
import pytest

import trustopt.harness as harness
from trustopt import (
    ConfigError,
    derive_run_seed,
    load_manifest,
    load_preset,
    run_manifest,
    write_plots,
    write_stats_reports,
)
from trustopt.engine import run_repetitions
from trustopt.harness import ExperimentManifest, ProblemCell, _cell_config
from trustopt.results import (read_summary_csv, read_trace_csv, summary_filename, summary_rows,
                              trace_filename, write_summary_csv, write_trace_csv)

TINY = {
    "name": "tiny",
    "seed": 1234,
    "repetitions": 2,
    "record_every": 1,
    "algorithms": ["small_society", "island_model"],
    "problems": [{"objective": "sphere", "dimension": 2, "max_steps": 6}],
    "overrides": {"population_size": 3, "offspring_size": 4, "epoch_length": 3},
}


def _write_manifest(tmp_path, data, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


@pytest.fixture()
def tiny_manifest(tmp_path):
    return load_manifest(_write_manifest(tmp_path, TINY))


# --- parsing ----------------------------------------------------------------


def test_load_manifest_reads_all_fields(tiny_manifest):
    m = tiny_manifest
    assert m.name == "tiny"
    assert m.seed == 1234
    assert m.repetitions == 2
    assert m.algorithms == ("small_society", "island_model")
    assert m.problems == (ProblemCell("sphere", 2, 6),)
    assert m.overrides["epoch_length"] == 3


def test_load_manifest_defaults(tmp_path):
    m = load_manifest(_write_manifest(tmp_path, {
        "algorithms": ["island_model", "small_society"],
        "problems": [{"objective": "sphere", "dimension": 2, "max_steps": 3}],
    }, name="short.json"))
    assert m.name == "short"
    assert m.seed == 0
    assert m.repetitions == 1
    assert m.record_every == 1
    assert m.overrides == {}


def test_load_manifest_collects_violations(tmp_path):
    path = _write_manifest(tmp_path, {
        "warp": 9,
        "repetitions": 0,
        "algorithms": ["small_society", "galaxy"],
        "problems": [{"objective": "sphere", "dimension": 2}],
        "overrides": {"offspring_size": 4, "psychic_rate": 0.4},
    })
    with pytest.raises(ConfigError) as err:
        load_manifest(path)
    text = str(err.value)
    assert "unknown manifest field: warp" in text
    assert "repetitions must be >= 1" in text
    assert "unknown algorithm preset: 'galaxy'" in text
    assert "missing field 'max_steps'" in text
    assert "unknown parameter 'psychic_rate'" in text


def test_load_manifest_checks_cells(tmp_path):
    data = dict(TINY)
    data["problems"] = [{"objective": "lennard_jones", "dimension": 5,
                         "max_steps": 5}]
    with pytest.raises(ConfigError, match="lennard_jones d=5"):
        load_manifest(_write_manifest(tmp_path, data))


# --- cell configuration -----------------------------------------------------


def test_cell_config_binds_cell_and_applies_overrides(tiny_manifest):
    cell = tiny_manifest.problems[0]
    cfg = _cell_config(tiny_manifest, cell, "small_society")
    preset = load_preset("small_society")
    assert cfg.objective == "sphere"
    assert cfg.dimension == 2
    assert cfg.max_steps == 6
    assert cfg.repetitions == 2
    assert cfg.seed == derive_run_seed(1234, "sphere", 2, "small_society")
    assert cfg.epoch_length == 3
    assert cfg.per_agent.population_size == 3
    assert cfg.per_agent.offspring_size == 4
    # untouched preset values survive
    assert cfg.agent_count == preset.agent_count
    assert cfg.diversity_factor == preset.diversity_factor
    assert cfg.credibility == preset.credibility


def test_cell_config_passes_objective_params(tiny_manifest):
    cell = ProblemCell("schwefel_noise", 2, 4, {"noise_sigma": 0.0})
    cfg = _cell_config(tiny_manifest, cell, "island_model")
    assert cfg.objective_params == {"noise_sigma": 0.0}


def test_cell_seeds_are_order_free(tiny_manifest):
    a = _cell_config(tiny_manifest, tiny_manifest.problems[0], "small_society")
    b = _cell_config(tiny_manifest, tiny_manifest.problems[0], "island_model")
    assert a.seed != b.seed


# --- execution --------------------------------------------------------------


def test_run_manifest_writes_expected_files(tiny_manifest, tmp_path):
    out = tmp_path / "out"
    summaries = run_manifest(tiny_manifest, out)
    assert summaries == [out / "summary_sphere_d2.csv"]
    traces = sorted(p.name for p in out.glob("trace_*.csv"))
    assert traces == [
        "trace_sphere_d2_island_model_rep0.csv",
        "trace_sphere_d2_island_model_rep1.csv",
        "trace_sphere_d2_small_society_rep0.csv",
        "trace_sphere_d2_small_society_rep1.csv",
    ]
    rows = read_summary_csv(summaries[0])
    assert len(rows) == 4
    assert {r.algorithm for r in rows} == {"small_society", "island_model"}
    assert {r.repetition for r in rows} == {0, 1}
    assert all(r.steps == 6 for r in rows)


def test_run_manifest_trace_grid_respects_downsample(tiny_manifest, tmp_path):
    out = tmp_path / "out"
    run_manifest(tiny_manifest, out, record_every=4)
    data = read_trace_csv(out / "trace_sphere_d2_small_society_rep0.csv")
    assert sorted(set(data["step"].tolist())) == [1, 5, 6]


def test_run_manifest_seed_override_changes_results(tiny_manifest, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    run_manifest(tiny_manifest, a)
    run_manifest(tiny_manifest, b, seed=999)
    run_manifest(tiny_manifest, c)
    name = "trace_sphere_d2_small_society_rep0.csv"
    assert (a / name).read_bytes() == (c / name).read_bytes()
    assert (a / name).read_bytes() != (b / name).read_bytes()


def test_cell_results_do_not_depend_on_manifest_order(tmp_path):
    flipped = dict(TINY)
    flipped["algorithms"] = ["island_model", "small_society"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_manifest(load_manifest(_write_manifest(tmp_path, TINY, "t1.json")), a)
    run_manifest(load_manifest(_write_manifest(tmp_path, flipped, "t2.json")), b)
    for name in ("trace_sphere_d2_small_society_rep1.csv",
                 "trace_sphere_d2_island_model_rep0.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_grouped_problem_writes_the_files_of_lone_cells(tmp_path):
    # run_manifest runs a problem's cells as one lockstep group; every file
    # must be the one its cell writes when run alone.  large_society
    # exchanges every 50 steps, the others every 25, so some steps are only
    # some cells' epoch steps
    manifest = load_manifest(_write_manifest(tmp_path, dict(
        TINY, repetitions=2, record_every=7,
        algorithms=["small_society", "large_society", "island_model"],
        problems=[{"objective": "sphere", "dimension": 3, "max_steps": 110},
                  {"objective": "schwefel_noise", "dimension": 2, "max_steps": 110}],
        overrides={"population_size": 3, "offspring_size": 4})))
    grouped, alone = tmp_path / "grouped", tmp_path / "alone"
    run_manifest(manifest, grouped)
    alone.mkdir()
    for problem in manifest.problems:
        rows = []
        for algorithm in manifest.algorithms:
            traces = run_repetitions(_cell_config(manifest, problem, algorithm), record_every=7)
            for tr in traces:
                write_trace_csv(tr, alone / trace_filename(problem.objective, problem.dimension,
                                                           algorithm, tr.repetition))
            rows += summary_rows(algorithm, traces)
        write_summary_csv(rows, alone / summary_filename(problem.objective, problem.dimension))
    names = sorted(p.name for p in alone.iterdir())
    assert sorted(p.name for p in grouped.iterdir()) == names
    assert len(names) == 2 * 3 * 2 + 2
    for name in names:
        assert (grouped / name).read_bytes() == (alone / name).read_bytes(), name


# --- reports ----------------------------------------------------------------


@pytest.fixture()
def run_outputs(tiny_manifest, tmp_path):
    out = tmp_path / "out"
    summaries = run_manifest(tiny_manifest, out)
    return out, summaries


def test_stats_reports_shape(run_outputs):
    out, summaries = run_outputs
    written = write_stats_reports(summaries, out, alpha=0.05)
    names = [p.name for p in written]
    assert names == ["stats_omnibus.csv", "stats_pairwise.csv",
                     "stats_vs_baseline.csv", "stats_report.txt"]
    omnibus = (out / "stats_omnibus.csv").read_text().splitlines()
    assert omnibus[0] == "problem,dim,h_statistic,p_value,df,degenerate"
    assert len(omnibus) == 2
    assert omnibus[1].startswith("sphere,2,")
    pairwise = (out / "stats_pairwise.csv").read_text().splitlines()
    assert pairwise[0].startswith("problem,dim,group_a,group_b,")
    assert len(pairwise) == 2  # one pair for two algorithms
    report = (out / "stats_report.txt").read_text()
    assert "== sphere (D=2) ==" in report
    assert "Kruskal-Wallis H" in report
    assert "island_model" in report


def test_stats_reports_reject_single_algorithm(tmp_path):
    from trustopt.results import write_summary_csv

    p = tmp_path / "summary_sphere_d2.csv"
    write_summary_csv([("sphere", 2, "tbo", 0, 1.0, 5, 7),
                       ("sphere", 2, "tbo", 1, 2.0, 5, 7)], p)
    with pytest.raises(ValueError, match="fewer than 2"):
        write_stats_reports([p], tmp_path)


def test_plots_written_per_cell(run_outputs):
    out, _ = run_outputs
    traces = sorted(out.glob("trace_*.csv"))
    written = write_plots(traces, out)
    assert [p.name for p in written] == ["convergence_sphere_d2.svg"]
    svg = written[0].read_text()
    assert svg.count("<polyline") == 2
    assert "small_society" in svg
    assert "island_model" in svg


def test_plots_reject_mismatched_repetition_grids(tmp_path):
    (tmp_path / "trace_sphere_d2_tbo_rep0.csv").write_text(
        "step,agent_id,best,mean\n1,0,2.0,2.0\n2,0,1.0,1.0\n")
    (tmp_path / "trace_sphere_d2_tbo_rep1.csv").write_text(
        "step,agent_id,best,mean\n1,0,2.0,2.0\n3,0,1.0,1.0\n")
    with pytest.raises(ValueError, match="grids differ"):
        write_plots(sorted(tmp_path.glob("trace_*.csv")), tmp_path)


def test_parallel_execution_matches_serial(tiny_manifest, tmp_path):
    serial = tmp_path / "serial"
    pooled = tmp_path / "pooled"
    run_manifest(tiny_manifest, serial, jobs=1)
    run_manifest(tiny_manifest, pooled, jobs=2)
    for p in sorted(serial.iterdir()):
        assert (pooled / p.name).read_bytes() == p.read_bytes()


@pytest.mark.parametrize("jobs", [2, 3, 64])
def test_pool_asks_for_no_more_workers_than_problems(tmp_path, monkeypatch, jobs):
    # a stand-in pool records its size and runs the problems in this
    # process, so a large --jobs value starts no process at all
    manifest = load_manifest(_write_manifest(tmp_path, dict(TINY, problems=[
        {"objective": "sphere", "dimension": 2, "max_steps": 6},
        {"objective": "rastrigin", "dimension": 2, "max_steps": 6}])))
    sizes = []

    class SerialPool:
        def __init__(self, *, max_workers):  # keyword only, as the tracer's pool takes it
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    run_manifest(manifest, tmp_path / "pooled", jobs=jobs)
    run_manifest(manifest, tmp_path / "serial", jobs=1)
    assert sizes == [2]  # two problems; the serial run builds no pool
    for p in sorted((tmp_path / "serial").iterdir()):
        assert (tmp_path / "pooled" / p.name).read_bytes() == p.read_bytes()
