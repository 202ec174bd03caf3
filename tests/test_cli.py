"""CLI subcommands, exit codes and error reporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trustopt
from trustopt import config_to_dict, dump_config, load_preset
from trustopt.cli import main

TINY = {
    "name": "tiny",
    "seed": 77,
    "repetitions": 2,
    "algorithms": ["small_society", "island_model"],
    "problems": [{"objective": "sphere", "dimension": 2, "max_steps": 6}],
    "overrides": {"population_size": 3, "offspring_size": 4, "epoch_length": 3},
}


@pytest.fixture()
def manifest_path(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(TINY))
    return path


def test_validate_manifest_ok(manifest_path, capsys):
    assert main(["validate", "--manifest", str(manifest_path)]) == 0
    assert "manifest ok" in capsys.readouterr().out


def test_validate_config_ok(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    dump_config(load_preset("exploration"), path)
    assert main(["validate", "--config", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_names_unknown_objective(tmp_path, capsys):
    bad = dict(TINY)
    bad["problems"] = [{"objective": "warp_core", "dimension": 2, "max_steps": 5}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", "--manifest", str(path)]) == 2
    err = capsys.readouterr().err
    assert "warp_core" in err
    assert err.startswith("error:")


def _problem(**kw):
    return [{**TINY["problems"][0], **kw}]


@pytest.mark.parametrize("change,field", [
    ({"problems": _problem(dimension="ten")}, "dimension"),
    ({"problems": _problem(dimension=4.9)}, "dimension"),
    ({"problems": _problem(max_steps=True)}, "max_steps"),
    ({"problems": _problem(objective_params=[1])}, "objective_params"),
    ({"problems": [["sphere", 4, 5]]}, "problems[0]"),
    ({"problems": {"objective": "sphere"}}, "problems"),
    ({"overrides": {"population_size": "5"}}, "population_size"),
    ({"overrides": {"base_mutation_rate": "low"}}, "base_mutation_rate"),
    ({"overrides": [3]}, "overrides"),
    ({"seed": True}, "seed"),
    ({"repetitions": 2.0}, "repetitions"),
    ({"algorithms": "island_model"}, "algorithms"),
    (None, "manifest must be a JSON object"),
    ({"overrides": {"crossover_scope": "pair"}}, "overrides: unknown parameter 'crossover_scope'"),
    ({"overrides": {"partner_policy": "fixed"}}, "overrides: unknown parameter 'partner_policy'"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_validate_rejects_wrongly_typed_manifest(tmp_path, capsys, change, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([TINY] if change is None else {**TINY, **change}))
    assert main(["validate", "--manifest", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def _config(**kw):
    data = config_to_dict(load_preset("small_society"))
    for key, value in kw.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key] = {**data[key], **value}
        else:
            data[key] = value
    return data


@pytest.mark.parametrize("data,field", [
    (_config(agent_count="4"), "agent_count"),
    (_config(dimension=10.0), "dimension"),
    (_config(eta_c=True), "eta_c"),
    (_config(diversity_factor="1.3"), "diversity_factor"),
    (_config(diversity_factor=float("nan")), "diversity_factor"),
    (_config(eta_m=float("inf")), "eta_m"),
    (_config(credibility=5), "credibility"),
    (_config(credibility={"min_value": "1"}), "min_value"),
    (_config(per_agent={"offspring_size": 2.5}), "offspring_size"),
    (_config(per_agent={"base_crossover_rate": None}), "base_crossover_rate"),
    (_config(per_agent="moderate"), "per_agent"),
    (_config(per_agent=[5]), "per_agent"),
    ({k: v for k, v in _config().items() if k != "seed"}, "seed"),
    ([_config()], "config must be a JSON object"),
    (_config(crossover_scope="pair"), "unknown config field: crossover_scope"),
    (_config(partner_policy="fixed"), "unknown config field: partner_policy"),
    (_config(first_step=0), "unknown config field: first_step"),
    (_config(per_agent=[{}]), "per_agent must be an object"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_validate_rejects_wrongly_typed_config(tmp_path, capsys, data, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def _manifest(objective, dimension, **params):
    return {**TINY, "problems": [{"objective": objective, "dimension": dimension,
                                  "max_steps": 5, "objective_params": params}]}


# json writes nan and inf as NaN and Infinity, and reads them back
@pytest.mark.parametrize("kind,data,field", [
    ("config", _config(objective="lennard_jones", dimension=5), "dimension"),
    ("config", _config(objective="expanded_schaffer", dimension=1), "dimension"),
    ("config", _config(objective_params={"bogus": 1}), "bogus"),
    ("config", _config(objective="schwefel_noise", objective_params={"noise_sigma": -1}),
     "noise_sigma"),
    ("config", _config(objective="schwefel_noise", objective_params={"noise_sigma": "x"}),
     "noise_sigma"),
    ("manifest", _manifest("schwefel_noise", 4, noise_sigma=float("nan")), "noise_sigma"),
    ("manifest", _manifest("schwefel_noise", 4, noise_sigma=float("inf")), "noise_sigma"),
    ("manifest", _manifest("schwefel_noise", 4, noise_sigma=True), "noise_sigma"),
    ("manifest", _manifest("schwefel_noise", 4, noise_sigma="0.5"), "noise_sigma"),
    ("manifest", _manifest("lennard_jones", 6, a="2"), "'a'"),
    ("config", _config(objective_params={"dimension": 3}), "['dimension']"),
    ("manifest", {**TINY, "problems": [{"objective": "sphere", "dimension": 4, "max_steps": 5,
                                        "objective_params": {"name": 1}}]}, "['name']"),
], ids=["lj-d5", "schaffer-d1", "bogus-param", "negative-sigma", "string-sigma",
        "nan-sigma", "inf-sigma", "bool-sigma", "string-sigma-manifest", "string-lj-a",
        "param-named-dimension", "param-named-name"])
def test_validate_rejects_invalid_objective_binding(tmp_path, capsys, kind, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", f"--{kind}", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("problem,message", [
    ({"objective": "sphere", "dimension": -1, "max_steps": 5}, "needs dimension >= 1"),
    ({"objective": "schwefel_noise", "dimension": 4, "max_steps": 5,
      "objective_params": {"noise_sigma": float("nan")}}, "noise_sigma"),
    ({"objective": "sphere", "dimension": 4, "max_steps": 0}, "max_steps must be >= 1"),
], ids=["negative-dimension", "nan-sigma", "zero-steps"])
def test_validate_reports_problem_errors_once(tmp_path, capsys, problem, message):
    # a problem's rules are checked before any cell exists: one line, not
    # one per algorithm, and a negative dimension never reaches the seeding
    data = {**TINY, "algorithms": ["small_society", "island_model", "exploration"],
            "problems": [problem]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--manifest", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: problems[0]") and message in lines[0]


@pytest.mark.parametrize("change,message", [
    ({"algorithms": ["island_model", "island_model", "small_society"]},
     "duplicate algorithm preset: 'island_model'"),
    ({"problems": _problem() + _problem(max_steps=9)},
     "problems[1] sphere d=2: duplicates problems[0]"),
], ids=["algorithm", "problem"])
def test_run_rejects_duplicate_manifest_entries(tmp_path, capsys, change, message):
    # a repeated algorithm would run its cell twice and list every summary
    # row twice; two problems with one objective and dimension share their
    # cell seeds and output files
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({**TINY, **change}))
    out = tmp_path / "res"
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
def test_run_rejects_out_of_range_seed_before_writing(manifest_path, tmp_path, capsys, seed):
    out = tmp_path / "res"
    assert main(["run", "--manifest", str(manifest_path), "--out", str(out),
                 "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and seed in err
    assert not out.exists()


def test_presets_overview_lists_all(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for slug in ("strong_leadership", "exploration", "small_society",
                 "large_society", "high_diversity", "island_model"):
        assert slug in out
    assert "Strong leadership" in out


def test_presets_single_prints_json(capsys):
    assert main(["presets", "small_society"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agent_count"] == 5
    assert data["credibility"]["kind"] == "trust"


def test_presets_unknown_name_exits_2(capsys):
    assert main(["presets", "utopia"]) == 2
    assert "utopia" in capsys.readouterr().err


def test_run_writes_outputs(manifest_path, tmp_path, capsys):
    out = tmp_path / "res"
    assert main(["run", "--manifest", str(manifest_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "summary_sphere_d2.csv" in printed
    assert len(list(out.glob("trace_*.csv"))) == 4
    assert (out / "summary_sphere_d2.csv").exists()


def test_run_downsample_flag(manifest_path, tmp_path):
    out = tmp_path / "res"
    assert main(["run", "--manifest", str(manifest_path), "--out", str(out),
                 "--downsample", "4"]) == 0
    lines = (out / "trace_sphere_d2_small_society_rep0.csv").read_text().splitlines()
    steps = {int(l.split(",")[0]) for l in lines[1:]}
    assert steps == {1, 5, 6}
    assert main(["run", "--manifest", str(manifest_path), "--out", str(out),
                 "--downsample", "0"]) == 2


def test_stats_and_plot_pipeline(manifest_path, tmp_path, capsys):
    out = tmp_path / "res"
    main(["run", "--manifest", str(manifest_path), "--out", str(out)])
    capsys.readouterr()

    assert main(["stats", str(out), "--alpha", "0.05"]) == 0
    assert "stats_report.txt" in capsys.readouterr().out
    assert (out / "stats_omnibus.csv").exists()
    assert (out / "stats_vs_baseline.csv").exists()

    assert main(["plot", str(out), "--log-scale", "auto"]) == 0
    assert (out / "convergence_sphere_d2.svg").exists()
    svg = (out / "convergence_sphere_d2.svg").read_text()
    assert svg.count("<polyline") == 2


def test_repeated_inputs_are_read_once(manifest_path, tmp_path, capsys):
    out = tmp_path / "res"
    main(["run", "--manifest", str(manifest_path), "--out", str(out)])
    summary = out / "summary_sphere_d2.csv"
    trace = out / "trace_sphere_d2_island_model_rep0.csv"
    once, twice = tmp_path / "once", tmp_path / "twice"
    assert main(["stats", str(out), "--out", str(once)]) == 0
    assert main(["stats", str(out), str(summary), str(tmp_path / "res" / ".." / "res"),
                 "--out", str(twice)]) == 0
    for name in ("stats_omnibus.csv", "stats_pairwise.csv", "stats_report.txt"):
        assert (twice / name).read_bytes() == (once / name).read_bytes()
    # a trace named twice is one repetition of the mean curve, not two
    other = out / "trace_sphere_d2_island_model_rep1.csv"
    assert main(["plot", str(trace), str(other), "--out", str(once)]) == 0
    assert main(["plot", str(trace), str(other), str(out / "." / trace.name),
                 "--out", str(twice)]) == 0
    svg = "convergence_sphere_d2.svg"
    assert (twice / svg).read_bytes() == (once / svg).read_bytes()
    capsys.readouterr()


def test_stats_rejects_bad_alpha_and_empty_dir(tmp_path, capsys):
    (tmp_path / "summary_sphere_d2.csv").write_text(
        "problem,dim,algorithm,repetition,final_best,steps,seed\n"
        "sphere,2,a,0,1.0,5,7\nsphere,2,b,0,2.0,5,7\n")
    assert main(["stats", str(tmp_path), "--alpha", "2.0"]) == 2
    capsys.readouterr()
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["stats", str(empty)]) == 2
    assert "no summary CSVs" in capsys.readouterr().err


def test_plot_empty_dir_exits_2(tmp_path, capsys):
    assert main(["plot", str(tmp_path)]) == 2
    assert "no trace CSVs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "plot"])
@pytest.mark.parametrize("missing", ["missing_summary.csv", "nodir"])
def test_missing_input_exits_1_and_writes_nothing(command, missing, tmp_path, monkeypatch,
                                                  capsys):
    # a missing input must not be taken for the report directory and created
    monkeypatch.chdir(tmp_path)
    assert main([command, missing]) == 1
    assert missing in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_malformed_input_exits_1(tmp_path, capsys):
    (tmp_path / "summary_sphere_d2.csv").write_text("not,a,header\n1,2,3\n")
    assert main(["stats", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    # an empty summary, an empty and a header-only trace, a short and an
    # over-long trace row, an over-long summary row, non-numeric trace and
    # summary fields and a step beyond 64 bits: an error naming the file,
    # not a traceback
    trace = "trace_sphere_d2_island_model_rep0.csv"
    summary = "summary_sphere_d2.csv"
    summary_header = "problem,dim,algorithm,repetition,final_best,steps,seed\n"
    cases = [("stats", summary, ""), ("plot", trace, ""),
             ("plot", trace, "step,agent_id,best,mean\n"),
             ("plot", trace, "step,agent_id,best,mean\n1,0,3.0\n"),
             ("plot", trace, "step,agent_id,best,mean\n1,0,3.0,4.0,99\n"),
             ("plot", trace, "step,agent_id,best,mean\n1,0,abc,3.0\n"),
             ("plot", trace, "step,agent_id,best,mean\n9223372036854775808,0,1.0,1.0\n"),
             ("stats", summary, summary_header + "sphere,2,island_model,0,zz,10,7\n"),
             ("stats", summary, summary_header + "sphere,2,island_model,0,1.0,10,7,8\n")]
    for k, (command, name, text) in enumerate(cases):
        case = tmp_path / f"case{k}"
        case.mkdir()
        (case / name).write_text(text)
        assert main([command, str(case)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err, err
    # a dimension whose search box cannot be allocated (7 PiB, beyond any
    # address space, so the allocation fails at once): one error line, not
    # a traceback
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(_manifest("sphere", 10**15)))
    assert main(["validate", "--manifest", str(huge)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind,dimension,status", [
    ("manifest", 3 * 10**18, 2), ("manifest", 10**30, 2),
    ("config", 10**15, 1), ("config", 3 * 10**18, 2), ("config", 10**30, 2),
])
def test_huge_dimension_exits_with_one_error_line(tmp_path, capsys, kind, dimension, status):
    # a search box memory cannot hold (10**15 genes) exits 1; one whose size
    # in bytes exceeds the largest index is a binding error, exit 2
    data = _manifest("sphere", dimension) if kind == "manifest" else _config(dimension=dimension)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main(["validate", f"--{kind}", str(path)]) == status
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    if kind == "manifest":
        assert f"problems[0] sphere d={dimension}:" in err, err


@pytest.mark.parametrize("argv", [["validate", "--manifest"], ["validate", "--config"],
                                  ["run", "--manifest"]], ids=" ".join)
def test_deeply_nested_json_exits_1(tmp_path, capsys, argv):
    # nesting beyond the parser's recursion limit is malformed input, not a
    # RecursionError traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5 + "]" * 10**5)
    out = tmp_path / "out"
    assert main([*argv, str(path), *(["--out", str(out)] if argv[0] == "run" else [])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "deep.json" in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["validate", "--manifest"], ["validate", "--config"],
                                  ["run", "--manifest"]], ids=" ".join)
@pytest.mark.parametrize("data", [b'{"name": "x",\n', b'{"name": "\xff"}'],
                         ids=["truncated", "invalid-utf8"])
def test_malformed_json_names_the_file(tmp_path, capsys, argv, data):
    # a truncated file and one that is not UTF-8: one error line naming the
    # file, exit 1, nothing written
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    out = tmp_path / "out"
    assert main([*argv, str(path), *(["--out", str(out)] if argv[0] == "run" else [])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command,name,text", [
    ("plot", "trace_sphere_d2_island_model_rep0.csv", "step,agent_id,best,mean\n1,0,{v},{v}\n"),
    ("stats", "summary_sphere_d2.csv", "problem,dim,algorithm,repetition,final_best,steps,seed\n"
                                       "sphere,2,a,0,{v},5,7\nsphere,2,b,0,2.0,5,7\n"),
], ids=["plot", "stats"])
def test_duplicate_cells_from_two_files_exit_1(tmp_path, capsys, command, name, text):
    # a second file for the same cell (plot: problem, dim, algorithm and
    # rep; stats: problem and dim) is an error naming both files, not a
    # second repetition or a second report row
    paths = []
    for k, value in enumerate(["1.0", "3.0"]):
        (tmp_path / f"run{k}").mkdir()
        paths.append(tmp_path / f"run{k}" / name)
        paths[-1].write_text(text.format(v=value))
    out = tmp_path / "out"
    assert main([command, str(paths[0].parent), str(paths[1].parent), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(paths[0]) in err and str(paths[1]) in err, err
    assert not out.exists()


def test_header_only_trace_beside_a_good_one_exits_1(tmp_path, capsys):
    # a header-only trace must not draw an empty curve beside a good one
    (tmp_path / "trace_sphere_d2_island_model_rep0.csv").write_text(
        "step,agent_id,best,mean\n1,0,3.0,4.0\n2,0,2.0,3.0\n")
    empty = "trace_sphere_d2_small_society_rep0.csv"
    (tmp_path / empty).write_text("step,agent_id,best,mean\n")
    out = tmp_path / "charts"
    assert main(["plot", str(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and empty in err, err
    assert not out.exists()


def test_plot_failing_later_problem_leaves_no_chart(tmp_path, capsys):
    # the zzz repetitions disagree on their step grid, which is found after
    # aaa's chart is rendered: the command fails and writes nothing
    rows = {"aaa_d2_island_model_rep0": "1,0,3.0,4.0\n2,0,2.0,3.0\n",
            "zzz_d2_island_model_rep0": "1,0,3.0,4.0\n2,0,2.0,3.0\n",
            "zzz_d2_island_model_rep1": "1,0,3.0,4.0\n3,0,2.0,3.0\n"}
    for name, text in rows.items():
        (tmp_path / f"trace_{name}.csv").write_text("step,agent_id,best,mean\n" + text)
    out = tmp_path / "charts"
    assert main(["plot", str(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grids differ" in err, err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_plot_rejects_non_finite_best_and_writes_nothing(tmp_path, capsys, value):
    # a best that is not a finite number has no place on the axis; the
    # trace is rejected by name before the chart directory is made
    name = "trace_sphere_d2_island_model_rep0.csv"
    (tmp_path / name).write_text(f"step,agent_id,best,mean\n1,0,{value},1.0\n2,0,1.0,1.0\n")
    out = tmp_path / "charts"
    assert main(["plot", str(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and value in err, err
    assert not out.exists()


def test_stats_one_algorithm_summary_writes_nothing(tmp_path, capsys):
    # a summary of one algorithm cannot be compared; it is rejected before
    # the report directory is made, even after a good summary
    header = "problem,dim,algorithm,repetition,final_best,steps,seed\n"
    (tmp_path / "summary_aaa_d2.csv").write_text(
        header + "aaa,2,a,0,1.0,5,7\naaa,2,b,0,2.0,5,7\n")
    (tmp_path / "summary_zzz_d2.csv").write_text(
        header + "zzz,2,a,0,1.0,5,7\nzzz,2,a,1,2.0,5,7\n")
    out = tmp_path / "reports"
    assert main(["stats", str(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fewer than 2 algorithms" in err, err
    assert not out.exists()


def test_stats_compares_42_algorithms(tmp_path):
    # any number of algorithms has a chi-squared tail: 42 give df = 41
    (tmp_path / "summary_sphere_d2.csv").write_text(
        "problem,dim,algorithm,repetition,final_best,steps,seed\n"
        + "".join(f"sphere,2,a{i},{r},{i + r / 4},5,7\n" for i in range(42) for r in range(2)))
    out = tmp_path / "reports"
    assert main(["stats", str(tmp_path), "--out", str(out)]) == 0
    header, row = (out / "stats_omnibus.csv").read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["df"] == "41" and fields["degenerate"] == "false"
    assert 0.0 < float(fields["p_value"]) < 1.0
    assert len((out / "stats_pairwise.csv").read_text().splitlines()) == 1 + 42 * 41 // 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_stats_rejects_non_finite_result_and_writes_nothing(tmp_path, capsys, value):
    # a final_best that is not a finite number has no rank; the summary is
    # rejected by name before the report directory is made
    name = "summary_sphere_d2.csv"
    (tmp_path / name).write_text(
        "problem,dim,algorithm,repetition,final_best,steps,seed\n"
        f"sphere,2,a,0,1.0,5,7\nsphere,2,a,1,{value},5,7\nsphere,2,b,0,2.0,5,7\n")
    out = tmp_path / "reports"
    assert main(["stats", str(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and value in err, err
    assert not out.exists()


def test_run_rejects_bad_jobs(manifest_path, tmp_path, capsys):
    assert main(["run", "--manifest", str(manifest_path),
                 "--out", str(tmp_path / "x"), "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_only_run_loads_numpy(manifest_path, tmp_path):
    # importing the CLI, validate, presets and a run its manifest stops all
    # use the standard library alone; a run that passes validation loads
    # numpy but not the stats or chart modules, and no command loads scipy
    package = Path(trustopt.__file__).parent
    config, bad = tmp_path / "cfg.json", tmp_path / "bad.json"
    config.write_text(json.dumps(_config()))
    bad.write_text(json.dumps(_manifest("sphere", 0)))
    code = (
        "import sys\n"
        "import trustopt.cli\n"
        "desk, manifest, config, bad, out = sys.argv[1:]\n"
        "def loaded():\n"
        "    return sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})\n"
        "assert not loaded(), f'loaded by the import: {loaded()}'\n"
        "for argv, status in [(['validate', '--manifest', desk], 0),\n"
        "                     (['validate', '--manifest', manifest], 0),\n"
        "                     (['validate', '--config', config], 0),\n"
        "                     (['presets'], 0), (['presets', 'exploration'], 0),\n"
        "                     (['run', '--manifest', bad, '--out', out], 2),\n"
        "                     (['run', '--manifest', manifest, '--out', out,\n"
        "                       '--seed', '-1'], 2)]:\n"
        "    assert trustopt.cli.main(argv) == status, argv\n"
        "    assert not loaded(), f'loaded by {argv}: {loaded()}'\n"
        "assert trustopt.cli.main(['run', '--manifest', manifest, '--out', out]) == 0\n"
        "assert loaded() == ['numpy'], f'loaded by run: {loaded()}'\n"
        "reports = sorted({'trustopt.stats', 'trustopt.svgchart'} & set(sys.modules))\n"
        "assert not reports, f'loaded by run: {reports}'\n"
    )
    desk = package / "data" / "manifests" / "desk.json"
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    proc = subprocess.run([sys.executable, "-c", code, str(desk), str(manifest_path),
                           str(config), str(bad), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "needs dimension >= 1" in proc.stderr


def test_plot_and_stats_leave_scipy_stats_unloaded(manifest_path, tmp_path):
    # run needs numpy but no part of scipy; plot and stats run on the
    # standard library: neither loads numpy or any part of scipy
    out = tmp_path / "res"
    package = Path(trustopt.__file__).parent
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    run_code = (
        "import sys\n"
        "import trustopt.cli\n"
        "manifest, out = sys.argv[1:]\n"
        "assert trustopt.cli.main(['run', '--manifest', manifest, '--out', out]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, f'loaded by run: {loaded}'\n"
    )
    proc = subprocess.run([sys.executable, "-c", run_code, str(manifest_path), str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code = (
        "import sys\n"
        "import trustopt.cli\n"
        "out = sys.argv[1]\n"
        "def heavy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "assert trustopt.cli.main(['plot', out]) == 0\n"
        "assert not heavy(), f'loaded by plot: {heavy()}'\n"
        "assert trustopt.cli.main(['stats', out]) == 0\n"
        "assert not heavy(), f'loaded by stats: {heavy()}'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "stats_report.txt").exists()


def test_import_and_plot_leave_numpy_unloaded(manifest_path, tmp_path):
    # `trustopt plot` reads CSVs and writes SVG text; importing the CLI and
    # plotting must not pay for loading numpy.  Its error paths still exit
    # 2 on an empty input and 1, naming the file, on a malformed trace.
    out, empty, bad = tmp_path / "res", tmp_path / "empty", tmp_path / "bad"
    assert main(["run", "--manifest", str(manifest_path), "--out", str(out)]) == 0
    empty.mkdir()
    bad.mkdir()
    (bad / "trace_sphere_d2_tbo_rep0.csv").write_text("step,agent_id,best,mean\n1,0,x,1.0\n")
    package = Path(trustopt.__file__).parent
    code = (
        "import sys\n"
        "import trustopt.cli\n"
        "assert 'numpy' not in sys.modules, 'loaded by the import'\n"
        "out, empty, bad = sys.argv[1:]\n"
        "assert trustopt.cli.main(['plot', out]) == 0\n"
        "assert 'numpy' not in sys.modules, 'loaded by plot'\n"
        "assert trustopt.cli.main(['plot', empty]) == 2\n"
        "assert trustopt.cli.main(['plot', bad]) == 1\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    proc = subprocess.run([sys.executable, "-c", code, str(out), str(empty), str(bad)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "convergence_sphere_d2.svg").exists()
    assert "no trace CSVs" in proc.stderr
    assert "trace_sphere_d2_tbo_rep0.csv" in proc.stderr
