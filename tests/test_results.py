"""Result-file round trips, naming, and curve collapsing."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from helpers import best_so_far_reference, mean_curve_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from trustopt import AgentTemplate, CredibilityConfig, TboConfig, run_repetitions
from trustopt.results import (
    SUMMARY_HEADER,
    TRACE_HEADER,
    best_so_far_series,
    mean_curve,
    parse_trace_filename,
    read_summary_csv,
    read_trace_csv,
    summary_filename,
    summary_rows,
    trace_filename,
    write_summary_csv,
    write_trace_csv,
)


def _trace(seed=5150, max_steps=7):
    cfg = TboConfig(
        agent_count=2, dimension=2, objective="sphere", epoch_length=3,
        diversity_factor=0.0, max_steps=max_steps, seed=seed,
        credibility=CredibilityConfig("trust", 5, 1, 50),
        per_agent=(AgentTemplate(population_size=3, offspring_size=4,
                                 base_crossover_rate=0.4, base_mutation_rate=0.2),),
    )
    return run_repetitions(cfg)[0]


# --- naming -----------------------------------------------------------------


def test_filenames_embed_cell_coordinates():
    assert trace_filename("sphere", 10, "island_model", 3) == \
        "trace_sphere_d10_island_model_rep3.csv"
    assert summary_filename("lennard_jones", 12) == "summary_lennard_jones_d12.csv"


def test_trace_filename_round_trip():
    name = trace_filename("schwefel_noise", 10, "strong_leadership", 7)
    parsed = parse_trace_filename(name)
    assert parsed == {"problem": "schwefel_noise", "dim": 10,
                      "algorithm": "strong_leadership", "rep": 7}
    # full paths are accepted too
    assert parse_trace_filename("/tmp/out/" + name)["rep"] == 7


def test_parse_rejects_foreign_names():
    for bad in ("summary_sphere_d10.csv", "trace_sphere.csv", "readme.txt",
                "trace_sphere_dX_tbo_rep1.csv"):
        with pytest.raises(ValueError):
            parse_trace_filename(bad)


# --- trace files ------------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    trace = _trace()
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    data = read_trace_csv(path)
    assert np.array_equal(data["step"], trace.steps)
    assert np.array_equal(data["agent_id"], trace.agent_ids)
    assert np.array_equal(data["best"], trace.best)
    assert np.array_equal(data["mean"], trace.mean)


def test_trace_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(_trace(max_steps=2), path)
    raw = path.read_bytes()
    assert raw.startswith(b"step,agent_id,best,mean\n")
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_trace_reader_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,agent,best,mean\n1,0,1.0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(path)


def test_trace_writes_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(_trace(), a)
    write_trace_csv(_trace(), b)
    assert a.read_bytes() == b.read_bytes()


def test_float_formatting_survives_round_trip(tmp_path):
    # repr round-trips doubles exactly, including awkward ones
    trace = _trace()
    trace.best[0] = 0.1 + 0.2
    trace.mean[0] = 1e-17
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    data = read_trace_csv(path)
    assert data["best"][0] == trace.best[0]
    assert data["mean"][0] == 1e-17


def test_trace_bytes_match_per_value_formatting(tmp_path):
    # the writer formats whole columns at once; each line must still read
    # as the step and agent id printed as integers and best and mean as
    # repr(float(x)), value by value
    best = np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3, np.inf, -np.inf, 1e300,
                     0.1 + 0.2, 2.0**53 + 2, np.nan])
    mean = best[::-1].copy()
    steps = np.array([0, 1, 2**31, 2**53 + 1, 2**62, 2**63 - 1, 7, 8, 9], dtype=np.int64)
    trace = replace(_trace(), steps=steps, agent_ids=np.arange(9, dtype=np.int64) * 10**12,
                    best=best, mean=mean)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    lines = ["step,agent_id,best,mean"] + [
        f"{steps[k]},{trace.agent_ids[k]},{float(best[k])!r},{float(mean[k])!r}"
        for k in range(len(steps))]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert lines[1] == "0,0,-0.0,nan" and lines[2] == "1,1000000000000,5e-324,9007199254740994.0"


# --- summary files ----------------------------------------------------------


def test_summary_round_trip(tmp_path):
    traces = [_trace(seed=5150), _trace(seed=5151)]
    for i, t in enumerate(traces):
        object.__setattr__(t, "repetition", i)
    rows = summary_rows("tbo", traces)
    path = tmp_path / summary_filename("sphere", 2)
    write_summary_csv(rows, path)
    back = read_summary_csv(path)
    assert len(back) == 2
    for row, trace, rep in zip(back, traces, (0, 1)):
        assert (row.problem, row.dim, row.algorithm) == ("sphere", 2, "tbo")
        assert row.repetition == rep
        assert row.final_best == trace.global_best.fitness
        assert row.steps == trace.total_steps
        assert row.seed == trace.seed
    assert path.read_text().splitlines()[0] == ",".join(SUMMARY_HEADER)


def test_summary_reader_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("problem,dim\nsphere,2\n")
    with pytest.raises(ValueError, match="header"):
        read_summary_csv(path)


def test_headers_are_fixed_tuples():
    assert TRACE_HEADER == ("step", "agent_id", "best", "mean")
    assert SUMMARY_HEADER == ("problem", "dim", "algorithm", "repetition",
                              "final_best", "steps", "seed")


# --- curve collapsing -------------------------------------------------------


def test_best_so_far_collapses_agents_then_accumulates():
    steps = np.array([1, 1, 2, 2, 3, 3])
    best = np.array([5.0, 4.0, 6.0, 7.0, 3.0, 9.0])
    uniq, curve = best_so_far_series(steps, best)
    assert uniq.tolist() == [1, 2, 3]
    assert curve.tolist() == [4.0, 4.0, 3.0]


def test_best_so_far_handles_unsorted_records():
    steps = np.array([3, 1, 2, 1])
    best = np.array([0.5, 8.0, 2.0, 9.0])
    uniq, curve = best_so_far_series(steps, best)
    assert uniq.tolist() == [1, 2, 3]
    assert curve.tolist() == [8.0, 2.0, 0.5]


def test_best_so_far_is_nonincreasing_on_real_trace():
    trace = _trace(max_steps=20)
    _, curve = best_so_far_series(trace.steps, trace.best)
    assert np.all(np.diff(curve) <= 0)


def _bits(values) -> list[bytes]:
    """Each value's eight bytes; every NaN reads as one value, since numpy
    and Python may carry different NaN payloads."""
    return [struct.pack("<d", v) if v == v else b"nan" for v in map(float, values)]


_VALUES = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


@settings(max_examples=300, deadline=None, database=None)
@given(records=st.lists(st.tuples(st.integers(-3, 12), _VALUES), max_size=60))
def test_best_so_far_matches_numpy_bit_for_bit(records):
    # a tie of 0.0 and -0.0 and a NaN resolve as under numpy.minimum
    steps = [s for s, _ in records]
    best = [v for _, v in records]
    ref_uniq, ref_curve = best_so_far_reference(steps, best)
    for args in ((steps, best), (np.array(steps, dtype=np.int64), np.array(best))):
        uniq, curve = best_so_far_series(*args)
        assert uniq.tolist() == ref_uniq.tolist()
        assert _bits(curve) == _bits(ref_curve)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_mean_curve_matches_numpy_bit_for_bit(data):
    # numpy sums a one-point column of eight or more values pairwise, and
    # mean_curve always left to right, so one-point curves stop at seven
    points = data.draw(st.integers(1, 6))
    reps = data.draw(st.integers(1, 7 if points == 1 else 69))
    flat = data.draw(st.lists(_VALUES, min_size=points * reps, max_size=points * reps))
    curves = [flat[r * points:(r + 1) * points] for r in range(reps)]
    assert _bits(mean_curve(curves)) == _bits(mean_curve_reference(curves))
