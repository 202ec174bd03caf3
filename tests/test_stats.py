"""Rank statistics: summaries, omnibus test, pairwise tests, adjustment,
and the reports, checked against exact arithmetic, mpmath and the numpy
and scipy formulas."""

import math
import random
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from helpers import STATS_REFERENCE
from hypothesis import given, settings
from hypothesis import strategies as st

import trustopt.stats
from trustopt import (
    SampleGroup,
    compare_groups,
    dunn_holm,
    holm_adjust,
    kruskal_wallis,
    summarize,
    write_stats_reports,
)
from trustopt.results import write_summary_csv

try:  # scipy is a cross-check of the tails, where it is installed
    import scipy.stats as scipy_stats
except ImportError:
    scipy_stats = None


def _midrank_oracle(pooled):
    """Mid-ranks by explicit tie-run walking over a sorted index list."""
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and pooled[order[j]] == pooled[order[i]]:
            j += 1
        avg = (i + 1 + j) / 2.0
        for q in range(i, j):
            ranks[order[q]] = avg
        i = j
    return ranks


def _h_oracle(groups_values):
    pooled = [v for g in groups_values for v in g]
    ranks = _midrank_oracle(pooled)
    n = len(pooled)
    tie = sum(t**3 - t for t in Counter(pooled).values())
    correction = 1.0 - tie / (n**3 - n)
    h = 0.0
    pos = 0
    for g in groups_values:
        r = ranks[pos: pos + len(g)]
        pos += len(g)
        h += sum(r) ** 2 / len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    return h / correction


# --- summaries --------------------------------------------------------------


def test_summarize_constant_and_simple_groups():
    rows = summarize({"a": [2.0, 2.0, 2.0], "b": [1.0, 2.0, 3.0]})
    assert rows[0] == ("a", 2.0, 0.0, 3)
    label, mean, sd, n = rows[1]
    assert (label, n) == ("b", 3)
    assert mean == 2.0
    assert sd == 1.0


def test_summarize_matches_two_pass_oracle(rng):
    values = rng.normal(loc=3.0, scale=7.0, size=25)
    (_, mean, sd, n), _ = summarize({"x": values, "pad": [0.0, 1.0]})
    om = sum(values) / len(values)
    osd = math.sqrt(sum((v - om) ** 2 for v in values) / (len(values) - 1))
    assert mean == pytest.approx(om, rel=1e-12)
    assert sd == pytest.approx(osd, rel=1e-12)
    assert n == 25


_SPREAD_POOL = (-0.0, 0.0, 1.0, 3.3, 1e16, -1e16, 1e-300, sys.float_info.max,
                -sys.float_info.max)


def test_summarize_matches_exact_fractions(rng):
    # against exact rational arithmetic, on lengths up to 300: magnitudes
    # from 1e-300 to 1e307, a pool of ties, +-0.0 and +-the largest double
    # (sums that overflow a double, and cancel), and values near a common
    # centre (deviations that cancel); the mean is within one float of the
    # exact mean, the SD within a relative 1e-12 wherever the exact SD is
    # above 1e-9 times the largest |v|, and inf where it rounds past the
    # largest double
    overflow = Fraction(2**1024 - 2**970) ** 2  # an SD from here on rounds to inf
    lo, hi = Fraction(1 - _REL) ** 2, Fraction(1 + _REL) ** 2
    for n in [*range(2, 34), *range(34, 301, 9)]:
        centre = rng.normal() * 10.0 ** rng.integers(-290, 290)
        for values in (rng.normal(size=n) * 10.0 ** rng.integers(-300, 308, size=n),
                       rng.choice(_SPREAD_POOL, size=n),
                       centre * (1.0 + rng.normal(size=n) * 10.0 ** -rng.integers(1, 13))):
            values = values.tolist()
            (_, mean, sd, _), _ = summarize({"x": values, "pad": [0.0, 1.0]})
            exact = sum(map(Fraction, values)) / n
            near = float(exact)
            assert mean in (math.nextafter(near, -math.inf), near,
                            math.nextafter(near, math.inf)), (n, values)
            var = sum((Fraction(v) - exact) ** 2 for v in values) / (n - 1)
            if var >= overflow:
                assert sd == math.inf, (n, values)
            elif var == 0:
                assert sd == 0.0, (n, values)
            elif var > (max(map(abs, map(Fraction, values))) / 10**9) ** 2:
                assert lo <= Fraction(sd) ** 2 / var <= hi, (n, values)


def test_summarize_rejects_singleton():
    with pytest.raises(ValueError):
        summarize({"a": [1.0], "b": [1.0, 2.0]})


# --- omnibus ----------------------------------------------------------------


def test_kruskal_identical_values_flagged_degenerate():
    report = kruskal_wallis({"a": [5.0, 5.0, 5.0], "b": [5.0, 5.0]})
    assert report.degenerate
    assert report.statistic == 0.0
    assert report.p_value == 1.0
    assert report.df == 1


def test_kruskal_two_separated_triples():
    report = kruskal_wallis({"low": [1.0, 2.0, 3.0], "high": [4.0, 5.0, 6.0]})
    assert report.statistic == pytest.approx(174.0 / 7.0 - 21.0, rel=1e-12)
    assert report.p_value == pytest.approx(0.0495346, abs=1e-6)
    assert not report.degenerate
    assert report.groups == ("low", "high")


def test_kruskal_matches_walked_rank_oracle(rng):
    for _ in range(50):
        sizes = rng.integers(2, 9, size=int(rng.integers(2, 5)))
        data = [rng.integers(0, 6, size=s).astype(float) for s in sizes]
        if len(set(np.concatenate(data))) == 1:
            continue
        got = kruskal_wallis([("g%d" % i, d) for i, d in enumerate(data)])
        assert got.statistic == pytest.approx(_h_oracle([list(d) for d in data]),
                                              rel=1e-12)


@pytest.mark.skipif(scipy_stats is None, reason="scipy is not installed")
def test_kruskal_agrees_with_scipy_under_ties(rng):
    a = rng.integers(0, 4, size=12).astype(float)
    b = rng.integers(1, 5, size=9).astype(float)
    c = rng.integers(0, 3, size=15).astype(float)
    ours = kruskal_wallis({"a": a, "b": b, "c": c})
    ref_h, ref_p = scipy_stats.kruskal(a, b, c)
    assert ours.statistic == ref_h
    assert _tail_close(ours.p_value, ref_p, _FLOOR)


def test_kruskal_shift_leaves_statistic_alone():
    a = [1.0, 4.0, 4.0, 9.0]
    b = [2.0, 2.0, 7.0]
    base = kruskal_wallis({"a": a, "b": b})
    moved = kruskal_wallis({"a": [v + 7 for v in a], "b": [v + 7 for v in b]})
    assert moved.statistic == base.statistic
    assert moved.p_value == base.p_value


def test_group_validation():
    with pytest.raises(ValueError):
        kruskal_wallis({"only": [1.0, 2.0]})
    with pytest.raises(ValueError):
        kruskal_wallis([SampleGroup("x", [1.0]), SampleGroup("x", [2.0])])
    with pytest.raises(ValueError):
        SampleGroup("bad", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SampleGroup("empty", [])
    # ranks need an order, which NaN does not have; infinities are no
    # run's result
    for bad in ([1.0, math.nan], [math.inf, 1.0], np.array([-np.inf]), ["1.0", 2.0],
                [[1.0], [2.0]], 3.0, [10**400]):
        with pytest.raises(ValueError):
            SampleGroup("bad", bad)
        with pytest.raises(ValueError):
            compare_groups({"bad": bad, "ok": [1.0, 2.0]})
    assert SampleGroup("ok", np.array([1, 2.5])).values == (1.0, 2.5)


# --- step-down adjustment ---------------------------------------------------


def test_holm_hand_example():
    assert np.allclose(holm_adjust([0.01, 0.04, 0.03]), [0.03, 0.06, 0.06],
                       rtol=0, atol=1e-15)


def test_holm_single_and_empty():
    assert holm_adjust([0.2]) == [0.2]
    assert holm_adjust([]) == []


def _holm_loop_oracle(raw):
    m = len(raw)
    order = sorted(range(m), key=lambda i: raw[i])
    out = [0.0] * m
    running = 0.0
    for rank, i in enumerate(order):
        running = max(running, (m - rank) * raw[i])
        out[i] = min(1.0, running)
    return out


def test_holm_matches_loop_oracle_and_properties(rng):
    for _ in range(100):
        m = int(rng.integers(1, 12))
        raw = np.round(rng.random(m), 2)  # coarse grid forces ties
        adj = np.array(holm_adjust(raw))
        assert np.array_equal(adj, np.array(_holm_loop_oracle(list(raw))))
        assert np.array_equal(adj, STATS_REFERENCE["holm_adjust"](raw))
        assert np.all(adj >= raw)
        assert np.all(adj <= 1.0)
        order = np.argsort(raw, kind="stable")
        assert np.all(np.diff(adj[order]) >= 0)
        # label order must not matter
        perm = rng.permutation(m)
        assert np.array_equal(holm_adjust(raw[perm]), adj[perm])
        assert all(type(p) is float for p in holm_adjust(raw))


# --- pairwise ---------------------------------------------------------------


def test_dunn_identical_groups_degenerate():
    report = dunn_holm({"a": [3.0, 3.0], "b": [3.0, 3.0, 3.0]})
    assert report.degenerate
    assert math.isnan(report.statistic)
    (pc,) = report.pairwise
    assert pc.raw_p == 1.0 and pc.adjusted_p == 1.0 and not pc.significant


def test_dunn_separated_groups_significant():
    a = np.arange(8.0)
    b = np.arange(8.0) + 100.0
    report = dunn_holm({"a": a, "b": b})
    (pc,) = report.pairwise
    # distinct pooled values: var factor is 16*17/12, mean ranks 4.5 / 12.5
    se = math.sqrt(16 * 17 / 12 * (1 / 8 + 1 / 8))
    assert pc.z == pytest.approx(-8.0 / se, rel=1e-12)
    assert pc.adjusted_p == pc.raw_p
    assert pc.significant
    assert pc.adjusted_p < 0.01


def test_dunn_pair_enumeration_and_symmetry():
    data = {"a": [1.0, 2.0], "b": [3.0, 4.0], "c": [5.0, 6.0]}
    report = dunn_holm(data)
    assert [(p.group_a, p.group_b) for p in report.pairwise] == [
        ("a", "b"), ("a", "c"), ("b", "c")]
    flipped = dunn_holm({"b": data["b"], "a": data["a"], "c": data["c"]})
    ab = report.pairwise[0]
    ba = flipped.pairwise[0]
    assert ba.group_a == "b" and ba.group_b == "a"
    assert ba.z == -ab.z
    assert ba.raw_p == ab.raw_p


def test_dunn_invariant_under_order_preserving_maps():
    a = [1.0, 4.0, 4.0, 10.0, 2.0]
    b = [3.0, 4.0, 8.0, 8.0]
    base = dunn_holm({"a": a, "b": b})
    scaled = dunn_holm({"a": [3 * v + 7 for v in a], "b": [3 * v + 7 for v in b]})
    for p, q in zip(base.pairwise, scaled.pairwise):
        assert q.z == p.z
        assert q.raw_p == p.raw_p
        assert q.adjusted_p == p.adjusted_p


def test_dunn_alpha_validation():
    data = {"a": [1.0, 2.0], "b": [3.0, 4.0]}
    with pytest.raises(ValueError):
        dunn_holm(data, alpha=0.0)
    with pytest.raises(ValueError):
        dunn_holm(data, alpha=1.0)


def test_dunn_holm_adjustment_applied_across_pairs(rng):
    data = {k: rng.normal(loc=i, size=10) for i, k in enumerate("abcd")}
    report = dunn_holm(data)
    raws = [p.raw_p for p in report.pairwise]
    adj = holm_adjust(raws)
    assert np.array_equal([p.adjusted_p for p in report.pairwise], adj)


# --- combined ---------------------------------------------------------------


def test_compare_groups_merges_both_reports():
    data = {"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0], "c": [2.0, 3.0, 4.0]}
    combined = compare_groups(data, alpha=0.05)
    omni = kruskal_wallis(data)
    post = dunn_holm(data, alpha=0.05)
    assert combined.statistic == omni.statistic
    assert combined.p_value == omni.p_value
    assert combined.df == 2
    assert combined.pairwise == post.pairwise
    assert not combined.degenerate


def test_compare_groups_degenerate_flag_propagates():
    combined = compare_groups({"a": [1.0, 1.0], "b": [1.0, 1.0]})
    assert combined.degenerate
    assert combined.p_value == 1.0


# --- distribution tails -----------------------------------------------------

# A tail is checked to a relative 1e-12 of its reference wherever the
# reference is at least 1e-300.  Below that, where the subnormal range
# begins to cut digits, mpmath (at 50 digits) is met to 1e-312 absolute,
# and scipy, whose Cephes tails flush to 0 once exp(-x) underflows, to
# 1e-300 absolute.
_REL, _FLOOR = 1e-12, 1e-300


def _tail_close(got, ref, floor=_REL * _FLOOR):
    return abs(got - ref) <= max(_REL * abs(ref), floor)


def _mp_chi2_sf(h, df):
    if math.isinf(h):
        return mpmath.mpf(0)
    with mpmath.workdps(50):
        return mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(h) / 2, mpmath.inf,
                               regularized=True)


def _mp_norm_sf(z):
    if z > 100.0:  # below 1e-2000; mpmath's erfc cannot take 1e300
        return mpmath.mpf(0)
    with mpmath.workdps(50):
        return mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2


def test_norm_tail_matches_mpmath(rng):
    from trustopt.stats import _norm_sf

    # the body, both tails up to z = 37.5 (a tail of 4.6e-308), and the
    # points where the tail underflows
    zs = np.concatenate(([0.0, 5e-324, 1e-300, 1.0, np.nextafter(1.0, 0.0),
                          np.nextafter(1.0, 2.0), 8.0 * math.sqrt(2.0), 37.5, 38.0, 40.0, 1e300],
                         np.linspace(-40.0, 37.5, 1551), np.linspace(37.5, 38.6, 23),
                         rng.uniform(-40.0, 37.5, size=1000), -rng.uniform(0.0, 10.0, size=200)))
    ours = [_norm_sf(z) for z in zs.tolist()]
    bad = [(z, p) for z, p in zip(zs.tolist(), ours) if not _tail_close(p, _mp_norm_sf(z))]
    assert not bad, bad[:5]
    assert [_norm_sf(z) for z in (40.0, 1e300, math.inf)] == [0.0, 0.0, 0.0]
    assert _norm_sf(-math.inf) == 1.0
    if scipy_stats is not None:
        ref = scipy_stats.norm.sf(zs).tolist()
        assert all(_tail_close(p, r, _FLOOR) for p, r in zip(ours, ref))


def test_chi2_tail_matches_mpmath(rng):
    from trustopt.stats import _chi2_sf

    # the edge points for every df, the body of each distribution, and
    # tails out to h = 4000, far below 1e-300 for small df
    edges = [v for h in (1.0, 2.2) for v in (np.nextafter(h, 0.0), h, np.nextafter(h, 3.0))]
    dfs = list(range(1, 201)) + [500]
    for df in dfs:
        body = df + 10.0 * math.sqrt(2.0 * df) + 30.0
        hs = np.concatenate((edges, np.linspace(0.0, 3.0, 16)[1:],
                             rng.exponential(5.0, size=4), rng.uniform(0.0, body, size=8),
                             rng.uniform(0.0, 4000.0, size=8)))
        ours = [_chi2_sf(h, df) for h in hs.tolist()]
        bad = [(h, p) for h, p in zip(hs.tolist(), ours) if not _tail_close(p, _mp_chi2_sf(h, df))]
        assert not bad, (df, bad[:5])
        if scipy_stats is not None:
            ref = scipy_stats.chi2.sf(hs, df).tolist()
            assert all(_tail_close(p, r, _FLOOR) for p, r in zip(ours, ref)), df
        # rounding can leave H just below 0; the tail is 1 there
        assert [_chi2_sf(h, df) for h in (-1e-15, -0.0, 0.0, 5e-324)] == [1.0] * 4
        assert [_chi2_sf(h, df) for h in (1e300, math.inf)] == [0.0, 0.0]
    # the plain recursion term *= x / i from exp(-x) would give 0 here
    assert _tail_close(_chi2_sf(1490.0, 40), _mp_chi2_sf(1490.0, 40))


@pytest.mark.skipif(scipy_stats is None, reason="scipy is not installed")
def test_more_than_41_groups_match_scipy():
    # any number of groups has a chi-squared tail: 60 groups, df = 59
    groups = {f"g{i}": [float(i % 17), i + 0.5, float(i * 7 % 23)] for i in range(60)}
    report = compare_groups(groups)
    ref_h, ref_p = scipy_stats.kruskal(*groups.values())
    assert report.df == 59
    assert report.statistic == ref_h
    assert _tail_close(report.p_value, ref_p, _FLOOR)
    assert 1e-6 < report.p_value < 1.0 - 1e-6


@pytest.mark.skipif(scipy_stats is None, reason="scipy is not installed")
def test_compare_groups_matches_scipy(rng):
    # H is equal bit for bit to scipy.stats.kruskal's; the p-values lie
    # within the tail bound of scipy's
    for trial in range(60):
        k = int(rng.integers(2, 12))
        sizes = rng.integers(2, 10, size=k)
        if trial % 2:  # ties
            data = {f"g{i}": rng.integers(0, 5, size=s).astype(float)
                    for i, s in enumerate(sizes)}
        else:
            data = {f"g{i}": rng.normal(loc=0.3 * i, size=s) for i, s in enumerate(sizes)}
        report = compare_groups(data)
        if report.degenerate:
            continue
        ref_h, ref_p = scipy_stats.kruskal(*data.values())
        assert report.statistic == ref_h
        assert _tail_close(report.p_value, ref_p, _FLOOR)
        for p in report.pairwise:
            assert _tail_close(p.raw_p, 2.0 * float(scipy_stats.norm.sf(abs(p.z))), _FLOOR)


# --- reports against the numpy and scipy formulas ---------------------------


_TIE_VALUES = (-0.0, 0.0, 1.0, -2.5, 3.0, 1e-300, 1e16)
_P_FIELDS = ("p_value", "raw_p", "adjusted_p")


@st.composite
def _summary_groups(draw):
    """2-8 groups of 1-300 values: drawn from a small pool (ties, +-0.0)
    and from a wide continuous spread, mixed in a drawn share."""
    sizes = draw(st.lists(st.integers(1, 300), min_size=2, max_size=8))
    pool = draw(st.lists(st.sampled_from(_TIE_VALUES) | st.floats(allow_nan=False,
                                                                     allow_infinity=False),
                         min_size=1, max_size=6))
    tie_share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    return [[rnd.choice(pool) if rnd.random() < tie_share
             else rnd.gauss(0.0, 1.0) * 10.0 ** rnd.randint(-6, 6) for _ in range(n)]
            for n in sizes]


def _reports(summary, out, alpha, references):
    with pytest.MonkeyPatch.context() as mp:
        for name in references:
            mp.setattr(trustopt.stats, name, STATS_REFERENCE[name])
        return write_stats_reports([summary], out, alpha=alpha)


@pytest.mark.skipif(scipy_stats is None, reason="scipy is not installed")
@settings(max_examples=60, deadline=None, database=None)
@given(groups=_summary_groups(), alpha=st.sampled_from([0.01, 0.05]))
def test_reports_match_the_numpy_scipy_reference_bytes(groups, alpha):
    # the ranking and the Holm adjustment by numpy give the same bytes; with
    # the mean, SD and tails by numpy and scipy too, every CSV field but the
    # p-values keeps its bytes, and the p-values lie within the tail bound
    labels = ["island_model"] + [f"g{k}" for k in range(1, len(groups))]
    rows = [("sphere", 2, label, rep, v, 10, 7)
            for label, values in zip(labels, groups) for rep, v in enumerate(values)]
    with tempfile.TemporaryDirectory() as tmp:
        summary = Path(tmp) / "summary_sphere_d2.csv"
        write_summary_csv(rows, summary)
        ours = write_stats_reports([summary], Path(tmp) / "ours", alpha=alpha)
        ref = _reports(summary, Path(tmp) / "ref", alpha, ("_rank", "holm_adjust"))
        for a, b in zip(ours, ref):
            assert a.read_bytes() == b.read_bytes(), a.name
        full = _reports(summary, Path(tmp) / "full", alpha, STATS_REFERENCE)
        for a, b in zip(ours[:3], full[:3]):
            got, want = (p.read_text().splitlines() for p in (a, b))
            assert len(got) == len(want) and got[0] == want[0], a.name
            header = got[0].split(",")
            for line, ref_line in zip(got[1:], want[1:]):
                for name, x, y in zip(header, line.split(","), ref_line.split(",")):
                    same = _tail_close(float(x), float(y), _FLOOR) if name in _P_FIELDS else x == y
                    assert same, (a.name, name, x, y)
