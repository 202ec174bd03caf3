"""Nonparametric comparison of final-result samples, and the reports of
``trustopt stats``.

Everything here is plain Python on the standard library: the rank
machinery (pooled mid-ranks with tie correction, Kruskal-Wallis H, Dunn
pairwise z statistics, Holm step-down adjustment), the per-group mean and
SD, and the two distribution tails.  The tails are closed forms: the
normal tail is ``math.erfc``, and the chi-squared tail for an integer df is
a finite sum of Poisson terms (plus ``erfc`` for odd df), so a comparison
takes any number of groups from 2 up.  The mean is summed
with ``math.fsum`` and the SD is a ``math.hypot`` of the deviations.
Nothing here imports numpy or scipy.

References
----------
W. H. Kruskal, W. A. Wallis, "Use of ranks in one-criterion variance
analysis", JASA 47 (1952).
O. J. Dunn, "Multiple comparisons using rank sums", Technometrics 6 (1964).
S. Holm, "A simple sequentially rejective multiple test procedure",
Scand. J. Statist. 6 (1979).
M. Abramowitz, I. A. Stegun, "Handbook of Mathematical Functions" (1964),
26.4.4-26.4.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from numbers import Real
from pathlib import Path
from typing import Mapping, Sequence, Union

from .results import read_summary_csv

__all__ = [
    "SampleGroup",
    "PairwiseComparison",
    "TestReport",
    "summarize",
    "kruskal_wallis",
    "dunn_holm",
    "compare_groups",
    "holm_adjust",
    "write_stats_reports",
    "BASELINE_ALGORITHM",
]

BASELINE_ALGORITHM = "island_model"


@dataclass(frozen=True)
class SampleGroup:
    """A labelled sample of final objective values (one value per run).

    ``values`` becomes a tuple of floats; it must be a non-empty 1-D
    sequence of finite real numbers.
    """

    label: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        try:  # one pass, so that an iterator is read once
            values = tuple(float(v) if isinstance(v, Real) else v for v in self.values)
        except (TypeError, OverflowError):  # not a sequence, or an int beyond a double
            values = ()
        bad = [v for v in values if not (isinstance(v, float) and math.isfinite(v))]
        if not values or bad:
            raise ValueError(f"group {self.label!r} needs a non-empty 1-D sample of finite "
                             f"real numbers" + (f", got {bad[0]!r}" if bad else ""))
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PairwiseComparison:
    group_a: str
    group_b: str
    z: float
    raw_p: float
    adjusted_p: float
    significant: bool


@dataclass(frozen=True)
class TestReport:
    """Result of an omnibus and/or pairwise comparison.

    ``degenerate`` flags the all-values-identical case, reported as p = 1
    by convention instead of an error.
    """

    statistic: float
    p_value: float
    df: int
    groups: tuple[str, ...]
    degenerate: bool = False
    pairwise: tuple[PairwiseComparison, ...] = field(default_factory=tuple)


Groups = Union[Sequence[SampleGroup], Mapping[str, Sequence[float]]]


def _as_groups(groups: Groups) -> list[SampleGroup]:
    if isinstance(groups, Mapping):
        out = [SampleGroup(k, v) for k, v in groups.items()]
    else:
        out = [g if isinstance(g, SampleGroup) else SampleGroup(*g) for g in groups]
    if len(out) < 2:
        raise ValueError("need at least 2 groups to compare")
    labels = [g.label for g in out]
    if len(set(labels)) != len(labels):
        raise ValueError("group labels must be unique")
    return out


def summarize(groups: Groups) -> list[tuple[str, float, float, int]]:
    """Per-group (label, mean, sample SD, n); SD uses the n-1 divisor.

    The mean is the correctly rounded sum (``math.fsum``) over n, and the
    SD the ``math.hypot`` of the deviations from it over sqrt(n - 1).  A
    sample near the largest double is scaled down by a power of two first,
    just enough that no sum or deviation overflows.
    """
    out = []
    for g in _as_groups(groups):
        n = len(g.values)
        if n < 2:
            raise ValueError(f"group {g.label!r} needs at least 2 values for an SD")
        top = math.frexp(max(map(abs, g.values)))[1]  # every |v| < 2**top
        scale = 2.0 ** max(0, top + n.bit_length() - 1023)
        mean = math.fsum(v / scale for v in g.values) / n
        sd = math.hypot(*(v / scale - mean for v in g.values)) / math.sqrt(n - 1)
        out.append((g.label, mean * scale, sd * scale, n))
    return out


def _rank(groups: Groups) -> tuple:
    """Rank the pooled sample once: the labels, each group's list of pooled
    mid-ranks, the pooled size and the tie term sum(t^3 - t).  Mid-ranks
    are half-integers, so their sums are exact in any order."""
    gs = _as_groups(groups)
    midrank: dict[float, float] = {}
    tie_term, start = 0, 1
    for value, run in groupby(sorted(v for g in gs for v in g.values)):
        t = sum(1 for _ in run)
        midrank[value] = start + (t - 1) / 2.0
        tie_term += t**3 - t
        start += t
    ranks = [[midrank[v] for v in g.values] for g in gs]
    return tuple(g.label for g in gs), ranks, start - 1, float(tie_term)


def kruskal_wallis(groups: Groups) -> TestReport:
    """Kruskal-Wallis H test on 2 or more groups.

    Uses pooled mid-ranks with the standard tie correction; the p-value is
    the chi-squared upper tail with k-1 degrees of freedom.  When every
    value across all groups is identical the statistic is undefined; the
    report carries H = 0, p = 1 and the degenerate flag.
    """
    return _kruskal_wallis(_rank(groups))


def _kruskal_wallis(ranked: tuple) -> TestReport:
    labels, ranks, n, tie_term = ranked
    correction = 1.0 - tie_term / (n**3 - n) if n > 1 else 0.0
    df = len(labels) - 1
    if correction <= 0.0:
        return TestReport(0.0, 1.0, df, labels, degenerate=True)

    h = 0.0
    for r in ranks:
        h += sum(r) ** 2 / len(r)
    h = (12.0 / (n * (n + 1))) * h - 3.0 * (n + 1)
    h /= correction
    return TestReport(h, _chi2_sf(h, df), df, labels)


def holm_adjust(raw_p: Sequence[float]) -> list[float]:
    """Holm step-down adjusted p-values (monotone, capped at 1), in the
    order of ``raw_p``."""
    raw = [float(p) for p in raw_p]
    m = len(raw)
    adjusted, running = [0.0] * m, 0.0
    for k, i in enumerate(sorted(range(m), key=raw.__getitem__)):
        running = max(running, raw[i] * (m - k))
        adjusted[i] = min(1.0, running)
    return adjusted


def dunn_holm(groups: Groups, alpha: float = 0.01) -> TestReport:
    """Dunn pairwise z tests on mean ranks with Holm adjustment.

    Every unordered group pair is compared; the variance uses the pooled
    tie correction.  ``significant`` flags adjusted p-values at or below
    ``alpha``.  The omnibus fields of the returned report are NaN; combine
    with :func:`kruskal_wallis` via :func:`compare_groups` when both are
    wanted.
    """
    return _dunn_holm(_rank(groups), alpha)


def _dunn_holm(ranked: tuple, alpha: float) -> TestReport:
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    labels, ranks, n, tie_term = ranked
    mean_ranks = [sum(r) / len(r) for r in ranks]
    sizes = [len(r) for r in ranks]

    var_factor = n * (n + 1) / 12.0 - tie_term / (12.0 * (n - 1)) if n > 1 else 0.0
    pairs = [(a, b) for a in range(len(labels)) for b in range(a + 1, len(labels))]
    if var_factor <= 0.0:
        comps = tuple(
            PairwiseComparison(labels[a], labels[b], 0.0, 1.0, 1.0, False)
            for a, b in pairs
        )
        return TestReport(math.nan, math.nan, len(labels) - 1, labels, degenerate=True,
                          pairwise=comps)

    zs = []
    raws = []
    for a, b in pairs:
        se = math.sqrt(var_factor * (1.0 / sizes[a] + 1.0 / sizes[b]))
        z = (mean_ranks[a] - mean_ranks[b]) / se
        zs.append(z)
        raws.append(2.0 * _norm_sf(abs(z)))
    adjusted = holm_adjust(raws)
    comps = tuple(
        PairwiseComparison(labels[a], labels[b], zs[i], raws[i], adjusted[i],
                           adjusted[i] <= alpha)
        for i, (a, b) in enumerate(pairs)
    )
    return TestReport(math.nan, math.nan, len(labels) - 1, labels, pairwise=comps)


def compare_groups(groups: Groups, alpha: float = 0.01) -> TestReport:
    """Omnibus Kruskal-Wallis plus Dunn/Holm pairwise report in one, from
    one ranking of the pooled sample."""
    ranked = _rank(groups)
    omnibus = _kruskal_wallis(ranked)
    posthoc = _dunn_holm(ranked, alpha)
    return TestReport(
        omnibus.statistic, omnibus.p_value, omnibus.df, omnibus.groups,
        degenerate=omnibus.degenerate or posthoc.degenerate,
        pairwise=posthoc.pairwise,
    )


# ---------------------------------------------------------------------------
# distribution tails


def _norm_sf(z: float) -> float:
    """Standard normal upper tail."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _chi2_sf(h: float, df: int) -> float:
    """Chi-squared upper tail for an integer df >= 1, in closed form
    (Abramowitz & Stegun 26.4.4-26.4.5).

    With x = h/2 and a running over 0, 1, ..., df/2 - 1 (even df) or 1/2,
    3/2, ..., df/2 - 1 (odd df), the tail is the sum of the terms
    x^a e^-x / gamma(a + 1), plus erfc(sqrt(x)) for odd df.  Each term is
    taken in log space and the terms are summed by ``math.fsum``, so no
    term underflows before the tail does.  Gives 1 for h <= 0: rounding
    can leave H at -1e-15.
    """
    x = max(h, 0.0) / 2.0
    if x == 0.0 or x == math.inf:
        return 1.0 if x == 0.0 else 0.0
    log_x, half = math.log(x), df % 2 / 2.0
    terms = [math.exp((i + half) * log_x - x - math.lgamma(i + half + 1.0))
             for i in range(df // 2)]
    if df % 2:
        terms.append(math.erfc(math.sqrt(x)))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# statistics reports

_OMNIBUS_HEADER = "problem,dim,h_statistic,p_value,df,degenerate"
_PAIRWISE_HEADER = "problem,dim,group_a,group_b,z,raw_p,adjusted_p,significant"
_BASELINE_HEADER = "problem,dim,algorithm,adjusted_p"


def _collect_groups(rows) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for r in rows:
        groups.setdefault(r.algorithm, []).append(r.final_best)
    return groups


def write_stats_reports(
    summary_paths: Sequence[Union[str, Path]],
    out_dir: Union[str, Path],
    alpha: float = 0.01,
    baseline: str = BASELINE_ALGORITHM,
) -> list[Path]:
    """Produce the comparison reports for a set of summary CSVs.

    Writes four files into ``out_dir``: ``stats_omnibus.csv`` (one
    Kruskal-Wallis row per problem), ``stats_pairwise.csv`` (every Dunn
    pair with Holm-adjusted p-values), ``stats_vs_baseline.csv`` (the
    algorithms not significantly different from the baseline at ``alpha``)
    and ``stats_report.txt`` (the same content as aligned text).  Every
    summary is read, and must be the only one of its (problem, dim), hold
    at least 2 algorithms and hold only finite values, before anything is
    written.
    """
    tables, seen = [], {}
    for path in summary_paths:
        rows = read_summary_csv(path)
        if not rows:
            raise ValueError(f"empty summary: {path}")
        key = (rows[0].problem, rows[0].dim)
        if key in seen:
            raise ValueError(f"duplicate summary for {key[0]} d={key[1]}: {seen[key]} and {path}")
        seen[key] = path
        groups = _collect_groups(rows)
        if len(groups) < 2:
            raise ValueError(f"summary {path} holds fewer than 2 algorithms")
        try:
            tables.append((key, _as_groups(groups)))
        except ValueError as err:
            raise ValueError(f"{err} in summary file {path}") from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    omnibus_lines = [_OMNIBUS_HEADER]
    pairwise_lines = [_PAIRWISE_HEADER]
    baseline_lines = [_BASELINE_HEADER]
    text: list[str] = []

    for (problem, dim), sample in tables:
        report = compare_groups(sample, alpha)
        stats_rows = summarize(sample) if min(len(g.values) for g in sample) >= 2 else None

        omnibus_lines.append(
            f"{problem},{dim},{report.statistic!r},{report.p_value!r},{report.df},"
            f"{'true' if report.degenerate else 'false'}"
        )
        text.append(f"== {problem} (D={dim}) ==")
        if stats_rows is not None:
            text.append(f"  {'algorithm':<20} {'mean':>14} {'sd':>14} {'n':>4}")
            for label, mean, sd, n in stats_rows:
                text.append(f"  {label:<20} {mean:>14.6g} {sd:>14.6g} {n:>4}")
        text.append(f"  Kruskal-Wallis H = {report.statistic:.6g}, "
                    f"p = {report.p_value:.6g} (df = {report.df})"
                    + ("  [degenerate]" if report.degenerate else ""))
        text.append(f"  {'pair':<42} {'z':>10} {'raw p':>12} {'adj p':>12}  sig")
        ties = []
        for c in report.pairwise:
            pairwise_lines.append(
                f"{problem},{dim},{c.group_a},{c.group_b},{c.z!r},{c.raw_p!r},"
                f"{c.adjusted_p!r},{'true' if c.significant else 'false'}"
            )
            pair = f"{c.group_a} vs {c.group_b}"
            text.append(f"  {pair:<42} {c.z:>10.4f} {c.raw_p:>12.4g} "
                        f"{c.adjusted_p:>12.4g}  {'*' if c.significant else '-'}")
            if baseline in (c.group_a, c.group_b) and not c.significant:
                other = c.group_b if c.group_a == baseline else c.group_a
                ties.append((other, c.adjusted_p))
        for other, adj in ties:
            baseline_lines.append(f"{problem},{dim},{other},{adj!r}")
        if ties:
            text.append(f"  not significantly different from {baseline} at alpha={alpha:g}: "
                        + ", ".join(o for o, _ in ties))
        else:
            text.append(f"  every algorithm differs from {baseline} at alpha={alpha:g}")
        text.append("")

    written = []
    for fname, lines in (
        ("stats_omnibus.csv", omnibus_lines),
        ("stats_pairwise.csv", pairwise_lines),
        ("stats_vs_baseline.csv", baseline_lines),
    ):
        p = out / fname
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(p)
    p = out / "stats_report.txt"
    p.write_text("\n".join(text) + "\n", encoding="utf-8")
    written.append(p)
    return written
