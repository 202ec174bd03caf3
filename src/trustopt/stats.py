"""Nonparametric comparison of final-result samples.

Implements the rank machinery by hand (pooled mid-ranks with tie
correction, Kruskal-Wallis H, Dunn pairwise z statistics, Holm step-down
adjustment); only the distribution tails (chi-squared, standard normal)
come from scipy, imported inside the two tests so that only ``stats``
commands load it.

References
----------
W. H. Kruskal, W. A. Wallis, "Use of ranks in one-criterion variance
analysis", JASA 47 (1952).
O. J. Dunn, "Multiple comparisons using rank sums", Technometrics 6 (1964).
S. Holm, "A simple sequentially rejective multiple test procedure",
Scand. J. Statist. 6 (1979).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "SampleGroup",
    "PairwiseComparison",
    "TestReport",
    "summarize",
    "kruskal_wallis",
    "dunn_holm",
    "compare_groups",
    "holm_adjust",
]


@dataclass(frozen=True)
class SampleGroup:
    """A labelled sample of final objective values (one value per run)."""

    label: str
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or len(self.values) < 1:
            raise ValueError(f"group {self.label!r} needs a non-empty 1-D sample")


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


Groups = Union[Sequence[SampleGroup], Mapping[str, np.ndarray]]


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
    """Per-group (label, mean, sample SD, n); SD uses the n-1 divisor."""
    out = []
    for g in _as_groups(groups):
        if len(g.values) < 2:
            raise ValueError(f"group {g.label!r} needs at least 2 values for an SD")
        out.append((g.label, float(np.mean(g.values)), float(np.std(g.values, ddof=1)),
                    len(g.values)))
    return out


def _rank(groups: Groups) -> tuple:
    """Rank the pooled sample once: the labels, each group's slice of the
    pooled mid-ranks, the pooled size and the tie term sum(t^3 - t)."""
    gs = _as_groups(groups)
    pooled = np.concatenate([g.values for g in gs])
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0.0], np.cumsum(counts)[:-1].astype(float))) + 1.0
    avg = starts + (counts - 1) / 2.0
    tie_term = float(np.sum(counts.astype(float) ** 3 - counts))
    ranks = np.split(avg[inverse], np.cumsum([len(g.values) for g in gs])[:-1])
    return tuple(g.label for g in gs), ranks, len(pooled), tie_term


def kruskal_wallis(groups: Groups) -> TestReport:
    """Kruskal-Wallis H test on two or more groups.

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
        h += r.sum() ** 2 / len(r)
    h = (12.0 / (n * (n + 1))) * h - 3.0 * (n + 1)
    h /= correction
    from scipy.stats import chi2
    p = float(chi2.sf(h, df))
    return TestReport(float(h), p, df, labels)


def holm_adjust(raw_p: Sequence[float]) -> np.ndarray:
    """Holm step-down adjusted p-values (monotone, capped at 1)."""
    raw = np.asarray(raw_p, dtype=float)
    m = len(raw)
    if m == 0:
        return raw.copy()
    order = np.argsort(raw, kind="stable")
    scaled = raw[order] * (m - np.arange(m))
    adjusted_sorted = np.minimum(1.0, np.maximum.accumulate(scaled))
    out = np.empty(m)
    out[order] = adjusted_sorted
    return out


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
    mean_ranks = [float(r.mean()) for r in ranks]
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

    from scipy.stats import norm
    zs = []
    raws = []
    for a, b in pairs:
        se = math.sqrt(var_factor * (1.0 / sizes[a] + 1.0 / sizes[b]))
        z = (mean_ranks[a] - mean_ranks[b]) / se
        zs.append(z)
        raws.append(2.0 * float(norm.sf(abs(z))))
    adjusted = holm_adjust(raws)
    comps = tuple(
        PairwiseComparison(labels[a], labels[b], zs[i], raws[i], float(adjusted[i]),
                           bool(adjusted[i] <= alpha))
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
