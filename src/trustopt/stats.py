"""Nonparametric comparison of final-result samples, and the reports of
``trustopt stats``.

Everything here is plain Python on the standard library: the rank
machinery (pooled mid-ranks with tie correction, Kruskal-Wallis H, Dunn
pairwise z statistics, Holm step-down adjustment), the per-group mean and
SD, and the two distribution tails.  The tails are ports of the Cephes
routines (Moshier 1989) that ``scipy.special.chdtrc`` and ``ndtr`` still
run, operation for operation, so p-values equal ``scipy.stats.chi2.sf``
and ``norm.sf`` bit for bit.  The mean and SD replay numpy's pairwise sum,
so they equal ``numpy.mean`` and ``numpy.std(ddof=1)`` bit for bit too.
Every function here takes 2 to 41 groups (``ValueError`` otherwise): past
df = 40 Cephes switches to an asymptotic series, which is not ported.
Nothing here imports numpy or scipy.

References
----------
W. H. Kruskal, W. A. Wallis, "Use of ranks in one-criterion variance
analysis", JASA 47 (1952).
O. J. Dunn, "Multiple comparisons using rank sums", Technometrics 6 (1964).
S. Holm, "A simple sequentially rejective multiple test procedure",
Scand. J. Statist. 6 (1979).
S. L. Moshier, "Methods and Programs for Mathematical Functions" (1989)
(the Cephes library).
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
# the chi-squared tail is ported for df <= 40
_MAX_GROUPS = 41


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
    if len(out) > _MAX_GROUPS:
        raise ValueError(f"at most {_MAX_GROUPS} groups can be compared, got {len(out)}")
    labels = [g.label for g in out]
    if len(set(labels)) != len(labels):
        raise ValueError("group labels must be unique")
    return out


def _pairwise_sum(xs: Sequence[float], lo: int, n: int) -> float:
    """``xs[lo:lo + n]`` summed as numpy's float64 ``add.reduce`` does:
    one left-to-right sum from 0 below 8 values, 8 interleaved accumulators
    up to 128, and above that the two halves (cut at a multiple of 8)
    summed separately."""
    if n < 8:
        res = 0.0
        for v in xs[lo:lo + n]:
            res += v
        return res
    if n <= 128:
        r = list(xs[lo:lo + 8])
        i, end = 8, n - n % 8
        while i < end:
            for j in range(8):
                r[j] += xs[lo + i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in xs[lo + i:lo + n]:
            res += v
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs, lo, half) + _pairwise_sum(xs, lo + half, n - half)


def _np_sum(xs: Sequence[float]) -> float:
    """``numpy.sum`` of a float sequence: the reduction starts from 0."""
    return 0.0 + _pairwise_sum(xs, 0, len(xs))


def summarize(groups: Groups) -> list[tuple[str, float, float, int]]:
    """Per-group (label, mean, sample SD, n); SD uses the n-1 divisor.

    Both equal ``numpy.mean`` and ``numpy.std(ddof=1)`` bit for bit: the
    mean is the pairwise sum over n, the SD the square root of the
    pairwise sum of squared deviations over n - 1.
    """
    out = []
    for g in _as_groups(groups):
        n = len(g.values)
        if n < 2:
            raise ValueError(f"group {g.label!r} needs at least 2 values for an SD")
        mean = _np_sum(g.values) / n
        var = _np_sum([(v - mean) * (v - mean) for v in g.values]) / (n - 1)
        out.append((g.label, mean, math.sqrt(var), n))
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
    """Kruskal-Wallis H test on 2 to 41 groups.

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
# distribution tails, ported from Cephes as scipy.special carries it: every
# constant, branch and operation in the same order, so each result carries
# the same bits.  math.erf, math.erfc, math.expm1 and math.lgamma differ
# from these in the last bit for some arguments.

_MACHEP = 1.11022302462515654042e-16  # 2**-53
_MAXLOG = 7.09782712893383996843e2  # log(2**1024)
_MAXITER = 2000
_BIG = 4.503599627370496e15  # 2**52
_BIGINV = 2.22044604925031308085e-16  # 2**-52


def _polevl(x: float, coef: Sequence[float]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Sequence[float]) -> float:
    """:func:`_polevl` with a leading coefficient of 1 left out of ``coef``."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)


def _erf(x: float) -> float:
    """Cephes ``erf`` for |x| <= 1 (beyond, Cephes takes 1 - erfc)."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    """Cephes ``erfc`` for a >= 0; 0 once exp(-a^2) would underflow."""
    if a < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 0.0
    if a < 8.0:
        p, q = _polevl(a, _ERFC_P), _p1evl(a, _ERFC_Q)
    else:
        p, q = _polevl(a, _ERFC_R), _p1evl(a, _ERFC_S)
    return (math.exp(z) * p) / q


_SQRT1_2 = math.sqrt(0.5)


def _norm_sf(z: float) -> float:
    """Standard normal upper tail, equal bit for bit to ``scipy.stats.norm.sf``,
    which is Cephes ``ndtr(-z)``."""
    x = -z * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(abs(x))
    return 1.0 - y if x > 0 else y


_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def _lgam(x: float) -> float:
    """Cephes ``lgam`` (log of the gamma function) for 0 < x < 1000."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
        return math.log(z) + p
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    return q + _polevl(1.0 / (x * x), _LGAM_A) / x


# Lanczos approximation (Boost's lanczos13m53), highest power first
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222, 0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208, 449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526, 75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507, 3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571, 43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342, 103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859)
_LANCZOS_DEN = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0, 45995730.0,
                105258076.0, 150917976.0, 120543840.0, 39916800.0, 0.0)


def _lanczos_sum_expg_scaled(x: float) -> float:
    """Cephes ``ratevl`` of the Lanczos sum: a polynomial in 1/x above 1.
    Numerator and denominator share their degree, so no power of x is
    left over."""
    if abs(x) > 1.0:
        y = 1.0 / x
        return _polevl(y, _LANCZOS_NUM[::-1]) / _polevl(y, _LANCZOS_DEN[::-1])
    return _polevl(x, _LANCZOS_NUM) / _polevl(x, _LANCZOS_DEN)


def _igam_fac(a: float, x: float) -> float:
    """x^a e^-x / gamma(a), for a and x below 200."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        if ax < -_MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.e) / _lanczos_sum_expg_scaled(a)
    return res * (math.exp(a - x) * math.pow(x / fac, a))


def _igam_series(a: float, x: float) -> float:
    """The regularized lower incomplete gamma function (DLMF 8.11.4)."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r, c, ans = a, 1.0, 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _igamc_continued_fraction(a: float, x: float) -> float:
    """The regularized upper incomplete gamma function (DLMF 8.9.2)."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2, 9.9999999999999999991025e-1)
_EXPM1_Q = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3,
            2.2726554820815502876593e-1, 2.0000000000000000000897e0)


def _expm1(x: float) -> float:
    """Cephes ``expm1`` for finite x."""
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    return r + r


# Cephes lgam1p(a) = log gamma(1 + a) from its Taylor series, at the only
# two values of a that reach _igamc_series (lgam1p(1) is log(1) plus the
# series at 0); math.lgamma(1.5) differs in the last bit
_LGAM1P = {0.5: -0.12078223763524884, 1.0: 0.0}


def _igamc_series(a: float, x: float) -> float:
    """The regularized upper incomplete gamma function for x <= 1.1 and
    a in {0.5, 1} (DLMF 8.7.3)."""
    fac, total = 1.0, 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= _MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _LGAM1P[a])
    return term - math.exp(a * logx - _lgam(a)) * total


def _igamc(a: float, x: float) -> float:
    """Cephes ``igamc`` (regularized upper incomplete gamma) for a half-integer
    a in [0.5, 20] and x >= 0.  Above a = 20 Cephes takes an asymptotic
    series near x = a, which is not ported."""
    if x == 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x > 1.1:
        if x < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_continued_fraction(a, x)
    if x <= 0.5:
        if -0.4 / math.log(x) < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_series(a, x)
    if x * 1.1 < a:
        return 1.0 - _igam_series(a, x)
    return _igamc_series(a, x)


def _chi2_sf(h: float, df: int) -> float:
    """Chi-squared upper tail for df <= 40, equal bit for bit to
    ``scipy.stats.chi2.sf``.

    That evaluates Cephes ``chdtrc(df, h) = igamc(df/2, h/2)`` and returns
    1 for h < 0, where ``chdtrc`` gives NaN; rounding can leave H at
    -1e-15.
    """
    return _igamc(df / 2.0, max(h, 0.0) / 2.0)


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
    2 to 41 algorithms and hold only finite values, before anything is
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
