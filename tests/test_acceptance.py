"""End-to-end acceptance checks for the shipped behavior.

Each test pins one externally visible guarantee: oracle equivalence for
the share selection of ``exchange_all`` and its gene-adoption kernel, the
credibility update tables, run
monotonicity and the headline comparative claim, benchmark ground truths,
an independent statistics reference, byte determinism and the full desk
experiment.  Oracles here are written in plain Python on purpose so they
share no code with the vectorized implementations they check.
"""

import math
import time
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from helpers import credit_after, exchange_pair, genomes_with_values

from trustopt import (
    OBJECTIVE_NAMES,
    PRESET_NAMES,
    SampleGroup,
    dunn_holm,
    get_objective,
    kruskal_wallis,
    load_manifest,
    load_preset,
    run_manifest,
    run_repetitions,
    write_plots,
    write_stats_reports,
)
from trustopt.config import with_cell
from trustopt.engine import run_cells
from trustopt.results import read_summary_csv
from trustopt.socio import _adopt


def test_shared_selection_matches_sort_truncate_oracle():
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        values = np.round(rng.normal(scale=3, size=n), 1)  # rounding forces ties
        credibility = int(rng.integers(1, 51))
        # a weak full-depth swap breeds one copy of each shared member, in
        # share order, on a recipient (fitness 1000) that accepts any share
        ex = exchange_pair(genomes_with_values([1000.0] * n), genomes_with_values(values),
                           share=credibility)
        shared = ex.blocks[0]
        m = min(credibility, n)
        order = sorted(range(n), key=lambda i: (-values[i], i))[:m]
        assert len(shared) == m
        assert [int(g[1]) for g in shared] == order
        assert [g[0] for g in shared] == [values[i] for i in order]


def _phi_oracle(y, x, k, gene_op):
    ranked = sorted(range(len(y)), key=lambda i: (-abs(x[i] - y[i]), i))
    out = list(y)
    for i in ranked[:k]:
        out[i] = x[i] if gene_op == "swap" else (y[i] + x[i]) / 2.0
    return out


def test_phi_matches_exhaustive_oracle():
    rng = np.random.default_rng(1002)
    for _ in range(500):
        d = int(rng.integers(1, 7))
        y = np.round(rng.normal(size=d), 1)
        x = np.round(rng.normal(size=d), 1)
        for k in range(1, d + 1):
            for gene_op in ("swap", "average"):
                got = _adopt(y[None].copy(), x[None], np.array([k]), gene_op == "average")[0]
                assert got.tolist() == _phi_oracle(y.tolist(), x.tolist(), k, gene_op)


def test_credibility_update_tables_and_bounds():
    improvement = dict(mean_before=10.0, mean_after=9.0, mean_shared=1.0, threshold=20.0)
    rejection = dict(mean_before=10.0, mean_after=10.0, mean_shared=25.0, threshold=20.0)
    neither = dict(mean_before=10.0, mean_after=10.0, mean_shared=15.0, threshold=20.0)

    assert credit_after("trust", 5, **improvement) == 6
    assert credit_after("trust", 1, **rejection) == 1
    assert credit_after("trust", 5, **neither) == 5
    assert credit_after("reputation", (30, 30), **improvement) == (29, 31)
    assert credit_after("reputation", (50, 1), **rejection) == (50, 1)
    assert credit_after("reputation", (12, 34), **neither) == (12, 34)

    rng = np.random.default_rng(1003)
    trust, rep_a, rep_b = 25, 25, 25
    for _ in range(10_000):
        mb, ma, ms, th = (float(v) for v in rng.normal(scale=20, size=4))
        trust = credit_after("trust", trust, mb, ma, ms, th)
        rep_a, rep_b = credit_after("reputation", (rep_a, rep_b), mb, ma, ms, th)
        assert 1 <= trust <= 50
        assert 1 <= rep_a <= 50 and 1 <= rep_b <= 50


def test_best_so_far_nonincreasing_across_suite():
    # each (objective, seed)'s presets run as one lockstep group, as
    # ``trustopt run`` runs a problem's cells
    started = time.perf_counter()
    for objective in OBJECTIVE_NAMES:
        dimension = 12 if objective == "lennard_jones" else 10
        noisy = objective == "schwefel_noise"
        for seed in (9001, 9002, 9003):
            cfgs = [with_cell(load_preset(preset), objective=objective, dimension=dimension,
                              max_steps=2000, seed=seed, repetitions=1)
                    for preset in PRESET_NAMES]
            for preset, cfg, (trace,) in zip(PRESET_NAMES, cfgs,
                                             run_cells(cfgs, record_every=1)):
                # the observed global best is the floor of everything seen
                assert trace.global_best.fitness <= trace.best.min()
                if not noisy:
                    # deterministic fitness: each population's best never
                    # regresses under elitist replacement or migration
                    for agent in range(cfg.agent_count):
                        series = trace.best[trace.agent_ids == agent]
                        assert np.all(np.diff(series) <= 0), (objective, preset, agent)
                uniq, curve = _best_so_far(trace)
                assert np.all(np.diff(curve) <= 0)
                assert len(uniq) == 2000
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"monotonicity suite took {elapsed:.1f}s"


def _best_so_far(trace):
    from trustopt.results import best_so_far_series

    return best_so_far_series(trace.steps, trace.best)


def test_trust_gated_beats_island_model_on_sphere_median():
    started = time.perf_counter()
    medians = {}
    for preset in ("high_diversity", "island_model"):
        cfg = with_cell(load_preset(preset), objective="sphere", dimension=10,
                        max_steps=5000, seed=20260825, repetitions=8)
        traces = run_repetitions(cfg, record_every=5000)
        medians[preset] = float(np.median([t.global_best.fitness for t in traces]))
    elapsed = time.perf_counter() - started
    print(f"sphere d10 medians after 5000 steps: "
          f"credibility-gated={medians['high_diversity']:.6g} "
          f"island={medians['island_model']:.6g} ({elapsed:.1f}s)")
    assert medians["high_diversity"] <= medians["island_model"]
    assert elapsed < 60.0, f"median comparison took {elapsed:.1f}s"


def test_share_rejection_sign_cases():
    def run_case(recipient_mean, shared_mean):
        # both members of each agent are shared, so the share mean is exact
        recipient = genomes_with_values([recipient_mean, recipient_mean])
        ex = exchange_pair(recipient, genomes_with_values([shared_mean, shared_mean]),
                           share=2, depth=1)
        return recipient, ex, ex.record.accepted

    # positive recipient mean: cutoff at twice the mean
    recipient, ex, accepted = run_case(10.0, 30.0)
    assert not accepted
    assert np.array_equal(ex.genes[0], recipient)
    _, _, accepted = run_case(10.0, 5.0)
    assert accepted
    _, _, accepted = run_case(10.0, 20.0)
    assert accepted  # boundary: strict comparison
    _, _, accepted = run_case(10.0, np.nextafter(20.0, 21.0))
    assert not accepted

    # zero recipient mean: cutoff collapses to zero
    _, _, accepted = run_case(0.0, 0.0)
    assert accepted
    recipient, ex, accepted = run_case(0.0, 1e-12)
    assert not accepted
    assert np.array_equal(ex.genes[0], recipient)

    # negative recipient mean: cutoff is zero, not twice the mean
    _, _, accepted = run_case(-100.0, -1.0)
    assert accepted
    recipient, ex, accepted = run_case(-100.0, 1.0)
    assert not accepted
    assert np.array_equal(ex.genes[0], recipient)


def test_benchmark_ground_truths():
    for name in ("sphere", "griewank", "rastrigin", "expanded_schaffer"):
        spec = get_objective(name, 10)
        assert float(spec.base(np.zeros((1, 10)))[0]) == 0.0

    schwefel = get_objective("schwefel_noise", 10, noise_sigma=0.0)
    at_opt = float(schwefel.base(np.full((1, 10), 420.9687))[0])
    assert abs(at_opt) <= 1e-2 * 10

    for a, b in ((1.0, 2.0), (2.0, 3.0), (0.5, 1.0)):
        lj = get_objective("lennard_jones", 6, a=a, b=b)
        r = (2.0 * a / b) ** (1.0 / 6.0)
        genes = np.array([[0.0, 0.0, 0.0, r, 0.0, 0.0]])
        assert float(lj.base(genes)[0]) == pytest.approx(-b * b / (4.0 * a), abs=1e-9)


# --- independent statistics reference ---------------------------------------


def _ref_midranks(pooled):
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and pooled[order[j]] == pooled[order[i]]:
            j += 1
        for q in range(i, j):
            ranks[order[q]] = (i + 1 + j) / 2.0
        i = j
    return ranks


def _ref_gammq(a, x):
    """Regularized upper incomplete gamma Q(a, x) via series / continued
    fraction, good to ~1e-14."""
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        ap, term, total = a, 1.0 / a, 1.0 / a
        for _ in range(1000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return 1.0 - total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def _ref_chi2_sf(value, df):
    return _ref_gammq(df / 2.0, value / 2.0)


def _ref_normal_sf(z):
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _ref_kruskal(groups):
    pooled = [v for g in groups for v in g]
    n = len(pooled)
    ranks = _ref_midranks(pooled)
    tie = sum(t**3 - t for t in Counter(pooled).values())
    correction = 1.0 - tie / (n**3 - n)
    h = 0.0
    pos = 0
    for g in groups:
        r = ranks[pos: pos + len(g)]
        pos += len(g)
        h += sum(r) ** 2 / len(g)
    h = (12.0 / (n * (n + 1))) * h - 3.0 * (n + 1)
    h /= correction
    return h, _ref_chi2_sf(h, len(groups) - 1)


def _ref_holm(raw):
    m = len(raw)
    order = sorted(range(m), key=lambda i: raw[i])
    out = [0.0] * m
    running = 0.0
    for rank, i in enumerate(order):
        running = max(running, (m - rank) * raw[i])
        out[i] = min(1.0, running)
    return out


def _ref_dunn(groups):
    pooled = [v for g in groups for v in g]
    n = len(pooled)
    ranks = _ref_midranks(pooled)
    tie = sum(t**3 - t for t in Counter(pooled).values())
    var_factor = n * (n + 1) / 12.0 - tie / (12.0 * (n - 1))
    mean_ranks = []
    pos = 0
    for g in groups:
        r = ranks[pos: pos + len(g)]
        pos += len(g)
        mean_ranks.append(sum(r) / len(r))
    raws = []
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            se = math.sqrt(var_factor * (1.0 / len(groups[a]) + 1.0 / len(groups[b])))
            z = (mean_ranks[a] - mean_ranks[b]) / se
            raws.append(2.0 * _ref_normal_sf(abs(z)))
    return _ref_holm(raws)


def _fixed_datasets():
    rng = np.random.default_rng(8675309)
    out = []
    for case in range(20):
        k = int(rng.integers(2, 6))
        groups = []
        for _ in range(k):
            size = int(rng.integers(3, 13))
            if case % 2 == 0:
                values = rng.integers(0, 8, size=size).astype(float)  # heavy ties
            else:
                values = np.round(rng.normal(scale=5, size=size), 3)
            groups.append(values.tolist())
        if len(set(v for g in groups for v in g)) == 1:
            groups[0][0] += 1.0
        out.append(groups)
    return out


def test_statistics_match_independent_reference():
    for groups in _fixed_datasets():
        labelled = [SampleGroup(f"g{i}", np.array(g)) for i, g in enumerate(groups)]
        omnibus = kruskal_wallis(labelled)
        ref_h, ref_p = _ref_kruskal(groups)
        assert omnibus.statistic == pytest.approx(ref_h, abs=1e-9)
        assert omnibus.p_value == pytest.approx(ref_p, abs=1e-9)

        posthoc = dunn_holm(labelled)
        ref_adj = _ref_dunn(groups)
        assert len(posthoc.pairwise) == len(ref_adj)
        for comparison, expected in zip(posthoc.pairwise, ref_adj):
            assert comparison.adjusted_p == pytest.approx(expected, abs=1e-9)

    rng = np.random.default_rng(24601)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        groups = [rng.integers(0, 10, size=int(rng.integers(3, 9))).astype(float)
                  for _ in range(k)]
        if len(set(np.concatenate(groups))) == 1:
            groups[0][0] += 1.0
        labelled = [SampleGroup(f"g{i}", g) for i, g in enumerate(groups)]
        report = dunn_holm(labelled)
        raws = np.array([c.raw_p for c in report.pairwise])
        adjs = np.array([c.adjusted_p for c in report.pairwise])
        assert np.all(adjs >= raws)
        assert np.all(adjs <= 1.0)
        # order-preserving affine rescaling leaves every rank statistic alone
        moved = [SampleGroup(f"g{i}", 3.0 * g + 7.0) for i, g in enumerate(groups)]
        again = dunn_holm(moved)
        for c, d in zip(report.pairwise, again.pairwise):
            assert d.z == c.z and d.raw_p == c.raw_p and d.adjusted_p == c.adjusted_p
        assert kruskal_wallis(moved).statistic == kruskal_wallis(labelled).statistic


def test_manifest_rerun_reproduces_bytes(tmp_path):
    manifest_path = tmp_path / "m.json"
    manifest_path.write_text("""{
      "name": "repro",
      "seed": 3141592,
      "repetitions": 3,
      "record_every": 5,
      "algorithms": ["small_society", "island_model"],
      "problems": [
        {"objective": "rastrigin", "dimension": 3, "max_steps": 40},
        {"objective": "schwefel_noise", "dimension": 3, "max_steps": 40}
      ],
      "overrides": {"population_size": 4, "offspring_size": 6, "epoch_length": 5}
    }""")
    manifest = load_manifest(manifest_path)

    outputs = []
    for run_dir in (tmp_path / "first", tmp_path / "second"):
        summaries = run_manifest(manifest, run_dir)
        write_stats_reports(summaries, run_dir, alpha=0.05)
        write_plots(sorted(run_dir.glob("trace_*.csv")), run_dir)
        outputs.append(run_dir)

    first_files = sorted(p.name for p in outputs[0].iterdir())
    second_files = sorted(p.name for p in outputs[1].iterdir())
    assert first_files == second_files
    assert any(name.endswith(".svg") for name in first_files)
    for name in first_files:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name


def test_desk_suite_completes_with_reports(tmp_path):
    started = time.perf_counter()
    manifest_file = resources.files("trustopt").joinpath("data/manifests/desk.json")
    with resources.as_file(manifest_file) as path:
        manifest = load_manifest(path)
    out = tmp_path / "desk"
    summaries = run_manifest(manifest, out)
    report_paths = write_stats_reports(summaries, out, alpha=0.01)
    plot_paths = write_plots(sorted(out.glob("trace_*.csv")), out)
    elapsed = time.perf_counter() - started

    problems = [(p.objective, p.dimension) for p in manifest.problems]
    assert len(problems) == 6
    assert len(manifest.algorithms) == 6
    assert len(summaries) == 6
    # one final value per repetition for every algorithm on every problem
    for path, (problem, dim) in zip(summaries, problems):
        rows = read_summary_csv(path)
        assert len(rows) == 6 * 8
        counts = Counter((r.algorithm for r in rows))
        assert counts == {name: 8 for name in manifest.algorithms}
        assert all(r.problem == problem and r.dim == dim for r in rows)

    omnibus = (out / "stats_omnibus.csv").read_text().splitlines()
    assert len(omnibus) == 1 + 6
    pairwise = (out / "stats_pairwise.csv").read_text().splitlines()
    assert len(pairwise) == 1 + 6 * 15  # every unordered preset pair per problem
    report = (out / "stats_report.txt").read_text()
    for problem, dim in problems:
        assert f"== {problem} (D={dim}) ==" in report
    for name in manifest.algorithms:
        assert name in report
    assert "Kruskal-Wallis H" in report
    assert (out / "stats_vs_baseline.csv").exists()

    assert sorted(p.name for p in plot_paths) == sorted(
        f"convergence_{problem}_d{dim}.svg" for problem, dim in problems)
    assert len(list(out.glob("trace_*.csv"))) == 6 * 6 * 8

    assert elapsed < 600.0, f"desk suite took {elapsed:.1f}s"
    print(f"desk suite wall time: {elapsed:.1f}s")
