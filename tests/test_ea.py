"""Evolutionary operators: selection, variation, replacement, full steps.

The operators are checked through ``ea_step_all`` (a one-agent step on the
linear objective whose offspring block is recorded) or through their
kernels (``_tournament_apply``, ``_sbx_apply``, ``_poly_apply``,
``_survivors``).

``helpers.replay_ea_step`` replays the documented draw order with plain
Python loops, so any drift in how ``ea_step_all`` consumes its streams or
combines its draws fails loudly here.
"""

from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    CountingStream,
    RecordingObjective,
    _firing_gates,
    dense_children,
    gap_budget,
    plateau_objective,
    replay_ea_step,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from trustopt import (
    ConfigError,
    effective_rates,
    get_objective,
    init_population,
    load_preset,
    validate_config,
)
from trustopt import ea
from trustopt.ea import ea_step_all, step_plan


def _children(genes, lam, pc, pm, seed=0):
    """The ``lam`` offspring one ``ea_step_all`` step breeds from the (n, D)
    population ``genes`` in the box [-100, 100]^D (linear objective:
    fitness is gene 0)."""
    genes = np.array(genes, dtype=float)
    rec = RecordingObjective(genes.shape[1], linear=True)
    plan = step_plan(*genes.shape, lam, 20.0, 40.0, [pc], [pm])
    ea_step_all(genes[None].copy(), genes[None, :, 0].copy(), plan, rec.spec,
                [np.random.default_rng(seed)])
    return rec.blocks[-1]


def _is_copy(child, parents):
    return any(np.array_equal(child, p) for p in parents)


# --- tournament -------------------------------------------------------------


def test_tournament_single_member_forced():
    cand = np.zeros((5, 2), dtype=np.int64)
    assert np.all(ea._tournament_apply(np.array([3.0]), cand, np.linspace(0, 1, 5)) == 0)
    # a one-member population breeds copies of its member
    parent = np.array([[3.0, 1.0]])
    assert all(np.array_equal(c, parent[0]) for c in _children(parent, 6, 0.0, 0.0))


def test_tournament_favors_lower_fitness():
    # zero rates: every child is a copy of its tournament winner
    children = _children([[1.0, 0.0], [9.0, 1.0]], 10_000, 0.0, 0.0)
    wins = np.sum(children[:, 0] == 1.0)
    # candidate pairs (0,0), (0,1), (1,0), (1,1): the better member wins
    # 3 of 4, so the exact probability is 0.75
    assert abs(wins / 10_000 - 0.75) < 0.02


def test_tournament_tie_coin_splits_evenly():
    children = _children([[5.0, 0.0], [5.0, 1.0]], 10_000, 0.0, 0.0)
    wins = np.sum(children[:, 1] == 0.0)
    assert abs(wins / 10_000 - 0.5) < 0.02


def test_tournament_rejects_empty():
    # a population (and so a tournament) is never empty
    with pytest.raises(ValueError):
        init_population(0, get_objective("sphere", 2), np.random.default_rng(0))
    cfg = load_preset("island_model")
    bad = replace(cfg, per_agent=replace(cfg.per_agent, population_size=0))
    with pytest.raises(ConfigError, match="population_size must be >= 1"):
        validate_config(bad)


# --- crossover --------------------------------------------------------------


def _sbx(p1, p2, lo, hi, rng, eta_c=20.0):
    """Both children of ``ea._sbx_apply`` with every gene firing."""
    d = len(p1)
    flat = np.concatenate([p1, p2]).astype(float)
    gene = np.arange(d)
    ea._sbx_apply(flat, gene, gene + d, gene, rng.random(d), eta_c, lo, hi)
    return flat[:d], flat[d:]


def test_sbx_zero_rate_returns_parents(rng):
    parents = rng.uniform(-10, 10, (4, 4))
    for child in _children(parents, 8, 0.0, 0.0):
        assert _is_copy(child, parents)


def test_sbx_identical_parents_yield_identical_children(rng):
    p = rng.uniform(-5, 5, 3)
    children = _children(np.repeat(p[None], 3, axis=0), 6, 1.0, 0.0)
    assert all(np.array_equal(c, p) for c in children)
    c1, c2 = _sbx(p, p.copy(), np.full(3, -5.0), np.full(3, 5.0), rng)
    assert np.array_equal(c1, p)
    assert np.array_equal(c2, p)


def test_sbx_preserves_pair_mean(rng):
    # wide box so the clamp never fires
    lo, hi = np.full(6, -1e9), np.full(6, 1e9)
    for _ in range(200):
        p1 = rng.uniform(-10, 10, 6)
        p2 = rng.uniform(-10, 10, 6)
        c1, c2 = _sbx(p1, p2, lo, hi, rng)
        assert np.allclose(c1 + c2, p1 + p2, rtol=0, atol=1e-9)


def test_sbx_children_stay_in_bounds(rng):
    lo, hi = np.full(5, -1.0), np.full(5, 1.0)
    for _ in range(2000):
        p1 = rng.uniform(-1, 1, 5)
        p2 = rng.uniform(-1, 1, 5)
        c1, c2 = _sbx(p1, p2, lo, hi, rng, eta_c=2.0)
        for c in (c1, c2):
            assert np.all(c >= -1.0)
            assert np.all(c <= 1.0)


def test_sbx_gates_each_gene_on_its_own():
    # every gene of the two parents differs; each gene's gate fires on its
    # own, so at rate 0.5 children mix copied and recombined genes
    parents = np.array([[1.0, 2.0, 3.0, 4.0], [-4.0, -3.0, -2.0, -1.0]])
    mixed = _children(parents, 400, 0.5, 0.0)
    assert any(np.any(c == parents[0]) and not _is_copy(c, parents) for c in mixed)


# --- mutation ---------------------------------------------------------------


def _mutated(genes, lo, hi, rng, eta_m=40.0):
    """``ea._poly_apply`` with every gene of the (m, D) block firing."""
    out = np.array(genes, dtype=float)
    d = out.shape[-1]
    at = np.arange(out.size)
    ea._poly_apply(out.reshape(-1), at, at % d, rng.random(out.size), eta_m, lo, hi)
    return out


def test_mutation_zero_rate_is_identity(rng):
    parents = rng.uniform(-3, 3, (3, 5))
    for child in _children(parents, 6, 0.0, 0.0, seed=4):
        assert _is_copy(child, parents)
    g = parents[0].copy()
    none = np.array([], dtype=np.int64)
    ea._poly_apply(g, none, none, np.array([]), 40.0, np.full(5, -3.0), np.full(5, 3.0))
    assert np.array_equal(g, parents[0])


def test_mutation_spread_shrinks_with_index():
    lo, hi = np.full(1, -1.0), np.full(1, 1.0)
    spreads = []
    for eta_m in (20.0, 40.0, 80.0):
        rng = np.random.default_rng(5)
        deltas = _mutated(np.zeros((10_000, 1)), lo, hi, rng, eta_m=eta_m)
        spreads.append(np.std(deltas))
    assert spreads[0] > spreads[1] > spreads[2]


def test_mutation_output_in_bounds(rng):
    lo, hi = np.full(4, 0.0), np.full(4, 2.0)
    out = _mutated(rng.uniform(0, 2, (10_000, 4)), lo, hi, rng, eta_m=5.0)
    assert np.all(out >= 0.0)
    assert np.all(out <= 2.0)


# --- replacement ------------------------------------------------------------


def _replace(parents, offspring, n):
    """Survivor fitness of mu+lambda replacement (``ea._survivors``)."""
    union = np.array(list(parents) + list(offspring), dtype=float)
    return union[ea._survivors(union, n)]


def test_replacement_empty_offspring_keeps_best_parents():
    assert np.array_equal(_replace([5.0, 1.0, 3.0], [], 2), [1.0, 3.0])


def test_replacement_prefers_strict_best():
    assert np.array_equal(_replace([5.0], [1.0, 9.0], 1), [1.0])


def test_replacement_tie_prefers_parents():
    # the cutoff falls inside the 5.0 tie; the parent copy survives
    assert ea._survivors(np.array([1.0, 5.0, 5.0, 9.0]), 2).tolist() == [0, 1]


def test_replacement_matches_sort_oracle(rng):
    for _ in range(300):
        pv = rng.integers(0, 8, size=12).astype(float)  # integer values force ties
        ov = rng.integers(0, 8, size=8).astype(float)
        union = list(pv) + list(ov)
        keep = sorted(sorted(range(20), key=lambda i: (union[i], i))[:5])
        assert np.array_equal(_replace(pv, ov, 5), [union[i] for i in keep])


def test_replacement_rejects_overdraw():
    # replacement never asks for more survivors than there are genomes: a
    # step keeps exactly the n members, also without offspring, and a
    # negative offspring count is rejected
    spec = get_objective("sphere", 2)
    genes = np.stack([init_population(3, spec, np.random.default_rng(1))])
    fitness = spec.evaluate_rows(genes, [None])
    plan = step_plan(3, 2, 0, 20.0, 40.0, [0.5], [0.5])
    ea_step_all(genes, fitness, plan, spec, [np.random.default_rng(2)])
    assert genes.shape == (1, 3, 2) and fitness.shape == (1, 3)
    cfg = load_preset("island_model")
    bad = replace(cfg, per_agent=replace(cfg.per_agent, offspring_size=-1))
    with pytest.raises(ConfigError, match="offspring_size must be >= 0"):
        validate_config(bad)


def test_replacement_survivors_keep_insertion_order():
    # survivors in insertion order, not sorted by fitness
    assert np.array_equal(_replace([9.0, 1.0, 5.0], [3.0], 3), [1.0, 5.0, 3.0])


# --- full step --------------------------------------------------------------


def _one_agent(n, d, lam, pc, pm, seed, eta=(20.0, 40.0)):
    """A one-agent society (see _societies) for ``_society``."""
    return dict(n_agents=1, n=n, d=d, lam=lam, eta=eta, pcs=[pc], pms=[pm], seed=seed, steps=1)


def test_ea_step_zero_offspring_is_identity():
    spec = get_objective("sphere", 3)
    genes, fitness, plan, streams = _society(_one_agent(4, 3, 0, 0.9, 0.2, 5), spec)
    before = genes.copy()
    ea_step_all(genes, fitness, plan, spec, streams)
    assert np.array_equal(genes, before)


def test_ea_step_zero_rates_add_no_new_genomes():
    # with both rates at zero every child is a clone of a tournament winner,
    # so the step can concentrate on good members but never invent material
    spec = get_objective("sphere", 3)
    genes, fitness, plan, streams = _society(_one_agent(4, 3, 6, 0.0, 0.0, 6), spec)
    before = genes[0].copy()
    best = float(np.min(spec.base(before)))
    ea_step_all(genes, fitness, plan, spec, streams)
    assert genes.shape == (1, 4, 3)
    assert fitness.min() == best
    for row in genes[0]:
        assert any(np.array_equal(row, old) for old in before)


def test_ea_step_preserves_size_and_never_worsens():
    for k, name in enumerate(("sphere", "rastrigin", "griewank")):
        spec = get_objective(name, 6)
        genes, fitness, plan, streams = _society(_one_agent(5, 6, 7, 0.6, 0.1, 7 + k), spec)
        best = np.inf
        for _ in range(50):
            ea_step_all(genes, fitness, plan, spec, streams)
            assert genes.shape == (1, 5, 6) and fitness.shape == (1, 5)
            assert np.all(genes >= spec.lower)
            assert np.all(genes <= spec.upper)
            assert fitness.min() <= best + 1e-15
            best = fitness.min()


def test_ea_step_matches_recorded_trace_oracle():
    _assert_batched_matches_replay(get_objective("sphere", 2), _one_agent(3, 2, 4, 0.9, 0.5, 314))


def test_ea_step_oracle_odd_offspring_and_other_indices():
    _assert_batched_matches_replay(get_objective("rastrigin", 3),
                                   _one_agent(4, 3, 5, 0.7, 0.3, 2718, eta=(15.0, 25.0)))


# --- batched kernel ---------------------------------------------------------


@st.composite
def _societies(draw):
    n_agents = draw(st.integers(1, 5))
    rates = st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0])
    return dict(
        n_agents=n_agents, n=draw(st.integers(1, 6)), lam=draw(st.integers(0, 7)),
        d=draw(st.integers(1, 5)),
        pcs=draw(st.lists(rates, min_size=n_agents, max_size=n_agents)),
        pms=draw(st.lists(rates, min_size=n_agents, max_size=n_agents)),
        eta=(draw(st.sampled_from([2.0, 20.0])), draw(st.sampled_from([5.0, 40.0]))),
        seed=draw(st.integers(0, 2**32)), steps=draw(st.integers(1, 3)),
    )


def _society(s, spec):
    """The (genes, fitness, plan, streams) of society ``s`` (see _societies),
    its members evaluated as the run loop does at step 1."""
    streams = [np.random.default_rng(s["seed"] + i) for i in range(s["n_agents"])]
    genes = np.stack([init_population(s["n"], spec, g) for g in streams])
    plan = step_plan(s["n"], s["d"], s["lam"], *s["eta"], s["pcs"], s["pms"])
    return genes, spec.evaluate_rows(genes, streams), plan, streams


def _assert_batched_matches_replay(spec, s, budget=gap_budget):
    genes, fitness, plan, streams = _society(s, spec)
    ref_streams = [np.random.default_rng(s["seed"] + i) for i in range(s["n_agents"])]
    ref = [[init_population(s["n"], spec, g), np.full(s["n"], np.nan)]
           for g in ref_streams]
    for t in range(s["steps"]):
        if spec.noisy and t:
            fitness[...] = spec.evaluate_rows(genes, streams)
        ea_step_all(genes, fitness, plan, spec, streams)
        for i, rng in enumerate(ref_streams):
            if spec.noisy:
                ref[i][1] = np.full(s["n"], np.nan)
            ref[i] = list(replay_ea_step(*ref[i], s["lam"], s["pcs"][i], s["pms"][i],
                                         spec, rng, *s["eta"], budget))

    for i in range(s["n_agents"]):
        assert np.array_equal(genes[i], ref[i][0])
        assert np.array_equal(fitness[i], ref[i][1])
        assert streams[i].bit_generator.state == ref_streams[i].bit_generator.state


@pytest.mark.parametrize("objective,params", [
    ("sphere", {}),
    ("schwefel_noise", {"noise_sigma": 0.5}),
])
@settings(max_examples=60, deadline=None, database=None)
@given(society=_societies())
def test_batched_step_matches_looped_steps(objective, params, society):
    # every agent's batched step equals the plain-loop replay of its stream
    _assert_batched_matches_replay(get_objective(objective, society["d"], **params), society)


@settings(max_examples=60, deadline=None, database=None)
@given(society=_societies())
def test_batched_step_breaks_ties_like_the_replay(society):
    # distinct genomes share a fitness on the plateaus, so the tournament
    # tie coins and the survivor tie order decide the outcome
    _assert_batched_matches_replay(plateau_objective(society["d"]), society)


@settings(max_examples=60, deadline=None, database=None)
@given(society=_societies())
def test_batched_step_matches_the_replay_past_the_budget(society):
    # a one-gap budget runs out on most streams: the top-up gates, their
    # values and the draw order must still follow the replay
    budget = ea._gate_budget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ea, "_gate_budget",
                   lambda m, p: np.minimum(budget(m, p), np.where(p < 1, 1, m)))
        _assert_batched_matches_replay(
            get_objective("sphere", society["d"]), society,
            lambda m, p: min(gap_budget(m, p), 1 if p < 1 else m))


def test_batched_step_zero_offspring_changes_nothing():
    # without offspring a step draws nothing and evaluates nothing
    spec = get_objective("schwefel_noise", 3)
    streams = [np.random.default_rng(s) for s in (1, 2)]
    genes = np.stack([init_population(4, spec, st) for st in streams])
    fitness = spec.evaluate_rows(genes, streams)
    before = genes.copy(), fitness.copy(), [g.bit_generator.state for g in streams]
    plan = step_plan(4, 3, 0, 20.0, 40.0, np.array([0.5, 0.5]), np.array([0.1, 0.1]))
    ea_step_all(genes, fitness, plan, spec, streams)
    assert np.array_equal(genes, before[0])
    assert np.array_equal(fitness, before[1])
    assert [g.bit_generator.state for g in streams] == before[2]


# --- step plan --------------------------------------------------------------


@st.composite
def _society_pairs(draw):
    a, b = draw(_societies()), draw(_societies())
    if draw(st.booleans()):
        # the same shape with other rates: only the plans tell them apart
        b.update({k: a[k] for k in ("n_agents", "n", "lam", "d", "eta")},
                 pcs=draw(st.permutations(a["pcs"])), pms=[1.0 - x for x in a["pms"]])
    return a, b


@settings(max_examples=60, deadline=None, database=None)
@given(pair=_society_pairs())
def test_interleaved_plans_match_each_society_alone(pair):
    # each society reuses its own plan's draw block and union from step to
    # step; stepping another society in between changes nothing
    specs = [get_objective("sphere", s["d"]) for s in pair]
    alone = []
    for s, spec in zip(pair, specs):
        genes, fitness, plan, streams = _society(s, spec)
        for _ in range(s["steps"]):
            ea_step_all(genes, fitness, plan, spec, streams)
        alone.append((genes, fitness, streams))
    both = [_society(s, spec) for s, spec in zip(pair, specs)]
    for t in range(3):
        for s, spec, (genes, fitness, plan, streams) in zip(pair, specs, both):
            if t < s["steps"]:
                ea_step_all(genes, fitness, plan, spec, streams)
    for (genes, fitness, streams), (genes2, fitness2, _, streams2) in zip(alone, both):
        assert np.array_equal(genes, genes2)
        assert np.array_equal(fitness, fitness2)
        assert [g.bit_generator.state for g in streams] == [
            g.bit_generator.state for g in streams2]


@pytest.mark.parametrize("case", [
    dict(lam=0, pcs=[0.5, 0.5], pms=[0.1, 0.1]),
    dict(lam=5, pcs=[0.3, 0.9], pms=[0.2, 0.05]),
    dict(lam=4, pcs=[0.0, 0.0], pms=[0.0, 0.0]),
    dict(lam=3, pcs=[1.0, 1.0], pms=[1.0, 1.0]),
    dict(lam=6, pcs=[0.0, 1.0], pms=[1.0, 0.0]),
], ids=["lam0", "lam5", "rates0", "rates1", "rates01"])
def test_reused_plan_matches_the_replay(case):
    # one plan over four steps, as a run uses it
    _assert_batched_matches_replay(get_objective("rastrigin", 3),
                                   dict(case, n_agents=2, n=4, d=3, eta=(20.0, 40.0), seed=11,
                                        steps=4))


# --- sparse gate sampler ----------------------------------------------------


def _tally_fires(n_agents, d, lam, p, steps, seed=0):
    """Per-position fire counts of the crossover and mutation gates over
    ``steps`` draws of ``n_agents`` streams, all at rate ``p``."""
    plan = step_plan(2, d, lam, 20.0, 40.0, [p] * n_agents, [p] * n_agents)
    streams = [np.random.default_rng([seed, i]) for i in range(n_agents)]
    counts = np.zeros((2, lam * d), dtype=np.int64)
    for _ in range(steps):
        for rng, view in zip(streams, plan.rows):
            rng.random(out=view)
        row, _, pos = ea._fires(plan, streams)
        np.add.at(counts, (row // n_agents, pos), 1)
    return counts[0, :plan.gates[0]], counts[1]


def _assert_binomial(counts, trials, p):
    # every gate fires Bernoulli(p) on its own: each count within six
    # standard deviations (plus one for rounding) of trials * p
    sd = np.sqrt(trials * p * (1.0 - p))
    assert np.all(np.abs(counts - trials * p) <= 6.0 * sd + 1.0), (counts, trials * p)


@pytest.mark.parametrize("p", [0.0, 0.002, 0.05, 0.5, 1.0])
def test_gate_fires_each_gene_with_its_rate(p):
    n_agents, steps = 50, 200
    cross, mut = _tally_fires(n_agents, 6, 8, p, steps)
    assert len(cross) == 24
    for counts in (cross, mut):
        _assert_binomial(counts, n_agents * steps, p)


@pytest.mark.parametrize("p", [0.05, 0.5])
def test_forced_top_up_keeps_the_marginals(monkeypatch, p):
    # a one-gap budget runs out on most streams, so the top-up decides
    budget = ea._gate_budget
    monkeypatch.setattr(ea, "_gate_budget", lambda m, q: np.minimum(budget(m, q), 1))
    calls = []
    top_up = ea._top_up
    monkeypatch.setattr(ea, "_top_up", lambda *a: calls.append(1) or top_up(*a))
    n_agents, steps = 50, 200
    cross, mut = _tally_fires(n_agents, 6, 8, p, steps, seed=1)
    for counts in (cross, mut):
        _assert_binomial(counts, n_agents * steps, p)
    assert len(calls) == steps  # every step topped up some stream


@st.composite
def _gate_streams(draw):
    n_agents = draw(st.integers(1, 6))
    rates = st.sampled_from([0.0, 1e-300, 1e-9, 0.002, 0.05, 0.3, 0.9, 1.0]) | st.floats(1e-6, 1.0)
    return dict(n_agents=n_agents, d=draw(st.integers(1, 8)), lam=draw(st.integers(0, 9)),
                pcs=draw(st.lists(rates, min_size=n_agents, max_size=n_agents)),
                pms=draw(st.lists(rates, min_size=n_agents, max_size=n_agents)),
                seed=draw(st.integers(0, 2**32)), one_gap=draw(st.booleans()))


@settings(max_examples=150, deadline=None, database=None)
@given(case=_gate_streams())
def test_fires_match_the_gap_walk(case):
    # every stream's fires, in (row, gap) order, and every stream's end
    # state equal the plain-loop walk of the same draws; a one-gap budget
    # forces the top-ups on most streams, and p = 1e-300 gaps reach far
    # past every gate
    n_agents, d, lam = case["n_agents"], case["d"], case["lam"]
    n_pairs = (lam + 1) // 2
    budget = ea._gate_budget
    ref_budget = gap_budget
    with pytest.MonkeyPatch.context() as mp:
        if case["one_gap"]:
            mp.setattr(ea, "_gate_budget",
                       lambda m, p: np.minimum(budget(m, p), np.where(p < 1, 1, m)))
            ref_budget = lambda m, p: min(gap_budget(m, p), 1 if p < 1 else m)  # noqa: E731
        plan = step_plan(2, d, lam, 20.0, 40.0, case["pcs"], case["pms"])
    streams = [np.random.default_rng([case["seed"], i]) for i in range(n_agents)]
    refs = [np.random.default_rng([case["seed"], i]) for i in range(n_agents)]
    for _ in range(2):
        for rng, view in zip(streams, plan.rows):
            rng.random(out=view)
        got = ea._fires(plan, streams)
        fired = [[], []]
        for rng, pc, pm in zip(refs, case["pcs"], case["pms"]):
            gates = [(n_pairs * d, pc), (lam * d, pm)]
            drawn = [ref_budget(m, p) if p < 1.0 else 0 for m, p in gates]
            rng.random(6 * n_pairs)
            gaps = [rng.random(k).tolist() for k in drawn]
            for kind, ((m, p), g) in enumerate(zip(gates, gaps)):
                fired[kind].append(_firing_gates(g, m, p, rng))
        want = [(r, j, q) for r, f in enumerate(fired[0] + fired[1]) for j, q in enumerate(f)]
        assert [tuple(x) for x in zip(*(a.tolist() for a in got))] == want
        assert all(a.dtype == np.int64 for a in got)
        assert [g.bit_generator.state for g in streams] == [g.bit_generator.state for g in refs]


def test_zero_rates_breed_copies_of_the_parents():
    rec = RecordingObjective(4)
    streams = [CountingStream(np.random.default_rng(s)) for s in range(3)]
    genes = np.stack([init_population(5, rec.spec, s.rng) for s in streams])
    fitness = rec.spec.evaluate_rows(genes, streams)
    plan = step_plan(5, 4, 7, 20.0, 40.0, [0.0] * 3, [0.0] * 3)
    ea_step_all(genes.copy(), fitness, plan, rec.spec, streams)
    children = rec.blocks[-1].reshape(3, 7, 4)
    for i in range(3):
        for child in children[i]:
            assert any(np.array_equal(child, parent) for parent in genes[i])
    # only the tournament is drawn: 6 uniforms per pair
    assert [s.uniforms for s in streams] == [6 * 4] * 3


def test_child_genes_match_the_dense_scheme():
    # two members tie on the sphere, so tournaments pick either at random;
    # every child gene is then a parent value, an SBX value or a mutation
    n_agents, lam, d, pc, pm = 40, 8, 6, 0.3, 0.1
    rec = RecordingObjective(d, bound=5.0)
    pop = np.stack([np.full(d, -1.0), np.full(d, 1.0)])
    sparse, dense = [], []
    plan = step_plan(2, d, lam, 20.0, 40.0, [pc] * n_agents, [pm] * n_agents)
    for seed in range(20):
        streams = [np.random.default_rng([seed, i]) for i in range(n_agents)]
        society = np.repeat(pop[None], n_agents, axis=0)
        ea_step_all(society, rec.spec.evaluate_rows(society, streams), plan, rec.spec, streams)
        sparse.append(rec.blocks[-1].ravel())
        ref = np.random.default_rng([seed, 10_000])
        dense += [dense_children(pop, lam, pc, pm, rec.spec, ref).ravel()
                  for _ in range(n_agents)]
    sparse, dense = np.concatenate(sparse), np.concatenate(dense)
    assert ks_2samp(sparse, dense).pvalue > 1e-3
    moved = lambda x: np.mean(np.abs(x) != 1.0)  # noqa: E731
    assert abs(moved(sparse) - moved(dense)) < 0.02


def test_high_dimensional_step_draws_few_uniforms():
    # N=20 agents at the preset rates, D=200: the dense scheme drew 9216
    # uniforms and 32 integers per agent and step
    n_agents, d = 20, 200
    spec = get_objective("sphere", d)
    rates = np.array([effective_rates(0.005, 0.0005, i, 1.3) for i in range(n_agents)])
    streams = [CountingStream(np.random.default_rng(s)) for s in range(n_agents)]
    genes = np.stack([init_population(5, spec, s.rng) for s in streams])
    fitness = spec.evaluate_rows(genes, streams)
    plan = step_plan(5, d, 15, 20.0, 40.0, rates[:, 0], rates[:, 1])
    for _ in range(5):
        for s in streams:
            s.uniforms = 0
        ea_step_all(genes, fitness, plan, spec, streams)
        assert max(s.uniforms for s in streams) <= 1000
