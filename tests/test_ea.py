"""Evolutionary operators: selection, variation, replacement, full steps.

``helpers.replay_ea_step`` replays the documented draw order with plain
Python loops, so any drift in how ``ea_step_all`` (and its one-agent case
``ea_step``) consumes its streams or combines its draws fails loudly here.
"""

import numpy as np
import pytest
from helpers import (
    CountingStream,
    RecordingObjective,
    dense_children,
    gap_budget,
    linear_objective,
    make_agent,
    plateau_objective,
    population_with_values,
    replay_ea_step,
    twin_rngs,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from trustopt import (
    EaOperatorConfig,
    Population,
    ea_step,
    effective_rates,
    get_objective,
    init_population,
    polynomial_mutation,
    replace_mu_plus_lambda,
    sbx_crossover,
    tournament_select,
)
from trustopt import ea
from trustopt.ea import ea_step_all


# --- tournament -------------------------------------------------------------


def test_tournament_single_member_forced():
    assert tournament_select(np.array([3.0]), np.random.default_rng(0)) == 0


def test_tournament_favors_lower_fitness(rng):
    fitness = np.array([1.0, 9.0])
    wins = sum(tournament_select(fitness, rng) == 0 for _ in range(10_000))
    # candidate pairs (0,0), (0,1), (1,0), (1,1): the better member wins
    # 3 of 4, so the exact probability is 0.75
    assert abs(wins / 10_000 - 0.75) < 0.02


def test_tournament_tie_coin_splits_evenly(rng):
    fitness = np.array([5.0, 5.0])
    wins = sum(tournament_select(fitness, rng) == 0 for _ in range(10_000))
    assert abs(wins / 10_000 - 0.5) < 0.02


def test_tournament_rejects_empty():
    with pytest.raises(ValueError):
        tournament_select(np.array([]), np.random.default_rng(0))


# --- crossover --------------------------------------------------------------


def test_sbx_zero_rate_returns_parents(rng):
    lo, hi = np.full(4, -10.0), np.full(4, 10.0)
    p1 = rng.uniform(-10, 10, 4)
    p2 = rng.uniform(-10, 10, 4)
    c1, c2 = sbx_crossover(p1, p2, 0.0, lo, hi, rng)
    assert np.array_equal(c1, p1)
    assert np.array_equal(c2, p2)


def test_sbx_identical_parents_yield_identical_children(rng):
    lo, hi = np.full(3, -5.0), np.full(3, 5.0)
    p = rng.uniform(-5, 5, 3)
    c1, c2 = sbx_crossover(p, p.copy(), 1.0, lo, hi, rng)
    assert np.array_equal(c1, p)
    assert np.array_equal(c2, p)


def test_sbx_preserves_pair_mean(rng):
    # wide box so the clamp never fires
    lo, hi = np.full(6, -1e9), np.full(6, 1e9)
    for _ in range(200):
        p1 = rng.uniform(-10, 10, 6)
        p2 = rng.uniform(-10, 10, 6)
        c1, c2 = sbx_crossover(p1, p2, 1.0, lo, hi, rng)
        assert np.allclose(c1 + c2, p1 + p2, rtol=0, atol=1e-9)


def test_sbx_children_stay_in_bounds(rng):
    lo, hi = np.full(5, -1.0), np.full(5, 1.0)
    for _ in range(2000):
        p1 = rng.uniform(-1, 1, 5)
        p2 = rng.uniform(-1, 1, 5)
        c1, c2 = sbx_crossover(p1, p2, 1.0, lo, hi, rng, eta_c=2.0)
        for c in (c1, c2):
            assert np.all(c >= -1.0)
            assert np.all(c <= 1.0)


def test_sbx_pair_scope_consults_first_gate_only():
    lo, hi = np.full(4, -100.0), np.full(4, 100.0)
    p1 = np.array([1.0, 2.0, 3.0, 4.0])
    p2 = np.array([-4.0, -3.0, -2.0, -1.0])
    r1, r2 = twin_rngs(3)
    u = r2.random((2, 4))
    c1, c2 = sbx_crossover(p1, p2, 0.5, lo, hi, r1, scope="pair")
    if u[0, 0] < 0.5:
        # whole genome recombines
        assert not np.any(c1 == p1)
    else:
        assert np.array_equal(c1, p1)
        assert np.array_equal(c2, p2)


def test_sbx_full_rate_same_for_both_scopes():
    lo, hi = np.full(3, -50.0), np.full(3, 50.0)
    p1 = np.array([1.0, -2.0, 3.0])
    p2 = np.array([4.0, 5.0, -6.0])
    r1, r2 = twin_rngs(17)
    a = sbx_crossover(p1, p2, 1.0, lo, hi, r1, scope="gene")
    b = sbx_crossover(p1, p2, 1.0, lo, hi, r2, scope="pair")
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


# --- mutation ---------------------------------------------------------------


def test_mutation_zero_rate_is_identity(rng):
    lo, hi = np.full(5, -3.0), np.full(5, 3.0)
    g = rng.uniform(-3, 3, 5)
    assert np.array_equal(polynomial_mutation(g, 0.0, lo, hi, rng), g)


def test_mutation_spread_shrinks_with_index():
    lo, hi = np.full(1, -1.0), np.full(1, 1.0)
    spreads = []
    for eta_m in (20.0, 40.0, 80.0):
        rng = np.random.default_rng(5)
        deltas = [
            polynomial_mutation(np.zeros(1), 1.0, lo, hi, rng, eta_m=eta_m)[0]
            for _ in range(10_000)
        ]
        spreads.append(np.std(deltas))
    assert spreads[0] > spreads[1] > spreads[2]


def test_mutation_output_in_bounds(rng):
    lo, hi = np.full(4, 0.0), np.full(4, 2.0)
    for _ in range(10_000):
        g = rng.uniform(0, 2, 4)
        out = polynomial_mutation(g, 1.0, lo, hi, rng, eta_m=5.0)
        assert np.all(out >= 0.0)
        assert np.all(out <= 2.0)


# --- replacement ------------------------------------------------------------


def test_replacement_empty_offspring_keeps_best_parents():
    spec = linear_objective()
    parents = population_with_values([5.0, 1.0, 3.0])
    empty = Population(np.empty((0, 2)), np.empty(0))
    out = replace_mu_plus_lambda(parents, empty, 2, spec)
    assert np.array_equal(out.fitness, [1.0, 3.0])


def test_replacement_prefers_strict_best():
    spec = linear_objective()
    parents = population_with_values([5.0])
    offspring = population_with_values([1.0, 9.0])
    out = replace_mu_plus_lambda(parents, offspring, 1, spec)
    assert out.fitness[0] == 1.0


def test_replacement_tie_prefers_parents():
    spec = linear_objective()
    parents = population_with_values([1.0, 5.0])
    parents.genes[:, 1] = 100.0  # marker column
    offspring = population_with_values([5.0, 9.0])
    out = replace_mu_plus_lambda(parents, offspring, 2, spec)
    # the cutoff falls inside the 5.0 tie; the parent copy survives
    assert np.array_equal(out.fitness, [1.0, 5.0])
    assert np.all(out.genes[:, 1] == 100.0)


def test_replacement_matches_sort_oracle(rng):
    spec = linear_objective()
    for _ in range(300):
        pv = rng.integers(0, 8, size=12).astype(float)  # integer values force ties
        ov = rng.integers(0, 8, size=8).astype(float)
        parents = population_with_values(pv)
        offspring = population_with_values(ov)
        out = replace_mu_plus_lambda(parents, offspring, 5, spec)
        union = list(pv) + list(ov)
        keep = sorted(sorted(range(20), key=lambda i: (union[i], i))[:5])
        assert np.array_equal(out.fitness, [union[i] for i in keep])


def test_replacement_rejects_overdraw():
    spec = linear_objective()
    parents = population_with_values([1.0])
    offspring = population_with_values([2.0])
    with pytest.raises(ValueError):
        replace_mu_plus_lambda(parents, offspring, 3, spec)


def test_replacement_survivors_keep_insertion_order():
    spec = linear_objective()
    parents = population_with_values([9.0, 1.0, 5.0])
    offspring = population_with_values([3.0])
    out = replace_mu_plus_lambda(parents, offspring, 3, spec)
    # survivors in insertion order, not sorted by fitness
    assert np.array_equal(out.fitness, [1.0, 5.0, 3.0])


# --- full step --------------------------------------------------------------


def test_ea_step_zero_offspring_is_identity(rng):
    spec = get_objective("sphere", 3)
    agent = make_agent(init_population(4, spec, rng), offspring_size=0)
    before = agent.population.genes.copy()
    ea_step(agent, spec, rng)
    assert np.array_equal(agent.population.genes, before)


def test_ea_step_zero_rates_add_no_new_genomes(rng):
    # with both rates at zero every child is a clone of a tournament winner,
    # so the step can concentrate on good members but never invent material
    spec = get_objective("sphere", 3)
    agent = make_agent(init_population(4, spec, rng), offspring_size=6, pc=0.0, pm=0.0)
    before = agent.population.genes.copy()
    best = float(np.min(spec.evaluate(before)))
    ea_step(agent, spec, rng)
    after = agent.population
    assert after.size == 4
    assert after.fitness.min() == best
    for row in after.genes:
        assert any(np.array_equal(row, old) for old in before)


def test_ea_step_preserves_size_and_never_worsens(rng):
    for name in ("sphere", "rastrigin", "griewank"):
        spec = get_objective(name, 6)
        agent = make_agent(init_population(5, spec, rng), offspring_size=7,
                           pc=0.6, pm=0.1)
        best = np.inf
        for _ in range(50):
            pop = ea_step(agent, spec, rng)
            assert pop.size == 5
            assert np.all(pop.genes >= spec.lower)
            assert np.all(pop.genes <= spec.upper)
            assert pop.fitness.min() <= best + 1e-15
            best = pop.fitness.min()


def test_ea_step_matches_recorded_trace_oracle():
    spec = get_objective("sphere", 2)
    r1, r2 = twin_rngs(314)
    pop = init_population(3, spec, r1)
    base = init_population(3, spec, r2).genes  # same draws, twin stays aligned
    agent = make_agent(pop, offspring_size=4, pc=0.9, pm=0.5)

    ea_step(agent, spec, r1)

    oracle_genes, oracle_fit = replay_ea_step(base, np.full(3, np.nan), 4, 0.9, 0.5, spec, r2)
    assert np.array_equal(agent.population.genes, oracle_genes)
    assert np.array_equal(agent.population.fitness, oracle_fit)
    assert r1.bit_generator.state == r2.bit_generator.state


def test_ea_step_oracle_odd_offspring_and_pair_scope():
    spec = get_objective("rastrigin", 3)
    r1, r2 = twin_rngs(2718)
    pop = init_population(4, spec, r1)
    base = init_population(4, spec, r2).genes
    agent = make_agent(pop, offspring_size=5, pc=0.7, pm=0.3)
    op = EaOperatorConfig(eta_c=15.0, eta_m=25.0, crossover_scope="pair")

    ea_step(agent, spec, r1, op)

    genes_out, fit_out = replay_ea_step(base, np.full(4, np.nan), 5, 0.7, 0.3, spec, r2, op)
    assert np.array_equal(agent.population.genes, genes_out)
    assert np.array_equal(agent.population.fitness, fit_out)
    assert r1.bit_generator.state == r2.bit_generator.state


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
        op=EaOperatorConfig(draw(st.sampled_from([2.0, 20.0])), draw(st.sampled_from([5.0, 40.0])),
                            draw(st.sampled_from(["gene", "pair"]))),
        seed=draw(st.integers(0, 2**32)), steps=draw(st.integers(1, 3)),
    )


def _assert_batched_matches_replay(spec, s, budget=gap_budget):
    seeds = [s["seed"] + i for i in range(s["n_agents"])]
    streams = [np.random.default_rng(x) for x in seeds]
    genes = np.stack([init_population(s["n"], spec, g).genes for g in streams])
    fitness = np.full(genes.shape[:2], np.nan)

    ref_streams = [np.random.default_rng(x) for x in seeds]
    ref = [[init_population(s["n"], spec, g).genes, np.full(s["n"], np.nan)]
           for g in ref_streams]
    for _ in range(s["steps"]):
        if spec.noisy:
            fitness[...] = np.nan
        ea_step_all(genes, fitness, s["lam"], s["pcs"], s["pms"], spec, streams, s["op"])
        for i, rng in enumerate(ref_streams):
            if spec.noisy:
                ref[i][1] = np.full(s["n"], np.nan)
            ref[i] = list(replay_ea_step(*ref[i], s["lam"], s["pcs"][i], s["pms"][i],
                                         spec, rng, s["op"], budget))

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
        mp.setattr(ea, "_step_plan", ea._step_plan.__wrapped__)
        _assert_batched_matches_replay(
            get_objective("sphere", society["d"]), society,
            lambda m, p: min(gap_budget(m, p), 1 if p < 1 else m))


def test_batched_step_zero_offspring_only_evaluates():
    spec = get_objective("sphere", 3)
    streams = [np.random.default_rng(s) for s in (1, 2)]
    genes = np.stack([init_population(4, spec, st).genes for st in streams])
    fitness = np.full((2, 4), np.nan)
    before = genes.copy()
    ea_step_all(genes, fitness, 0, np.array([0.5, 0.5]), np.array([0.1, 0.1]),
                spec, streams)
    assert np.array_equal(genes, before)
    assert np.array_equal(fitness, spec.evaluate(genes.reshape(-1, 3)).reshape(2, 4))


# --- sparse gate sampler ----------------------------------------------------


def _tally_fires(n_agents, d, lam, scope, p, steps, seed=0):
    """Per-position fire counts of the crossover and mutation gates over
    ``steps`` draws of ``n_agents`` streams, all at rate ``p``."""
    plan = ea._step_plan(2, d, lam, scope == "pair", (p,) * n_agents, (p,) * n_agents)
    streams = [np.random.default_rng([seed, i]) for i in range(n_agents)]
    counts = np.zeros((2, lam * d), dtype=np.int64)
    for _ in range(steps):
        block = plan.block.copy()
        for i, (rng, k) in enumerate(zip(streams, plan.draws)):
            rng.random(out=block[i, :k])
        row, _, pos = ea._fires(block, plan, streams)
        np.add.at(counts, (row // n_agents, pos), 1)
    return counts[0, :plan.gates[0]], counts[1]


def _assert_binomial(counts, trials, p):
    # every gate fires Bernoulli(p) on its own: each count within six
    # standard deviations (plus one for rounding) of trials * p
    sd = np.sqrt(trials * p * (1.0 - p))
    assert np.all(np.abs(counts - trials * p) <= 6.0 * sd + 1.0), (counts, trials * p)


@pytest.mark.parametrize("scope", ["gene", "pair"])
@pytest.mark.parametrize("p", [0.0, 0.002, 0.05, 0.5, 1.0])
def test_gate_fires_each_gene_with_its_rate(p, scope):
    n_agents, steps = 50, 200
    cross, mut = _tally_fires(n_agents, 6, 8, scope, p, steps)
    assert len(cross) == (4 if scope == "pair" else 24)
    for counts in (cross, mut):
        _assert_binomial(counts, n_agents * steps, p)


@pytest.mark.parametrize("p", [0.05, 0.5])
def test_forced_top_up_keeps_the_marginals(monkeypatch, p):
    # a one-gap budget runs out on most streams, so the top-up decides
    budget = ea._gate_budget
    monkeypatch.setattr(ea, "_gate_budget", lambda m, q: np.minimum(budget(m, q), 1))
    monkeypatch.setattr(ea, "_step_plan", ea._step_plan.__wrapped__)
    calls = []
    top_up = ea._top_up
    monkeypatch.setattr(ea, "_top_up", lambda *a: calls.append(1) or top_up(*a))
    n_agents, steps = 50, 200
    for scope in ("gene", "pair"):
        cross, mut = _tally_fires(n_agents, 6, 8, scope, p, steps, seed=1)
        for counts in (cross, mut):
            _assert_binomial(counts, n_agents * steps, p)
    assert len(calls) > steps


@pytest.mark.parametrize("scope", ["gene", "pair"])
def test_zero_rates_breed_copies_of_the_parents(scope):
    rec = RecordingObjective(4)
    streams = [CountingStream(np.random.default_rng(s)) for s in range(3)]
    genes = np.stack([init_population(5, rec.spec, s.rng).genes for s in streams])
    fitness = np.full((3, 5), np.nan)
    ea_step_all(genes.copy(), fitness, 7, [0.0] * 3, [0.0] * 3, rec.spec,
                streams, EaOperatorConfig(crossover_scope=scope))
    children = rec.blocks[-1].reshape(3, 7, 4)
    for i in range(3):
        for child in children[i]:
            assert any(np.array_equal(child, parent) for parent in genes[i])
    # only the tournament is drawn: 6 uniforms per pair
    assert [s.uniforms for s in streams] == [6 * 4] * 3


@pytest.mark.parametrize("scope", ["gene", "pair"])
def test_child_genes_match_the_dense_scheme(scope):
    # two members tie on the sphere, so tournaments pick either at random;
    # every child gene is then a parent value, an SBX value or a mutation
    n_agents, lam, d, pc, pm = 40, 8, 6, 0.3, 0.1
    op = EaOperatorConfig(crossover_scope=scope)
    rec = RecordingObjective(d, bound=5.0)
    pop = np.stack([np.full(d, -1.0), np.full(d, 1.0)])
    sparse, dense = [], []
    for seed in range(20):
        streams = [np.random.default_rng([seed, i]) for i in range(n_agents)]
        ea_step_all(np.repeat(pop[None], n_agents, axis=0), np.full((n_agents, 2), np.nan),
                    lam, [pc] * n_agents, [pm] * n_agents, rec.spec, streams, op)
        sparse.append(rec.blocks[-1].ravel())
        ref = np.random.default_rng([seed, 10_000])
        dense += [dense_children(pop, lam, pc, pm, rec.spec, ref, op).ravel()
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
    genes = np.stack([init_population(5, spec, s.rng).genes for s in streams])
    fitness = np.full((n_agents, 5), np.nan)
    for _ in range(5):
        for s in streams:
            s.uniforms = 0
        ea_step_all(genes, fitness, 15, rates[:, 0], rates[:, 1], spec, streams)
        assert max(s.uniforms for s in streams) <= 1000
