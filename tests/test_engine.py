"""Run-loop behavior: epoch steps, relabeling, stacked engine vs the
stepwise reference, invariants over random configs, traces."""

from dataclasses import replace

import numpy as np
import pytest
from helpers import replay_ea_step, stepwise_run, twin_rngs
from hypothesis import given, settings
from hypothesis import strategies as st

from trustopt import (
    OBJECTIVE_NAMES,
    AgentTemplate,
    ConfigError,
    CredibilityConfig,
    EaOperatorConfig,
    TboConfig,
    effective_rates,
    get_objective,
    init_population,
    island_model_run,
    run_repetitions,
    tbo_run,
    validate_config,
)
from trustopt.engine import _build_state, _run, advance_step


def _cfg(**kw):
    base = dict(
        agent_count=3,
        dimension=2,
        objective="sphere",
        epoch_length=5,
        diversity_factor=0.0,
        max_steps=12,
        seed=90210,
        credibility=CredibilityConfig("trust", 5, 1, 50),
        per_agent=(AgentTemplate(population_size=4, offspring_size=6,
                                 base_crossover_rate=0.3,
                                 base_mutation_rate=0.1),),
    )
    base.update(kw)
    return TboConfig(**base)


def _island_cfg(**kw):
    kw.setdefault("algorithm", "island_model")
    kw.setdefault("credibility", None)
    return _cfg(**kw)


def _series(trace, agent):
    mask = trace.agent_ids == agent
    return trace.steps[mask], trace.best[mask], trace.mean[mask]


# --- one global step -------------------------------------------------------


def test_dispatch_runs_ea_step_off_epoch():
    log = []
    state = _build_state(_cfg(max_steps=1), "tbo", 0, None, log)
    assert state.t == 1 and state.t % 5 != 0  # not an epoch step
    before = state.streams[0].bit_generator.state
    _run(state, 1)
    assert log == []  # an EA step produces no interaction
    assert state.streams[0].bit_generator.state != before
    assert not np.any(np.isnan(state.fitness[0]))
    assert np.all(state.credibility.trust == 5)


def test_dispatch_runs_interaction_on_epoch():
    log = []
    state = _build_state(_cfg(), "tbo", 0, None, log)
    state.t = 5
    advance_step(state)
    out = log[0][1]
    assert out is not None
    assert out.recipient == 0
    assert out.sender in (1, 2)
    assert [t for t, _ in log] == [5, 5, 5]
    assert state.t == 6


def test_credibility_untouched_between_epochs():
    state = _build_state(_cfg(epoch_length=50, max_steps=10), "tbo", 0, None, None)
    _run(state, 1)
    assert np.all(state.credibility.trust == 5)
    assert state.t == 11


def test_trust_updates_stay_off_the_diagonal():
    state = _build_state(_cfg(agent_count=2, epoch_length=2, max_steps=20), "tbo", 0, None, None)
    _run(state, 1)
    trust = state.credibility.trust
    assert trust[0, 0] == 5 and trust[1, 1] == 5
    assert np.all((trust >= 1) & (trust <= 50))
    # with only two agents the partner draw always lands on the other one
    changed = (trust[0, 1] != 5) or (trust[1, 0] != 5)
    assert changed


def test_migration_replaces_worst_with_donor_best():
    log = []
    state = _build_state(_island_cfg(), "island_model", 0, None, log)
    state.t = 5
    state.streams[0], probe = twin_rngs(777)
    spec = get_objective("sphere", 2)
    genes_before = state.genes.copy()
    fit_before = spec.base(genes_before)
    advance_step(state)
    assert log == []  # migrations are not interactions
    k = int(probe.integers(0, 2))
    src = k + (k >= 0)
    best = int(np.argmin(fit_before[src]))
    worst = int(np.argmax(fit_before[0]))
    expected = genes_before[0].copy()
    expected[worst] = genes_before[src, best]
    assert np.array_equal(state.genes[0], expected)
    assert state.fitness[0, worst] == fit_before[src, best]


def test_epoch_snapshot_is_taken_before_any_write():
    # the second recipient must see the first recipient's pre-step
    # population, not its freshly merged one
    state = _build_state(_island_cfg(agent_count=2), "island_model", 0, None, None)
    state.t = 5
    spec = get_objective("sphere", 2)
    frozen = state.genes.copy()
    fit = spec.base(frozen)
    advance_step(state)
    for i in (0, 1):
        expected = frozen[i].copy()
        expected[int(np.argmax(fit[i]))] = frozen[1 - i, int(np.argmin(fit[1 - i]))]
        assert np.array_equal(state.genes[i], expected)


# --- no-exchange runs reduce to independent chains --------------------------


def test_long_epoch_run_equals_independent_ea_chains():
    cfg = _cfg(epoch_length=10_000, max_steps=30, diversity_factor=1.3)
    seeds = [11, 22, 33]
    trace = tbo_run(cfg, agent_rngs=[np.random.default_rng(s) for s in seeds])

    spec = get_objective(cfg.objective, cfg.dimension)
    op = EaOperatorConfig(cfg.eta_c, cfg.eta_m, cfg.crossover_scope)
    tpl = cfg.per_agent[0]
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        pc, pm = effective_rates(tpl.base_crossover_rate, tpl.base_mutation_rate,
                                 i, cfg.diversity_factor)
        genes = init_population(tpl.population_size, spec, rng).genes
        fitness = np.full(tpl.population_size, np.nan)
        bests, means = [], []
        for _ in range(cfg.max_steps):
            genes, fitness = replay_ea_step(genes, fitness, tpl.offspring_size, pc, pm,
                                            spec, rng, op)
            bests.append(fitness.min())
            means.append(fitness.mean())
        _, tb, tm = _series(trace, i)
        assert np.array_equal(tb, np.array(bests))
        assert np.array_equal(tm, np.array(means))


def test_injected_stream_count_must_match():
    with pytest.raises(ValueError):
        tbo_run(_cfg(), agent_rngs=[np.random.default_rng(0)])


# --- determinism and relabeling ---------------------------------------------


@pytest.mark.parametrize("runner", [tbo_run, island_model_run])
def test_identical_runs_produce_identical_traces(runner):
    cfg = _cfg() if runner is tbo_run else _island_cfg()
    a = runner(cfg)
    b = runner(cfg)
    assert np.array_equal(a.steps, b.steps)
    assert np.array_equal(a.best, b.best)
    assert np.array_equal(a.mean, b.mean)
    assert a.global_best.fitness == b.global_best.fitness
    assert np.array_equal(a.global_best.genes, b.global_best.genes)


@pytest.mark.parametrize("runner", [tbo_run, island_model_run])
def test_swapping_two_agents_relabels_the_run(runner):
    # agents differ only by their streams, so exchanging the streams must
    # exchange the per-agent series bit for bit, interactions included
    cfg = (_cfg if runner is tbo_run else _island_cfg)(
        agent_count=2, epoch_length=3, max_steps=12)
    a = runner(cfg, agent_rngs=[np.random.default_rng(101), np.random.default_rng(202)])
    b = runner(cfg, agent_rngs=[np.random.default_rng(202), np.random.default_rng(101)])
    for i in (0, 1):
        _, ab, am = _series(a, i)
        _, bb, bm = _series(b, 1 - i)
        assert np.array_equal(ab, bb)
        assert np.array_equal(am, bm)
    assert a.global_best.fitness == b.global_best.fitness


def test_permuting_agents_relabels_exchange_free_runs():
    cfg = _cfg(agent_count=4, epoch_length=10_000, max_steps=15)
    perm = [2, 0, 3, 1]
    seeds = [1000, 1001, 1002, 1003]
    a = tbo_run(cfg, agent_rngs=[np.random.default_rng(s) for s in seeds])
    b = tbo_run(cfg, agent_rngs=[np.random.default_rng(seeds[perm[j]]) for j in range(4)])
    for j in range(4):
        _, ab, am = _series(a, perm[j])
        _, bb, bm = _series(b, j)
        assert np.array_equal(ab, bb)
        assert np.array_equal(am, bm)


# --- trace contents ---------------------------------------------------------


def test_trace_records_every_agent_on_the_grid_plus_last():
    cfg = _cfg(max_steps=17)
    trace = tbo_run(cfg, record_every=5)
    recorded = sorted(set(trace.steps.tolist()))
    assert recorded == [1, 6, 11, 16, 17]
    for t in recorded:
        assert sorted(trace.agent_ids[trace.steps == t].tolist()) == [0, 1, 2]
    assert len(trace.steps) == 5 * cfg.agent_count
    assert trace.total_steps == 17
    assert trace.algorithm == "tbo"
    assert trace.objective == "sphere"


def test_trace_with_coarse_grid_keeps_first_and_last():
    trace = island_model_run(_island_cfg(max_steps=10), record_every=50)
    assert sorted(set(trace.steps.tolist())) == [1, 10]


def test_global_best_is_minimum_of_recorded_bests():
    cfg = _cfg(max_steps=25)
    trace = tbo_run(cfg)
    assert trace.global_best.fitness <= trace.best.min()
    spec = get_objective(cfg.objective, cfg.dimension)
    assert trace.global_best.fitness == pytest.approx(
        float(spec.base(trace.global_best.genes[None, :])[0]))
    assert 1 <= trace.global_best.step <= 25


def test_record_every_must_be_positive():
    with pytest.raises(ValueError):
        tbo_run(_cfg(), record_every=0)


# --- stacked engine vs the stepwise reference ------------------------------


_templates = st.builds(
    AgentTemplate,
    base_crossover_rate=st.sampled_from([0.0, 0.3, 1.0]),
    base_mutation_rate=st.sampled_from([0.0, 0.1, 1.0]),
    genome_intensity=st.sampled_from(["weak", "moderate", "strong"]),
    gene_op=st.sampled_from(["swap", "average"]),
)


@st.composite
def _configs(draw, objective, algorithm):
    n_agents = draw(st.integers(2, 6))
    n = draw(st.integers(1, 6))
    lam = draw(st.sampled_from([0, 1, 3, 4, 6]))
    lo = draw(st.integers(1, 4))
    hi = draw(st.integers(lo, 8))
    per_agent = draw(st.one_of(st.lists(_templates, min_size=1, max_size=1),
                               st.lists(_templates, min_size=n_agents, max_size=n_agents)))
    per_agent = tuple(AgentTemplate(n, lam, t.base_crossover_rate, t.base_mutation_rate,
                                    t.genome_intensity, t.gene_op) for t in per_agent)
    kw = dict(
        agent_count=n_agents, dimension=draw(st.sampled_from([1, 2, 6])),
        objective=objective, epoch_length=draw(st.integers(1, 3)),
        diversity_factor=draw(st.sampled_from([0.0, 1.3])),
        max_steps=draw(st.integers(1, 9)), seed=draw(st.integers(0, 2**32)),
        credibility=CredibilityConfig(draw(st.sampled_from(["trust", "reputation"])),
                                      draw(st.integers(lo, hi)), lo, hi),
        per_agent=per_agent, partner_policy=draw(st.sampled_from(["redraw", "fixed"])),
        crossover_scope=draw(st.sampled_from(["gene", "pair"])),
        first_step=draw(st.integers(0, 1)),
    )
    return _cfg(**kw) if algorithm == "tbo" else _island_cfg(**kw)


@pytest.mark.parametrize("objective", ["sphere", "schwefel_noise"])
@pytest.mark.parametrize("algorithm", ["tbo", "island_model"])
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_fast_path_matches_stepwise_object_path(objective, algorithm, data):
    cfg = data.draw(_configs(objective, algorithm))
    log = []
    state = _build_state(cfg, algorithm, 0, None, log)
    trace = _run(state, 1)
    ref = stepwise_run(cfg, algorithm)

    runner = tbo_run if algorithm == "tbo" else island_model_run
    direct = runner(cfg)
    assert np.array_equal(direct.best, trace.best)
    assert np.array_equal(direct.mean, trace.mean)

    assert np.array_equal(trace.best, ref.best.ravel())
    assert np.array_equal(trace.mean, ref.mean.ravel())
    assert trace.global_best.step == ref.best_step
    assert trace.global_best.fitness == ref.best_fitness
    assert np.array_equal(trace.global_best.genes, ref.best_genes)
    if algorithm == "island_model":
        assert state.credibility is None and log == []
        return
    assert np.array_equal(state.credibility.trust, ref.credibility.trust)
    assert np.array_equal(state.credibility.reputation, ref.credibility.reputation)
    assert len(log) == len(ref.log)
    for (t, out), (rt, rout) in zip(log, ref.log):
        assert t == rt
        assert (out.recipient, out.sender, out.accepted, out.improved) == (
            rout.recipient, rout.sender, rout.accepted, rout.improved)
        assert out.credibility_deltas == rout.credibility_deltas
        assert (out.mean_before, out.mean_after, out.mean_shared, out.threshold) == (
            rout.mean_before, rout.mean_after, rout.mean_shared, rout.threshold)
        assert np.array_equal(out.population.genes, rout.population.genes)
        assert np.array_equal(out.population.fitness, rout.population.fitness)


_PARAM_VALUES = st.one_of(
    st.floats(-3.0, 3.0), st.integers(-3, 3), st.booleans(), st.text(max_size=3),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)


@settings(max_examples=300, deadline=None, database=None)
@given(objective=st.sampled_from(OBJECTIVE_NAMES + ("warp_field",)),
       dimension=st.integers(0, 8),
       params=st.dictionaries(st.sampled_from(["noise_sigma", "a", "b", "bogus"]),
                              _PARAM_VALUES, max_size=3))
def test_validate_accepts_exactly_the_bindings_the_engine_builds(objective, dimension, params):
    cfg = _cfg(objective=objective, dimension=dimension, objective_params=params)
    try:
        validate_config(cfg)
        valid = True
    except ConfigError:
        valid = False
    try:
        state = _build_state(cfg, "tbo", 0, None, None)
        built = True
    except ValueError:
        built = False
    assert valid == built
    if built:
        # a binding that validates also evaluates to finite values
        n = cfg.per_agent[0].population_size
        values = state.objective.evaluate_rows(state.genes.reshape(-1, dimension),
                                               [n] * cfg.agent_count, state.streams)
        assert np.all(np.isfinite(values))


_DIMENSION_FLOORS = {"expanded_schaffer": 2, "lennard_jones": 6}


@pytest.mark.parametrize("algorithm", ["tbo", "island_model"])
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_invariants_hold_over_random_configs(algorithm, data):
    objective = data.draw(st.sampled_from(OBJECTIVE_NAMES))
    cfg = data.draw(_configs(objective, algorithm))
    cfg = replace(cfg, dimension=max(cfg.dimension, _DIMENSION_FLOORS.get(objective, 1)))
    n = cfg.per_agent[0].population_size
    state = _build_state(replace(cfg, max_steps=1), algorithm, 0, None, None)
    spec, cred = state.objective, state.credibility
    # with one member, a migration overwrites the agent's only genome, so
    # its best may rise; with two or more it overwrites a worst member and
    # a member at least as good survives
    monotone = not spec.noisy and (algorithm == "tbo" or n >= 2)
    previous = np.full(cfg.agent_count, np.inf)
    for _ in range(cfg.max_steps):
        _run(state, 1)
        assert state.genes.shape == (cfg.agent_count, n, cfg.dimension)
        assert state.fitness.shape == (cfg.agent_count, n)
        assert np.all((state.genes >= spec.lower) & (state.genes <= spec.upper))
        if cred is not None:
            table = cred.trust if cred.kind == "trust" else cred.reputation
            assert np.all((table >= cred.min_value) & (table <= cred.max_value))
        best = state.fitness.min(axis=1)
        if monotone:
            assert np.all(best <= previous)
        previous = best


# --- repetitions and logging ------------------------------------------------


def test_run_repetitions_tags_and_varies():
    cfg = _cfg(max_steps=8, repetitions=4)
    traces = run_repetitions(cfg)
    assert [t.repetition for t in traces] == [0, 1, 2, 3]
    finals = [t.global_best.fitness for t in traces]
    assert len(set(finals)) > 1
    direct = tbo_run(cfg, 2)
    assert np.array_equal(traces[2].best, direct.best)


def test_run_repetitions_respects_algorithm_override():
    cfg = _cfg(max_steps=6, repetitions=2)
    traces = run_repetitions(cfg, "island_model")
    assert all(t.algorithm == "island_model" for t in traces)


def test_interaction_log_sees_every_epoch():
    cfg = _cfg(epoch_length=3, max_steps=9)
    log = []
    tbo_run(cfg, interaction_log=log)
    times = [t for t, _ in log]
    assert times == [3, 3, 3, 6, 6, 6, 9, 9, 9]
    for t, out in log:
        assert out.recipient != out.sender
        assert out.mean_before >= 0  # sphere fitness


def test_first_step_zero_starts_with_an_exchange():
    cfg = _cfg(first_step=0, epoch_length=5, max_steps=3)
    log = []
    trace = tbo_run(cfg, interaction_log=log)
    assert [t for t, _ in log] == [0, 0, 0]
    assert sorted(set(trace.steps.tolist())) == [0, 1, 2]
