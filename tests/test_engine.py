"""Run-loop behavior: epoch steps, relabeling, stacked engine vs the
stepwise reference, stacked repetitions vs lone runs, invariants over
random configs, traces."""

from dataclasses import replace

import helpers
import numpy as np
import pytest
from helpers import (assert_records_equal, plateau_objective, replay_ea_step, stepwise_run,
                     twin_rngs)
from hypothesis import given, settings
from hypothesis import strategies as st

import trustopt.engine as engine
from trustopt import (
    OBJECTIVE_NAMES,
    AgentTemplate,
    ConfigError,
    CredibilityConfig,
    CredibilityState,
    TboConfig,
    effective_rates,
    get_objective,
    init_population,
    run_repetitions,
    validate_config,
)
from trustopt.engine import _build_state, _lockstep, advance_step, run_cells
from trustopt.socio import _apply_credit


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


def _run(cfg, repetition=0, record_every=1, interaction_log=None):
    """The trace of repetition ``repetition`` of ``cfg``, run alone."""
    return _lockstep([_build_state(cfg, [repetition], interaction_log)], record_every)[0][0]


def _inject(monkeypatch, seeds):
    """Give agent ``i`` of every repetition the stream ``default_rng(seeds[i])``."""
    monkeypatch.setattr(engine, "agent_stream",
                        lambda seed, repetition, i: np.random.default_rng(seeds[i]))


# one case per algorithm: a tbo run and an island-model run
_ALGORITHMS = pytest.mark.parametrize("algorithm", ["tbo", "island_model"],
                                      ids=["tbo_run", "island_model_run"])


# --- one global step -------------------------------------------------------


def test_dispatch_runs_ea_step_off_epoch():
    log = []
    state = _build_state(_cfg(max_steps=1), [0], log)
    assert state.cfg.epoch_length > 1  # the one step, t = 1, is no epoch step
    before = state.streams[0].bit_generator.state
    _lockstep([state], 1)
    assert log == []  # an EA step produces no interaction
    assert state.streams[0].bit_generator.state != before
    assert not np.any(np.isnan(state.fitness[0]))
    assert np.all(state.credibility.trust == 5)


def test_dispatch_runs_interaction_on_epoch():
    log = []
    state = _build_state(_cfg(), [0], log)
    advance_step(state, 5)
    record = log[0][1]
    assert len(record.sender) == 3  # one entry per recipient
    assert record.sender[0] in (1, 2)
    assert [t for t, _ in log] == [5]


def test_credibility_untouched_between_epochs():
    state = _build_state(_cfg(epoch_length=50, max_steps=10), [0])
    _lockstep([state], 1)
    assert np.all(state.credibility.trust == 5)


def test_trust_updates_stay_off_the_diagonal():
    state = _build_state(_cfg(agent_count=2, epoch_length=2, max_steps=20), [0])
    _lockstep([state], 1)
    trust = state.credibility.trust
    assert trust[0, 0] == 5 and trust[1, 1] == 5
    assert np.all((trust >= 1) & (trust <= 50))
    # with only two agents the partner draw always lands on the other one
    changed = (trust[0, 1] != 5) or (trust[1, 0] != 5)
    assert changed


def test_migration_replaces_worst_with_donor_best():
    log = []
    state = _build_state(_island_cfg(), [0], log)
    state.streams[0], probe = twin_rngs(777)
    spec = get_objective("sphere", 2)
    genes_before = state.genes.copy()
    fit_before = spec.base(genes_before)
    advance_step(state, 5)
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
    state = _build_state(_island_cfg(agent_count=2), [0])
    spec = get_objective("sphere", 2)
    frozen = state.genes.copy()
    fit = spec.base(frozen)
    advance_step(state, 5)
    for i in (0, 1):
        expected = frozen[i].copy()
        expected[int(np.argmax(fit[i]))] = frozen[1 - i, int(np.argmin(fit[1 - i]))]
        assert np.array_equal(state.genes[i], expected)


# --- no-exchange runs reduce to independent chains --------------------------


def test_long_epoch_run_equals_independent_ea_chains(monkeypatch):
    cfg = _cfg(epoch_length=10_000, max_steps=30, diversity_factor=1.3)
    seeds = [11, 22, 33]
    _inject(monkeypatch, seeds)
    trace = _run(cfg)

    spec = get_objective(cfg.objective, cfg.dimension)
    tpl = cfg.per_agent[0]
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        pc, pm = effective_rates(tpl.base_crossover_rate, tpl.base_mutation_rate,
                                 i, cfg.diversity_factor)
        genes = init_population(tpl.population_size, spec, rng)
        fitness = np.full(tpl.population_size, np.nan)
        bests, means = [], []
        for _ in range(cfg.max_steps):
            genes, fitness = replay_ea_step(genes, fitness, tpl.offspring_size, pc, pm,
                                            spec, rng, cfg.eta_c, cfg.eta_m)
            bests.append(fitness.min())
            means.append(fitness.mean())
        _, tb, tm = _series(trace, i)
        assert np.array_equal(tb, np.array(bests))
        assert np.array_equal(tm, np.array(means))


# --- determinism and relabeling ---------------------------------------------


@_ALGORITHMS
def test_identical_runs_produce_identical_traces(algorithm):
    cfg = _cfg() if algorithm == "tbo" else _island_cfg()
    a = _run(cfg)
    b = _run(cfg)
    assert np.array_equal(a.steps, b.steps)
    assert np.array_equal(a.best, b.best)
    assert np.array_equal(a.mean, b.mean)
    assert a.global_best.fitness == b.global_best.fitness
    assert np.array_equal(a.global_best.genes, b.global_best.genes)


@_ALGORITHMS
def test_swapping_two_agents_relabels_the_run(algorithm, monkeypatch):
    # agents differ only by their streams, so exchanging the streams must
    # exchange the per-agent series bit for bit, interactions included
    cfg = (_cfg if algorithm == "tbo" else _island_cfg)(
        agent_count=2, epoch_length=3, max_steps=12)
    _inject(monkeypatch, [101, 202])
    a = _run(cfg)
    _inject(monkeypatch, [202, 101])
    b = _run(cfg)
    for i in (0, 1):
        _, ab, am = _series(a, i)
        _, bb, bm = _series(b, 1 - i)
        assert np.array_equal(ab, bb)
        assert np.array_equal(am, bm)
    assert a.global_best.fitness == b.global_best.fitness


def test_permuting_agents_relabels_exchange_free_runs(monkeypatch):
    cfg = _cfg(agent_count=4, epoch_length=10_000, max_steps=15)
    perm = [2, 0, 3, 1]
    seeds = [1000, 1001, 1002, 1003]
    _inject(monkeypatch, seeds)
    a = _run(cfg)
    _inject(monkeypatch, [seeds[perm[j]] for j in range(4)])
    b = _run(cfg)
    for j in range(4):
        _, ab, am = _series(a, perm[j])
        _, bb, bm = _series(b, j)
        assert np.array_equal(ab, bb)
        assert np.array_equal(am, bm)


# --- trace contents ---------------------------------------------------------


def test_trace_records_every_agent_on_the_grid_plus_last():
    cfg = _cfg(max_steps=17)
    trace = _run(cfg, record_every=5)
    recorded = sorted(set(trace.steps.tolist()))
    assert recorded == [1, 6, 11, 16, 17]
    for t in recorded:
        assert sorted(trace.agent_ids[trace.steps == t].tolist()) == [0, 1, 2]
    assert len(trace.steps) == 5 * cfg.agent_count
    assert trace.total_steps == 17
    assert trace.algorithm == "tbo"
    assert trace.objective == "sphere"


def test_trace_with_coarse_grid_keeps_first_and_last():
    trace = _run(_island_cfg(max_steps=10), record_every=50)
    assert sorted(set(trace.steps.tolist())) == [1, 10]


def test_global_best_is_minimum_of_recorded_bests():
    cfg = _cfg(max_steps=25)
    trace = _run(cfg)
    assert trace.global_best.fitness <= trace.best.min()
    spec = get_objective(cfg.objective, cfg.dimension)
    assert trace.global_best.fitness == pytest.approx(
        float(spec.base(trace.global_best.genes[None, :])[0]))
    assert 1 <= trace.global_best.step <= 25


def test_record_every_must_be_positive():
    with pytest.raises(ValueError):
        run_repetitions(_cfg(), record_every=0)


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
        per_agent=per_agent,
    )
    return _cfg(**kw) if algorithm == "tbo" else _island_cfg(**kw)


@pytest.mark.parametrize("objective", ["sphere", "schwefel_noise"])
@pytest.mark.parametrize("algorithm", ["tbo", "island_model"])
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_fast_path_matches_stepwise_object_path(objective, algorithm, data):
    cfg = data.draw(_configs(objective, algorithm))
    log = []
    state = _build_state(cfg, [0], log)
    [[trace]] = _lockstep([state], 1)
    ref = stepwise_run(cfg, algorithm)

    [direct] = run_repetitions(cfg)
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
    assert np.array_equal(state.genes, ref.genes)
    assert np.array_equal(state.fitness, ref.fitness)
    assert len(log) == len(ref.log)
    for (t, record), (rt, ref_record, ref_accepted) in zip(log, ref.log):
        assert t == rt
        assert_records_equal(record, ref_record, ref_accepted)


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
        state = _build_state(cfg, [0])
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
    state = _build_state(cfg, [0])
    spec, cred = state.objective, state.credibility
    # with one member, a migration overwrites the agent's only genome, so
    # its best may rise; with two or more it overwrites a worst member and
    # a member at least as good survives
    monotone = not spec.noisy and (algorithm == "tbo" or n >= 2)
    bests = [np.full(cfg.agent_count, np.inf)]

    def check():
        assert state.genes.shape == (cfg.agent_count, n, cfg.dimension)
        assert state.fitness.shape == (cfg.agent_count, n)
        assert np.all((state.genes >= spec.lower) & (state.genes <= spec.upper))
        if cred is not None:
            table = cred.trust if cred.kind == "trust" else cred.reputation
            assert np.all((table >= cred.min_value) & (table <= cred.max_value))
        best = state.fitness.min(axis=1)
        if monotone:
            assert np.all(best <= bests[-1])
        bests.append(best)

    def checked(step):
        def run(*args):
            step(*args)
            check()
        return run

    # a one-cell group takes exactly one of these per global step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "ea_step_all", checked(engine.ea_step_all))
        mp.setattr(engine, "advance_step", checked(engine.advance_step))
        _lockstep([state], 1)
    assert len(bests) == 1 + cfg.max_steps


# --- repetitions and logging ------------------------------------------------


def test_run_repetitions_tags_and_varies():
    cfg = _cfg(max_steps=8, repetitions=4)
    traces = run_repetitions(cfg)
    assert [t.repetition for t in traces] == [0, 1, 2, 3]
    finals = [t.global_best.fitness for t in traces]
    assert len(set(finals)) > 1
    direct = _run(cfg, 2)
    assert np.array_equal(traces[2].best, direct.best)


def _assert_same_run(a, b):
    """Two traces agree bit for bit, global best included."""
    for name in ("steps", "agent_ids", "best", "mean"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    ga, gb = a.global_best, b.global_best
    assert (ga.step, ga.fitness, ga.genes.tobytes()) == (gb.step, gb.fitness, gb.genes.tobytes())


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_stacked_repetitions_run_as_if_alone(data):
    # run_repetitions stacks every repetition into one society; each must
    # still be the run it gives alone
    algorithm = data.draw(st.sampled_from(["tbo", "island_model"]))
    n_agents = data.draw(st.integers(2, 5))
    templates = data.draw(st.lists(_templates, min_size=n_agents, max_size=n_agents))
    kw = dict(
        agent_count=n_agents, repetitions=data.draw(st.integers(1, 4)),
        objective=data.draw(st.sampled_from(["sphere", "schwefel_noise"])),
        epoch_length=data.draw(st.integers(1, 3)),
        diversity_factor=data.draw(st.sampled_from([0.0, 1.3])),
        max_steps=data.draw(st.integers(1, 8)), seed=data.draw(st.integers(0, 2**32)),
        per_agent=tuple(replace(t, population_size=3, offspring_size=4) for t in templates),
    )
    if algorithm == "tbo":
        kind = data.draw(st.sampled_from(["trust", "reputation"]))
        cfg = _cfg(credibility=CredibilityConfig(kind, data.draw(st.integers(1, 6)), 1, 6), **kw)
    else:
        cfg = _island_cfg(**kw)
    traces = run_repetitions(cfg)
    assert [t.repetition for t in traces] == list(range(cfg.repetitions))
    for r, trace in enumerate(traces):
        _assert_same_run(trace, _run(cfg, r))


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_grouped_cells_run_as_if_alone(data):
    # run_cells steps a group of cells in lockstep, as one EA step off every
    # cell's epoch; each cell must still be the run run_repetitions gives it
    # alone, also on steps where only some cells exchange
    shared = dict(objective=data.draw(st.sampled_from(["sphere", "schwefel_noise"])),
                  max_steps=data.draw(st.integers(1, 8)))
    cfgs = []
    for _ in range(data.draw(st.integers(2, 4))):
        n_agents = data.draw(st.integers(2, 5))
        templates = data.draw(st.lists(_templates, min_size=n_agents, max_size=n_agents))
        kw = dict(
            shared, agent_count=n_agents, repetitions=data.draw(st.integers(1, 3)),
            epoch_length=data.draw(st.integers(1, 3)),
            diversity_factor=data.draw(st.sampled_from([0.0, 1.3])),
            seed=data.draw(st.integers(0, 2**32)),
            per_agent=tuple(replace(t, population_size=3, offspring_size=4) for t in templates),
        )
        kind = data.draw(st.sampled_from(["trust", "reputation", "island_model"]))
        if kind == "island_model":
            cfgs.append(_island_cfg(**kw))
        else:
            start = data.draw(st.integers(1, 6))
            cfgs.append(_cfg(credibility=CredibilityConfig(kind, start, 1, 6), **kw))
    record_every = data.draw(st.integers(1, 3))
    grouped = run_cells(cfgs, record_every=record_every)
    assert len(grouped) == len(cfgs)
    for cfg, traces in zip(cfgs, grouped):
        alone = run_repetitions(cfg, record_every=record_every)
        assert [t.repetition for t in traces] == [t.repetition for t in alone]
        for a, b in zip(traces, alone):
            _assert_same_run(a, b)


@pytest.mark.parametrize("field, change", [
    ("population size", dict(per_agent=(AgentTemplate(population_size=3, offspring_size=6),))),
    ("offspring size", dict(per_agent=(AgentTemplate(population_size=4, offspring_size=5),))),
    ("EA operator constants", dict(eta_c=10.0)),
    ("EA operator constants", dict(eta_m=10.0)),
    ("EA operator constants", dict(eta_c=10.0, eta_m=10.0)),
    ("population size, offspring size",
     dict(per_agent=(AgentTemplate(population_size=3, offspring_size=5),))),
    ("max_steps", dict(max_steps=13)),
    ("objective binding", dict(objective="sphere")),
    ("objective binding", dict(dimension=3)),
    ("objective binding", dict(objective_params={"noise_sigma": 0.5})),
])
def test_cells_that_cannot_share_a_step_are_rejected(field, change):
    cfg = _cfg(objective="schwefel_noise")
    with pytest.raises(ValueError, match=field):
        run_cells([cfg, replace(cfg, **change)])


@pytest.mark.parametrize("algorithm", ["tbo", "island_model"])
def test_stacked_global_best_keeps_the_tie_rule(algorithm, monkeypatch):
    # plateau fitness ties distinct genomes across agents and members; each
    # repetition's global best must still be the first agent's first member
    # at a new running minimum, as in the agent-by-agent reference
    def plateau(name, dimension, **params):
        return plateau_objective(dimension)

    monkeypatch.setattr(engine, "get_objective", plateau)
    monkeypatch.setattr(helpers, "get_objective", plateau)
    cfg = (_cfg if algorithm == "tbo" else _island_cfg)(
        agent_count=4, repetitions=3, epoch_length=2, max_steps=10)
    tied = 0
    for r, trace in enumerate(run_repetitions(cfg)):
        ref = stepwise_run(cfg, algorithm, r)
        assert trace.best.tobytes() == ref.best.ravel().tobytes()
        assert (trace.global_best.step, trace.global_best.fitness) == (ref.best_step,
                                                                      ref.best_fitness)
        assert trace.global_best.genes.tobytes() == ref.best_genes.tobytes()
        at_best = trace.best[trace.steps == trace.global_best.step]
        tied += np.count_nonzero(at_best == trace.global_best.fitness) > 1
    assert tied  # some repetition reached its best in several agents at once


def test_run_repetitions_respects_algorithm_override():
    cfg = _cfg(max_steps=6, repetitions=2)
    traces = run_repetitions(replace(cfg, algorithm="island_model"))
    assert all(t.algorithm == "island_model" for t in traces)


def test_interaction_log_sees_every_epoch():
    cfg = _cfg(epoch_length=3, max_steps=9)
    log = []
    run_repetitions(cfg, interaction_log=log)
    assert [t for t, _ in log] == [3, 6, 9]
    for t, record in log:
        assert np.all(record.sender != np.arange(3))
        assert np.all(record.mean_before >= 0)  # sphere fitness


@pytest.mark.parametrize("kind", ["trust", "reputation"])
def test_interaction_log_explains_the_credibility_state(kind, monkeypatch):
    # after every epoch step, the start table plus the logged credit so
    # far, clamped per step, is the run's table
    c = CredibilityConfig(kind, 3, 1, 5)
    cfg = _cfg(agent_count=4, epoch_length=2, max_steps=60, credibility=c)
    log = []
    state = _build_state(cfg, [0], log)
    table = getattr(CredibilityState.initial(kind, 4, c.start_value, c.min_value, c.max_value),
                    kind)
    loose = table.copy()

    def checked_step(s, t):
        advance_step(s, t)
        _, record = log[-1]
        for target, lo, hi in ((table, c.min_value, c.max_value), (loose, -99, 99)):
            _apply_credit(target, kind, np.arange(4), record.sender, record.branch, lo, hi)
        run_table = getattr(s.credibility, kind)
        assert table.dtype == run_table.dtype
        assert table.tobytes() == run_table.tobytes()

    monkeypatch.setattr(engine, "advance_step", checked_step)
    _lockstep([state], 1)
    assert len(log) == 30
    # the run hit both bounds, so the per-step clamp mattered
    assert loose.min() < c.min_value and loose.max() > c.max_value


def test_interaction_log_stacks_repetitions():
    # a stacked run logs every repetition's agents in one record per epoch
    # step, repetition after repetition; block r is the lone run's record
    # with its senders shifted to the block's rows
    cfg = _cfg(agent_count=3, repetitions=3, epoch_length=2, max_steps=9)
    n = cfg.agent_count
    log = []
    run_repetitions(cfg, interaction_log=log)
    assert [t for t, _ in log] == [2, 4, 6, 8]
    for r in range(cfg.repetitions):
        alone = []
        _run(cfg, r, interaction_log=alone)
        assert [t for t, _ in alone] == [t for t, _ in log]
        for (_, record), (_, lone) in zip(log, alone):
            for name, field, lone_field in zip(record._fields, record, lone):
                assert len(field) == cfg.repetitions * n, name
                block = field[r * n:(r + 1) * n]
                expected = lone_field + r * n if name == "sender" else lone_field
                assert block.dtype == expected.dtype, name
                assert block.tobytes() == expected.tobytes(), name
