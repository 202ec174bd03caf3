"""Credibility-gated exchange: share selection, threshold, gene adoption,
offspring, credibility updates, and the batched ``exchange_all`` against
``helpers.replay_exchange``.

Hand cases run one ``exchange_all`` step of a two-agent society and read
agent 0's row of its record (``helpers.receive``).  On the linear
objective (``helpers.exchange_pair``) fitness is gene 0 and gene 1 marks
the member index, and the offspring are read off the blocks the objective
evaluated.  Test names keep the paper-style rule names:
``phi`` is gene adoption, ``sc_crossover`` the breeding of offspring and
``sc_variation`` the threshold-gated merge.
"""

from copy import deepcopy

import numpy as np
import pytest
from helpers import (
    adopt_genes,
    assert_records_equal,
    credit_after,
    exchange_pair,
    genomes_with_values,
    linear_objective,
    plateau_objective,
    receive,
    replay_exchange,
    twin_rngs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from trustopt import (
    AgentTemplate,
    ConfigError,
    CredibilityConfig,
    CredibilityState,
    TboConfig,
    get_objective,
    init_population,
    validate_config,
)
from trustopt.socio import _adopt, _apply_credit, _branch, _threshold, exchange_all

SPEC2 = linear_objective(2)


def _adopted(base, donor, k, gene_op="swap"):
    """``socio._adopt`` on one row; the inputs are left alone."""
    return _adopt(np.array([base], dtype=float), np.array([donor], dtype=float),
                  np.array([k]), np.array([gene_op == "average"]))[0]


def _rich(n, dimension=2):
    """A recipient of ``n`` members at fitness 1000, whose threshold of 2000
    accepts every share in these tests."""
    return genomes_with_values([1000.0] * n, dimension)


def _cfg(**kw):
    base = dict(agent_count=3, dimension=2, objective="sphere", epoch_length=5,
                diversity_factor=0.0, max_steps=5, seed=1)
    base.update(kw)
    return TboConfig(**base)


# --- share selection --------------------------------------------------------


def test_select_shared_whole_population_when_credibility_large():
    sender = genomes_with_values([3.0, 1.0, 7.0, 5.0])
    ex = exchange_pair(_rich(4), sender, share=50)
    assert ex.record.mean_shared == 4.0
    assert sorted(ex.blocks[0][:, 0]) == [1.0, 3.0, 5.0, 7.0]


def test_select_shared_picks_worst_members():
    sender = genomes_with_values([3.0, 1.0, 7.0, 5.0])
    one = exchange_pair(_rich(4), sender, share=1)
    assert list(one.blocks[0][:, 0]) == [7.0]
    assert one.record.mean_shared == 7.0
    two = exchange_pair(_rich(4), sender, share=2)
    assert list(two.blocks[0][:, 0]) == [7.0, 5.0]
    assert two.record.mean_shared == 6.0


def test_select_shared_breaks_ties_by_insertion_order():
    sender = genomes_with_values([4.0, 4.0, 4.0])  # gene 1 marks the member
    ex = exchange_pair(_rich(3), sender, share=2)
    assert list(ex.blocks[0][:, 1]) == [0, 1]


def test_select_shared_returns_copies():
    # the recipient adopts from copies: the sender's population is only read
    sender = genomes_with_values([2.0, 8.0])
    ex = exchange_pair(_rich(2), sender, share=1)
    assert ex.record.accepted
    assert list(ex.blocks[0][:, 0]) == [8.0]
    # agent 1's own share (agent 0's members, mean 1000) fails its
    # threshold of 10, so nothing but its recipient read its members
    assert np.array_equal(ex.genes[1], sender)


def test_select_shared_matches_rank_oracle(rng):
    for _ in range(300):
        n = int(rng.integers(1, 9))
        values = rng.integers(0, 5, size=n).astype(float)  # ties likely
        cred = int(rng.integers(1, 51))
        ex = exchange_pair(_rich(n), genomes_with_values(values), share=cred)
        m = min(cred, n)
        oracle = sorted(range(n), key=lambda i: (-values[i], i))[:m]
        assert list(ex.blocks[0][:, 1]) == oracle


def test_select_shared_rejects_bad_inputs():
    # a share of zero members cannot arise: credibility is at least 1
    with pytest.raises(ValueError):
        CredibilityState("trust", 0, 50, trust=np.ones((2, 2), dtype=np.int64))
    with pytest.raises(ConfigError, match="min_value must be >= 1"):
        validate_config(_cfg(credibility=CredibilityConfig("trust", 1, 0, 50)))


# --- threshold --------------------------------------------------------------


@pytest.mark.parametrize("mean,expected", [(10.0, 20.0), (0.0, 0.0), (-50.0, 0.0)])
def test_acceptance_threshold_cases(mean, expected):
    assert _threshold(np.float64(mean)) == expected
    ex = exchange_pair(genomes_with_values([mean]), genomes_with_values([-100.0]))
    assert ex.record.threshold == expected


# --- divergence and adoption ------------------------------------------------


def test_divergence_ranking_hand_case():
    # divergences 1, 3, 2: gene 1 first, then gene 2, then gene 0
    x = [1.0, 3.0, 2.0]
    assert _adopted(np.zeros(3), x, 1).tolist() == [0.0, 3.0, 0.0]
    assert _adopted(np.zeros(3), x, 2).tolist() == [0.0, 3.0, 2.0]
    assert _adopted(np.zeros(3), x, 3).tolist() == x


def test_divergence_ranking_equal_genomes_tie_rule():
    # equal divergences rank by ascending index
    x = [2.0, -2.0, 2.0, -2.0]
    assert _adopted(np.zeros(4), x, 2).tolist() == [2.0, -2.0, 0.0, 0.0]
    assert _adopted(np.zeros(4), x, 3).tolist() == [2.0, -2.0, 2.0, 0.0]
    # equal genomes: adoption changes nothing
    assert _adopted(np.ones(4), np.ones(4), 2).tolist() == [1.0] * 4


def test_divergence_ranking_matches_sort_oracle(rng):
    for _ in range(200):
        y = rng.normal(size=6)
        x = rng.normal(size=6)
        for k in range(1, 7):
            assert _adopted(y, x, k).tolist() == adopt_genes(y, x, k, "swap")


def test_divergence_ranking_shape_checks():
    # a recipient and a sender of different dimensions cannot share a stack
    with pytest.raises(ValueError):
        receive(genomes_with_values([1.0, 2.0], 3), genomes_with_values([1.0, 2.0], 4),
                _trust_state(), SPEC2, np.random.default_rng(0))


def test_phi_swap_and_average():
    y = np.zeros(2)
    x = np.array([4.0, 1.0])
    assert np.array_equal(_adopted(y, x, 1, "swap"), [4.0, 0.0])
    assert np.array_equal(_adopted(y, x, 1, "average"), [2.0, 0.0])


def test_phi_full_depth_swap_copies_partner():
    y = np.array([5.0, -2.0, 0.5])
    x = np.array([1.0, 1.0, 1.0])
    assert np.array_equal(_adopted(y, x, 3, "swap"), x)
    # depth beyond the dimension clamps
    assert np.array_equal(_adopted(y, x, 99, "swap"), x)


def test_phi_leaves_inputs_untouched():
    # the donor is only read; exchange_all adopts into copies of residents
    y = np.array([[1.0, 2.0]])
    x = np.array([[9.0, 2.5]])
    _adopt(y.copy(), x, np.array([1]), np.array([True]))
    assert np.array_equal(x, [[9.0, 2.5]])
    # offspring that all lose leave the residents they started from as
    # they were
    recipient = genomes_with_values([1.0, 1.0])
    ex = exchange_pair(recipient, genomes_with_values([1.5, 1.5]), share=2, depth=1,
                       gene_op="average")
    assert ex.record.accepted
    assert len(ex.blocks[0]) == 2
    assert np.array_equal(ex.genes[0], recipient)


def test_phi_rejects_bad_arguments():
    # depth 0 cannot arise (credibility is at least 1); the gene operator
    # is checked where a config is built
    with pytest.raises(ValueError):
        CredibilityState.initial("trust", 2, 0, 0, 50)
    with pytest.raises(ConfigError, match="gene_op"):
        validate_config(_cfg(per_agent=(AgentTemplate(gene_op="blend"),)))


def test_phi_untouched_indices_pass_through(rng):
    for _ in range(100):
        y = rng.normal(size=5)
        x = rng.normal(size=5)
        k = int(rng.integers(1, 6))
        out = _adopted(y, x, k, "swap")
        chosen = set(sorted(range(5), key=lambda g: (-abs(x[g] - y[g]), g))[:k])
        for i in range(5):
            if i in chosen:
                assert out[i] == x[i]
            else:
                assert out[i] == y[i]


# --- interaction offspring --------------------------------------------------


def test_sc_crossover_offspring_counts(rng):
    recipient = rng.normal(size=(5, 4))
    recipient[:, 0] = 1000.0
    sender = rng.normal(size=(5, 4))
    for intensity, expected in (("weak", 3), ("moderate", 6), ("strong", 6)):
        ex = exchange_pair(recipient, sender, share=3, depth=2, intensity=intensity)
        # every offspring is evaluated once
        assert len(ex.blocks[0]) == expected


def test_sc_crossover_depth_clamps_to_dimension(rng):
    recipient = rng.normal(size=(4, 3))
    recipient[:, 0] = 1000.0
    ex = exchange_pair(recipient, rng.normal(size=(4, 3)), share=2, depth=50,
                       intensity="moderate")
    assert len(ex.blocks[0]) == 2 * 3  # K clamps to D


def test_sc_crossover_full_depth_swap_adopts_shared_genomes(rng):
    # at full depth the resident base is rewritten everywhere it differs,
    # so each offspring is a copy of its shared genome
    recipient = rng.normal(size=(5, 3))
    recipient[:, 0] = 1000.0
    sender = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [-9.0, 0.0, 0.0],
                       [-9.0, 1.0, 0.0], [-9.0, 2.0, 0.0]])
    for intensity in ("weak", "moderate"):
        ex = exchange_pair(recipient, sender, share=2, depth=3, intensity=intensity)
        per = 1 if intensity == "weak" else 3
        for j, shared in enumerate((sender[1], sender[0])):  # worst first
            for q in range(per):
                assert np.array_equal(ex.blocks[0][j * per + q], shared)


def test_sc_crossover_strong_touches_single_gene():
    base = np.array([20.0, 2.0, 2.0, 2.0])
    sender = np.array([[7.0, -3.0, 2.0, 11.0]] + [[0.0] * 4] * 3)
    ex = exchange_pair(np.repeat(base[None], 4, axis=0), sender, share=1, depth=4,
                       intensity="strong")
    assert len(ex.blocks[0]) == 4
    for child in ex.blocks[0]:
        assert np.sum(child != base) <= 1


def test_sc_crossover_average_midpoints(rng):
    recipient = np.array([[10.0, 0.0]] * 3)
    sender = np.array([[4.0, -6.0], [-1.0, 0.0], [-1.0, 0.0]])
    ex = exchange_pair(recipient, sender, share=1, depth=2, gene_op="average")
    assert np.array_equal(ex.blocks[0][0], [7.0, -3.0])


def test_sc_crossover_partner_draw_replay():
    # partner indices must come from the recipient stream in shared-member
    # order: one per shared member for weak, (m, K) row-major otherwise
    recipient = np.arange(12.0).reshape(6, 2) + [1000.0, 0.0]
    sender = np.array([[300.0, 400.0], [100.0, 200.0]] + [[0.0, 0.0]] * 4)
    shared = sender[:2]  # worst first
    k = 2

    r1, r2 = twin_rngs(55)
    ex = exchange_pair(recipient, sender, share=2, depth=k, intensity="moderate", rng=r1)
    partners = r2.integers(0, 6, size=(2, k)).ravel()
    z = np.repeat(shared, k, axis=0)
    for o in range(4):
        assert ex.blocks[0][o].tolist() == adopt_genes(recipient[partners[o]], z[o], k, "swap")
    assert r1.bit_generator.state == r2.bit_generator.state

    r1, r2 = twin_rngs(66)
    ex = exchange_pair(recipient, sender, share=2, depth=k, intensity="strong", rng=r1)
    partners = r2.integers(0, 6, size=(2, k)).ravel()
    for o in range(4):
        assert ex.blocks[0][o].tolist() == adopt_genes(recipient[partners[o]], z[o], 1, "swap")
    assert r1.bit_generator.state == r2.bit_generator.state

    r1, r2 = twin_rngs(77)
    ex = exchange_pair(recipient, sender, share=2, depth=k, intensity="weak", rng=r1)
    partners = r2.integers(0, 6, size=2)
    for o in range(2):
        assert ex.blocks[0][o].tolist() == adopt_genes(recipient[partners[o]], shared[o], k,
                                                       "swap")
    assert r1.bit_generator.state == r2.bit_generator.state


def test_sc_crossover_validates_inputs(rng):
    with pytest.raises(ConfigError, match="min_value must be >= 1"):
        validate_config(_cfg(credibility=CredibilityConfig("trust", 1, 0, 50)))


# --- gated variation --------------------------------------------------------


def _variation_case(recipient_means, shared_mean, rng=None):
    """Agent 0 of ``recipient_means`` receives the single worst member of a
    sender whose worst fitness is ``shared_mean``."""
    n = len(recipient_means)
    sender = genomes_with_values([shared_mean] + [-1e3] * (n - 1))
    return exchange_pair(genomes_with_values(recipient_means), sender, share=1,
                         rng=np.random.default_rng(9) if rng is None else rng)


def test_sc_variation_rejects_unfit_share():
    recipient = genomes_with_values([10.0, 10.0])
    ex = _variation_case([10.0, 10.0], 30.0)
    assert not ex.record.accepted
    assert np.array_equal(ex.genes[0], recipient)


def test_sc_variation_accepts_fit_share():
    assert _variation_case([10.0, 10.0], 5.0).record.accepted


def test_sc_variation_negative_means_accept():
    # threshold collapses to zero for non-positive recipient means
    assert _variation_case([-100.0, -100.0], -1.0).record.accepted


def test_sc_variation_zero_mean_boundary():
    assert not _variation_case([0.0, 0.0], 1e-9).record.accepted
    assert _variation_case([0.0, 0.0], 0.0).record.accepted


def test_sc_variation_rejection_consumes_no_draws():
    rng = np.random.default_rng(123)
    before = rng.bit_generator.state
    ex = exchange_pair(genomes_with_values([10.0, 10.0]), genomes_with_values([30.0, 0.0]),
                       share=1, depth=2, intensity="moderate", rng=rng)
    assert not ex.record.accepted
    assert rng.bit_generator.state == before


def test_sc_variation_merges_with_elitism(rng):
    spec = get_objective("sphere", 3)
    recipient = init_population(4, spec, rng)
    donor = init_population(4, spec, rng)
    cred = CredibilityState.initial("trust", 2, 3, 1, 50)
    cred.trust[1, 0] = 2
    before_best = float(np.min(spec.base(recipient)))
    out, genes, fitness = receive(recipient, donor, cred, spec, rng, "moderate")
    if out.accepted:
        assert genes[0].shape == (4, 3)
        assert fitness[0].min() <= before_best


# --- credibility updates ----------------------------------------------------


def test_update_trust_branches():
    # improvement
    assert credit_after("trust", 5, 10.0, 9.0, 1.0, 20.0) == 6
    # rejected share at the floor
    assert credit_after("trust", 1, 10.0, 10.0, 25.0, 20.0) == 1
    # neither branch
    assert credit_after("trust", 5, 10.0, 10.0, 15.0, 20.0) == 5
    # ceiling
    assert credit_after("trust", 50, 10.0, 9.0, 1.0, 20.0) == 50


def test_update_reputation_branches():
    assert credit_after("reputation", (30, 30), 10.0, 9.0, 1.0, 20.0) == (29, 31)
    assert credit_after("reputation", (50, 1), 10.0, 10.0, 25.0, 20.0) == (50, 1)
    assert credit_after("reputation", (12, 34), 10.0, 10.0, 15.0, 20.0) == (12, 34)
    # improvement clamps at both ends
    assert credit_after("reputation", (1, 50), 10.0, 9.0, 1.0, 20.0) == (1, 50)


def test_update_improvement_checked_before_rejection():
    # a share can both exceed the threshold and still have produced an
    # improvement when merged genes recombine well; improvement wins
    assert _branch(10.0, 9.0, 25.0, 20.0) == 1
    assert credit_after("trust", 5, 10.0, 9.0, 25.0, 20.0) == 6
    assert credit_after("reputation", (30, 30), 10.0, 9.0, 25.0, 20.0) == (29, 31)


def test_credibility_updates_fuzzed_stay_in_bounds(rng):
    t, ri, rj = 25, 25, 25
    for _ in range(10_000):
        mb, ma, ms, th = rng.normal(scale=10, size=4)
        t = credit_after("trust", t, mb, ma, ms, th)
        ri, rj = credit_after("reputation", (ri, rj), mb, ma, ms, th)
        assert 1 <= t <= 50
        assert 1 <= ri <= 50
        assert 1 <= rj <= 50


# --- full interaction -------------------------------------------------------


def _trust_state(start=10):
    """A two-agent trust table at ``start``."""
    return CredibilityState.initial("trust", 2, start, 1, 50)


def _credit(cred, recipient, out):
    """The change a row's ``branch`` makes to ``cred``'s table, as
    ``{cell: change}``; ``cred`` itself is left alone."""
    before = cred.trust if cred.kind == "trust" else cred.reputation
    after = before.copy()
    _apply_credit(after, cred.kind, recipient, out.sender, out.branch, cred.min_value,
                  cred.max_value)
    diff = after - before
    return {tuple(c) if len(c) > 1 else c[0]: int(diff[tuple(c)])
            for c in np.argwhere(diff).tolist()}


def test_interaction_rejected_share_is_noop_with_trust_penalty():
    recipient = genomes_with_values([10.0, 10.0])
    cred = _trust_state()
    before = deepcopy(cred)
    out, genes, _ = receive(recipient, genomes_with_values([40.0, 50.0]), cred, SPEC2,
                            np.random.default_rng(3), "moderate")
    assert not out.accepted
    assert not out.improved
    assert np.array_equal(genes[0], recipient)
    assert out.branch == -1
    assert _credit(before, 0, out) == {(0, 1): -1}
    # the step applies it: agent 1's own exchange moves only its cell for agent 0
    assert cred.trust[0, 1] == 9


def test_interaction_improvement_raises_sender_standing():
    cred = _trust_state()
    out, _, _ = receive(genomes_with_values([10.0, 12.0]), genomes_with_values([1.0, 2.0]),
                        deepcopy(cred), SPEC2, np.random.default_rng(4), "weak")
    assert out.accepted
    assert out.improved
    assert out.mean_after < out.mean_before
    assert out.branch == 1
    assert _credit(cred, 0, out) == {(0, 1): 1}


def test_interaction_reputation_moves_tokens():
    cred = CredibilityState.initial("reputation", 2, 10, 1, 50)
    out, _, _ = receive(genomes_with_values([10.0, 12.0]), genomes_with_values([1.0, 2.0]),
                        deepcopy(cred), SPEC2, np.random.default_rng(4), "weak")
    assert out.improved
    assert out.branch == 1
    assert _credit(cred, 0, out) == {0: -1, 1: 1}


def test_interaction_neutral_outcome_changes_nothing():
    # the share passes the threshold but every offspring loses to the
    # residents, so the mean is unchanged and no credit is given
    cred = _trust_state()
    out, _, _ = receive(genomes_with_values([1.0, 1.0]), genomes_with_values([1.5, 1.5]),
                        deepcopy(cred), SPEC2, np.random.default_rng(5), "weak")
    assert out.accepted
    assert not out.improved
    assert out.branch == 0
    assert _credit(cred, 0, out) == {}


def test_interaction_share_size_follows_sender_trust_in_recipient():
    cred = _trust_state()
    cred.trust[1, 0] = 2   # sender 1 trusts recipient 0 this much
    cred.trust[0, 1] = 50  # recipient trusts sender fully
    out, _, _ = receive(genomes_with_values([5.0, 6.0, 7.0]),
                        genomes_with_values([1.0, 2.0, 3.0]), cred, SPEC2,
                        np.random.default_rng(6), "weak")
    # the 2 worst of the sender were considered: mean of {3, 2}
    assert out.mean_shared == 2.5


def test_interaction_matches_hand_stepped_composition():
    spec = get_objective("sphere", 2)
    r_init = np.random.default_rng(71)
    recipient = init_population(3, spec, r_init)
    sender = init_population(3, spec, r_init)
    cred = _trust_state(start=2)

    # replay: share the 2 worst, gate by threshold, depth-2 adoption, merge
    r1, r2 = twin_rngs(99)
    genes = np.stack([recipient, sender])
    ref_genes, ref_fit, ref_cred, ref, ref_accepted = replay_exchange(
        genes, spec.base(genes), [1, 0], cred, ["moderate"] * 2, ["swap"] * 2, spec,
        [r2, np.random.default_rng(1)])

    out, genes, fitness = receive(recipient, sender, cred, spec, r1, "moderate")
    assert_records_equal(out, ref.row(0), ref_accepted[0])
    assert np.array_equal(genes, ref_genes)
    assert np.array_equal(fitness, ref_fit)
    assert np.array_equal(cred.trust, ref_cred.trust)
    assert r1.bit_generator.state == r2.bit_generator.state


# --- batched exchange against the replay -------------------------------------


_OBJECTIVES = {
    "sphere": lambda d: get_objective("sphere", d),
    "rastrigin": lambda d: get_objective("rastrigin", d),
    "schwefel_noise": lambda d: get_objective("schwefel_noise", d, noise_sigma=0.5),
    "plateau": lambda d: plateau_objective(d),  # fitness ties
}


@st.composite
def _societies(draw, min_agents=2):
    n_agents = draw(st.integers(min_agents, 5))
    lo = draw(st.integers(1, 3))
    hi = draw(st.integers(lo, 7))
    return dict(
        objective=draw(st.sampled_from(sorted(_OBJECTIVES))),
        n_agents=n_agents, n=draw(st.integers(1, 5)), d=draw(st.integers(1, 5)),
        kind=draw(st.sampled_from(["trust", "reputation"])), lo=lo, hi=hi,
        intensity=draw(st.lists(st.sampled_from(["weak", "moderate", "strong"]),
                                min_size=n_agents, max_size=n_agents)),
        gene_op=draw(st.lists(st.sampled_from(["swap", "average"]),
                              min_size=n_agents, max_size=n_agents)),
        grid=draw(st.booleans()),  # genes on a coarse grid: divergence ties
        seed=draw(st.integers(0, 2**32)),
    )


def _society(s):
    """Genes, evaluated fitness, credibility and senders of a drawn society."""
    rng = np.random.default_rng(s["seed"])
    spec = _OBJECTIVES[s["objective"]](s["d"])
    genes = rng.uniform(spec.lower, spec.upper, size=(s["n_agents"], s["n"], s["d"]))
    if s["grid"]:
        genes = np.round(genes / (spec.upper - spec.lower) * 4) * (spec.upper - spec.lower) / 4
    fitness = spec.evaluate_rows(genes.reshape(-1, s["d"]), [genes.size // s["d"]], [rng])
    cred = CredibilityState.initial(s["kind"], s["n_agents"], s["lo"], s["lo"], s["hi"])
    table = cred.trust if s["kind"] == "trust" else cred.reputation
    table[...] = rng.integers(s["lo"], s["hi"] + 1, size=table.shape)
    senders = rng.integers(0, s["n_agents"] - 1, size=s["n_agents"])
    senders += senders >= np.arange(s["n_agents"])
    return spec, genes, fitness.reshape(s["n_agents"], s["n"]), cred, senders


@settings(max_examples=300, deadline=None, database=None)
@given(s=_societies())
def test_exchange_all_matches_the_replay(s):
    spec, genes, fitness, cred, senders = _society(s)
    seeds = [s["seed"] + i for i in range(s["n_agents"])]
    ref_streams = [np.random.default_rng(x) for x in seeds]
    ref_genes, ref_fit, ref_cred, ref, ref_accepted = replay_exchange(
        genes, fitness, senders, cred, s["intensity"], s["gene_op"], spec, ref_streams)

    streams = [np.random.default_rng(x) for x in seeds]
    record = exchange_all(genes, fitness, senders, cred, np.array(s["intensity"]),
                          np.array(s["gene_op"]), spec, streams)
    assert np.array_equal(genes, ref_genes)
    assert np.array_equal(fitness, ref_fit)
    table = cred.trust if cred.kind == "trust" else cred.reputation
    assert np.array_equal(table, ref_cred.trust if cred.kind == "trust" else ref_cred.reputation)
    assert_records_equal(record, ref, ref_accepted)
    for a, b in zip(streams, ref_streams):
        assert a.bit_generator.state == b.bit_generator.state
