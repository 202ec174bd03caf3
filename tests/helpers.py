"""Shared test utilities.

The linear objective reads gene 0, so a population's fitness values can be
prescribed exactly (including negative ones, which no shipped benchmark
reaches at will).  Populations are plain ``(n, D)`` genes and ``(n,)``
fitness arrays, as in the package.

:func:`replay_ea_step` replays one EA step of one agent with plain Python
loops, scalar draws and one objective call per genome, following the draw
discipline documented in ``trustopt.ea``; ``ea_step_all`` is checked
against it.  :func:`dense_children` breeds offspring under the
dense scheme the sparse gate sampling replaced, as a distributional
reference.  :func:`replay_exchange` replays one epoch exchange of a whole
society the same way, following ``trustopt.socio``, with its own share
selection, threshold, divergence ranking, adoption, survivors, outcome
branch and credit table, and builds the same ``ExchangeRecord``;
``exchange_all`` followed by ``CredibilityState.credit`` is checked against
it.  :func:`exchange_pair` and :func:`receive` run one ``exchange_all``
step of a two-agent society at given share sizes and depths and return
agent 0's row of its record.  :func:`stepwise_run` is the reference
the stacked engine is checked against: it advances the society agent by
agent, on per-agent arrays, with the two replays.
:func:`lennard_jones_reference` evaluates one Lennard-Jones genome with
plain float loops in the kernel's summation order.
:func:`best_so_far_reference` and :func:`mean_curve_reference` are the numpy
formulas the plain-Python plot maths (``best_so_far_series`` and
``mean_curve`` in ``trustopt.results``) is checked against.
:data:`STATS_REFERENCE` maps the numeric steps of ``trustopt.stats``
(ranking, mean and SD, Holm adjustment and the two distribution tails) to
their numpy and ``scipy.special`` formulas; patched over the module, it
gives the reports the plain-Python statistics must reproduce byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from trustopt import (
    CredibilityState,
    ObjectiveSpec,
    agent_stream,
    effective_rates,
    get_objective,
    init_population,
)
from trustopt.socio import ExchangeRecord, _branch, exchange_all


def linear_objective(dimension: int = 2, bound: float = 1e6) -> ObjectiveSpec:
    """Objective whose value is the first gene; any fitness is reachable."""

    def first_gene(genes):
        return np.asarray(genes, dtype=float)[..., 0]

    full = np.full(dimension, float(bound))
    return ObjectiveSpec("linear", dimension, -full, full, first_gene)


def plateau_objective(dimension: int = 2, bound: float = 100.0,
                      step: float = 50.0) -> ObjectiveSpec:
    """Objective with wide flat steps, so distinct genomes often tie."""

    def steps(genes):
        return np.floor(np.abs(np.asarray(genes, dtype=float)).sum(axis=-1) / step)

    full = np.full(dimension, float(bound))
    return ObjectiveSpec("plateau", dimension, -full, full, steps)


class RecordingObjective:
    """Sphere (or, with ``linear``, first-gene) objective that keeps a copy
    of every block it evaluates, so a test can see a step's offspring
    before replacement."""

    def __init__(self, dimension: int, bound: float = 100.0, linear: bool = False):
        self.blocks = []

        def record(genes):
            self.blocks.append(np.array(genes))
            return np.array(genes)[..., 0] if linear else np.sum(genes * genes, axis=-1)

        full = np.full(dimension, float(bound))
        self.spec = ObjectiveSpec("recorded_linear" if linear else "recorded_sphere",
                                  dimension, -full, full, record)


class CountingStream:
    """A Generator stand-in that counts the uniforms drawn through it."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.uniforms = 0

    def random(self, size=None, out=None):
        values = self.rng.random(size, out=out)
        self.uniforms += np.size(values)
        return values

    def normal(self, *args, **kwargs):
        return self.rng.normal(*args, **kwargs)


def genomes_with_values(values, dimension: int = 2) -> np.ndarray:
    """(n, D) genomes whose linear-objective fitnesses equal ``values``;
    gene 1 (when D > 1) holds the member index as a marker."""
    genes = np.zeros((len(values), dimension))
    genes[:, 0] = values
    if dimension > 1:
        genes[:, 1] = np.arange(len(values))
    return genes


def twin_rngs(seed: int = 0) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators that produce identical streams."""
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _evaluate_one(genome, spec, rng) -> float:
    value = float(spec.base(genome))
    if spec.noisy:
        value += rng.normal(0.0, spec.noise_sigma)
    return value


def evaluate_missing(genes, fitness, spec, rng) -> np.ndarray:
    """``fitness`` with its NaN entries evaluated one genome at a time, in
    member order (one scalar noise draw each on a noisy objective)."""
    return np.array([_evaluate_one(g, spec, rng) if np.isnan(f) else float(f)
                     for g, f in zip(genes, fitness)])


def lennard_jones_reference(genome, a: float = 1.0, b: float = 2.0) -> float:
    """Lennard-Jones energy of one genome with Python floats: each pair's
    ``r2 = (dx*dx + dy*dy) + dz*dz`` over the pairs i<j in row-major order,
    a pair closer than 1e-12 counting 1e12, the others
    ``a*inv6*inv6 - b*inv6`` with ``inv6 = 1 / (r2*r2*r2)``, added left to
    right."""
    g = np.asarray(genome, dtype=float).tolist()
    terms = []
    for i in range(len(g) // 3):
        for j in range(i + 1, len(g) // 3):
            dx, dy, dz = (g[3 * i + k] - g[3 * j + k] for k in range(3))
            r2 = (dx * dx + dy * dy) + dz * dz
            if r2 < 1e-12 * 1e-12:
                terms.append(1e12)
            else:
                inv6 = 1.0 / (r2 * r2 * r2)
                terms.append(a * inv6 * inv6 - b * inv6)
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def _pow(base: float, exponent: float) -> float:
    # numpy's array power may differ from the scalar one in the last bit on
    # SIMD builds; the kernels raise arrays, so the replay does the same
    return float(np.power(np.array([base]), exponent)[0])


def _log1p(x: float) -> float:
    # the same array log1p the kernels call, for the same reason as _pow
    return float(np.log1p(np.array([x]))[0])


def gap_budget(m: int, p: float) -> int:
    """Geometric gaps drawn for ``m`` Bernoulli(p) gates (``trustopt.ea``
    draw discipline): 0 at p = 0, ``m`` at p = 1 (not drawn)."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return m
    mu = m * p
    return min(m, math.ceil(mu + 6.0 * math.sqrt(mu) + 4.0))


def _firing_gates(gaps, m, p, rng):
    """Positions in [0, m) where a gate stream fires, from its drawn gap
    uniforms, plus the top-up draws when the gaps end before the last gate."""
    if p >= 1.0:
        return list(range(m))
    fired, at = [], -1
    for u in gaps:
        at += math.floor(_log1p(-u) / _log1p(-p)) + 1
        if at < m:
            fired.append(at)
    if gaps and at < m - 1:
        fired += [q for q in range(at + 1, m) if rng.random() < p]
    return fired


def replay_ea_step(genes, fitness, lam, pc, pm, spec, rng, eta_c=20.0, eta_m=40.0,
                   budget=gap_budget):
    """Plain-loop replay of one EA step of one agent under draw discipline
    2 (see ``trustopt.ea``): scalar draws, one objective call per genome.

    ``fitness`` may hold NaN for members not yet evaluated.  Returns the
    new ``(genes, fitness)``; the inputs are untouched.
    """
    genes = [np.array(g, dtype=float) for g in genes]
    fitness = [_evaluate_one(g, spec, rng) if np.isnan(f) else float(f)
               for g, f in zip(genes, fitness)]
    n, d = len(genes), spec.dimension
    if lam == 0:
        return np.array(genes), np.array(fitness)
    n_pairs = (lam + 1) // 2
    m_c, m_m = n_pairs * d, lam * d
    b_c = budget(m_c, pc) if pc < 1.0 else 0
    b_m = budget(m_m, pm) if pm < 1.0 else 0
    cand = [[[min(math.floor(rng.random() * n), n - 1) for _ in range(2)] for _ in range(2)]
            for _ in range(n_pairs)]
    coins = [[rng.random() for _ in range(2)] for _ in range(n_pairs)]
    gaps_c = [rng.random() for _ in range(b_c)]
    gaps_m = [rng.random() for _ in range(b_m)]
    fired_c = _firing_gates(gaps_c, m_c, pc, rng)
    fired_m = _firing_gates(gaps_m, m_m, pm, rng)
    # (pair, gene) -> spread value, then (child, gene) -> magnitude
    spread, mag = {}, {}
    for q in fired_c:
        spread[divmod(q, d)] = rng.random()
    for q in fired_m:
        mag[divmod(q, d)] = rng.random()
    lo, hi = spec.lower, spec.upper

    children = []
    for p in range(n_pairs):
        w = []
        for s in range(2):
            a, b = cand[p][s]
            if fitness[a] < fitness[b] or (fitness[a] == fitness[b] and coins[p][s] < 0.5):
                w.append(a)
            else:
                w.append(b)
        c1 = genes[w[0]].copy()
        c2 = genes[w[1]].copy()
        for g in range(d):
            if (p, g) in spread and c1[g] != c2[g]:
                s = spread[(p, g)]
                if s <= 0.5:
                    beta = _pow(2.0 * s, 1.0 / (eta_c + 1.0))
                else:
                    beta = _pow(2.0 * (1.0 - s), -1.0 / (eta_c + 1.0))
                va, vb = c1[g], c2[g]
                c1[g] = min(hi[g], max(lo[g], 0.5 * ((1 + beta) * va + (1 - beta) * vb)))
                c2[g] = min(hi[g], max(lo[g], 0.5 * ((1 - beta) * va + (1 + beta) * vb)))
        children.extend([c1, c2])
    children = children[:lam]
    for (k, g), m in mag.items():
        if m < 0.5:
            delta = _pow(2.0 * m, 1.0 / (eta_m + 1.0)) - 1.0
        else:
            delta = 1.0 - _pow(2.0 * (1.0 - m), 1.0 / (eta_m + 1.0))
        children[k][g] = min(hi[g], max(lo[g], children[k][g] + delta * (hi[g] - lo[g])))
    # one scalar noise draw per child, in child order
    off_fit = [_evaluate_one(c, spec, rng) for c in children]

    union_genes = genes + children
    union_fit = fitness + off_fit
    keep = sorted(sorted(range(len(union_fit)), key=lambda i: (union_fit[i], i))[:n])
    return np.array([union_genes[i] for i in keep]), np.array([union_fit[i] for i in keep])


def dense_children(genes, lam, pc, pm, spec, rng, eta_c=20.0, eta_m=40.0):
    """Offspring of one agent under the dense reference scheme (draw
    discipline 1): uniform tournaments, then a full gate and value block
    per crossover pair and per child.  Only the distributions are meant to
    match ``ea_step_all``, not the draws.  Returns the ``(lam, D)`` block."""
    genes = np.asarray(genes, dtype=float)
    n, d = genes.shape
    fitness = spec.base(genes)
    lo, hi = spec.lower, spec.upper
    children = []
    for _ in range((lam + 1) // 2):
        w = []
        for _ in range(2):
            a, b = rng.integers(0, n, size=2)
            tie = fitness[a] == fitness[b] and rng.random() < 0.5
            w.append(a if fitness[a] < fitness[b] or tie else b)
        c1, c2 = genes[w[0]].copy(), genes[w[1]].copy()
        gate, s = rng.random((2, d))
        fire = (gate < pc) & (c1 != c2)
        e = 1 / (eta_c + 1)
        beta = np.where(s <= 0.5, (2 * s) ** e, (2 * (1 - s)) ** -e)
        n1 = np.clip(0.5 * ((1 + beta) * c1 + (1 - beta) * c2), lo, hi)
        n2 = np.clip(0.5 * ((1 - beta) * c1 + (1 + beta) * c2), lo, hi)
        children += [np.where(fire, n1, c1), np.where(fire, n2, c2)]
    children = np.array(children[:lam])
    gate, m = rng.random((2, lam, d))
    e = 1 / (eta_m + 1)
    delta = np.where(m < 0.5, (2 * m) ** e - 1, 1 - (2 * (1 - m)) ** e)
    return np.where(gate < pm, np.clip(children + delta * (hi - lo), lo, hi), children)


def adopt_genes(base, donor, k, gene_op):
    """``base`` adopting the ``k`` genes where it diverges most from
    ``donor`` (descending ``|donor - base|``, ties by lower index): "swap"
    copies the donor's value, "average" takes the midpoint.  Returns a new
    list."""
    ranked = sorted(range(len(base)), key=lambda g: (-abs(donor[g] - base[g]), g))
    out = [float(v) for v in base]
    for g in ranked[:k]:
        out[g] = float(donor[g]) if gene_op == "swap" else 0.5 * (donor[g] + base[g])
    return out


def _mean(values) -> float:
    # numpy's summation order, which the kernels' row means use
    return float(np.mean(np.array(values, dtype=float)))


def replay_exchange(genes, fitness, senders, cred, intensity, gene_op, spec, streams):
    """Plain-loop replay of one epoch exchange of a whole society (see
    ``trustopt.socio``): agent ``i`` receives from ``senders[i]``, every
    agent under the one ``intensity`` and ``gene_op``, reading the
    step-start populations and credibility.  Partners are scalar
    ``rng.integers(0, n)`` draws and offspring noise one scalar draw per
    offspring, from the recipient's stream.  The +-1 credits of the step
    are summed per cell and clamped once.

    ``fitness`` must be evaluated.  Returns the new ``(genes, fitness)``
    stacks, the new :class:`CredibilityState`, the step's
    :class:`ExchangeRecord` and each agent's own accept verdict; the inputs
    are untouched.
    """
    trust = cred.kind == "trust"
    n, d = len(genes[0]), len(genes[0][0])
    new_genes, new_fit, rows, verdicts, credit = [], [], [], [], {}
    for i, j in enumerate(int(s) for s in senders):
        rng = streams[i]
        own, own_fit = [np.array(g, dtype=float) for g in genes[i]], [float(f) for f in fitness[i]]
        m = min(int(cred.table[j, i] if trust else cred.table[i]), n)
        k = min(int(cred.table[i, j] if trust else cred.table[j]), d)
        mean_before = _mean(own_fit)
        threshold = 2.0 * mean_before if mean_before > 0.0 else 0.0
        shared = sorted(range(n), key=lambda q: (-fitness[j][q], q))[:m]
        mean_shared = _mean([fitness[j][q] for q in shared])
        accepted = not mean_shared > threshold
        if accepted:
            per_member = 1 if intensity == "weak" else k
            depth = 1 if intensity == "strong" else k
            children = []
            for q in shared:
                for _ in range(per_member):
                    partner = int(rng.integers(0, n))
                    children.append(np.array(adopt_genes(own[partner], genes[j][q], depth,
                                                         gene_op)))
            child_fit = [_evaluate_one(c, spec, rng) for c in children]
            union, union_fit = own + children, own_fit + child_fit
            keep = sorted(sorted(range(len(union)), key=lambda u: (union_fit[u], u))[:n])
            own, own_fit = [union[u] for u in keep], [union_fit[u] for u in keep]
        mean_after = _mean(own_fit)
        if mean_after < mean_before:
            branch = 1
        elif not accepted:
            branch = -1
        else:
            branch = 0
        # trust: the recipient's cell for the sender; reputation: a token
        # from the recipient to the sender
        changes = ([((i, j), branch)] if trust else [(i, -branch), (j, branch)]) if branch else []
        for cell, change in changes:
            credit[cell] = credit.get(cell, 0) + change
        new_genes.append(np.array(own))
        new_fit.append(np.array(own_fit))
        rows.append((j, m, k, branch, mean_before, mean_after, mean_shared, threshold))
        verdicts.append(accepted)
    table = cred.table.copy()
    for cell, total in credit.items():
        table[cell] = min(cred.max_value, max(cred.min_value, int(table[cell]) + total))
    return (np.array(new_genes), np.array(new_fit),
            CredibilityState(cred.kind, cred.min_value, cred.max_value, table),
            ExchangeRecord(*(np.array(field) for field in zip(*rows))), verdicts)


def assert_records_equal(record, ref, ref_accepted):
    """Every field of an exchange record (or row) equals the replay's, and
    its accept verdict, ``branch >= 0``, equals the replay's own."""
    for name in ExchangeRecord._fields:
        assert np.array_equal(getattr(record, name), getattr(ref, name)), name
    assert np.array_equal(record.branch >= 0, ref_accepted)


def credit_after(kind, values, mean_before, mean_after, mean_shared, threshold,
                 c_min=1, c_max=50):
    """Credibility after one interaction with the given means, through the
    kernels a run uses (``socio._branch`` and ``CredibilityState.credit``).
    ``values`` is the recipient's trust in the sender (trust) or the
    (recipient, sender) reputations; the result has the same form."""
    cred = CredibilityState(kind, c_min, c_max,
                            np.array([[values]] if kind == "trust" else list(values)))
    cred.credit(0, 0 if kind == "trust" else 1,
                _branch(mean_before, mean_after, mean_shared, threshold))
    return int(cred.table[0, 0]) if kind == "trust" else tuple(int(v) for v in cred.table)


@dataclass
class PairExchange:
    """What :func:`exchange_pair` saw: agent 0's row of the exchange
    record, the offspring blocks evaluated in recipient order (agent 0's
    first whenever its share is accepted) and the society's genes after the
    step."""

    record: ExchangeRecord
    blocks: list
    genes: np.ndarray


def exchange_pair(recipient, sender, share=50, depth=50, intensity="weak", gene_op="swap",
                  rng=None) -> PairExchange:
    """:func:`receive` on the recording linear objective: ``share`` sizes
    agent 0's share and ``depth`` sets its adoption depth; agent 1 gets
    them the other way round, as under a trust table.  Agent 0 draws from
    ``rng`` (default seed 0)."""
    rec = RecordingObjective(np.shape(recipient)[1], bound=1e6, linear=True)
    row, genes, _ = receive(recipient, sender, [share, depth], [depth, share], rec.spec,
                            np.random.default_rng(0) if rng is None else rng,
                            intensity, gene_op)
    return PairExchange(row, rec.blocks[1:], genes)  # block 0 is the step-start evaluation


def receive(recipient, sender, m, k, spec, rng, intensity="moderate", gene_op="swap"):
    """One ``exchange_all`` step of a two-agent society on ``spec``: agent
    0 receives from agent 1, and agent 1 from agent 0, both under
    ``intensity``/``gene_op``.  ``recipient`` and ``sender`` are (n, D)
    genomes, evaluated noise-free first; ``m`` and ``k`` are the two
    agents' share sizes and adoption depths (one value serves both).
    Agent 0 draws from ``rng``, agent 1 from a stream of seed 1.  Returns
    agent 0's row of the record and the society's genes and fitness after
    the step."""
    genes = np.stack([np.array(recipient, dtype=float), np.array(sender, dtype=float)])
    fitness = spec.base(genes)
    record = exchange_all(genes, fitness, np.array([1, 0]), np.broadcast_to(m, 2),
                          np.broadcast_to(k, 2), intensity, gene_op, spec,
                          [rng, np.random.default_rng(1)])
    return record.row(0), genes, fitness


@dataclass
class StepwiseRun:
    """What the agent-by-agent reference loop saw: per-step agent bests and
    means (rows are steps), the global best, the final society and
    credibility, and one ``(t, ExchangeRecord, accepted)`` entry per tbo
    epoch step, ``accepted`` being the replay's own verdicts."""

    best: np.ndarray
    mean: np.ndarray
    best_step: int
    best_genes: np.ndarray
    best_fitness: float
    genes: np.ndarray
    fitness: np.ndarray
    credibility: CredibilityState
    log: list


def _draw_other(rng, own, n):
    k = int(rng.integers(0, n - 1))
    return k + (k >= own)


def stepwise_run(cfg, algorithm: str, repetition: int = 0) -> StepwiseRun:
    """Run ``cfg`` one agent at a time, on a list of per-agent ``(n, D)``
    genes and ``(n,)`` fitness arrays; every agent follows the one template
    ``cfg.per_agent``, at the rates its index gives it.

    EA steps replay each agent with :func:`replay_ea_step`.  Epoch steps
    evaluate every population and draw every agent's partner first; then
    :func:`replay_exchange` runs the tbo exchange, or each agent receives
    its partner's step-start best in place of its worst member
    (island_model).
    """
    objective = get_objective(cfg.objective, cfg.dimension, **cfg.objective_params)
    n_agents = cfg.agent_count
    streams = [agent_stream(cfg.seed, repetition, i) for i in range(n_agents)]
    tpl = cfg.per_agent
    rates = [effective_rates(tpl.base_crossover_rate, tpl.base_mutation_rate, i,
                             cfg.diversity_factor) for i in range(n_agents)]
    genes = [init_population(tpl.population_size, objective, rng) for rng in streams]
    fitness = [np.full(tpl.population_size, np.nan) for _ in streams]
    cred = None
    if algorithm == "tbo":
        c = cfg.credibility
        cred = CredibilityState.initial(c.kind, n_agents, c.start_value, c.min_value, c.max_value)

    bests, means, log = [], [], []
    best_fit, best_genes, best_step = np.inf, None, -1
    for t in range(1, cfg.max_steps + 1):
        if objective.noisy:
            fitness = [np.full(len(f), np.nan) for f in fitness]
        if t % cfg.epoch_length:
            for i, (pc, pm) in enumerate(rates):
                genes[i], fitness[i] = replay_ea_step(genes[i], fitness[i], tpl.offspring_size,
                                                      pc, pm, objective, streams[i],
                                                      cfg.eta_c, cfg.eta_m)
        else:
            fitness = [evaluate_missing(g, f, objective, rng)
                       for g, f, rng in zip(genes, fitness, streams)]
            senders = [_draw_other(rng, i, n_agents) for i, rng in enumerate(streams)]
            if algorithm == "tbo":
                genes, fitness, cred, record, accepted = replay_exchange(
                    genes, fitness, senders, cred, tpl.genome_intensity, tpl.gene_op,
                    objective, streams)
                genes, fitness = list(genes), list(fitness)
                log.append((t, record, accepted))
            else:
                donors = [(g.copy(), f.copy()) for g, f in zip(genes, fitness)]
                for g, f, src in zip(genes, fitness, senders):
                    donor_genes, donor_fit = donors[src]
                    best, worst = int(np.argmin(donor_fit)), int(np.argmax(f))
                    g[worst], f[worst] = donor_genes[best], donor_fit[best]
        for g, f in zip(genes, fitness):
            if f.min() < best_fit:
                best_fit, best_step = float(f.min()), t
                best_genes = g[int(f.argmin())].copy()
        bests.append([f.min() for f in fitness])
        means.append([f.mean() for f in fitness])
    return StepwiseRun(np.array(bests), np.array(means), best_step, best_genes, best_fit,
                       np.array(genes), np.array(fitness), cred, log)


def best_so_far_reference(steps, best) -> tuple[np.ndarray, np.ndarray]:
    """The best-so-far curve with numpy: the minimum over each step's
    records, then the running minimum over the sorted distinct steps."""
    uniq, inverse = np.unique(np.asarray(steps, dtype=np.int64), return_inverse=True)
    per_step = np.full(len(uniq), np.inf)
    with np.errstate(invalid="ignore"):
        np.minimum.at(per_step, inverse, np.asarray(best, dtype=float))
        return uniq, np.minimum.accumulate(per_step)


def mean_curve_reference(curves) -> np.ndarray:
    """The pointwise mean over repetitions' curves with numpy."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.mean(np.stack([np.asarray(c, dtype=float) for c in curves]), axis=0)


def reference_rank(groups) -> tuple:
    """The pooled ranking with ``numpy.unique``: labels, each group's
    mid-ranks (as lists), the pooled size and the tie term sum(t^3 - t)."""
    from trustopt.stats import _as_groups

    gs = _as_groups(groups)
    pooled = np.concatenate([np.asarray(g.values, dtype=float) for g in gs])
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0.0], np.cumsum(counts)[:-1].astype(float))) + 1.0
    avg = starts + (counts - 1) / 2.0
    tie_term = float(np.sum(counts.astype(float) ** 3 - counts))
    ranks = np.split(avg[inverse], np.cumsum([len(g.values) for g in gs])[:-1])
    return tuple(g.label for g in gs), [r.tolist() for r in ranks], len(pooled), tie_term


def reference_summarize(groups) -> list[tuple[str, float, float, int]]:
    """Per-group (label, mean, sample SD, n) with ``numpy.mean`` and
    ``numpy.std(ddof=1)``."""
    from trustopt.stats import _as_groups

    out = []
    for g in _as_groups(groups):
        if len(g.values) < 2:
            raise ValueError(f"group {g.label!r} needs at least 2 values for an SD")
        values = np.asarray(g.values, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out.append((g.label, float(np.mean(values)), float(np.std(values, ddof=1)),
                        len(values)))
    return out


def reference_holm_adjust(raw_p) -> list[float]:
    """Holm step-down adjustment with a stable argsort and
    ``numpy.maximum.accumulate``."""
    raw = np.asarray(raw_p, dtype=float)
    m = len(raw)
    order = np.argsort(raw, kind="stable")
    out = np.empty(m)
    out[order] = np.minimum(1.0, np.maximum.accumulate(raw[order] * (m - np.arange(m))))
    return out.tolist()


def reference_chi2_sf(h: float, df: int) -> float:
    """``scipy.special.chdtrc`` at max(h, 0): ``scipy.stats.chi2.sf``."""
    from scipy.special import chdtrc

    return float(chdtrc(df, max(h, 0.0)))


def reference_norm_sf(z: float) -> float:
    """``scipy.special.ndtr(-z)``: ``scipy.stats.norm.sf``."""
    from scipy.special import ndtr

    return float(ndtr(-z))


STATS_REFERENCE = {"_rank": reference_rank, "summarize": reference_summarize,
                   "holm_adjust": reference_holm_adjust, "_chi2_sf": reference_chi2_sf,
                   "_norm_sf": reference_norm_sf}
