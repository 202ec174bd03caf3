"""Shared test utilities.

The linear objective reads gene 0, so a population's fitness values can be
prescribed exactly (including negative ones, which no shipped benchmark
reaches at will).

:func:`replay_ea_step` replays one EA step of one agent with plain Python
loops, scalar draws and one objective call per genome, following the draw
discipline documented in ``trustopt.ea``; ``ea_step`` and ``ea_step_all``
are checked against it.  :func:`dense_children` breeds offspring under the
dense scheme the sparse gate sampling replaced, as a distributional
reference.  :func:`stepwise_run` is the reference the stacked
engine is checked against: it advances the society agent by agent on
``AgentState`` objects with :func:`replay_ea_step` for EA steps and the
one-interaction reference ``interaction_step`` for exchanges.
"""

from __future__ import annotations

import math
from copy import deepcopy
from dataclasses import dataclass, replace

import numpy as np

from trustopt import (
    AgentState,
    CredibilityState,
    EaOperatorConfig,
    ObjectiveSpec,
    Population,
    ScCrossoverConfig,
    TrustDelta,
    agent_stream,
    effective_rates,
    evaluate_population,
    get_objective,
    init_population,
    interaction_step,
)


def linear_objective(dimension: int = 2, bound: float = 1e6) -> ObjectiveSpec:
    """Objective whose value is the first gene; any fitness is reachable."""

    def first_gene(genes):
        return np.asarray(genes, dtype=float)[..., 0]

    full = np.full(dimension, float(bound))
    return ObjectiveSpec("linear", dimension, -full, full, False, first_gene)


def plateau_objective(dimension: int = 2, bound: float = 100.0,
                      step: float = 50.0) -> ObjectiveSpec:
    """Objective with wide flat steps, so distinct genomes often tie."""

    def steps(genes):
        return np.floor(np.abs(np.asarray(genes, dtype=float)).sum(axis=-1) / step)

    full = np.full(dimension, float(bound))
    return ObjectiveSpec("plateau", dimension, -full, full, False, steps)


class RecordingObjective:
    """Sphere objective that keeps a copy of every block it evaluates, so a
    test can see an EA step's offspring before replacement."""

    def __init__(self, dimension: int, bound: float = 100.0):
        self.blocks = []

        def record(genes):
            self.blocks.append(np.array(genes))
            return np.sum(genes * genes, axis=-1)

        full = np.full(dimension, float(bound))
        self.spec = ObjectiveSpec("recorded_sphere", dimension, -full, full, False, record)


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


def population_with_values(values, dimension: int = 2) -> Population:
    """Population whose linear-objective fitnesses equal ``values``."""
    values = np.asarray(values, dtype=float)
    genes = np.zeros((len(values), dimension))
    genes[:, 0] = values
    return Population.from_genes(genes)


def make_agent(
    pop: Population,
    index: int = 0,
    offspring_size: int = 4,
    pc: float = 0.9,
    pm: float = 0.2,
    intensity: str = "moderate",
    gene_op: str = "swap",
) -> AgentState:
    return AgentState(
        index=index,
        population=pop,
        offspring_size=offspring_size,
        effective_crossover_rate=pc,
        effective_mutation_rate=pm,
        crossover_config=ScCrossoverConfig(intensity, gene_op),
    )


def twin_rngs(seed: int = 0) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators that produce identical streams."""
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _evaluate_one(genome, spec, rng) -> float:
    value = float(spec.base(genome))
    if spec.noisy:
        value += rng.normal(0.0, spec.noise_sigma)
    return value


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


def replay_ea_step(genes, fitness, lam, pc, pm, spec, rng, op=EaOperatorConfig(),
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
    pair_scope = op.crossover_scope == "pair"
    m_c, m_m = (n_pairs if pair_scope else n_pairs * d), lam * d
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
        for g in (range(d) if pair_scope else [q % d]):
            spread[(q if pair_scope else q // d, g)] = rng.random()
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
                    beta = _pow(2.0 * s, 1.0 / (op.eta_c + 1.0))
                else:
                    beta = _pow(2.0 * (1.0 - s), -1.0 / (op.eta_c + 1.0))
                va, vb = c1[g], c2[g]
                c1[g] = min(hi[g], max(lo[g], 0.5 * ((1 + beta) * va + (1 - beta) * vb)))
                c2[g] = min(hi[g], max(lo[g], 0.5 * ((1 - beta) * va + (1 + beta) * vb)))
        children.extend([c1, c2])
    children = children[:lam]
    for (k, g), m in mag.items():
        if m < 0.5:
            delta = _pow(2.0 * m, 1.0 / (op.eta_m + 1.0)) - 1.0
        else:
            delta = 1.0 - _pow(2.0 * (1.0 - m), 1.0 / (op.eta_m + 1.0))
        children[k][g] = min(hi[g], max(lo[g], children[k][g] + delta * (hi[g] - lo[g])))
    # one scalar noise draw per child, in child order
    off_fit = [_evaluate_one(c, spec, rng) for c in children]

    union_genes = genes + children
    union_fit = fitness + off_fit
    keep = sorted(sorted(range(len(union_fit)), key=lambda i: (union_fit[i], i))[:n])
    return np.array([union_genes[i] for i in keep]), np.array([union_fit[i] for i in keep])


def dense_children(genes, lam, pc, pm, spec, rng, op=EaOperatorConfig()):
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
        fire = (gate[0] < pc) if op.crossover_scope == "pair" else (gate < pc)
        fire = np.broadcast_to(fire, (d,)) & (c1 != c2)
        e = 1 / (op.eta_c + 1)
        beta = np.where(s <= 0.5, (2 * s) ** e, (2 * (1 - s)) ** -e)
        n1 = np.clip(0.5 * ((1 + beta) * c1 + (1 - beta) * c2), lo, hi)
        n2 = np.clip(0.5 * ((1 - beta) * c1 + (1 + beta) * c2), lo, hi)
        children += [np.where(fire, n1, c1), np.where(fire, n2, c2)]
    children = np.array(children[:lam])
    gate, m = rng.random((2, lam, d))
    e = 1 / (op.eta_m + 1)
    delta = np.where(m < 0.5, (2 * m) ** e - 1, 1 - (2 * (1 - m)) ** e)
    return np.where(gate < pm, np.clip(children + delta * (hi - lo), lo, hi), children)


@dataclass
class StepwiseRun:
    """What the agent-by-agent reference loop saw: per-step agent bests and
    means (rows are steps), the global best and the final credibility."""

    best: np.ndarray
    mean: np.ndarray
    best_step: int
    best_genes: np.ndarray
    best_fitness: float
    credibility: CredibilityState
    log: list


def _draw_other(rng, own, n):
    k = int(rng.integers(0, n - 1))
    return k + (k >= own)


def stepwise_run(cfg, algorithm: str, repetition: int = 0, agent_rngs=None) -> StepwiseRun:
    """Run ``cfg`` one agent at a time on objects.

    EA steps replay each agent with :func:`replay_ea_step`.  Epoch steps
    evaluate and snapshot every population and the credibility first; each
    agent then draws its partner and runs ``interaction_step`` (tbo) or
    receives the partner's best in place of its worst member (island_model)
    against the snapshot.  The step's raw credibility deltas
    are summed per cell and clamped once at the end of the step.
    """
    objective = get_objective(cfg.objective, cfg.dimension, **cfg.objective_params)
    op = EaOperatorConfig(cfg.eta_c, cfg.eta_m, cfg.crossover_scope)
    n_agents = cfg.agent_count
    streams = (list(agent_rngs) if agent_rngs is not None
               else [agent_stream(cfg.seed, repetition, i) for i in range(n_agents)])
    agents = []
    for i in range(n_agents):
        tpl = cfg.agent_template(i)
        pc, pm = effective_rates(tpl.base_crossover_rate, tpl.base_mutation_rate,
                                 i, cfg.diversity_factor)
        agents.append(AgentState(i, init_population(tpl.population_size, objective, streams[i]),
                                 tpl.offspring_size, pc, pm,
                                 ScCrossoverConfig(tpl.genome_intensity, tpl.gene_op)))
    cred = None
    if algorithm == "tbo":
        c = cfg.credibility
        cred = CredibilityState.initial(c.kind, n_agents, c.start_value, c.min_value, c.max_value)

    bests, means, log = [], [], []
    best_fit, best_genes, best_step = np.inf, None, -1
    for t in range(cfg.first_step, cfg.first_step + cfg.max_steps):
        if objective.noisy:
            for a in agents:
                a.population.clear_fitness()
        if t % cfg.epoch_length:
            for a in agents:
                pop = a.population
                a.population = Population(*replay_ea_step(
                    pop.genes, pop.fitness, a.offspring_size, a.effective_crossover_rate,
                    a.effective_mutation_rate, objective, streams[a.index], op))
        else:
            for a in agents:
                evaluate_population(a.population, objective, streams[a.index])
            snapshot = [a.population.copy() for a in agents]
            frozen = deepcopy(cred)
            sums = {}
            for a in agents:
                rng = streams[a.index]
                src = _draw_other(rng, a.index, n_agents)
                if algorithm == "island_model":
                    donor = snapshot[src]
                    best = int(np.argmin(donor.fitness))
                    worst = int(np.argmax(a.population.fitness))
                    a.population.genes[worst] = donor.genes[best]
                    a.population.fitness[worst] = donor.fitness[best]
                    continue
                out = interaction_step(a, snapshot[src], src, frozen, objective, rng,
                                       cfg.partner_policy)
                # the live population changes later; log it as it is now
                log.append((t, replace(out, population=out.population.copy())))
                for d in out.credibility_deltas:
                    key = (d.truster, d.trustee) if isinstance(d, TrustDelta) else d.agent
                    sums[key] = sums.get(key, 0) + d.delta
            for key, total in sums.items():
                table = cred.trust if cred.kind == "trust" else cred.reputation
                table[key] = min(cred.max_value, max(cred.min_value, int(table[key]) + total))
        for a in agents:
            f = a.population.fitness
            if f.min() < best_fit:
                best_fit, best_step = float(f.min()), t
                best_genes = a.population.genes[int(f.argmin())].copy()
        bests.append([a.population.fitness.min() for a in agents])
        means.append([a.population.fitness.mean() for a in agents])
    return StepwiseRun(np.array(bests), np.array(means), best_step, best_genes, best_fit, cred, log)
