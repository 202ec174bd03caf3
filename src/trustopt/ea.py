"""Island-level evolutionary operators.

One EA step generates ``offspring_size`` children by repeated
{binary tournament -> simulated binary crossover -> polynomial mutation}
and replaces the population with the best ``n`` of parents and offspring
(mu+lambda elitism).

Draw discipline (version 2)
---------------------------
:func:`ea_step_all` advances every agent of a homogeneous society at once.
Each agent consumes its own random stream in a fixed documented order, so
a run can be replayed call by call; the arithmetic runs on stacked arrays.
Every draw is a uniform from ``rng.random`` except objective noise.

The crossover and mutation gates are sampled sparsely: a gate stream of
``M`` Bernoulli(p) trials is walked with geometric gaps
``floor(log1p(-u) / log1p(-p))`` (the number of silent trials before the
next firing one), so each trial still fires with probability ``p`` on its
own, and spread/magnitude values are drawn only for the trials that fire.
SBX (Deb & Agrawal 1995) and polynomial mutation (Deb & Goyal 1996) fix a
per-variable firing probability, not a sampling scheme, so the operators
are unchanged; the streams are not (version 1 drew dense gate and value
blocks).  A gate stream's gap budget is ``min(M, ceil(mu + 6 sqrt(mu) +
4))`` with ``mu = M p``; ``p = 0`` draws nothing and fires nothing,
``p = 1`` draws nothing and fires every trial.

With ``npairs = ceil(offspring_size / 2)``, ``n`` parents and dimension
``D``, the crossover gates have ``Mc = npairs * D`` trials ordered pair by
pair, gene by gene ("gene" scope) or ``Mc = npairs``, one per pair
("pair" scope); the mutation gates have ``Mm = offspring_size * D``
trials ordered child by child, gene by gene.  Agent ``i`` draws from its
stream:

1. noise for evaluating its unevaluated members, in member order, when the
   objective is noisy (see :func:`~trustopt.types.evaluate_stack`);
2. one flat block of ``6 * npairs + bc + bm`` uniforms, consumed left to
   right as

   * ``(npairs, 2, 2)`` tournament candidates ``min(floor(u * n), n - 1)``,
     two per parent slot (with replacement),
   * ``(npairs, 2)`` tie coins (candidate 0 wins a tie when its coin is
     below 0.5; coins are consumed whether or not a tie occurs),
   * ``bc`` crossover gaps, then ``bm`` mutation gaps: the budgets above,
     none at p = 0 or p = 1;

3. a top-up, only when a budget ran out before its gate stream ended:
   one uniform per remaining trial, each firing below ``p`` (crossover
   first, then mutation);
4. one block of values: ``D`` spread values for each firing pair ("pair"
   scope) or one per firing gene ("gene" scope), in trial order, then one
   mutation magnitude per firing gene, in trial order;
5. objective noise draws for the offspring evaluation, in offspring order,
   when the objective is noisy (the same rule as step 1).

Each agent takes these steps in this order; each agent has its own
stream, so how the agents' steps interleave changes no value.  A spread
value is consumed even where the two parents agree and the gene passes
through.  Pair ``k`` contributes children ``2k`` and ``2k + 1``; with an
odd ``offspring_size`` the last child is dropped (its crossover values
are still drawn).

:func:`ea_step` is the one-agent case: it runs :func:`ea_step_all` on a
``(1, n, D)`` stack.  The standalone operators (:func:`tournament_select`,
:func:`sbx_crossover`, :func:`polynomial_mutation`) keep dense blocks:
two candidate indices plus two coins for a tournament, a ``(2, D)`` gate
and value block for one crossover or mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .benchmarks import ObjectiveSpec
from .types import AgentState, Population, evaluate_population, evaluate_stack

__all__ = [
    "EaOperatorConfig",
    "tournament_select",
    "sbx_crossover",
    "polynomial_mutation",
    "replace_mu_plus_lambda",
    "ea_step",
    "ea_step_all",
]


@dataclass(frozen=True)
class EaOperatorConfig:
    """Variation-operator constants shared by every agent of a run.

    The tournament size is fixed at two.  ``crossover_scope`` selects
    whether the crossover rate gates each gene ("gene") or each parent pair
    as a whole ("pair").
    """

    eta_c: float = 20.0
    eta_m: float = 40.0
    crossover_scope: str = "gene"

    def __post_init__(self) -> None:
        if self.eta_c <= 0 or self.eta_m <= 0:
            raise ValueError("distribution indices must be positive")
        if self.crossover_scope not in ("gene", "pair"):
            raise ValueError("crossover_scope must be 'gene' or 'pair'")


# ---------------------------------------------------------------------------
# kernels: arithmetic on drawn values, and the sparse gate sampler

def _tournament_apply(fitness: np.ndarray, cand: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """Winners of paired binary tournaments.

    ``cand[..., 0]`` and ``cand[..., 1]`` are the candidate indices,
    ``coins`` the matching tie coins; shapes agree up to the last axis.
    """
    f = fitness[cand]
    f0, f1 = f[..., 0], f[..., 1]
    first = (f0 < f1) | ((f0 == f1) & (coins < 0.5))
    return np.where(first, cand[..., 0], cand[..., 1])


def _sbx_apply(
    genes: np.ndarray,
    at1: np.ndarray,
    at2: np.ndarray,
    gene: np.ndarray,
    spread: np.ndarray,
    eta_c: float,
    lower: np.ndarray,
    upper: np.ndarray,
) -> None:
    """Simulated binary crossover, in place, on the flat array ``genes``:
    ``at1`` and ``at2`` locate the two parents' firing genes, ``gene`` is
    their index in the genome and ``spread`` holds one value each.

    Parents are inside the box by invariant, so pass-through genes need no
    clamping.
    """
    if not len(spread):
        return
    a = genes[at1]
    bb = genes[at2]
    exp = 1.0 / (eta_c + 1.0)
    beta = np.where(spread <= 0.5, (2.0 * spread) ** exp, (2.0 * (1.0 - spread)) ** -exp)
    lo = lower[gene]
    hi = upper[gene]
    up, down = 1.0 + beta, 1.0 - beta
    # genes where the parents agree are fixed points of the exact map; keep
    # them so identical parents yield bitwise-identical children
    differ = a != bb
    genes[at1] = np.where(differ, _clamp(0.5 * (up * a + down * bb), lo, hi), a)
    genes[at2] = np.where(differ, _clamp(0.5 * (down * a + up * bb), lo, hi), bb)


def _poly_apply(
    genes: np.ndarray,
    at: np.ndarray,
    gene: np.ndarray,
    mag: np.ndarray,
    eta_m: float,
    lower: np.ndarray,
    upper: np.ndarray,
) -> None:
    """Polynomial mutation, in place, on the flat array ``genes``: ``at``
    locates the firing genes, ``gene`` is their index in the genome and
    ``mag`` holds one magnitude value each."""
    if len(mag):
        exp = 1.0 / (eta_m + 1.0)
        delta = np.where(mag < 0.5, (2.0 * mag) ** exp - 1.0, 1.0 - (2.0 * (1.0 - mag)) ** exp)
        lo = lower[gene]
        hi = upper[gene]
        genes[at] = _clamp(genes[at] + delta * (hi - lo), lo, hi)


def _clamp(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``np.clip`` for finite values without its wrapper overhead."""
    return np.minimum(np.maximum(x, lo), hi)


def _gate_budget(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gaps per stream of ``m`` Bernoulli(p) gates: none at p = 0, ``m``
    (all 0, not drawn) at p = 1, otherwise the mean fire count plus six
    standard deviations plus four, at most ``m``."""
    mu = m * np.clip(p, 0.0, 1.0)
    budget = np.minimum(m, np.ceil(mu + 6.0 * np.sqrt(mu) + 4.0))
    return np.where(p <= 0.0, 0, np.where(p >= 1.0, m, budget)).astype(np.int64)


class _StepPlan(NamedTuple):
    """The per-step constants of one society shape and rate vector; the
    rates are fixed for a run, so a plan is built once.

    Sparse sampler: rows ``i`` and ``N + i`` of the stream arrays belong to
    agent ``i``'s crossover and mutation gates: ``gates`` trials fire with
    probability ``p``.  Agent ``i`` draws ``draws[i]`` uniforms into row
    ``i`` of a copy of ``block`` (NaN, with a 0 in the last column), which
    ``gather`` turns into one row of gap uniforms per stream: NaN past the
    budget, 0 at p = 1.  ``den`` holds ``log1p(-p)`` per stream.  The
    ``j``-th gap fires while the running gap sum is at most ``limit =
    gates - 1 - j``; the streams whose budget is below ``gates`` end at
    ``short`` (row, column).

    Children layout, in the flat block of all parents, then every agent's
    ``lam`` children, then (odd ``lam``) each agent's dropped second child
    of its last pair: ``pick`` orders the flattened (N, npairs, 2)
    tournament winners that way, ``c1[i, q]`` and ``c2[i, q]`` are the
    elements where agent ``i``'s pair ``q`` children start, ``first[i]``
    where its first child starts.
    """

    gates: np.ndarray
    p: np.ndarray
    block: np.ndarray
    draws: list
    gather: np.ndarray
    den: np.ndarray
    limit: np.ndarray
    short: tuple
    short_limit: np.ndarray
    pick: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    first: np.ndarray


@lru_cache(maxsize=4)  # a run uses one plan for all its steps
def _step_plan(n: int, d: int, lam: int, pair_scope: bool, pc: tuple, pm: tuple) -> _StepPlan:
    n_agents, n_pairs = len(pc), (lam + 1) // 2
    t = 6 * n_pairs
    gates = np.repeat([n_pairs if pair_scope else n_pairs * d, lam * d], n_agents)
    p = np.array(pc + pm, dtype=float)
    budget = _gate_budget(gates, p)
    drawn = np.where(p < 1.0, budget, 0)
    draws = t + drawn[:n_agents] + drawn[n_agents:]
    width = int(draws.max()) + 2
    block = np.full((n_agents, width), np.nan)
    block[:, -1] = 0.0
    start = np.concatenate([np.full(n_agents, t), t + drawn[:n_agents]])
    j = np.arange(budget.max())
    gather = np.where(j < drawn[:, None], start[:, None] + j,
                      np.where(j < budget[:, None], width - 1, width - 2))
    gather += width * np.tile(np.arange(n_agents), 2)[:, None]
    den = np.log1p(-np.where((p > 0.0) & (p < 1.0), p, 0.5))[:, None]
    limit = (gates[:, None] - 1 - j).astype(float)
    short = np.flatnonzero((budget > 0) & (budget < gates))
    last = budget[short] - 1

    slot = np.arange(n_agents * 2 * n_pairs).reshape(n_agents, 2 * n_pairs)
    pick = np.concatenate([slot[:, :lam].ravel(), slot[:, lam:].ravel()])
    at = np.empty_like(pick)
    at[pick] = n_agents * n + np.arange(len(pick))  # the union row of every slot
    at = at.reshape(n_agents, n_pairs, 2) * d
    plan = _StepPlan(gates, p, block, draws.tolist(), gather, den, limit, (short, last),
                     limit[short, last], pick, at[..., 0].copy(), at[..., 1].copy(),
                     at[:, 0, 0].copy())
    for field in (*plan, short, last):
        if isinstance(field, np.ndarray):
            field.setflags(write=False)  # every step shares the cached plan
    return plan


def _fires(block: np.ndarray, plan: _StepPlan,
           streams: Sequence[np.random.Generator]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every firing gate of a step as (stream row, gap index, position)
    arrays in (row, gap) order, from the step's drawn ``block``; draws the
    top-ups, if any."""
    # the j-th gap of a stream fires at position sum(gaps[:j + 1]) + j
    # while that is below the stream's gate count
    sums = np.log1p(-block.take(plan.gather))
    sums /= plan.den
    np.floor(sums, out=sums)
    sums.cumsum(axis=1, out=sums)
    row, j = (sums <= plan.limit).nonzero()
    pos = sums[row, j].astype(np.int64) + j
    short, last = plan.short
    if len(short) and (sums[short, last] < plan.short_limit).any():
        row, j, pos = _top_up(sums, plan, row, j, pos, streams)
    return row, j, pos


def _top_up(sums: np.ndarray, plan: _StepPlan, row: np.ndarray, j: np.ndarray, pos: np.ndarray,
            streams: Sequence[np.random.Generator]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add the fires past the gap budgets to ``(row, j, pos)``: a stream
    whose gaps ended before its last gate draws one uniform per remaining
    gate from its agent's stream, crossover before mutation.  The result
    stays in (row, j) order; ``j`` counts on past the budget."""
    parts = [(row, j, pos)]
    for r, c in zip(*(x.tolist() for x in plan.short)):
        end = int(sums[r, c]) + c + 1  # one past the last firing gate
        if end < plan.gates[r]:
            u = streams[r % len(streams)].random(plan.gates[r] - end)
            new = end + np.flatnonzero(u < plan.p[r])
            parts.append((np.full(len(new), r), c + 1 + np.arange(len(new)), new))
    row, j, pos = (np.concatenate(x) for x in zip(*parts))
    order = np.lexsort((j, row))
    return row[order], j[order], pos[order]


def _survivors(union_fit: np.ndarray, n: int) -> np.ndarray:
    """Indices of the ``n`` lowest values along the last axis, back in
    insertion order; ties keep the earlier entry (parents come first)."""
    return np.sort(np.argsort(union_fit, axis=-1, kind="stable")[..., :n], axis=-1)


# ---------------------------------------------------------------------------
# public operators

def tournament_select(fitness: np.ndarray, rng: np.random.Generator) -> int:
    """Binary tournament: two uniform draws with replacement, lower fitness
    wins, ties split uniformly at random.  Returns the winning index."""
    fitness = np.asarray(fitness, dtype=float)
    if len(fitness) < 1:
        raise ValueError("tournament needs a non-empty population")
    cand = rng.integers(0, len(fitness), size=(1, 2, 2))
    coins = rng.random((1, 2))
    return int(_tournament_apply(fitness, cand, coins)[0, 0])


def sbx_crossover(
    parent1: np.ndarray,
    parent2: np.ndarray,
    rate: float,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    eta_c: float = 20.0,
    scope: str = "gene",
) -> tuple[np.ndarray, np.ndarray]:
    """Cross two genomes; each gene recombines with probability ``rate``.

    Where the gate does not fire genes pass through unchanged, so
    ``rate=0`` returns the parents verbatim.  Before clamping, the child
    pair mean equals the parent pair mean gene by gene; identical parents
    always produce identical children.
    """
    children = np.array([parent1, parent2], dtype=float)
    d = children.shape[1]
    u = rng.random((2, d))
    fire = u[0] < rate
    if scope == "pair":
        fire[:] = fire[0]
    gene = np.flatnonzero(fire)
    _sbx_apply(children.ravel(), gene, gene + d, gene, u[1, gene], eta_c, lower, upper)
    return children[0], children[1]


def polynomial_mutation(
    genome: np.ndarray,
    rate: float,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    eta_m: float = 40.0,
) -> np.ndarray:
    """Mutate each gene with probability ``rate``.

    A firing gene moves by a polynomially distributed step scaled by the
    variable range (index ``eta_m``; larger index, tighter spread) and is
    clamped back into the box.
    """
    g = np.array(genome, dtype=float)
    u = rng.random((2, len(g)))
    gene = np.flatnonzero(u[0] < rate)
    _poly_apply(g, gene, gene, u[1, gene], eta_m, lower, upper)
    return g


def replace_mu_plus_lambda(
    parents: Population,
    offspring: Population,
    n: int,
    objective: ObjectiveSpec,
    rng: Optional[np.random.Generator] = None,
) -> Population:
    """Keep the ``n`` lowest-fitness genomes of parents plus offspring.

    Ties prefer parents, then earlier insertion; survivors are returned in
    insertion order (parents before offspring), so with no offspring the
    parent population comes back unchanged.  Fitness caches of survivors
    are kept.
    """
    if n < 1:
        raise ValueError("replacement size must be >= 1")
    pf = evaluate_population(parents, objective, rng)
    of = evaluate_population(offspring, objective, rng)
    union_fit = np.concatenate([pf, of])
    if n > len(union_fit):
        raise ValueError("replacement size exceeds available genomes")
    keep = _survivors(union_fit, n)
    union_genes = np.concatenate([parents.genes, offspring.genes])
    return Population(union_genes[keep], union_fit[keep])


def ea_step(
    agent: AgentState,
    objective: ObjectiveSpec,
    rng: np.random.Generator,
    op: EaOperatorConfig = EaOperatorConfig(),
) -> Population:
    """Advance one agent by one evolutionary step (in place): the
    one-agent case of :func:`ea_step_all`.

    With ``offspring_size == 0`` or both effective rates zero the
    population is unchanged as a multiset.  The population minimum fitness
    never increases for deterministic objectives.
    """
    genes = agent.population.genes[None].copy()
    fitness = agent.population.fitness[None].copy()
    ea_step_all(genes, fitness, agent.offspring_size, [agent.effective_crossover_rate],
                [agent.effective_mutation_rate], objective, [rng], op)
    agent.population = Population(genes[0], fitness[0])
    return agent.population


def ea_step_all(
    genes: np.ndarray,
    fitness: np.ndarray,
    offspring_size: int,
    crossover_rates: Sequence[float],
    mutation_rates: Sequence[float],
    objective: ObjectiveSpec,
    streams: Sequence[np.random.Generator],
    op: EaOperatorConfig = EaOperatorConfig(),
) -> None:
    """One EA step for all agents of a homogeneous society, in place.

    ``genes`` is the (N, n, D) stack of agent populations, ``fitness`` the
    matching (N, n) cache (NaN = not evaluated), ``crossover_rates`` and
    ``mutation_rates`` the agents' effective rates.  Draws follow the
    module draw discipline.
    """
    n_agents, n, d = genes.shape
    lam = offspring_size

    evaluate_stack(genes, fitness, objective, streams)
    if lam == 0:
        return

    n_pairs = (lam + 1) // 2
    pair_scope = op.crossover_scope == "pair"
    plan = _step_plan(n, d, lam, pair_scope,
                      tuple(np.asarray(crossover_rates, dtype=float).tolist()),
                      tuple(np.asarray(mutation_rates, dtype=float).tolist()))
    block = plan.block.copy()
    for i, (rng, k) in enumerate(zip(streams, plan.draws)):
        rng.random(out=block[i, :k])

    # tournaments on the flattened (N*n) society: agent i's members start at i*n
    agents = np.arange(n_agents)[:, None]
    cand = np.minimum((block[:, :4 * n_pairs] * n).astype(np.int64), n - 1) + n * agents
    winners = _tournament_apply(fitness.ravel(), cand.reshape(n_agents, n_pairs, 2, 2),
                                block[:, 4 * n_pairs:6 * n_pairs].reshape(n_agents, n_pairs, 2))

    row, j, pos = _fires(block, plan, streams)
    k = row.searchsorted(n_agents)  # crossover fires come first

    # each agent's values: its spread values, then its mutation magnitudes
    cnt = np.bincount(row, minlength=2 * n_agents)
    if pair_scope:
        cnt[:n_agents] *= d
    ends = (cnt[:n_agents] + cnt[n_agents:]).cumsum()
    values = np.empty(ends[-1])
    lo = 0
    for rng, hi in zip(streams, ends.tolist()):
        if hi > lo:
            rng.random(out=values[lo:hi])
        lo = hi
    start = np.concatenate([ends - cnt[:n_agents] - cnt[n_agents:], ends - cnt[n_agents:]])

    # parents, then the children (see _StepPlan), which start as copies of
    # their pair's parents
    n_par = n_agents * n
    union = np.empty((n_par + n_agents * 2 * n_pairs, d))
    union[:n_par] = genes.reshape(n_par, d)
    np.take(union[:n_par], winners.ravel()[plan.pick], axis=0, out=union[n_par:], mode="clip")
    flat = union.ravel()
    agent = row[:k]
    if pair_scope:
        pair, gene, agent = pos[:k, None], np.arange(d), agent[:, None]
        spread = values[(start[row[:k]] + d * j[:k])[:, None] + gene]
    else:
        pair, gene = np.divmod(pos[:k], d)
        spread = values[start[agent] + j[:k]]
    _sbx_apply(flat, plan.c1[agent, pair] + gene, plan.c2[agent, pair] + gene, gene, spread,
               op.eta_c, objective.lower, objective.upper)
    _poly_apply(flat, plan.first[row[k:] - n_agents] + pos[k:], pos[k:] % d,
                values[start[row[k:]] + j[k:]], op.eta_m, objective.lower, objective.upper)

    children = union[n_par:n_par + n_agents * lam]
    off_fit = objective.evaluate_rows(children, [lam] * n_agents, streams)
    union_fit = np.concatenate([fitness, off_fit.reshape(n_agents, lam)], axis=1)
    keep = _survivors(union_fit, n)
    fitness[...] = union_fit[agents, keep]
    genes[...] = union[np.where(keep < n, keep + n * agents, keep + (n_par - n) + lam * agents)]
