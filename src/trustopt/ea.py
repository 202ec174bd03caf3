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
pair, gene by gene; the mutation gates have ``Mm = offspring_size * D``
trials ordered child by child, gene by gene.  The members come evaluated
(the run loop's noise draws precede the step; see :mod:`trustopt.engine`).
Agent ``i`` draws from its stream:

1. one flat block of ``6 * npairs + bc + bm`` uniforms, consumed left to
   right as

   * ``(npairs, 2, 2)`` tournament candidates ``min(floor(u * n), n - 1)``,
     two per parent slot (with replacement),
   * ``(npairs, 2)`` tie coins (candidate 0 wins a tie when its coin is
     below 0.5; coins are consumed whether or not a tie occurs),
   * ``bc`` crossover gaps, then ``bm`` mutation gaps: the budgets above,
     none at p = 0 or p = 1;

2. a top-up, only when a budget ran out before its gate stream ended:
   one uniform per remaining trial, each firing below ``p`` (crossover
   first, then mutation);
3. one block of values: one spread value per firing crossover gene, in
   trial order, then one mutation magnitude per firing mutation gene, in
   trial order;
4. objective noise draws for the offspring evaluation, one per child in
   offspring order, when the objective is noisy
   (:meth:`~trustopt.benchmarks.ObjectiveSpec.evaluate_rows`).

Each agent takes these steps in this order; each agent has its own
stream, so how the agents' steps interleave changes no value.  A spread
value is consumed even where the two parents agree and the gene passes
through.  Pair ``k`` contributes children ``2k`` and ``2k + 1``; with an
odd ``offspring_size`` the last child is dropped (its crossover values
are still drawn).

A run builds one :func:`step_plan` and passes it to every
:func:`ea_step_all` call; nothing caches it, so it is freed with the run.
One agent steps as a ``(1, n, D)`` stack with a one-agent plan.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .benchmarks import ObjectiveSpec

__all__ = [
    "ea_step_all",
    "StepPlan",
    "step_plan",
]


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
    a = genes[at1]
    bb = genes[at2]
    # genes where the parents agree are fixed points of the exact map; skip
    # them, so identical parents yield bitwise-identical children
    differ = a != bb
    at1, at2, a, bb, gene, spread = (x[differ] for x in (at1, at2, a, bb, gene, spread))
    if not len(spread):
        return
    exp = 1.0 / (eta_c + 1.0)
    beta = np.where(spread <= 0.5, (2.0 * spread) ** exp, (2.0 * (1.0 - spread)) ** -exp)
    lo = lower[gene]
    hi = upper[gene]
    up, down = 1.0 + beta, 1.0 - beta
    genes[at1] = _clamp(0.5 * (up * a + down * bb), lo, hi)
    genes[at2] = _clamp(0.5 * (down * a + up * bb), lo, hi)


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


class StepPlan(NamedTuple):
    """The constants of :func:`ea_step_all` for one society shape,
    offspring size ``lam``, distribution indices ``eta_c`` (SBX) and
    ``eta_m`` (polynomial mutation) and rate vector, built once per run,
    and two scratch arrays that every step overwrites: ``block`` (each
    agent's stream fills its row view ``rows[i]``) and ``union``.  The
    other arrays are never written.

    Sparse sampler: streams ``i`` and ``N + i`` are agent ``i``'s crossover
    and mutation gates: ``gates`` trials fire with probability ``p``.
    ``rows[i]`` covers the uniforms agent ``i`` draws per step; the rest of
    ``block`` stays NaN, with a 0 in the last column.  Cell ``k`` of the
    flat run of all streams' gaps (cell 0 never fires) is gap ``gap[k]`` of
    stream ``stream[k]``: it reads ``block`` at flat index ``src[k]`` (the 0
    at p = 1), divides by ``den = log1p(-p)`` and fires while the stream's
    running gap sum is at most ``limit = gates - 1 - gap``; ``base[k]`` is
    the cell before the stream's first.  Streams whose budget is below
    ``gates`` end at the cells ``short``.

    Children layout, in ``union``: the rows of all parents, then every
    agent's ``lam`` children, then (odd ``lam``) each agent's dropped
    second child of its last pair.  ``pick`` orders the flattened (N,
    npairs, 2) tournament winners that way, ``c1[i, q]`` and ``c2[i, q]``
    are the elements of the flat ``union`` where agent ``i``'s pair ``q``
    children start.
    """

    lam: int
    eta_c: float
    eta_m: float
    gates: np.ndarray
    p: np.ndarray
    block: np.ndarray
    rows: list
    src: np.ndarray
    den: np.ndarray
    limit: np.ndarray
    base: np.ndarray
    stream: np.ndarray
    gap: np.ndarray
    short: np.ndarray
    pick: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    union: np.ndarray


def step_plan(n: int, d: int, offspring_size: int, eta_c: float, eta_m: float,
              crossover_rates: Sequence[float], mutation_rates: Sequence[float]) -> StepPlan:
    """The plan for ``len(crossover_rates)`` agents of ``n`` members in dimension ``d``."""
    lam = offspring_size
    n_agents, n_pairs = len(crossover_rates), (lam + 1) // 2
    t = 6 * n_pairs
    gates = np.repeat([n_pairs * d, lam * d], n_agents)
    p = np.concatenate([crossover_rates, mutation_rates]).astype(float)
    budget = _gate_budget(gates, p)
    drawn = np.where(p < 1.0, budget, 0)
    draws = t + drawn[:n_agents] + drawn[n_agents:]
    width = int(draws.max()) + 1
    block = np.full((n_agents, width), np.nan)
    block[:, -1] = 0.0
    start = np.concatenate([np.full(n_agents, t), t + drawn[:n_agents]])
    start += width * np.tile(np.arange(n_agents), 2)
    stream = np.repeat(np.arange(2 * n_agents), budget)
    first = budget.cumsum() - budget
    gap = np.arange(len(stream)) - first[stream]
    src = np.r_[width - 1, np.where(gap < drawn[stream], start[stream] + gap, width - 1)]
    # capped at -1e-300 so that a subnormal rate's gaps do not overflow: for
    # u > 0 they still reach past every gate
    den = np.r_[-1.0, np.minimum(np.log1p(-np.where((p > 0.0) & (p < 1.0), p, 0.5)),
                                 -1e-300)[stream]]
    limit = np.r_[-1.0, gates[stream] - 1 - gap]
    base, stream, gap = np.r_[0, first[stream]], np.r_[0, stream], np.r_[0, gap]
    short = (first + budget)[(budget > 0) & (budget < gates)]  # last cells of short budgets

    slot = np.arange(n_agents * 2 * n_pairs).reshape(n_agents, 2 * n_pairs)
    pick = np.concatenate([slot[:, :lam].ravel(), slot[:, lam:].ravel()])
    at = np.empty_like(pick)
    at[pick] = n_agents * n + np.arange(len(pick))  # the union row of every slot
    at = at.reshape(n_agents, n_pairs, 2) * d
    return StepPlan(lam, eta_c, eta_m, gates, p, block, [block[i, :k] for i, k in enumerate(draws)],
                    src, den, limit, base, stream, gap, short, pick,
                    at[..., 0], at[..., 1], np.empty((n_agents * n + len(pick), d)))


def _fires(plan: StepPlan,
           streams: Sequence[np.random.Generator]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every firing gate of a step as (stream row, gap index, position)
    arrays in (row, gap) order, from the step's drawn ``plan.block``;
    draws the top-ups, if any."""
    # the j-th gap of a stream fires at position sum(gaps[:j + 1]) + j
    # while that is below the stream's gate count
    sums = np.log1p(-plan.block.take(plan.src))
    sums /= plan.den
    np.floor(sums, out=sums)
    # capping gaps at the largest gate count fires the same and keeps the flat
    # running sum exact, so minus its value before a stream it is the stream's own
    np.minimum(sums, plan.gates.max(), out=sums)
    sums.cumsum(out=sums)
    sums -= sums[plan.base]
    cell = (sums <= plan.limit).nonzero()[0]
    row, j = plan.stream[cell], plan.gap[cell]
    pos = sums[cell].astype(np.int64) + j
    if (sums[plan.short] < plan.limit[plan.short]).any():
        row, j, pos = _top_up(sums, plan, row, j, pos, streams)
    return row, j, pos


def _top_up(sums: np.ndarray, plan: StepPlan, row: np.ndarray, j: np.ndarray, pos: np.ndarray,
            streams: Sequence[np.random.Generator]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add the fires past the gap budgets to ``(row, j, pos)``: a stream
    whose gaps ended before its last gate draws one uniform per remaining
    gate from its agent's stream, crossover before mutation.  The result
    stays in (row, j) order; ``j`` counts on past the budget."""
    parts = [(row, j, pos)]
    for k in plan.short.tolist():
        r, c = plan.stream[k], plan.gap[k]
        end = int(sums[k]) + c + 1  # one past the last firing gate
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
# steps

def ea_step_all(
    genes: np.ndarray,
    fitness: np.ndarray,
    plan: StepPlan,
    objective: ObjectiveSpec,
    streams: Sequence[np.random.Generator],
) -> None:
    """One EA step for all agents of a homogeneous society, in place.

    ``genes`` is the (N, n, D) stack of agent populations, ``fitness`` its
    evaluated (N, n) cache and ``plan`` the
    :func:`step_plan` of this shape, with the agents' effective rates.
    Draws follow the module draw discipline.

    With ``offspring_size == 0`` the populations are unchanged; with both
    of an agent's rates zero its children are copies of its members, so no
    new genome appears.  A population's minimum fitness never increases on
    deterministic objectives.
    """
    n_agents, n, d = genes.shape
    lam = plan.lam

    if lam == 0:
        return

    n_pairs = (lam + 1) // 2
    block = plan.block
    for rng, row in zip(streams, plan.rows):
        rng.random(out=row)

    # tournaments on the flattened (N*n) society: agent i's members start at i*n
    agents = np.arange(n_agents)[:, None]
    cand = np.minimum((block[:, :4 * n_pairs] * n).astype(np.int64), n - 1) + n * agents
    winners = _tournament_apply(fitness.ravel(), cand.reshape(n_agents, n_pairs, 2, 2),
                                block[:, 4 * n_pairs:6 * n_pairs].reshape(n_agents, n_pairs, 2))

    row, j, pos = _fires(plan, streams)
    k = row.searchsorted(n_agents)  # crossover fires come first

    # each agent's values: its spread values, then its mutation magnitudes
    cnt = np.bincount(row, minlength=2 * n_agents)
    ends = (cnt[:n_agents] + cnt[n_agents:]).cumsum()
    values = np.empty(ends[-1])
    lo = 0
    for rng, hi in zip(streams, ends.tolist()):
        if hi > lo:
            rng.random(out=values[lo:hi])
        lo = hi
    start = np.concatenate([ends - cnt[:n_agents] - cnt[n_agents:], ends - cnt[n_agents:]])

    # parents, then the children (see StepPlan), which start as copies of
    # their pair's parents
    n_par = n_agents * n
    union = plan.union
    union[:n_par] = genes.reshape(n_par, d)
    np.take(union[:n_par], winners.ravel()[plan.pick], axis=0, out=union[n_par:], mode="clip")
    flat = union.ravel()
    agent = row[:k]
    pair, gene = np.divmod(pos[:k], d)
    _sbx_apply(flat, plan.c1[agent, pair] + gene, plan.c2[agent, pair] + gene, gene,
               values[start[agent] + j[:k]], plan.eta_c, objective.lower, objective.upper)
    _poly_apply(flat, (n_par + lam * (row[k:] - n_agents)) * d + pos[k:], pos[k:] % d,
                values[start[row[k:]] + j[k:]], plan.eta_m, objective.lower, objective.upper)

    children = union[n_par:n_par + n_agents * lam].reshape(n_agents, lam, d)
    off_fit = objective.evaluate_rows(children, streams)
    union_fit = np.concatenate([fitness, off_fit], axis=1)
    keep = _survivors(union_fit, n)
    fitness[...] = union_fit[agents, keep]
    genes[...] = union[np.where(keep < n, keep + n * agents, keep + (n_par - n) + lam * agents)]
