"""Island-level evolutionary operators.

One EA step generates ``offspring_size`` children by repeated
{binary tournament -> simulated binary crossover -> polynomial mutation}
and replaces the population with the best ``n`` of parents and offspring
(mu+lambda elitism).

Draw discipline
---------------
:func:`ea_step_all` advances every agent of a homogeneous society at once.
Each agent consumes its own random stream in a fixed documented order, so
a run can be replayed call by call; the arithmetic runs on stacked arrays.
With ``npairs = ceil(offspring_size / 2)``, ``n`` parents and dimension
``D``, agent ``i`` draws from its stream:

1. noise for evaluating its unevaluated members, in member order, when the
   objective is noisy (see :func:`~trustopt.types.evaluate_stack`);
2. ``rng.integers(0, n, size=(npairs, 2, 2))`` -- tournament candidates,
   two per parent slot, drawn with replacement;
3. one flat ``rng.random(2*npairs + 2*npairs*D + 2*offspring_size*D)``
   block, consumed left to right as

   * ``(npairs, 2)`` tournament tie coins (candidate 0 wins a tie when its
     coin is below 0.5; coins are consumed whether or not a tie occurs),
   * ``(2, npairs, D)`` crossover gates and spread draws,
   * ``(2, offspring_size, D)`` mutation gates and magnitude draws;

4. objective noise draws for the offspring evaluation, in offspring order,
   when the objective is noisy (the same rule as step 1).

All agents take step 1, then steps 2 and 3 agent by agent, then step 4;
each agent has its own stream, so the order across agents changes no
value.  Gate blocks are always drawn in full; spread/magnitude draws are
used only where the matching gate fires.  Pair ``k`` contributes children
``2k`` and ``2k + 1``; with an odd ``offspring_size`` the last child is
dropped.
With the "pair" crossover scope only the first gate column of each pair is
consulted, but the full gate block is still drawn.

:func:`ea_step` is the one-agent case: it runs :func:`ea_step_all` on a
``(1, n, D)`` stack.  The standalone operators (:func:`tournament_select`,
:func:`sbx_crossover`, :func:`polynomial_mutation`) draw their own blocks:
two candidate indices plus two coins for a tournament, a ``(2, D)`` block
for one crossover or mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .benchmarks import ObjectiveSpec
from .types import AgentState, Population, _evaluate_rows, evaluate_population, evaluate_stack

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
# kernels: pure arithmetic on pre-drawn random blocks

def _tournament_apply(fitness: np.ndarray, cand: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """Winners of paired binary tournaments.

    ``cand[..., 0]`` and ``cand[..., 1]`` are the candidate indices,
    ``coins`` the matching tie coins; shapes agree up to the last axis.
    """
    f0 = fitness[cand[..., 0]]
    f1 = fitness[cand[..., 1]]
    first = (f0 < f1) | ((f0 == f1) & (coins < 0.5))
    return np.where(first, cand[..., 0], cand[..., 1])


def _sbx_apply(
    p1: np.ndarray,
    p2: np.ndarray,
    gate: np.ndarray,
    spread: np.ndarray,
    rate,
    eta_c: float,
    lower: np.ndarray,
    upper: np.ndarray,
    scope: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover on (B, D) blocks with given draws.

    Only firing genes are transformed; parents are inside the box by
    invariant, so pass-through genes need no clamping.  ``rate`` may be a
    scalar or broadcastable to the gate shape.
    """
    b, d = p1.shape
    if scope == "pair":
        fire = np.broadcast_to(gate[:, :1] < np.broadcast_to(rate, gate.shape)[:, :1], (b, d))
    else:
        fire = gate < rate
    # genes where the parents agree are fixed points of the exact map; skip
    # them so identical parents yield bitwise-identical children
    fire = fire & (p1 != p2)
    c1 = p1.copy()
    c2 = p2.copy()
    rows, cols = np.nonzero(fire)
    if len(rows):
        exp = 1.0 / (eta_c + 1.0)
        s = spread[rows, cols]
        beta = np.where(s <= 0.5, (2.0 * s) ** exp, (2.0 * (1.0 - s)) ** -exp)
        a = p1[rows, cols]
        bb = p2[rows, cols]
        lo = lower[cols]
        hi = upper[cols]
        c1[rows, cols] = np.clip(0.5 * ((1.0 + beta) * a + (1.0 - beta) * bb), lo, hi)
        c2[rows, cols] = np.clip(0.5 * ((1.0 - beta) * a + (1.0 + beta) * bb), lo, hi)
    return c1, c2


def _poly_apply(
    genes: np.ndarray,
    gate: np.ndarray,
    mag: np.ndarray,
    rate,
    eta_m: float,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Polynomial mutation on a (B, D) block with given draws."""
    out = genes.copy()
    rows, cols = np.nonzero(gate < rate)
    if len(rows):
        exp = 1.0 / (eta_m + 1.0)
        m = mag[rows, cols]
        delta = np.where(m < 0.5, (2.0 * m) ** exp - 1.0, 1.0 - (2.0 * (1.0 - m)) ** exp)
        lo = lower[cols]
        hi = upper[cols]
        out[rows, cols] = np.clip(genes[rows, cols] + delta * (hi - lo), lo, hi)
    return out


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
    p1 = np.asarray(parent1, dtype=float).reshape(1, -1)
    p2 = np.asarray(parent2, dtype=float).reshape(1, -1)
    u = rng.random((2, p1.shape[1]))
    c1, c2 = _sbx_apply(p1, p2, u[0:1], u[1:2], rate, eta_c, lower, upper, scope)
    return c1[0], c2[0]


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
    g = np.asarray(genome, dtype=float).reshape(1, -1)
    u = rng.random((2, g.shape[1]))
    return _poly_apply(g, u[0:1], u[1:2], rate, eta_m, lower, upper)[0]


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
    block_len = 2 * n_pairs + 2 * n_pairs * d + 2 * lam * d
    cand = np.empty((n_agents, n_pairs, 2, 2), dtype=np.int64)
    blocks = np.empty((n_agents, block_len))
    for i, rng in enumerate(streams):
        cand[i] = rng.integers(0, n, size=(n_pairs, 2, 2))
        rng.random(out=blocks[i])
    c = 2 * n_pairs
    coins = blocks[:, :c].reshape(n_agents, n_pairs, 2)
    u_c = blocks[:, c: c + 2 * n_pairs * d].reshape(n_agents, 2, n_pairs, d)
    u_m = blocks[:, c + 2 * n_pairs * d:].reshape(n_agents, 2, lam, d)

    # tournaments on the flattened (N*n) society: agent i's members start at i*n
    cand += (n * np.arange(n_agents))[:, None, None, None]
    winners = _tournament_apply(fitness.ravel(), cand, coins)  # (N, n_pairs, 2)
    flat = genes.reshape(n_agents * n, d)
    pc = np.repeat(np.asarray(crossover_rates, dtype=float), n_pairs)[:, None]
    c1, c2 = _sbx_apply(flat[winners[..., 0].ravel()], flat[winners[..., 1].ravel()],
                        u_c[:, 0].reshape(-1, d), u_c[:, 1].reshape(-1, d),
                        pc, op.eta_c, objective.lower, objective.upper, op.crossover_scope)
    # pair k's children at positions 2k and 2k+1; an odd lam drops the last
    children = np.empty((n_agents, 2 * n_pairs, d))
    children[:, 0::2] = c1.reshape(n_agents, n_pairs, d)
    children[:, 1::2] = c2.reshape(n_agents, n_pairs, d)
    pm = np.repeat(np.asarray(mutation_rates, dtype=float), lam)[:, None]
    children = _poly_apply(children[:, :lam].reshape(n_agents * lam, d),
                           u_m[:, 0].reshape(-1, d), u_m[:, 1].reshape(-1, d),
                           pm, op.eta_m, objective.lower, objective.upper)

    off_fit = _evaluate_rows(children, np.full(n_agents, lam), objective, streams)
    union_genes = np.concatenate([genes, children.reshape(n_agents, lam, d)], axis=1)
    union_fit = np.concatenate([fitness, off_fit.reshape(n_agents, lam)], axis=1)
    keep = _survivors(union_fit, n)
    genes[...] = union_genes[np.arange(n_agents)[:, None], keep]
    fitness[...] = np.take_along_axis(union_fit, keep, axis=1)
