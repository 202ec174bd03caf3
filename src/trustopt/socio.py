"""Credibility-gated interactions between agents.

At every epoch boundary an agent receives candidate solutions from one
other agent instead of running an EA step.  Credibility (pairwise trust or
public reputation) gates both ends of the exchange:

* the credibility the sender assigns to the recipient sizes the share: the
  ``m = min(credibility, sender population size)`` worst members are sent;
* the credibility the recipient assigns to the sender sets the adoption
  depth ``K = min(credibility, D)``: how many of the most divergent genes
  of a resident genome are overwritten by (or averaged with) received
  values, and how many offspring each shared member spawns.

A share whose mean fitness exceeds the acceptance threshold (twice the
recipient's mean when that mean is positive, zero otherwise) is rejected
outright and the recipient keeps its population.  Otherwise offspring are
resident genomes reshaped by received ones and merged through the same
mu+lambda elitist replacement the EA uses.  Improvement raises the
sender's standing, rejection lowers it, anything else leaves it unchanged.

Draw discipline (recipient's stream): partner indices are drawn in shared-
member order, one draw per offspring under the "redraw" policy or one per
shared member under "fixed"; a rejected share consumes no partner draws.

:func:`exchange_all` runs every interaction of an epoch step on the
stacked society at once; the engine calls it.  :func:`interaction_step`
composes the public one-interaction operators on objects; it takes the
same draws from the same streams, and looping it matches
:func:`exchange_all` bit for bit, which the tests check.  Each rule is
written once and shared by both: the credibility roles
(:class:`~trustopt.types.CredibilityState`), the acceptance threshold,
gene adoption, the mu+lambda survivors (from :mod:`trustopt.ea`) and the
outcome branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .benchmarks import ObjectiveSpec
from .ea import _survivors, replace_mu_plus_lambda
from .types import (
    AgentState,
    CredibilityState,
    Population,
    ScCrossoverConfig,
    evaluate_population,
    mean_fitness,
)

__all__ = [
    "SharedPopulation",
    "TrustDelta",
    "ReputationDelta",
    "InteractionOutcome",
    "select_shared",
    "acceptance_threshold",
    "divergence_ranking",
    "phi",
    "sc_crossover",
    "sc_variation",
    "update_trust",
    "update_reputation",
    "interaction_step",
    "exchange_all",
]


@dataclass(frozen=True)
class SharedPopulation:
    """Copies of the members a sender contributes to one interaction.

    ``indices`` are the members' positions in the sender population at
    selection time; mutating the copies never touches the sender.
    """

    genes: np.ndarray
    fitness: np.ndarray
    indices: np.ndarray

    @property
    def size(self) -> int:
        return self.genes.shape[0]

    def mean_fitness(self) -> float:
        return float(np.mean(self.fitness))


@dataclass(frozen=True)
class TrustDelta:
    """Requested change of one trust cell (row truster, column trustee)."""

    truster: int
    trustee: int
    delta: int


@dataclass(frozen=True)
class ReputationDelta:
    """Requested change of one agent's reputation."""

    agent: int
    delta: int


@dataclass
class InteractionOutcome:
    """Everything one interaction produced.

    ``accepted`` is False exactly when the share failed the threshold; the
    recipient population is then unchanged.  ``improved`` implies
    ``accepted``.  ``credibility_deltas`` holds the raw requested changes;
    the engine applies them (with clamping) after all interactions of the
    step.
    """

    recipient: int
    sender: int
    accepted: bool
    improved: bool
    population: Population
    credibility_deltas: tuple[Union[TrustDelta, ReputationDelta], ...]
    mean_before: float
    mean_after: float
    mean_shared: float
    threshold: float


def select_shared(
    sender_pop: Population,
    objective: ObjectiveSpec,
    credibility_in: int,
    rng: Optional[np.random.Generator] = None,
) -> SharedPopulation:
    """Pick the ``min(credibility_in, n)`` worst members of the sender.

    "Worst" means highest fitness under minimisation: exactly the members
    whose count of strictly better peers is at least ``n - credibility``.
    Ties are broken by insertion order.  The result holds copies.
    """
    if credibility_in < 1:
        raise ValueError("credibility_in must be >= 1")
    if sender_pop.size < 1:
        raise ValueError("sender population is empty")
    fit = evaluate_population(sender_pop, objective, rng)
    m = min(int(credibility_in), sender_pop.size)
    order = np.argsort(-fit, kind="stable")[:m]
    return SharedPopulation(sender_pop.genes[order].copy(), fit[order].copy(), order.copy())


def acceptance_threshold(
    recipient_pop: Population,
    objective: ObjectiveSpec,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Twice the recipient's mean fitness when positive, else zero."""
    return float(_threshold(mean_fitness(recipient_pop, objective, rng)))


def _threshold(mean):
    """Acceptance threshold of a recipient mean (scalar or array)."""
    return np.where(mean > 0.0, 2.0 * mean, 0.0)


def divergence_ranking(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gene indices ordered by descending |x - y|, ties by ascending index."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("genomes must be 1-D and of equal length")
    return np.argsort(-np.abs(x - y), kind="stable")


def phi(y: np.ndarray, x: np.ndarray, k: int, gene_op: str) -> np.ndarray:
    """Rewrite the ``k`` most divergent genes of ``y`` using ``x``.

    "swap" copies the partner gene, "average" takes the midpoint; all other
    genes pass through.  ``k`` is clamped to the dimension.  Returns a new
    genome; the inputs are untouched.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if gene_op not in ("swap", "average"):
        raise ValueError("gene_op must be 'swap' or 'average'")
    y = np.array(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("genomes must be 1-D and of equal length")
    return _adopt(y[None], x[None], np.array([k]), np.array([gene_op == "average"]))[0]


def sc_crossover(
    recipient_pop: Population,
    shared: SharedPopulation,
    credibility_out: int,
    cfg: ScCrossoverConfig,
    rng: np.random.Generator,
    partner_policy: str = "redraw",
) -> Population:
    """Build interaction offspring: resident genomes adopting received genes.

    Each offspring starts from a resident partner genome and takes gene
    values from one shared member at the positions where the two diverge
    most.  With ``K = min(credibility_out, D)`` and ``m`` shared members:

    * weak:     one offspring per shared member, K genes adopted;
    * moderate: K offspring per shared member, K genes adopted each;
    * strong:   K offspring per shared member, one gene adopted each.

    Partners come from the recipient population uniformly at random, a
    fresh draw per offspring ("redraw") or one per shared member reused for
    all its offspring ("fixed").  Offspring fitness starts unevaluated.
    """
    if credibility_out < 1:
        raise ValueError("credibility_out must be >= 1")
    if partner_policy not in ("redraw", "fixed"):
        raise ValueError("partner_policy must be 'redraw' or 'fixed'")
    n, d = recipient_pop.genes.shape
    m = shared.size
    if m < 1:
        raise ValueError("shared population is empty")
    k = min(int(credibility_out), d)

    # Offspring are resident genomes reshaped by received ones: the drawn
    # recipient member is the base (phi's first argument), the shared member
    # supplies the gene values.  At full depth under swap an offspring is a
    # copy of the received genome, so credibility directly scales how much
    # foreign material the recipient adopts.
    weak = cfg.genome_intensity == "weak"
    partners = _draw_partners(rng, n, m, k, weak, partner_policy)
    z = np.repeat(shared.genes, 1 if weak else k, axis=0)
    depth = np.full(len(z), 1 if cfg.genome_intensity == "strong" else k)
    children = _adopt(recipient_pop.genes[partners], z, depth,
                      np.full(len(z), cfg.gene_op == "average"))
    return Population.from_genes(children)


def sc_variation(
    recipient_pop: Population,
    shared: SharedPopulation,
    credibility_out: int,
    cfg: ScCrossoverConfig,
    objective: ObjectiveSpec,
    rng: np.random.Generator,
    partner_policy: str = "redraw",
) -> tuple[Population, bool]:
    """Threshold-gated variation plus elitist merge.

    Returns ``(population, accepted)``.  A share whose mean fitness exceeds
    :func:`acceptance_threshold` is rejected: the recipient population is
    returned unchanged and no partner draws are consumed.  Otherwise the
    offspring of :func:`sc_crossover` are merged by mu+lambda replacement
    at the recipient's size.
    """
    eps = acceptance_threshold(recipient_pop, objective, rng)
    if shared.mean_fitness() > eps:
        return recipient_pop, False
    offspring = sc_crossover(recipient_pop, shared, credibility_out, cfg, rng, partner_policy)
    merged = replace_mu_plus_lambda(recipient_pop, offspring, recipient_pop.size, objective, rng)
    return merged, True


def _branch(mean_before, mean_after, mean_shared, threshold):
    """+1 improvement, -1 rejected share, 0 otherwise (element-wise).

    Improvement is checked first; in a real interaction the two cases are
    mutually exclusive because a rejected share leaves the mean unchanged.
    """
    return np.where(mean_after < mean_before, 1, np.where(mean_shared > threshold, -1, 0))


def _credit(kind: str, recipient, sender, branch) -> list:
    """The +-1 credibility rule as (table index, change) pairs: trust moves
    the recipient's cell for the sender by ``branch``; reputation moves a
    token from the recipient to the sender.  Works element-wise on index
    and branch arrays."""
    if kind == "trust":
        return [((recipient, sender), branch)]
    return [(recipient, -branch), (sender, branch)]


def _apply_credit(table: np.ndarray, kind: str, recipient, sender, branch,
                  c_min: int, c_max: int) -> None:
    """Sum the :func:`_credit` changes into ``table`` (repeated cells add
    up), then clamp the table into ``[c_min, c_max]``."""
    for index, change in _credit(kind, recipient, sender, branch):
        np.add.at(table, index, change)
    np.clip(table, c_min, c_max, out=table)


def update_trust(
    trust: int,
    mean_before: float,
    mean_after: float,
    mean_shared: float,
    threshold: float,
    c_min: int = 1,
    c_max: int = 50,
) -> int:
    """Recipient-side trust update for one interaction.

    Improvement adds one, a rejected share subtracts one, anything else
    leaves the value alone; the result is clamped into ``[c_min, c_max]``.
    """
    table = np.array([[trust]])
    _apply_credit(table, "trust", 0, 0, _branch(mean_before, mean_after, mean_shared, threshold),
                  c_min, c_max)
    return int(table[0, 0])


def update_reputation(
    recipient_rep: int,
    sender_rep: int,
    mean_before: float,
    mean_after: float,
    mean_shared: float,
    threshold: float,
    c_min: int = 1,
    c_max: int = 50,
) -> tuple[int, int]:
    """Reputation token transfer for one interaction.

    Improvement moves a token from the recipient to the sender; a rejected
    share moves one the other way; both ends are clamped into
    ``[c_min, c_max]``.  Returns ``(recipient_rep, sender_rep)``.
    """
    table = np.array([recipient_rep, sender_rep])
    _apply_credit(table, "reputation", 0, 1,
                  _branch(mean_before, mean_after, mean_shared, threshold), c_min, c_max)
    return int(table[0]), int(table[1])


def _deltas(kind: str, recipient: int, sender: int,
            branch: int) -> tuple[Union[TrustDelta, ReputationDelta], ...]:
    """Raw credibility changes one interaction requests (see :func:`_branch`)."""
    if branch == 0:
        return ()
    changes = _credit(kind, recipient, sender, branch)
    if kind == "trust":
        return tuple(TrustDelta(*index, change) for index, change in changes)
    return tuple(ReputationDelta(index, change) for index, change in changes)


def interaction_step(
    recipient: AgentState,
    sender_pop: Population,
    sender_index: int,
    cred: CredibilityState,
    objective: ObjectiveSpec,
    rng: np.random.Generator,
    partner_policy: str = "redraw",
) -> InteractionOutcome:
    """Run one full interaction for ``recipient`` (updates it in place).

    ``sender_pop`` is a snapshot of the sender's population and is only
    read; ``cred`` supplies the credibility values and is not modified.
    The returned outcome carries the raw credibility deltas for the caller
    to apply (clamped) once all interactions of the step are done.
    """
    i = recipient.index
    j = int(sender_index)
    if i == j:
        raise ValueError("an agent cannot interact with itself")

    mean_before = mean_fitness(recipient.population, objective, rng)
    eps = acceptance_threshold(recipient.population, objective, rng)  # the mean is cached
    shared = select_shared(sender_pop, objective, cred.credibility_in(j, i), rng)
    new_pop, accepted = sc_variation(
        recipient.population, shared, cred.credibility_out(j, i), recipient.crossover_config,
        objective, rng, partner_policy,
    )
    recipient.population = new_pop
    mean_after = mean_fitness(new_pop, objective, rng)
    b = int(_branch(mean_before, mean_after, shared.mean_fitness(), eps))
    return InteractionOutcome(
        recipient=i, sender=j, accepted=accepted, improved=b > 0, population=new_pop,
        credibility_deltas=_deltas(cred.kind, i, j, b), mean_before=mean_before,
        mean_after=mean_after, mean_shared=shared.mean_fitness(), threshold=eps,
    )


def exchange_all(
    genes: np.ndarray,
    fitness: np.ndarray,
    senders: np.ndarray,
    cred: CredibilityState,
    intensity: np.ndarray,
    gene_op: np.ndarray,
    objective: ObjectiveSpec,
    streams: Sequence[np.random.Generator],
    partner_policy: str = "redraw",
    outcomes: Optional[list] = None,
) -> None:
    """Every interaction of one epoch step on the stacked society, in place.

    ``genes`` is the (N, n, D) stack, ``fitness`` the evaluated (N, n)
    cache; agent ``i`` receives from ``senders[i]`` with the crossover
    config ``intensity[i]``/``gene_op[i]``.  Shares, thresholds and depths
    come from the step-start state; the raw credibility deltas are summed
    into ``cred`` and clamped once.  Each agent draws its partners, then
    its offspring noise, from its own stream, so the result equals calling
    :func:`interaction_step` per agent on a snapshot.  When ``outcomes`` is
    a list, every agent's :class:`InteractionOutcome` is appended to it.
    """
    n_agents, n, d = genes.shape
    rows = np.arange(n_agents)
    m = np.minimum(cred.credibility_in(senders, rows), n)
    k = np.minimum(cred.credibility_out(senders, rows), d)

    mean_before = fitness.mean(axis=1)
    threshold = _threshold(mean_before)
    worst_first = np.argsort(-fitness, axis=1, kind="stable")
    shared_idx = worst_first[senders]  # sender members, worst first
    shared_fit = fitness[senders[:, None], shared_idx]
    mean_shared = np.empty(n_agents)
    for size in set(m.tolist()):
        sel = m == size
        mean_shared[sel] = shared_fit[sel, :size].mean(axis=1)
    accepted = ~(mean_shared > threshold)

    # offspring per shared member: one (weak) or K (moderate, strong)
    weak = intensity == "weak"
    per_member = np.where(weak, 1, k)
    counts = np.where(accepted, m * per_member, 0)
    acc = np.flatnonzero(accepted)
    if len(acc):
        partners = [_draw_partners(streams[i], n, m[i], k[i], weak[i], partner_policy)
                    for i in acc.tolist()]
        local = np.repeat(np.arange(len(acc)), counts[acc])
        starts = np.cumsum(counts[acc]) - counts[acc]
        slot = np.arange(len(local)) - starts[local]
        member = slot // per_member[acc][local]
        # an offspring depends only on its recipient, shared member and
        # partner, so each distinct triple is built once, then copied out
        key = (local * n + member) * n + np.concatenate(partners)
        used = np.zeros(len(acc) * n * n, dtype=bool)
        used[key] = True
        triple = np.flatnonzero(used)
        row = np.cumsum(used)[key] - 1
        owner = acc[triple // (n * n)]
        base = genes[owner, triple % n]
        donor = genes[senders[owner], shared_idx[owner, triple // n % n]]
        depth = np.where(intensity[owner] == "strong", 1, k[owner])
        distinct = _adopt(base, donor, depth, gene_op[owner] == "average")
        # one evaluation per recipient keeps its block in cache
        off_fit = np.concatenate([
            objective.evaluate_rows(distinct[row[lo:lo + c]], [c], [streams[i]])
            for i, lo, c in zip(acc.tolist(), starts.tolist(), counts[acc].tolist())])

        # mu+lambda per recipient on its parents' and offspring's fitness,
        # padded with +inf, which a stable sort never keeps
        union = np.full((len(acc), n + counts.max()), np.inf)
        union[:, :n] = fitness[acc]
        union[local, n + slot] = off_fit
        keep = _survivors(union, n)
        parent = genes[acc[:, None], np.minimum(keep, n - 1)]
        child = distinct[row[starts[:, None] + np.maximum(keep - n, 0)]]
        genes[acc] = np.where((keep >= n)[..., None], child, parent)
        fitness[acc] = np.take_along_axis(union, keep, axis=1)

    mean_after = fitness.mean(axis=1)
    branch = _branch(mean_before, mean_after, mean_shared, threshold)
    _apply_credit(cred.trust if cred.kind == "trust" else cred.reputation, cred.kind,
                  rows, senders, branch, cred.min_value, cred.max_value)
    if outcomes is None:
        return
    for i, (j, b) in enumerate(zip(senders.tolist(), branch.tolist())):
        outcomes.append(InteractionOutcome(
            recipient=i, sender=j, accepted=bool(accepted[i]), improved=b > 0,
            population=Population(genes[i].copy(), fitness[i].copy()),
            credibility_deltas=_deltas(cred.kind, i, j, b), mean_before=float(mean_before[i]),
            mean_after=float(mean_after[i]), mean_shared=float(mean_shared[i]),
            threshold=float(threshold[i]),
        ))


def _draw_partners(rng: np.random.Generator, n: int, m: int, k: int, weak: bool,
                   partner_policy: str) -> np.ndarray:
    """Resident partner index of every offspring of one interaction, in
    offspring order (see the module's draw discipline)."""
    if weak:
        return rng.integers(0, n, size=m)
    if partner_policy == "redraw":
        return rng.integers(0, n, size=(m, k)).ravel()
    return np.repeat(rng.integers(0, n, size=m), k)


def _adopt(base: np.ndarray, donor: np.ndarray, depth: np.ndarray,
           average: np.ndarray) -> np.ndarray:
    """Row-wise :func:`phi` on (C, D) blocks with per-row depth and operator;
    rewrites ``base`` in place and returns it.

    A row's ``depth`` most divergent genes are those at or above its
    ``depth``-th largest divergence, which a sort finds without a per-row
    argsort.  Where that threshold is 0 the tied genes equal the donor's,
    so adopting them changes nothing; only ties above 0 with more
    candidates than places keep the stable order of
    :func:`divergence_ranking` (lowest index first).
    """
    c, d = base.shape
    value = donor if not average.any() else np.where(average[:, None], 0.5 * (donor + base), donor)
    if (depth >= d).all():
        base[...] = value
        return base
    diff = np.abs(donor - base)
    k = np.minimum(depth, d)
    v = diff.max(axis=1) if (k == 1).all() else np.sort(diff, axis=1)[np.arange(c), d - k]
    mask = diff >= v[:, None]
    over = np.flatnonzero((mask.sum(axis=1) > k) & (v > 0))
    if len(over):
        gt = diff[over] > v[over, None]
        eq = diff[over] == v[over, None]
        room = k[over] - gt.sum(axis=1)
        mask[over] = gt | (eq & (np.cumsum(eq, axis=1) <= room[:, None]))
    np.copyto(base, value, where=mask)
    return base
