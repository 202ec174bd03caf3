"""Credibility-gated interactions between agents.

At every epoch boundary an agent receives candidate solutions from one
other agent instead of running an EA step.  Credibility (pairwise trust or
public reputation) gates both ends of the exchange; the engine reads both
values and passes them in:

* the credibility m the sender assigns to the recipient sizes the share:
  the ``min(m, sender population size)`` worst members are sent (highest
  fitness first, ties by lower index);
* the credibility K the recipient assigns to the sender sets the adoption
  depth ``min(K, D)``: how many of the most divergent genes of a resident
  genome are overwritten by (or averaged with) received values, and how
  many offspring each shared member spawns.

A share whose mean fitness exceeds the acceptance threshold (twice the
recipient's mean when that mean is positive, zero otherwise) is rejected
outright and the recipient keeps its population.  Otherwise offspring are
resident genomes reshaped by received ones: a resident partner adopts the
shared member's values at its most divergent genes (descending
``|received - resident|``, ties by lower index), where "swap" copies the
received value and "average" takes the midpoint.  Per shared member, the
weak intensity breeds one offspring adopting K genes, moderate breeds K
offspring adopting K genes each and strong K offspring adopting one gene
each.  Offspring are merged through the same mu+lambda elitist
replacement the EA uses.  The engine then credits the outcome:
improvement raises the sender's standing, rejection lowers it, anything
else leaves it unchanged.

Draw discipline (recipient's stream): partner indices are drawn uniformly
from the recipient's members, one draw per offspring in offspring order
(shared member by shared member); a rejected share consumes no partner
draws.  Objective noise for the offspring follows, in offspring order.

:func:`exchange_all` runs every interaction of an epoch step on the
stacked society at once and returns its :class:`ExchangeRecord`; the
engine calls it with the fitness cache it evaluated, so only offspring
are evaluated here.  One recipient's interaction is its row of that
record.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .benchmarks import ObjectiveSpec
from .ea import _survivors

__all__ = ["ExchangeRecord", "exchange_all"]


class ExchangeRecord(NamedTuple):
    """What one epoch exchange did, one entry per recipient (arrays from
    :func:`exchange_all`, scalars in a :meth:`row`).

    ``m`` is the share size and ``k`` the adoption depth K.  ``branch`` is
    the outcome: +1 improved the recipient's mean, 0 accepted the share
    without improving, -1 rejected it (the population is then unchanged);
    ``accepted`` and ``improved`` are read off it.  The credibility change
    follows from ``branch``, the recipient and ``sender`` (see
    :meth:`~trustopt.types.CredibilityState.credit`).
    """

    sender: np.ndarray
    m: np.ndarray
    k: np.ndarray
    branch: np.ndarray
    mean_before: np.ndarray
    mean_after: np.ndarray
    mean_shared: np.ndarray
    threshold: np.ndarray

    @property
    def accepted(self):
        return self.branch >= 0

    @property
    def improved(self):
        return self.branch > 0

    def row(self, i: int) -> "ExchangeRecord":
        """Recipient ``i``'s entry."""
        return ExchangeRecord(*(field[i] for field in self))


def _threshold(mean):
    """Acceptance threshold of a recipient mean (scalar or array)."""
    return np.where(mean > 0.0, 2.0 * mean, 0.0)


def _branch(mean_before, mean_after, mean_shared, threshold):
    """+1 improvement, -1 rejected share, 0 otherwise (element-wise).

    Improvement is checked first; in a real interaction the two cases are
    mutually exclusive because a rejected share leaves the mean unchanged.
    """
    return np.where(mean_after < mean_before, 1, np.where(mean_shared > threshold, -1, 0))


def exchange_all(
    genes: np.ndarray,
    fitness: np.ndarray,
    senders: np.ndarray,
    m: np.ndarray,
    k: np.ndarray,
    intensity: str,
    gene_op: str,
    objective: ObjectiveSpec,
    streams: Sequence[np.random.Generator],
) -> ExchangeRecord:
    """Every interaction of one epoch step on the stacked society, in place.

    ``genes`` is the (N, n, D) stack, ``fitness`` the evaluated (N, n)
    cache; agent ``i`` receives ``m[i]`` members (at most n) from
    ``senders[i]`` at adoption depth ``k[i]`` (at most D), and every
    recipient breeds with the society's one genome ``intensity`` and
    ``gene_op``.  Shares and thresholds come from the step-start
    populations.  Each agent draws its partners, then its offspring noise,
    from its own stream (see the module's draw discipline).  Returns the
    per-recipient record of the step, from which the caller credits.
    """
    n_agents, n, d = genes.shape
    m, k = np.minimum(m, n), np.minimum(k, d)

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
    per_member = np.ones_like(k) if intensity == "weak" else k
    counts = np.where(accepted, m * per_member, 0)
    acc = np.flatnonzero(accepted)
    if len(acc):
        # one resident partner per offspring (see the module's draw discipline)
        partners = [streams[i].integers(0, n, size=c)
                    for i, c in zip(acc.tolist(), counts[acc].tolist())]
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
        depth = np.ones_like(owner) if intensity == "strong" else k[owner]
        distinct = _adopt(base, donor, depth, gene_op == "average")
        # one evaluation per recipient keeps its block in cache
        off_fit = np.concatenate([
            objective.evaluate_rows(distinct[row[lo:lo + c]][None], [streams[i]])[0]
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
    return ExchangeRecord(senders, m, k, branch, mean_before, mean_after, mean_shared, threshold)


def _adopt(base: np.ndarray, donor: np.ndarray, depth: np.ndarray,
           average: bool) -> np.ndarray:
    """Gene adoption on (C, D) blocks, row by row: each row of ``base``
    takes the donor's value ("swap") or the midpoint (``average``) at its
    ``depth`` most divergent genes; rewrites ``base`` in place and returns
    it.

    A row's ``depth`` most divergent genes are those at or above its
    ``depth``-th largest divergence, which a sort finds without a per-row
    argsort.  Where that threshold is 0 the tied genes equal the donor's,
    so adopting them changes nothing; only ties above 0 with more
    candidates than places keep the lowest indices.
    """
    c, d = base.shape
    value = 0.5 * (donor + base) if average else donor
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
