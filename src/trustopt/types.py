"""Core state of a run, beside the stacked society itself.

A genome is a plain 1-D float array, and an agent's population an
``(n, D)`` block of them; the engine holds the whole society as one
``(N, n, D)`` genes stack with an ``(N, n)`` fitness cache, which the run
loop fills at step 1 and, for a noisy objective, at the top of every step,
so a noisy fitness is never carried across steps.  This module holds the
credibility state and its rule, the rate amplification and the trace
records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import ObjectiveSpec

__all__ = [
    "CredibilityState",
    "GlobalBest",
    "ConvergenceTrace",
    "init_population",
    "effective_rates",
    "GENOME_INTENSITIES",
    "GENE_OPS",
    "CREDIBILITY_KINDS",
]

GENOME_INTENSITIES = ("weak", "moderate", "strong")
GENE_OPS = ("swap", "average")
CREDIBILITY_KINDS = ("trust", "reputation")


def init_population(
    size: int,
    objective: ObjectiveSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """The ``(size, D)`` genomes of a new population, sampled uniformly
    inside the objective's search box.

    Degenerate intervals (lower == upper in some coordinate) are allowed and
    produce the single admissible value there.
    """
    if size < 1:
        raise ValueError("population size must be >= 1")
    return rng.uniform(objective.lower, objective.upper, size=(size, objective.dimension))


@dataclass
class CredibilityState:
    """Trust matrix or reputation vector shared by all agents of a run.

    In trust mode ``table`` is ``(N, N)`` and ``table[j, i]`` the integer
    trust agent ``j`` assigns to agent ``i``; the diagonal is unused.  In
    reputation mode it is ``(N,)`` and ``table[i]`` the public reputation
    of agent ``i``.  All cells stay within ``[min_value, max_value]``.
    """

    kind: str
    min_value: int
    max_value: int
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in CREDIBILITY_KINDS:
            raise ValueError(f"kind must be one of {CREDIBILITY_KINDS}")
        if not (1 <= self.min_value <= self.max_value):
            raise ValueError("need 1 <= min_value <= max_value")
        if np.ndim(self.table) != (2 if self.kind == "trust" else 1):
            raise ValueError("trust mode needs a matrix, reputation mode a vector")

    @classmethod
    def initial(cls, kind: str, n_agents: int, start: int, min_value: int, max_value: int) -> "CredibilityState":
        if not (min_value <= start <= max_value):
            raise ValueError("start value must lie in [min_value, max_value]")
        shape = (n_agents, n_agents) if kind == "trust" else n_agents
        return cls(kind, min_value, max_value, np.full(shape, start, dtype=np.int64))

    def share_and_depth(self, sender, recipient):
        """The credibility that sizes the share (the sender's trust in the
        recipient, or the recipient's reputation) and the one that sets the
        adoption depth (the recipient's trust in the sender, or the
        sender's reputation).  Indices may be arrays."""
        if self.kind == "trust":
            return self.table[sender, recipient], self.table[recipient, sender]
        return self.table[recipient], self.table[sender]

    def credit(self, recipient, sender, branch) -> None:
        """The +-1 rule for exchange outcomes ``branch``, summed into the
        table (repeated cells add up) and clamped once: trust moves the
        recipient's cell for the sender by ``branch``; reputation moves a
        token from the recipient to the sender.  Works element-wise on
        index and branch arrays."""
        if self.kind == "trust":
            np.add.at(self.table, (recipient, sender), branch)
        else:
            np.add.at(self.table, recipient, -branch)
            np.add.at(self.table, sender, branch)
        np.clip(self.table, self.min_value, self.max_value, out=self.table)


def effective_rates(
    base_crossover: float,
    base_mutation: float,
    agent_index: int,
    diversity_factor: float,
) -> tuple[float, float]:
    """Amplify base rates by agent index: ``rate * (1 + i * d_f)``.

    Index 0 keeps the base rates.  Results are clamped into [0, 1] so the
    amplification can never leave the probability range.
    """
    if agent_index < 0:
        raise ValueError("agent_index must be >= 0")
    if diversity_factor < 0:
        raise ValueError("diversity_factor must be >= 0")
    scale = 1.0 + agent_index * diversity_factor
    pc = min(1.0, max(0.0, base_crossover * scale))
    pm = min(1.0, max(0.0, base_mutation * scale))
    return pc, pm


@dataclass
class GlobalBest:
    """Best genome observed anywhere in a run, with the step it appeared."""

    step: int
    genes: np.ndarray
    fitness: float


@dataclass
class ConvergenceTrace:
    """Per-step, per-agent progress records of one run.

    ``steps``, ``agent_ids``, ``best`` and ``mean`` are parallel arrays with
    one record per (recorded step, agent): the agent's current population
    minimum and mean fitness after that step.  ``global_best`` is the
    running minimum over every best observed, so its fitness never
    increases over time.
    """

    steps: np.ndarray
    agent_ids: np.ndarray
    best: np.ndarray
    mean: np.ndarray
    global_best: GlobalBest
    repetition: int = 0
    algorithm: str = ""
    objective: str = ""
    dimension: int = 0
    seed: int = 0
    total_steps: int = 0

    def __len__(self) -> int:
        return len(self.steps)
