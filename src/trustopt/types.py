"""Core state containers for the optimizer.

A genome is a plain 1-D float array.  A :class:`Population` keeps the
genomes of one agent as an ``(n, D)`` block together with a fitness cache
(``NaN`` marks a value that has not been evaluated yet).  Noisy objectives
are handled by clearing the cache at every global step, so a noisy fitness
is never carried across steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .benchmarks import ObjectiveSpec

__all__ = [
    "Population",
    "ScCrossoverConfig",
    "CredibilityState",
    "AgentState",
    "GlobalBest",
    "ConvergenceTrace",
    "init_population",
    "evaluate_population",
    "evaluate_stack",
    "mean_fitness",
    "effective_rates",
    "GENOME_INTENSITIES",
    "GENE_OPS",
    "CREDIBILITY_KINDS",
]

GENOME_INTENSITIES = ("weak", "moderate", "strong")
GENE_OPS = ("swap", "average")
CREDIBILITY_KINDS = ("trust", "reputation")


@dataclass
class Population:
    """Genomes of one agent plus their fitness cache.

    ``genes`` has shape ``(n, D)``; ``fitness`` has shape ``(n,)`` with NaN
    for entries that have not been evaluated.
    """

    genes: np.ndarray
    fitness: np.ndarray

    def __post_init__(self) -> None:
        self.genes = np.asarray(self.genes, dtype=float)
        self.fitness = np.asarray(self.fitness, dtype=float)
        if self.genes.ndim != 2:
            raise ValueError("genes must be a 2-D array (n, D)")
        if self.fitness.shape != (self.genes.shape[0],):
            raise ValueError("fitness must have shape (n,)")
        # empty populations are legal only as transient operator values;
        # agent populations always hold at least one genome

    @property
    def size(self) -> int:
        return self.genes.shape[0]

    def copy(self) -> "Population":
        return Population(self.genes.copy(), self.fitness.copy())

    def clear_fitness(self) -> None:
        """Invalidate the whole cache (used per step for noisy objectives)."""
        self.fitness.fill(np.nan)

    @classmethod
    def from_genes(cls, genes: np.ndarray) -> "Population":
        genes = np.asarray(genes, dtype=float)
        return cls(genes, np.full(genes.shape[0], np.nan))


def init_population(
    size: int,
    objective: ObjectiveSpec,
    rng: np.random.Generator,
) -> Population:
    """Sample ``size`` genomes uniformly inside the objective's search box.

    Degenerate intervals (lower == upper in some coordinate) are allowed and
    produce the single admissible value there.  Fitness starts unevaluated.
    """
    if size < 1:
        raise ValueError("population size must be >= 1")
    genes = rng.uniform(objective.lower, objective.upper, size=(size, objective.dimension))
    return Population.from_genes(genes)


def evaluate_stack(genes: np.ndarray, fitness: np.ndarray, objective: ObjectiveSpec,
                   streams: Sequence[Optional[np.random.Generator]]) -> None:
    """Fill the NaN entries of an (N, n) fitness stack in place, agent by
    agent in member order, so noisy draws are consumed exactly once per
    member per step."""
    miss = np.isnan(fitness)
    if miss.any():
        fitness[miss] = objective.evaluate_rows(genes[miss], miss.sum(axis=1), streams)


def evaluate_population(
    pop: Population,
    objective: ObjectiveSpec,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Fill missing cache entries and return the fitness vector: the
    one-agent case of :func:`evaluate_stack`."""
    evaluate_stack(pop.genes[None], pop.fitness[None], objective, [rng])
    return pop.fitness


def mean_fitness(
    pop: Population,
    objective: ObjectiveSpec,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Arithmetic mean fitness, evaluating missing cache entries first."""
    return float(np.mean(evaluate_population(pop, objective, rng)))


@dataclass(frozen=True)
class ScCrossoverConfig:
    """Interaction crossover behaviour of one agent.

    ``genome_intensity`` picks the offspring scheme (weak, moderate,
    strong); ``gene_op`` picks the per-gene operator (swap, average).
    """

    genome_intensity: str
    gene_op: str

    def __post_init__(self) -> None:
        if self.genome_intensity not in GENOME_INTENSITIES:
            raise ValueError(f"genome_intensity must be one of {GENOME_INTENSITIES}")
        if self.gene_op not in GENE_OPS:
            raise ValueError(f"gene_op must be one of {GENE_OPS}")


@dataclass
class CredibilityState:
    """Trust matrix or reputation vector shared by all agents of a run.

    In trust mode ``trust[j, i]`` is the integer trust agent ``j`` assigns
    to agent ``i``; the diagonal is unused.  In reputation mode
    ``reputation[i]`` is the public reputation of agent ``i``.  All cells
    stay within ``[min_value, max_value]``.
    """

    kind: str
    min_value: int
    max_value: int
    trust: Optional[np.ndarray] = None
    reputation: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in CREDIBILITY_KINDS:
            raise ValueError(f"kind must be one of {CREDIBILITY_KINDS}")
        if not (1 <= self.min_value <= self.max_value):
            raise ValueError("need 1 <= min_value <= max_value")
        if self.kind == "trust" and self.trust is None:
            raise ValueError("trust mode needs a trust matrix")
        if self.kind == "reputation" and self.reputation is None:
            raise ValueError("reputation mode needs a reputation vector")

    @classmethod
    def initial(cls, kind: str, n_agents: int, start: int, min_value: int, max_value: int) -> "CredibilityState":
        if not (min_value <= start <= max_value):
            raise ValueError("start value must lie in [min_value, max_value]")
        if kind == "trust":
            return cls(kind, min_value, max_value,
                       trust=np.full((n_agents, n_agents), start, dtype=np.int64))
        return cls(kind, min_value, max_value,
                   reputation=np.full(n_agents, start, dtype=np.int64))

    def credibility_in(self, sender, recipient):
        """Credibility that sizes the share: sender's trust in the
        recipient, or the recipient's reputation.  Indices may be arrays."""
        if self.kind == "trust":
            return self.trust[sender, recipient]
        return self.reputation[recipient]

    def credibility_out(self, sender, recipient):
        """Credibility that drives variation depth: recipient's trust in
        the sender, or the sender's reputation.  Indices may be arrays."""
        if self.kind == "trust":
            return self.trust[recipient, sender]
        return self.reputation[sender]


@dataclass
class AgentState:
    """One island: population, EA rates and interaction behaviour.

    Effective rates are the base rates amplified by the agent's index (see
    :func:`effective_rates`) and stay fixed for the whole run.
    """

    index: int
    population: Population
    offspring_size: int
    effective_crossover_rate: float
    effective_mutation_rate: float
    crossover_config: ScCrossoverConfig

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("agent index must be >= 0")
        if self.offspring_size < 0:
            raise ValueError("offspring_size must be >= 0")
        for r in (self.effective_crossover_rate, self.effective_mutation_rate):
            if not (0.0 <= r <= 1.0):
                raise ValueError("effective rates must lie in [0, 1]")


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
