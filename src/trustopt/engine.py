"""Run loops: the credibility-gated society and the island-model baseline.

Both algorithms share one global step counter ``t`` and one epoch clock.
At ``t mod epoch_length != 0`` every agent runs an independent EA step; at
epoch boundaries the EA step is replaced by an exchange: a credibility-
gated interaction (tbo) or a best-genome migration (island_model).

The society is held as stacked arrays for the whole run: ``(N, n, D)``
genes, an ``(N, n)`` fitness cache and per-agent vectors for the EA rates,
genome intensity and gene operator.  Agents must therefore share their
population and offspring sizes (``validate_config`` rejects templates that
differ in either).  Each step is one batched pass over all agents:
:func:`~trustopt.ea.ea_step_all` off-epoch, :func:`advance_step` on epoch.

On an epoch step each agent draws from its own stream, in this order:
noise for re-evaluating its population (noisy objectives only), its
exchange partner (uniform over the other agents), then, for tbo and only
if its share is accepted, its offspring's resident partners and their
objective noise.  Shares, thresholds and adoption depths are read from the
populations and credibility as they stood at step start, so one agent's
update never leaks into another agent's same-step decision and relabeling
agents (with their streams) relabels the run.  Credibility deltas are
summed and clamped into ``[min_value, max_value]`` once per step, so their
order does not matter.  The tbo exchange, :func:`~trustopt.socio.exchange_all`,
equals running :func:`~trustopt.socio.interaction_step` agent by agent.

For noisy objectives every fitness value is cleared at the start of each
step: values are evaluated at most once within a step and never reused
across steps.  The trace's global best is the running minimum of observed
fitness, so it never increases even under noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .benchmarks import ObjectiveSpec, get_objective
from .config import TboConfig, validate_config
from .ea import EaOperatorConfig, ea_step, ea_step_all  # noqa: F401
from .rng import agent_stream
from .socio import exchange_all, interaction_step  # noqa: F401
from .types import (ConvergenceTrace, CredibilityState, GlobalBest, effective_rates,
                    evaluate_stack, init_population)

# ea_step and interaction_step are unused here: perfbench/tracer.py patches them by name.

__all__ = ["tbo_run", "island_model_run", "run_repetitions"]


@dataclass
class RunState:
    """The stacked society of one run between global steps."""

    cfg: TboConfig
    algorithm: str
    objective: ObjectiveSpec
    op: EaOperatorConfig
    streams: list[np.random.Generator]
    genes: np.ndarray  # (N, n, D)
    fitness: np.ndarray  # (N, n), NaN = not evaluated
    crossover_rates: np.ndarray  # (N,)
    mutation_rates: np.ndarray  # (N,)
    intensity: np.ndarray  # (N,) genome intensity names
    gene_op: np.ndarray  # (N,) gene operator names
    credibility: Optional[CredibilityState]
    t: int
    repetition: int
    interaction_log: Optional[list] = None


def _build_state(
    cfg: TboConfig,
    algorithm: str,
    repetition: int,
    agent_rngs: Optional[Sequence[np.random.Generator]],
    interaction_log: Optional[list],
) -> RunState:
    validate_config(replace(cfg, algorithm=algorithm))
    objective = get_objective(cfg.objective, cfg.dimension, **cfg.objective_params)
    op = EaOperatorConfig(cfg.eta_c, cfg.eta_m, cfg.crossover_scope)

    if agent_rngs is None:
        streams = [agent_stream(cfg.seed, repetition, i) for i in range(cfg.agent_count)]
    else:
        if len(agent_rngs) != cfg.agent_count:
            raise ValueError("need one injected stream per agent")
        streams = list(agent_rngs)

    templates = [cfg.agent_template(i) for i in range(cfg.agent_count)]
    rates = np.array([effective_rates(t.base_crossover_rate, t.base_mutation_rate,
                                      i, cfg.diversity_factor) for i, t in enumerate(templates)])
    genes = np.stack([init_population(t.population_size, objective, rng).genes
                      for t, rng in zip(templates, streams)])

    credibility = None
    if algorithm == "tbo":
        c = cfg.credibility
        credibility = CredibilityState.initial(c.kind, cfg.agent_count, c.start_value,
                                               c.min_value, c.max_value)
    return RunState(
        cfg, algorithm, objective, op, streams, genes, np.full(genes.shape[:2], np.nan),
        rates[:, 0].copy(), rates[:, 1].copy(),
        np.array([t.genome_intensity for t in templates]),
        np.array([t.gene_op for t in templates]),
        credibility, cfg.first_step, repetition, interaction_log,
    )


def advance_step(state: RunState) -> None:
    """Run one epoch step for every agent, then advance ``t``.  In a
    migration the source's first best genome replaces the recipient's first
    worst member, both read from the step-start populations."""
    genes, fitness, streams = state.genes, state.fitness, state.streams
    if state.objective.noisy:
        fitness.fill(np.nan)
    evaluate_stack(genes, fitness, state.objective, streams)
    # one integer draw per agent, uniform over the other agents
    draws = [int(rng.integers(0, len(streams) - 1)) for rng in streams]
    others = np.array([k + (k >= i) for i, k in enumerate(draws)])
    if state.algorithm == "island_model":
        best = fitness.argmin(axis=1)[others]
        worst = fitness.argmax(axis=1)
        rows = np.arange(len(streams))
        genes[rows, worst] = genes[others, best]
        fitness[rows, worst] = fitness[others, best]
    else:
        outcomes = None if state.interaction_log is None else []
        exchange_all(genes, fitness, others, state.credibility, state.intensity, state.gene_op,
                     state.objective, streams, state.cfg.partner_policy, outcomes)
        if outcomes is not None:
            state.interaction_log.extend((state.t, out) for out in outcomes)
    state.t += 1


def _run(state: RunState, record_every: int) -> ConvergenceTrace:
    """Advance a freshly built state through ``max_steps`` global steps."""
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    cfg = state.cfg
    genes, fit = state.genes, state.fitness
    first, last = cfg.first_step, cfg.first_step + cfg.max_steps - 1
    lam = cfg.per_agent[0].offspring_size
    recorded, bests, means = [], [], []
    best_fit, best_genes, best_step = np.inf, None, -1

    for t in range(first, last + 1):
        if state.t % cfg.epoch_length == 0:
            advance_step(state)
        else:
            if state.objective.noisy:
                fit.fill(np.nan)
            ea_step_all(genes, fit, lam, state.crossover_rates, state.mutation_rates,
                        state.objective, state.streams, state.op)
            state.t += 1
        i, j = divmod(int(fit.argmin()), fit.shape[1])  # first agent, first member
        if fit[i, j] < best_fit:
            best_fit, best_genes, best_step = float(fit[i, j]), genes[i, j].copy(), t
        if (t - first) % record_every == 0 or t == last:
            recorded.append(t)
            bests.append(fit.min(axis=1))
            means.append(fit.mean(axis=1))

    n_agents = cfg.agent_count
    return ConvergenceTrace(
        steps=np.repeat(np.array(recorded, dtype=np.int64), n_agents),
        agent_ids=np.tile(np.arange(n_agents, dtype=np.int64), len(recorded)),
        best=np.concatenate(bests), mean=np.concatenate(means),
        global_best=GlobalBest(best_step, best_genes, best_fit),
        repetition=state.repetition, algorithm=state.algorithm, objective=cfg.objective,
        dimension=cfg.dimension, seed=cfg.seed, total_steps=cfg.max_steps,
    )


def tbo_run(
    cfg: TboConfig,
    repetition: int = 0,
    *,
    record_every: int = 1,
    agent_rngs: Optional[Sequence[np.random.Generator]] = None,
    interaction_log: Optional[list] = None,
) -> ConvergenceTrace:
    """Run the credibility-gated society once and return its trace.

    ``repetition`` selects the derived stream family; ``agent_rngs``
    overrides stream derivation (mainly for tests); ``interaction_log``
    collects ``(t, InteractionOutcome)`` pairs when given.
    """
    return _run(_build_state(cfg, "tbo", repetition, agent_rngs, interaction_log), record_every)


def island_model_run(
    cfg: TboConfig,
    repetition: int = 0,
    *,
    record_every: int = 1,
    agent_rngs: Optional[Sequence[np.random.Generator]] = None,
) -> ConvergenceTrace:
    """Run the plain island-model baseline once: same EA, same epoch clock,
    best-genome migration instead of credibility-gated interaction."""
    return _run(_build_state(cfg, "island_model", repetition, agent_rngs, None), record_every)


def run_repetitions(
    cfg: TboConfig,
    algorithm: Optional[str] = None,
    *,
    record_every: int = 1,
) -> list[ConvergenceTrace]:
    """Run ``cfg.repetitions`` independent repetitions of one algorithm.

    Repetition ``r`` uses the stream family ``(cfg.seed, r, agent)``; the
    returned traces are tagged with their repetition index.
    """
    algorithm = algorithm or cfg.algorithm
    return [
        _run(_build_state(cfg, algorithm, r, None, None), record_every)
        for r in range(cfg.repetitions)
    ]
