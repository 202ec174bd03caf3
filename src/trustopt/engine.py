"""Run loops: the credibility-gated society and the island-model baseline.

Both algorithms share one global step counter ``t``, which runs from 1
to ``max_steps``, and one epoch clock.  At ``t mod epoch_length != 0``
every agent runs an independent EA step; at epoch boundaries the EA step
is replaced by an exchange: a credibility-gated interaction (tbo) or a
best-genome migration (island_model).

The society is held as stacked arrays for the whole run: ``(N, n, D)``
genes, an ``(N, n)`` fitness cache and one EA step plan
(:func:`~trustopt.ea.step_plan`: the EA rates and scratch).  Every agent
follows the config's one agent template, so agents share their
population and offspring sizes, genome intensity and gene operator, and
differ only in the rates the diversity factor gives them.  Each step is
one batched pass over all agents:
:func:`~trustopt.ea.ea_step_all` off-epoch, :func:`advance_step` on epoch.

A cell (one config and algorithm) stacks its ``R`` repetitions into one
``(R*N, n, D)`` society, repetition by repetition, and splits the result
into ``R`` traces.  Agent ``i`` of repetition ``r`` keeps its own stream
``agent_stream(seed, r, i)``, exchange partners are drawn inside the
repetition's block, credibility is read only within a block and each
repetition keeps its own global best, so stacking couples nothing: every
repetition runs exactly as it would alone.

:func:`run_cells` runs several cells in lockstep, one global step at a
time; it is the one run loop, and :func:`run_repetitions` is its one-cell
case.  Both read the algorithm from ``cfg.algorithm``.  The cells' genes
and fitness live in one stacked array, and each cell keeps a view of its
rows.  A step that is no cell's epoch step is one
:func:`~trustopt.ea.ea_step_all` over the whole group with one group plan;
on any other step each cell steps alone, :func:`advance_step` on its
epoch and an EA step with its own plan off it.  Cells may differ in
algorithm, agent count, repetitions, epoch length, rates, genome
intensity, gene operator and seed, but must share population and
offspring size, the EA operator constants, ``max_steps`` and the
objective binding.  Since each agent draws only from its own stream,
every operator works row by row and an objective gives a row the same
bytes in any block, a cell gives the same bytes in a group as alone.

The run loop is the one owner of member evaluation: it evaluates the whole
group in one :meth:`~trustopt.benchmarks.ObjectiveSpec.evaluate_rows` call
at the top of step 1 and, for a noisy objective, at the top of every step,
before any cell steps.  The EA step and the exchange take that evaluated
cache and evaluate only their offspring, so a noisy value is never reused
across steps.  Within a step each agent draws from its own stream, in this
order: its members' noise (noisy objectives only, in member order), then
the EA step's draws (:mod:`trustopt.ea`) or, on an epoch step, its
exchange partner (uniform over the other agents of its repetition) and,
for tbo and only if its share is accepted, its offspring's resident
partners and their objective noise.  Shares, thresholds and adoption
depths are read from the populations and credibility as they stood at step
start, so one agent's update never leaks into another agent's same-step
decision and relabeling agents (with their streams) relabels the run.  The
engine reads every m and K from the credibility state, runs the tbo
exchange (:func:`~trustopt.socio.exchange_all`), then credits its
outcomes, summed and clamped into ``[min_value, max_value]`` once per
step, so their order does not matter.  An interaction log keeps the
exchange's record, one entry per epoch step, with one row per agent of
every repetition, repetition after repetition.

The trace's global best is the running minimum of observed fitness, so
it never increases even under noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .benchmarks import ObjectiveSpec, get_objective
from .config import TboConfig, validate_config
from .ea import StepPlan, ea_step_all, step_plan
from .rng import agent_stream
from .socio import exchange_all
from .types import ConvergenceTrace, CredibilityState, GlobalBest, effective_rates, init_population

ea_step, interaction_step = ea_step_all, exchange_all  # perfbench/tracer.py patches these names; nothing calls them

__all__ = ["run_repetitions", "run_cells"]


@dataclass
class RunState:
    """The stacked society of one run between global steps: ``R``
    repetitions of a cell (``repetitions`` holds their indices) of ``N``
    agents each, one repetition after another along the first axis.  In a
    lockstep group, ``genes`` and ``fitness`` are views of the group's
    arrays."""

    cfg: TboConfig
    objective: ObjectiveSpec
    plan: StepPlan  # EA step constants, the (R*N,) rates and scratch
    streams: list[np.random.Generator]
    genes: np.ndarray  # (R*N, n, D)
    fitness: np.ndarray  # (R*N, n), filled by the run loop at step 1
    credibility: Optional[CredibilityState]  # only diagonal blocks of a trust table are read
    repetitions: list[int]
    interaction_log: Optional[list] = None


def _build_state(cfg: TboConfig, repetitions: Sequence[int],
                 interaction_log: Optional[list] = None) -> RunState:
    validate_config(cfg)
    objective = get_objective(cfg.objective, cfg.dimension, **cfg.objective_params)
    n_agents, tpl = cfg.agent_count, cfg.per_agent
    streams = [agent_stream(cfg.seed, r, i) for r in repetitions for i in range(n_agents)]
    rates = np.array([effective_rates(tpl.base_crossover_rate, tpl.base_mutation_rate,
                                      i, cfg.diversity_factor)
                      for i in range(n_agents)] * len(repetitions))
    genes = np.stack([init_population(tpl.population_size, objective, rng) for rng in streams])
    plan = step_plan(*genes.shape[1:], tpl.offspring_size, cfg.eta_c, cfg.eta_m, *rates.T)

    credibility = None
    if cfg.algorithm == "tbo":
        c = cfg.credibility
        credibility = CredibilityState.initial(c.kind, len(streams), c.start_value,
                                               c.min_value, c.max_value)
    return RunState(
        cfg, objective, plan, streams, genes, np.empty(genes.shape[:2]),
        credibility, list(repetitions), interaction_log,
    )


def advance_step(state: RunState, t: int) -> None:
    """Run global step ``t`` as an epoch step for every agent, on the
    evaluated fitness cache.  In a migration the source's first best genome
    replaces the recipient's first worst member, both read from the
    step-start populations."""
    genes, fitness, streams = state.genes, state.fitness, state.streams
    # one integer draw per agent, uniform over the other agents of its
    # repetition
    n_agents = state.cfg.agent_count
    draws = np.array([rng.integers(0, n_agents - 1) for rng in streams])
    rows = np.arange(len(streams))
    local = rows % n_agents
    others = rows - local + draws + (draws >= local)
    if state.cfg.algorithm == "island_model":
        best = fitness.argmin(axis=1)[others]
        worst = fitness.argmax(axis=1)
        genes[rows, worst] = genes[others, best]
        fitness[rows, worst] = fitness[others, best]
    else:
        tpl, cred = state.cfg.per_agent, state.credibility
        m, k = cred.share_and_depth(others, rows)
        record = exchange_all(genes, fitness, others, m, k, tpl.genome_intensity, tpl.gene_op,
                              state.objective, streams)
        cred.credit(rows, others, record.branch)
        if state.interaction_log is not None:
            state.interaction_log.append((t, record))


def _shared(state: RunState) -> dict:
    """What every cell of a lockstep group must share."""
    c = state.cfg
    return {"population size": state.genes.shape[1], "offspring size": state.plan.lam,
            "EA operator constants": (state.plan.eta_c, state.plan.eta_m),
            "max_steps": c.max_steps,
            "objective binding": (c.objective, c.dimension, c.objective_params)}


def _lockstep(states: list[RunState], record_every: int) -> list[list[ConvergenceTrace]]:
    """Advance freshly built states in lockstep through ``max_steps``
    global steps (see the module docstring); returns each state's traces,
    one per repetition."""
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    shared = _shared(states[0])
    for s in states[1:]:
        if bad := [k for k, v in _shared(s).items() if v != shared[k]]:
            raise ValueError(f"cells of one group differ in {', '.join(bad)}")
    objective = states[0].objective
    n, d = states[0].genes.shape[1:]

    bounds = np.cumsum([0] + [len(s.streams) for s in states])
    genes = np.concatenate([s.genes for s in states])
    fit = np.concatenate([s.fitness for s in states])
    for s, a, b in zip(states, bounds, bounds[1:]):
        s.genes, s.fitness = genes[a:b], fit[a:b]
    streams = [rng for s in states for rng in s.streams]
    plan = states[0].plan if len(states) == 1 else step_plan(
        n, d, shared["offspring size"], *shared["EA operator constants"],
        *np.concatenate([s.plan.p.reshape(2, -1) for s in states], axis=1))

    # every repetition of the group: its first member in the flat fitness
    starts = np.concatenate([a + s.cfg.agent_count * np.arange(len(s.repetitions))
                             for s, a in zip(states, bounds)]) * n
    rep_end = np.append(starts[1:], fit.size)
    flat_fit, flat_genes = fit.reshape(-1), genes.reshape(-1, d)
    last = shared["max_steps"]
    recorded, bests, means = [], [], []
    n_reps = len(starts)
    best_fit, best_genes, best_step = np.full(n_reps, np.inf), [None] * n_reps, [-1] * n_reps

    for t in range(1, last + 1):
        if t == 1 or objective.noisy:
            fit[...] = objective.evaluate_rows(genes, streams)
        epoch = [t % s.cfg.epoch_length == 0 for s in states]
        if any(epoch):
            for s, on in zip(states, epoch):
                if on:
                    advance_step(s, t)
                else:
                    ea_step_all(s.genes, s.fitness, s.plan, s.objective, s.streams)
        else:
            ea_step_all(genes, fit, plan, objective, streams)
        value = np.minimum.reduceat(flat_fit, starts)
        for r in np.flatnonzero(value < best_fit).tolist():
            j = starts[r] + flat_fit[starts[r]:rep_end[r]].argmin()  # first agent, first member
            best_fit[r], best_step[r], best_genes[r] = value[r], t, flat_genes[j].copy()
        if (t - 1) % record_every == 0 or t == last:
            recorded.append(t)
            bests.append(fit.min(axis=1))
            means.append(fit.mean(axis=1))

    best, mean = np.array(bests), np.array(means)
    steps = np.array(recorded, dtype=np.int64)
    out, k = [], 0
    for s, a, b in zip(states, bounds, bounds[1:]):
        c, n_agents = s.cfg, s.cfg.agent_count
        shape = (len(recorded), len(s.repetitions), n_agents)
        cell_best, cell_mean = best[:, a:b].reshape(shape), mean[:, a:b].reshape(shape)
        out.append([ConvergenceTrace(
            steps=np.repeat(steps, n_agents),
            agent_ids=np.tile(np.arange(n_agents, dtype=np.int64), len(recorded)),
            best=cell_best[:, r].ravel(), mean=cell_mean[:, r].ravel(),
            global_best=GlobalBest(best_step[k + r], best_genes[k + r], float(best_fit[k + r])),
            repetition=rep, algorithm=c.algorithm, objective=c.objective,
            dimension=c.dimension, seed=c.seed, total_steps=c.max_steps,
        ) for r, rep in enumerate(s.repetitions)])
        k += len(s.repetitions)
    return out


def run_repetitions(cfg: TboConfig, *, record_every: int = 1,
                    interaction_log: Optional[list] = None) -> list[ConvergenceTrace]:
    """Run ``cfg.repetitions`` independent repetitions of ``cfg.algorithm``.

    Repetition ``r`` uses the stream family ``(cfg.seed, r, agent)``; the
    returned traces are tagged with their repetition index.  All
    repetitions run as one stacked society, each exactly as it would run
    alone.  ``interaction_log``, when given, collects one ``(t,
    ExchangeRecord)`` pair per tbo epoch step
    (:class:`~trustopt.socio.ExchangeRecord`): for ``R`` repetitions of
    ``N`` agents, ``R*N`` rows, repetition after repetition.
    """
    return _lockstep([_build_state(cfg, range(cfg.repetitions), interaction_log)],
                     record_every)[0]


def run_cells(cfgs: Sequence[TboConfig], *, record_every: int = 1) -> list[list[ConvergenceTrace]]:
    """Run ``cfg.repetitions`` repetitions of ``cfg.algorithm`` for every
    config, all cells in lockstep; returns each cell's traces, in order.

    The cells must share their population size, offspring size, EA
    operator constants, ``max_steps`` and objective binding
    (``ValueError`` otherwise); they may differ in everything else.  Each
    cell gives the bytes it gives alone.
    """
    return _lockstep([_build_state(c, range(c.repetitions)) for c in cfgs], record_every)
