"""Run one credibility-gated society on the sphere function and look at
what comes back.

A run is described by a TboConfig: how many agents, which objective, how
often they exchange solutions, and the one agent template every agent
breeds with.  Here we build one by hand instead of loading a preset so
every knob is visible.
"""

import numpy as np

from trustopt import (
    AgentTemplate,
    CredibilityConfig,
    TboConfig,
    run_repetitions,
)
from trustopt.results import best_so_far_series

cfg = TboConfig(
    agent_count=6,
    dimension=10,
    objective="sphere",
    epoch_length=25,          # an exchange replaces the EA step every 25 steps
    diversity_factor=1.3,     # agent i mutates (1 + 1.3 i) times harder than agent 0
    max_steps=2000,
    seed=7,
    credibility=CredibilityConfig(kind="trust", start_value=25),
    per_agent=AgentTemplate(  # one template for every agent
        population_size=5,
        offspring_size=15,
        base_crossover_rate=0.005,
        base_mutation_rate=0.0005,
        genome_intensity="moderate",
        gene_op="swap",
    ),
)

[trace] = run_repetitions(cfg, record_every=100)  # one trace per repetition

print(f"run: {trace.algorithm} on {trace.objective} D={trace.dimension}, "
      f"{trace.total_steps} steps, {cfg.agent_count} agents")
print()

# one row per (recorded step, agent); collapse to a single curve
steps, curve = best_so_far_series(trace.steps, trace.best)
print("step      best so far")
for s, v in zip(steps, curve):
    print(f"{s:>6}    {v:.6g}")

print()
gb = trace.global_best
print(f"global best {gb.fitness:.6g} first seen at step {gb.step}")
print("genes:", np.array2string(gb.genes, precision=4))
