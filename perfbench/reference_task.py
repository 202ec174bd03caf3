"""A fixed task that uses no trustopt code, timed to gauge the machine's speed.

The box the benchmark runs on is shared: its speed drifts by tens of
percent over minutes, and CPU time follows wall time, so the drift is not
scheduling but a slower processor.  ``run.py`` times this task several times
in every run and scales its timings by the median, so that two runs made at
different times compare the program and not the machine.  The task has the
shape of a ``trustopt`` command: a fresh interpreter that imports numpy and
scipy.stats, then many small numpy operations driven from Python.  It must
never change: every recorded figure depends on it.
"""

import numpy as np
import scipy.stats  # noqa: F401  (imported for its cost, as trustopt does)

rng = np.random.default_rng(12345)
genes = rng.uniform(-5.0, 5.0, size=(10, 5, 12))
acc = 0.0
for step in range(1500):
    cand = rng.integers(0, 5, size=(10, 8, 2))
    parents = genes[np.arange(10)[:, None], cand[..., 0]]
    gate = rng.random(parents.shape) < 0.1
    children = np.where(gate, parents + rng.normal(0.0, 0.1, parents.shape), parents)
    fit = np.sum(children * children, axis=-1)
    keep = np.argsort(fit, axis=1, kind="stable")[:, :5]
    genes = children[np.arange(10)[:, None], keep]
    acc += float(fit.min())
if not np.isfinite(acc):
    raise SystemExit(1)
