"""Benchmark objective functions (continuous minimisation).

All functions accept an array whose last axis is the genome dimension and
evaluate along that axis, so a single genome ``(D,)`` yields a scalar and a
population block ``(n, D)`` yields ``(n,)``.

The registry (:func:`get_objective`) wraps each function in an
:class:`ObjectiveSpec` carrying its search box, known optimum and noise flag.
Its table holds one row per name (``OBJECTIVE_NAMES``)::

    sphere, griewank, rastrigin, expanded_schaffer, schwefel_noise,
    lennard_jones
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "sphere",
    "griewank",
    "rastrigin",
    "expanded_schaffer",
    "schwefel_noisy",
    "lennard_jones",
    "ObjectiveSpec",
    "get_objective",
    "OBJECTIVE_NAMES",
]

# Lennard-Jones pair distances below this contribute a fixed large penalty
# instead of overflowing.
_LJ_R_MIN = 1e-12
_LJ_PENALTY = 1e12
# pair distances per Lennard-Jones block; the workspace's three (pairs, rows)
# buffers take 768 kB, which fits in L2 and which the allocator kept reusing
# in whole runs (at twice the size it faulted pages in again)
_LJ_BLOCK = 32768


@functools.lru_cache(maxsize=None)
def _pair_indices(p: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(p, k=1)


def sphere(x: np.ndarray) -> np.ndarray | float:
    """Sum of squares; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    return np.sum(x * x, axis=-1)


def griewank(x: np.ndarray) -> np.ndarray | float:
    """Griewank function; minimum 0 at the origin.

    The cosine product indexes dimensions from 1.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    idx = np.sqrt(np.arange(1, d + 1, dtype=float))
    return np.sum(x * x, axis=-1) / 4000.0 - np.prod(np.cos(x / idx), axis=-1) + 1.0


def rastrigin(x: np.ndarray) -> np.ndarray | float:
    """Rastrigin function; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    return np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=-1)


def expanded_schaffer(x: np.ndarray) -> np.ndarray | float:
    """Expanded Schaffer function over consecutive gene pairs.

    Sum over i = 1..D-1 of the two-variable Schaffer term on
    (x_i, x_{i+1}); no wrap-around pair.  Each term lies in [0, 1], the
    minimum 0 is at the origin.  Requires D >= 2.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise ValueError("expanded_schaffer requires dimension >= 2")
    a = x[..., :-1]
    b = x[..., 1:]
    s = a * a + b * b
    num = np.sin(np.sqrt(s)) ** 2 - 0.5
    den = (1.0 + 0.001 * s) ** 2
    return np.sum(0.5 + num / den, axis=-1)


def schwefel_noisy(x: np.ndarray) -> np.ndarray | float:
    """Schwefel function ``418.9829 * D - sum(x_i * sin(sqrt(|x_i|)))``;
    minimum close to 0 at all genes equal to 420.9687.

    The registry's ``schwefel_noise`` adds Gaussian evaluation noise to it
    (see :meth:`ObjectiveSpec.evaluate_rows`).
    """
    x = np.asarray(x, dtype=float)
    return 418.9829 * x.shape[-1] - np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def lennard_jones(x: np.ndarray, a: float = 1.0, b: float = 2.0) -> np.ndarray | float:
    """Lennard-Jones cluster potential.

    The genome is read as ``P = floor(D / 3)`` particle coordinates from
    consecutive ``(x, y, z)`` triples; leftover genes are ignored.  The value
    is ``sum_{i<j} a / r_ij^12 - b / r_ij^6``.  A pair closer than 1e-12
    contributes a fixed 1e12 penalty instead of a near-singular value.
    Requires at least two particles (D >= 6).
    """
    x = np.asarray(x, dtype=float)
    p = x.shape[-1] // 3
    if p < 2:
        raise ValueError("lennard_jones requires at least 2 particles (dimension >= 6)")
    iu, ju = _pair_indices(p)
    flat = x[..., : 3 * p].reshape(-1, p, 3)
    n, m = len(flat), len(iu)
    rows = max(1, min(n, _LJ_BLOCK // m))
    # one workspace per call, reused by every block: fresh temporaries per
    # block made the allocator hand their pages back and fault them in again
    work = np.empty((3, m * rows))
    out = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        r2, t, u = (w[: m * (hi - lo)].reshape(m, hi - lo) for w in work)
        # pair-major (pairs, rows) blocks: summing over axis 0 adds each
        # row's pairs left to right in i<j order
        coords = np.ascontiguousarray(flat[lo:hi].transpose(2, 1, 0))
        np.take(coords[0], iu, axis=0, out=r2, mode="clip")
        r2 -= np.take(coords[0], ju, axis=0, out=t, mode="clip")
        r2 *= r2
        for c in coords[1:]:  # r2 = (dx*dx + dy*dy) + dz*dz
            np.take(c, iu, axis=0, out=u, mode="clip")
            u -= np.take(c, ju, axis=0, out=t, mode="clip")
            u *= u
            r2 += u
        close = r2 < _LJ_R_MIN * _LJ_R_MIN
        masked = bool(close.any())
        if masked:
            r2[close] = 1.0  # placeholder; overwritten below
        inv6 = np.multiply(r2, r2, out=t)
        inv6 *= r2
        np.divide(1.0, inv6, out=inv6)
        pair = np.multiply(inv6, a, out=u)
        pair *= inv6
        pair -= np.multiply(inv6, b, out=inv6)
        if masked:
            pair[close] = _LJ_PENALTY
        # numpy sums a lone row pairwise; accumulating keeps it left to right
        out[lo:hi] = pair.sum(axis=0) if hi - lo > 1 else pair.cumsum(axis=0)[-1]
    return out.reshape(x.shape[:-1])[()]


@dataclass(frozen=True)
class ObjectiveSpec:
    """A benchmark objective bound to a concrete dimension.

    Attributes
    ----------
    name : str
        Registry name.
    dimension : int
        Genome length D.
    lower, upper : ndarray, shape (D,)
        Search box; initialisation and variation clamp to it.
    optimum_value : float or None
        Known global minimum value, when available.
    noise_sigma : float
        Standard deviation of the additive Gaussian evaluation noise; the
        objective is ``noisy`` when it is above 0.
    """

    name: str
    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    _fn: Callable[..., np.ndarray] = field(repr=False)
    optimum_value: Optional[float] = None
    noise_sigma: float = 0.0

    @property
    def noisy(self) -> bool:
        """True when evaluations carry fresh noise.  Noisy fitness values
        are never cached across global steps."""
        return self.noise_sigma > 0.0

    def base(self, genes: np.ndarray):
        """Evaluate without noise: one genome ``(D,)`` or a block ``(n, D)``."""
        genes = np.asarray(genes, dtype=float)
        if genes.shape[-1] != self.dimension:
            raise ValueError(
                f"genome dimension {genes.shape[-1]} != objective dimension {self.dimension}"
            )
        return self._fn(genes)

    def evaluate_rows(self, stack: np.ndarray,
                      streams: Sequence[Optional[np.random.Generator]]) -> np.ndarray:
        """The ``(owners, k)`` values of an ``(owners, k, D)`` stack of
        genomes: row ``i`` belongs to owner ``i``.  ``base`` sees the stack as
        one ``(owners * k, D)`` block.

        The noise rule: a noisy objective adds one Normal(0, noise_sigma)
        draw per genome to the noise-free value, from ``streams[i]`` in
        genome order; every owner then needs a Generator.
        """
        vals = self.base(stack.reshape(-1, stack.shape[-1])).reshape(stack.shape[:2])
        if self.noisy:
            for rng, row in zip(streams, vals):
                if rng is None:
                    raise ValueError(f"{self.name} is noisy and needs a Generator")
                row += rng.normal(0.0, self.noise_sigma, size=len(row))
        return vals


def finite_real(v) -> bool:
    """True for a finite real number that is not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


class _Row(NamedTuple):
    """One registered objective and everything a valid binding must meet."""

    fn: Callable[..., np.ndarray]
    half_width: float  # search box [-half_width, half_width]^D
    min_dimension: int = 1
    # accepted parameters and their defaults (a callable default takes D);
    # noise_sigma sets the evaluation noise, the others are keywords of fn
    params: dict = {}
    optimum_value: Optional[float] = None


_REGISTRY = {
    "sphere": _Row(sphere, 100.0, optimum_value=0.0),
    "griewank": _Row(griewank, 600.0, optimum_value=0.0),
    "rastrigin": _Row(rastrigin, 5.12, optimum_value=0.0),
    "expanded_schaffer": _Row(expanded_schaffer, 100.0, 2, optimum_value=0.0),
    "schwefel_noise": _Row(schwefel_noisy, 500.0, params={"noise_sigma": lambda d: 0.01 * d}),
    "lennard_jones": _Row(lennard_jones, 3.0, 6, params={"a": 1.0, "b": 2.0}),
}

OBJECTIVE_NAMES = tuple(_REGISTRY)


def get_objective(name: str, dimension: int, **params) -> ObjectiveSpec:
    """Construct a registered objective at a given dimension.

    The registry table is the one place that decides what a valid binding
    is: a known name, a dimension at or above the objective's floor, only
    the objective's own parameters (``noise_sigma`` for ``schwefel_noise``,
    default ``0.01 * dimension``; ``a`` and ``b`` for ``lennard_jones``,
    defaults 1 and 2), each a finite, non-bool real number, and
    ``noise_sigma >= 0``.  Any other binding raises ``ValueError``.
    """
    row = _REGISTRY.get(name)
    if row is None:
        raise ValueError(f"unknown objective: {name!r}")
    if dimension < row.min_dimension:
        raise ValueError(f"objective {name!r} needs dimension >= {row.min_dimension}, "
                         f"got {dimension}")
    extra = set(params) - set(row.params)
    if extra:
        raise ValueError(f"objective {name!r} does not accept parameters {sorted(extra)}")
    for key, value in params.items():
        if not finite_real(value):
            raise ValueError(f"objective {name!r} parameter {key!r} must be a finite number, "
                             f"got {value!r}")
    bound = {k: float(params[k]) if k in params else float(d(dimension) if callable(d) else d)
             for k, d in row.params.items()}
    sigma = bound.pop("noise_sigma", 0.0)
    if sigma < 0:
        raise ValueError(f"objective {name!r} parameter 'noise_sigma' must be >= 0, got {sigma!r}")

    full = np.full(dimension, row.half_width)
    return ObjectiveSpec(
        name, dimension, -full, full,
        functools.partial(row.fn, **bound) if bound else row.fn,
        optimum_value=row.optimum_value, noise_sigma=sigma,
    )
