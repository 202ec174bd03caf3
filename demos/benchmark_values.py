"""Evaluate the six shipped objectives at points with known values.

All objectives are minimized and vectorized: ObjectiveSpec.base takes an
(n, D) array and returns n values.  Four of them are zero at the origin; the
noisy Schwefel variant is zero near 420.9687 per coordinate; the
Lennard-Jones cluster energy has a closed-form two-particle minimum.
"""

import numpy as np

from trustopt import OBJECTIVE_NAMES, get_objective

D = 10
print(f"{'objective':<20} {'box':>8}   value at origin")
for name in OBJECTIVE_NAMES:
    if name == "lennard_jones":
        continue
    spec = get_objective(name, D)
    at_origin = spec.base(np.zeros((1, D)))[0]
    print(f"{name:<20} {spec.upper[0]:>8g}   {at_origin:.6g}")

print()
schwefel = get_objective("schwefel_noise", D, noise_sigma=0.0)
x = np.full((1, D), 420.9687)
print(f"noiseless schwefel at 420.9687 per gene: {schwefel.base(x)[0]:.3e}")

# with noise on, evaluate_rows() adds one Normal(0, sigma) draw per genome
# of an (owners, k, D) stack, from the stream of the genome's owner (here
# one owner of one genome)
noisy = get_objective("schwefel_noise", D)
rng = np.random.default_rng(3)
draws = [noisy.evaluate_rows(x[None], [rng])[0, 0] for _ in range(5)]
print("five noisy evaluations at the same point:", " ".join(f"{v:.3f}" for v in draws))

print()
# two particles at distance r = (2a/b)^(1/6) sit at the pair-energy minimum
lj = get_objective("lennard_jones", 6)
r = (2 * 1.0 / 2.0) ** (1 / 6)
pair = np.array([[0, 0, 0, r, 0, 0]], dtype=float)
print(f"lennard-jones, two particles at r={r:.4f}: {lj.base(pair)[0]:.6f} "
      f"(closed form: {-2.0 ** 2 / 4.0:.6f})")

# three particles can do better than any pair
tri = np.array([[0, 0, 0, r, 0, 0, r / 2, r * np.sqrt(3) / 2, 0]])
lj3 = get_objective("lennard_jones", 9)
print(f"equilateral triangle at the same spacing:  {lj3.base(tri)[0]:.6f}")
