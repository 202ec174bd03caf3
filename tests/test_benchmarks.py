"""Objective function values, bounds and the registry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lennard_jones_reference
from trustopt.benchmarks import (
    _LJ_BLOCK,
    _REGISTRY,
    OBJECTIVE_NAMES,
    expanded_schaffer,
    get_objective,
    griewank,
    lennard_jones,
    rastrigin,
    schwefel_noisy,
    sphere,
)


def test_sphere_origin_and_pythagorean_pair():
    assert sphere(np.zeros(50)) == 0.0
    assert sphere(np.array([3.0, 4.0])) == 25.0


def test_sphere_matches_loop_oracle(rng):
    x = rng.uniform(-100, 100, 10)
    expected = sum(v * v for v in x)
    assert sphere(x) == pytest.approx(expected, rel=1e-12)


def test_griewank_origin_is_zero():
    assert griewank(np.zeros(7)) == 0.0


def test_griewank_single_dimension_formula():
    x = np.array([100.0])
    expected = 100.0**2 / 4000.0 - math.cos(100.0 / math.sqrt(1.0)) + 1.0
    assert griewank(x) == pytest.approx(expected, rel=1e-12)


def test_griewank_nonnegative(rng):
    pts = rng.uniform(-600, 600, (10_000, 6))
    assert np.all(griewank(pts) >= 0.0)


def test_rastrigin_origin_and_unit_point():
    assert rastrigin(np.zeros(4)) == 0.0
    # 1 - 10*cos(2*pi) + 10 = 1
    assert rastrigin(np.array([1.0])) == pytest.approx(1.0, abs=1e-12)


def test_rastrigin_nonnegative(rng):
    pts = rng.uniform(-5.12, 5.12, (10_000, 5))
    assert np.all(rastrigin(pts) >= -1e-12)


def test_expanded_schaffer_origin_is_zero():
    assert expanded_schaffer(np.zeros(3)) == 0.0


def test_expanded_schaffer_term_bounds(rng):
    d = 6
    pts = rng.uniform(-100, 100, (10_000, d))
    vals = expanded_schaffer(pts)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= d - 1)


def test_expanded_schaffer_pair_matches_term_oracle(rng):
    x = rng.uniform(-100, 100, 2)
    s = x[0] ** 2 + x[1] ** 2
    expected = 0.5 + (math.sin(math.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2
    assert expanded_schaffer(x) == pytest.approx(expected, rel=1e-12)


def test_expanded_schaffer_rejects_single_gene():
    with pytest.raises(ValueError):
        expanded_schaffer(np.zeros(1))


def test_schwefel_known_point_values():
    # sin term vanishes at the origin
    assert schwefel_noisy(np.zeros(1)) == pytest.approx(418.9829, abs=1e-12)
    near_opt = np.full(10, 420.9687)
    assert abs(schwefel_noisy(near_opt)) < 1e-2 * 10


def test_schwefel_noise_requires_generator():
    # every owner of a noisy stack needs a stream
    spec = get_objective("schwefel_noise", 3, noise_sigma=0.5)
    with pytest.raises(ValueError, match="Generator"):
        spec.evaluate_rows(np.zeros((2, 1, 3)), [np.random.default_rng(0), None])


def test_lennard_jones_two_particles_at_unit_distance():
    genes = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert lennard_jones(genes) == pytest.approx(-1.0, abs=1e-12)


def test_lennard_jones_equilateral_triangle():
    h = math.sqrt(3.0) / 2.0
    genes = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5, h, 0.0])
    assert lennard_jones(genes) == pytest.approx(-3.0, abs=1e-9)


def test_lennard_jones_coincident_particles_penalized():
    genes = np.zeros(6)
    val = lennard_jones(genes)
    assert math.isfinite(val)
    assert val == pytest.approx(1e12)


def test_lennard_jones_ignores_leftover_genes(rng):
    genes = rng.uniform(-3, 3, 6)
    padded = np.concatenate([genes, [99.0, -99.0]])
    assert lennard_jones(padded) == lennard_jones(genes)


def test_lennard_jones_rejects_single_particle():
    with pytest.raises(ValueError):
        lennard_jones(np.zeros(5))


def test_lennard_jones_batch_equals_scalar(rng):
    pts = rng.uniform(-3, 3, (40, 12))
    batch = lennard_jones(pts)
    scalar = np.array([lennard_jones(p) for p in pts])
    assert np.array_equal(batch, scalar)


def test_lennard_jones_matches_direct_sum(rng):
    pts = rng.uniform(-3, 3, (50, 9))
    p = 3
    xyz = pts.reshape(-1, p, 3)
    expected = np.zeros(len(pts))
    for i in range(p):
        for j in range(i + 1, p):
            r2 = np.sum((xyz[:, i] - xyz[:, j]) ** 2, axis=-1)
            inv6 = 1.0 / r2**3
            expected += 1.0 * inv6**2 - 2.0 * inv6
    assert np.allclose(lennard_jones(pts), expected, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("dimension", [6, 7, 8, 12, 48, 99])
def test_lennard_jones_bytes_match_the_reference(rng, dimension):
    # every pair added left to right, in every block position and input shape
    block = _LJ_BLOCK // math.comb(dimension // 3, 2)  # rows per block
    for rows in (1, block - 1, block, block + 1, 3 * block + 7):
        pts = rng.uniform(-3, 3, (rows, dimension))
        pts[rows // 2, 3:6] = pts[rows // 2, 0:3]  # a coincident pair
        expected = np.array([lennard_jones_reference(p) for p in pts])
        assert lennard_jones(pts).tobytes() == expected.tobytes()
    genome = rng.uniform(-3, 3, dimension)
    assert np.float64(lennard_jones(genome)).tobytes() == \
        np.float64(lennard_jones_reference(genome)).tobytes()
    grid = rng.uniform(-3, 3, (3, 5, dimension))
    expected = np.array([[lennard_jones_reference(p, 0.5, 3.0) for p in row] for row in grid])
    assert lennard_jones(grid, a=0.5, b=3.0).tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(OBJECTIVE_NAMES), data=st.data())
def test_base_rows_are_independent_of_their_block(name, data):
    # a row's value is the same alone, in any sub-block and in the whole block
    dimension = data.draw(st.integers(_REGISTRY[name].min_dimension, 100), label="dimension")
    rows = data.draw(st.integers(1, 2500), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    spec = get_objective(name, dimension)
    genes = rng.uniform(spec.lower, spec.upper, (rows, dimension))
    if data.draw(st.booleans(), label="coarse"):
        genes = np.round(genes)  # repeated genes and coincident particles
    whole = spec.base(genes)
    alone = np.array([spec.base(g) for g in genes])
    cuts = np.sort(rng.integers(0, rows + 1, size=rng.integers(0, 8)))
    pieces = np.concatenate([spec.base(part) for part in np.split(genes, cuts)])
    assert whole.tobytes() == alone.tobytes() == pieces.tobytes()


# --- registry ---------------------------------------------------------------


def test_registry_names_and_bounds():
    boxes = {
        "sphere": 100.0,
        "griewank": 600.0,
        "rastrigin": 5.12,
        "expanded_schaffer": 100.0,
        "schwefel_noise": 500.0,
        "lennard_jones": 3.0,
    }
    for name in OBJECTIVE_NAMES:
        spec = get_objective(name, 12)
        assert spec.name == name
        assert spec.dimension == 12
        assert np.all(spec.lower == -boxes[name])
        assert np.all(spec.upper == boxes[name])


def test_registry_rejects_unknown_name():
    with pytest.raises(ValueError, match="nosuch"):
        get_objective("nosuch", 10)


def test_registry_rejects_unknown_parameters():
    with pytest.raises(ValueError, match="noise_sigma"):
        get_objective("sphere", 10, noise_sigma=0.1)


def test_registry_dimension_floors():
    with pytest.raises(ValueError):
        get_objective("expanded_schaffer", 1)
    with pytest.raises(ValueError):
        get_objective("lennard_jones", 5)
    with pytest.raises(ValueError):
        get_objective("sphere", 0)


def test_schwefel_noise_spec_defaults_and_flag():
    spec = get_objective("schwefel_noise", 10)
    assert spec.noisy
    assert spec.noise_sigma == pytest.approx(0.1)
    silent = get_objective("schwefel_noise", 10, noise_sigma=0.0)
    assert not silent.noisy


def test_noisy_evaluate_is_base_plus_gaussian(rng):
    spec = get_objective("schwefel_noise", 4, noise_sigma=2.0)
    # row i draws its noise from streams[i], in genome order
    genes = rng.uniform(-500, 500, (2, 3, 4))
    vals = spec.evaluate_rows(genes, [np.random.default_rng(7), np.random.default_rng(8)])
    expected = [spec.base(g) + np.random.default_rng(seed).normal(0.0, 2.0, size=3)
                for g, seed in zip(genes, (7, 8))]
    assert np.array_equal(vals, expected)


def test_noisy_evaluate_requires_generator():
    spec = get_objective("schwefel_noise", 3)
    with pytest.raises(ValueError):
        spec.evaluate_rows(np.zeros((1, 1, 3)), [None])


def test_evaluate_checks_dimension():
    spec = get_objective("sphere", 5)
    with pytest.raises(ValueError):
        spec.evaluate_rows(np.zeros((1, 1, 4)), [None])


def test_lennard_jones_constants_are_knobs():
    spec = get_objective("lennard_jones", 6, a=2.0, b=3.0)
    r = (2.0 * 2.0 / 3.0) ** (1.0 / 6.0)
    genes = np.array([0.0, 0.0, 0.0, r, 0.0, 0.0])
    assert spec.base(genes) == pytest.approx(-(3.0**2) / (4.0 * 2.0), abs=1e-9)


def test_deterministic_objectives_repeat_exactly(rng):
    for name in OBJECTIVE_NAMES:
        if name == "schwefel_noise":
            continue
        spec = get_objective(name, 9)
        pts = rng.uniform(spec.lower, spec.upper, (1, 5, 9))
        assert np.array_equal(spec.evaluate_rows(pts, [None]), spec.evaluate_rows(pts, [None]))
