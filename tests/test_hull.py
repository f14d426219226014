"""Exact and noise-robust convex hulls."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccfg.core import convex_hull, noisy_convex_hull
from ccfg.core.pose import cross2
from ccfg.errors import TooFewPoints


REGRESSION = Path(__file__).parent / "data" / "noisy_hull_regression.json"


def regression_input(case):
    """Seeded input of one recorded regression case.

    "rays": the shape the friction estimator fits, n - 1 unit force rays on
    an arc of +-half_angle with angular noise, plus the origin. "square":
    n points uniform on the unit square plus Gaussian noise.
    """
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    if case["kind"] == "rays":
        a = (rng.uniform(-case["half_angle"], case["half_angle"], n - 1)
             + rng.normal(0.0, case["noise"], n - 1))
        return np.vstack([np.c_[np.cos(a), np.sin(a)], [[0.0, 0.0]]])
    return rng.uniform(0, 1, (n, 2)) + rng.normal(0.0, case["noise"], (n, 2))


def shoelace_area(verts):
    n = len(verts)
    return 0.5 * sum(verts[i][0] * verts[(i + 1) % n][1]
                     - verts[i][1] * verts[(i + 1) % n][0] for i in range(n))


def is_ccw_convex(verts):
    n = len(verts)
    if n < 3:
        return False
    for i in range(n):
        e1 = verts[(i + 1) % n] - verts[i]
        e2 = verts[(i + 2) % n] - verts[(i + 1) % n]
        if cross2(e1, e2) <= 0:
            return False
    return True


def max_dist_outside(hull, points):
    nxt = np.roll(hull, -1, axis=0)
    edges = nxt - hull
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, hull)
    d = points @ normals.T - offsets[None, :]
    return float(d.max(axis=1).max())


def test_convex_hull_square_with_interior():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1],
                    [0.5, 0.5], [0.2, 0.7], [0.5, 0.0]])
    hull = convex_hull(pts)
    assert len(hull) == 4
    assert is_ccw_convex(hull)
    assert shoelace_area(hull) == pytest.approx(1.0)


def test_convex_hull_collinear_degenerate():
    pts = np.array([[i, 0.0] for i in range(10)])
    hull = convex_hull(pts)
    assert len(hull) == 2


def test_noisy_hull_exact_square_corners():
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    hull = noisy_convex_hull(np.repeat(corners, 10, axis=0))
    assert len(hull) == 4
    assert sorted(map(tuple, hull)) == sorted(map(tuple, corners))


def test_noisy_hull_too_few_points():
    with pytest.raises(TooFewPoints):
        noisy_convex_hull(np.zeros((7, 2)))


def test_noisy_hull_area_oracle_uniform_square():
    # Oracle: the noiseless shape is the unit square with area exactly 1.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (1000, 2)) + rng.normal(0, 0.01, (1000, 2))
        hull = noisy_convex_hull(pts)
        assert is_ccw_convex(hull)
        assert shoelace_area(hull) == pytest.approx(1.0, rel=0.05)
        # Peeling actually removed noise vertices.
        assert len(hull) < len(convex_hull(pts))


def test_noisy_hull_peels_vertex_clusters_to_polygon():
    ang = np.linspace(0, 2 * np.pi, 7)[:-1]
    true_v = 0.15 * np.c_[np.cos(ang), np.sin(ang)]
    rng = np.random.default_rng(42)
    obs = np.vstack([true_v + rng.normal(0, 0.005, true_v.shape)
                     for _ in range(10)])
    hull = noisy_convex_hull(obs)
    assert len(hull) == 6


def test_noisy_hull_keeps_clean_polygons():
    for n in (8, 20):
        ang = np.linspace(0, 2 * np.pi, n + 1)[:-1]
        pts = np.c_[np.cos(ang), np.sin(ang)]
        hull = noisy_convex_hull(np.repeat(pts, 2, axis=0))
        assert len(hull) == n


def test_noisy_hull_coverage_postcondition():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        pts = rng.normal(0, 0.1, (300, 2))
        hull = noisy_convex_hull(pts)
        exact = convex_hull(pts)
        # Fitted band can never exceed the cap fraction of the hull diameter.
        diam = max(np.hypot(*(exact - v).T).max() for v in exact)
        assert max_dist_outside(hull, pts) <= 0.02 * diam + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_noisy_hull_monotone_under_interior_points(seed, n_extra):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (40, 2))
    base = noisy_convex_hull(pts)
    exact = convex_hull(pts)
    # Draw extra points strictly inside the exact hull (rejection sampling
    # from convex combinations of hull vertices).
    weights = rng.dirichlet(np.ones(len(exact)), size=n_extra)
    extra = weights @ exact
    augmented = noisy_convex_hull(np.vstack([pts, extra]))
    assert np.array_equal(base, augmented)


def test_noisy_hull_matches_recorded_outputs():
    # Outputs recorded from the peel that re-tested every edge of every
    # candidate ring; the incremental peel must reproduce them bit for bit.
    cases = json.loads(REGRESSION.read_text())["cases"]
    assert len(cases) == 40
    for case in cases:
        hull = noisy_convex_hull(regression_input(case))
        want = np.array(case["hull"])
        assert hull.shape == want.shape, case["seed"]
        assert np.array_equal(hull, want), case["seed"]
