"""Wrench construction and transforms, center of pressure, friction residuals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccfg.core import (Wrench2, center_of_pressure, cross2,
                       friction_complementarity_residual, transform_torque)
from ccfg.errors import DegenerateForce, NegativeNormalForce

finite = st.floats(-50, 50, allow_nan=False)


def bisect_cop_gamma(G, H, w, tol=1e-12):
    """Oracle: locate the zero-torque point on line GH by pure bisection.

    Only uses torque evaluation at trial points, no closed-form solve.
    """
    G = np.asarray(G, float)
    H = np.asarray(H, float)

    def tau(gamma):
        q = gamma * G + (1 - gamma) * H
        return transform_torque(w, q).torque

    lo, hi = -1.0, 2.0
    while tau(lo) * tau(hi) > 0:
        lo, hi = 2 * lo, 2 * hi
        if hi > 1e9:
            raise AssertionError("oracle failed to bracket")
    # relative width so huge gammas converge instead of stalling at the ulp
    while hi - lo > tol * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if tau(lo) * tau(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_transform_torque_examples():
    w = Wrench2((0, 10), 0.0, (0, 0))
    assert transform_torque(w, (0, 0)).torque == 0.0
    w = Wrench2((0, 10), 0.0, (1, 0))
    assert transform_torque(w, (0, 0)).torque == pytest.approx(10.0)
    w = Wrench2((3, 4), 2.0, (0.5, -0.25))
    assert transform_torque(w, (0.5, -0.25)).torque == pytest.approx(2.0)


@given(finite, finite, finite, finite, finite, finite, finite, finite, finite)
def test_transform_torque_composition(fx, fy, tau, cx, cy, px, py, qx, qy):
    w = Wrench2((fx, fy), tau, (cx, cy))
    via_p = transform_torque(transform_torque(w, (px, py)), (qx, qy))
    direct = transform_torque(w, (qx, qy))
    assert via_p.torque == pytest.approx(direct.torque, abs=1e-9)
    # And changing back is the identity.
    back = transform_torque(via_p, (cx, cy))
    assert back.torque == pytest.approx(tau, abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", range(5))
def test_wrench_rejects_nonfinite_field(field, bad):
    # force x, force y, torque, reference x, reference y
    vals = [1.0, -3.0, 0.5, 0.2, 0.1]
    vals[field] = bad
    with pytest.raises(ValueError):
        Wrench2(vals[0:2], vals[2], vals[3:5])


def test_cop_midpoint_symmetry():
    w = Wrench2((0, -5), 0.0, (1, 0))
    point, gamma = center_of_pressure((0, 0), (2, 0), w)
    np.testing.assert_allclose(point, [1, 0], atol=1e-12)
    assert gamma == pytest.approx(0.5)


def test_cop_offset_torque_example():
    w = Wrench2((0, 10), 2.0, (1, 0))
    point, gamma = center_of_pressure((0, 0), (2, 0), w)
    np.testing.assert_allclose(point, [1.2, 0], atol=1e-12)
    assert gamma == pytest.approx(bisect_cop_gamma((0, 0), (2, 0), w), abs=1e-9)


def test_cop_tangential_only_force_degenerate():
    w = Wrench2((10, 0), 0.0, (1, 0))
    with pytest.raises(DegenerateForce):
        center_of_pressure((0, 0), (2, 0), w)
    with pytest.raises(DegenerateForce):
        center_of_pressure((1, 1), (1, 1), Wrench2((0, 1), 0.0))


@settings(max_examples=200)
@given(finite, finite, finite, finite, finite, finite, finite, finite, finite)
# a near-tangential force puts the point ~8e5 patch lengths out
@example(gx=0.001, gy=1.3884399280385367, hx=0.0, hy=1.3884399280385367,
         fx=9.0, fy=0.015625, tau=0.0, cx=0.0, cy=0.0)
def test_cop_matches_bisection_oracle(gx, gy, hx, hy, fx, fy, tau, cx, cy):
    G, H = np.array([gx, gy]), np.array([hx, hy])
    chord = G - H
    span = np.hypot(*chord)
    if span < 1e-3:
        return
    w = Wrench2((fx, fy), tau, (cx, cy))
    if abs(cross2(chord, w.force)) / span < 1e-3:
        return
    point, gamma = center_of_pressure((gx, gy), (hx, hy), w)
    assert all(type(v) is float for v in (*point, gamma))
    # Zero torque at the returned point.
    assert abs(transform_torque(w, point).torque) < 1e-9 * max(1, abs(tau))
    # Barycentric identity.
    np.testing.assert_allclose(point, gamma * G + (1 - gamma) * H,
                               atol=1e-12)
    # Independent bisection oracle. The relative term covers near-tangential
    # forces, where the zero-torque point sits thousands of patch lengths out
    # and its conditioning scales like 1/f_normal.
    assert gamma == pytest.approx(bisect_cop_gamma(G, H, w),
                                      rel=1e-8, abs=1e-8)


def test_friction_residual_examples():
    assert friction_complementarity_residual(10, 0, 0, 0.5) == (0.0, 0.0)
    got = friction_complementarity_residual(10, 6, 0, 0.5)
    assert got.cone_violation == pytest.approx(1.0)
    assert got.comp_violation == 0.0
    assert friction_complementarity_residual(10, -5, -0.2, 0.5) == (0.0, 0.0)


def test_friction_residual_flags_bad_cases():
    # Sliding while strictly inside the cone violates complementarity.
    got = friction_complementarity_residual(10, 0, 0.2, 0.5)
    assert got.cone_violation == 0.0
    assert got.comp_violation > 0
    # Sliding with friction on the wrong cone edge is also a violation.
    got = friction_complementarity_residual(10, 5, -0.2, 0.5)
    assert got.comp_violation > 0
    with pytest.raises(NegativeNormalForce):
        friction_complementarity_residual(-1.0, 0, 0, 0.5)


@given(st.floats(0.05, 2.0), st.floats(0.0, 100.0), st.floats(-1, 1),
       st.booleans())
def test_friction_residual_zero_on_forward_law(mu, f_n, draw, sliding):
    # Oracle: construct samples from the friction law itself.
    if sliding and abs(draw) > 1e-3:
        v = draw
        f_t = mu * f_n * math.copysign(1.0, v)
    else:
        v = 0.0
        f_t = 0.99 * mu * f_n * draw
    got = friction_complementarity_residual(f_n, f_t, v, mu)
    assert got.cone_violation <= 1e-12 * max(1.0, mu * f_n)
    assert got.comp_violation <= 1e-12 * max(1.0, mu * f_n)
