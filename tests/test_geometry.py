"""Poses, polygons, convex hulls, world model, and the gravity-torque
parameterization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ccfg.core import (GravityParams, HandModel, PlanarPose, PolygonModel,
                       Wall, WorldModel, convex_hull, cross2, gravity_torque,
                       hand_normal, hand_tangent, rotate, rotation, wrap_angle)


def test_wrap_angle_range():
    for theta in [-7.0, -math.pi, 0.0, math.pi, 3 * math.pi, 10.0]:
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-12)


def test_pose_wraps_and_transforms():
    p = PlanarPose((1, 2), 3 * math.pi)
    assert p.angle == pytest.approx(math.pi)
    np.testing.assert_allclose(p.transform((1, 0)), [0, 2], atol=1e-12)
    R = p.rotation
    np.testing.assert_allclose(R @ R.T, np.eye(2), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0)


def test_pose_vector_roundtrip():
    p = PlanarPose((0.3, -0.2), 0.7)
    q = PlanarPose.from_vector(p.as_vector())
    assert q == p


def test_pose_rejects_nonfinite_angle():
    with pytest.raises(ValueError):
        PlanarPose((0, 0), float("nan"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_pose_rejects_nonfinite_position(axis, bad):
    position = [0.003, 0.0785]
    position[axis] = bad
    with pytest.raises(ValueError):
        PlanarPose(position, 0.0)


def test_hand_frame_vectors():
    np.testing.assert_allclose(hand_tangent(0.0), [1, 0], atol=1e-12)
    np.testing.assert_allclose(hand_normal(0.0), [0, -1], atol=1e-12)
    # Rotating the hand rotates both frame vectors rigidly.
    th = 0.4
    np.testing.assert_allclose(hand_tangent(th), rotate(th, [1, 0]), atol=1e-12)
    np.testing.assert_allclose(hand_normal(th), rotate(th, [0, -1]), atol=1e-12)
    assert cross2(hand_tangent(th), hand_normal(th)) == pytest.approx(-1.0)


def test_polygon_face_equations_hold_at_both_endpoints():
    poly = PolygonModel([(0, 0), (2, 0), (2, 1), (0, 1)])
    for i in range(poly.n_vertices):
        a, b = poly.face_endpoints(i)
        assert abs(poly.all_face_residuals(a)[i]) < 1e-9
        assert abs(poly.all_face_residuals(b)[i]) < 1e-9


def test_polygon_outward_normals_point_away_from_centroid():
    poly = PolygonModel([(0, 0), (3, 0), (4, 2), (1, 3), (-1, 1)])
    c = poly.centroid()
    for i in range(poly.n_vertices):
        assert poly.all_face_residuals(c)[i] < 0


def test_polygon_rejects_clockwise_and_nonconvex():
    with pytest.raises(ValueError):
        PolygonModel([(0, 0), (0, 1), (1, 1), (1, 0)])   # clockwise
    with pytest.raises(ValueError):
        PolygonModel([(0, 0), (2, 0), (1, 0.2), (0, 2)])  # reflex vertex
    with pytest.raises(ValueError):
        PolygonModel([(0, 0), (1, 1)])                    # too few


def test_polygon_area_and_centroid():
    poly = PolygonModel([(0, 0), (2, 0), (2, 1), (0, 1)])
    assert poly.area() == pytest.approx(2.0)
    np.testing.assert_allclose(poly.centroid(), [1.0, 0.5], atol=1e-12)


@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                min_size=6, max_size=20))
# Sliver triangles: the hull must drop them rather than hand PolygonModel an
# edge it rejects as a duplicate vertex.
@example(raw=[(0.0, 0.0)] * 4 + [(0.0, 4.93e-70), (1.0, 0.0)])
@example(raw=[(0.0, 0.0)] * 4 + [(0.0, 1.0), (1e-15, 0.0)])
def test_polygon_from_hull_satisfies_face_invariants(raw):
    hull = convex_hull(np.array(raw))
    if len(hull) < 3:
        return
    poly = PolygonModel(hull)
    for i in range(poly.n_vertices):
        a, b = poly.face_endpoints(i)
        assert abs(poly.all_face_residuals(a)[i]) < 1e-9
        assert abs(poly.all_face_residuals(b)[i]) < 1e-9


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


def test_world_model_validation():
    assert WorldModel(walls=[Wall(0.5, -1)]).walls == (Wall(0.5, -1),)
    with pytest.raises(ValueError):
        WorldModel(walls=(Wall(0, 1), Wall(1, 1), Wall(2, -1)))
    with pytest.raises(ValueError):
        Wall(0.0, 2)
    with pytest.raises(ValueError):
        HandModel(0.0)
    # A NaN wall would be ignored by step, and a NaN gravity would surface
    # only later, as NoFeasibleMode.
    for bad in (math.nan, math.inf, -math.inf):
        for make in (lambda: Wall(bad, -1), lambda: HandModel(bad),
                     lambda: WorldModel(ground_height=bad),
                     lambda: WorldModel(gravity=bad)):
            with pytest.raises(ValueError):
                make()


def test_gravity_params_trivial_cases():
    assert gravity_torque(GravityParams(0, 1), math.pi / 2) == pytest.approx(1.0)
    assert gravity_torque(GravityParams(0, 0), 1.234) == 0.0


def test_gravity_params_polar_identity():
    # mgl=2, psi=pi/6: alpha = mgl*sin(psi) = 1, beta = mgl*cos(psi) = sqrt(3);
    # the torque at theta=0 must equal mgl*sin(theta + psi) = 2*sin(pi/6) = 1.
    gp = GravityParams(alpha=1.0, beta=math.sqrt(3))
    assert gp.mgl == pytest.approx(2.0)
    assert gravity_torque(gp, 0.0) == pytest.approx(1.0)
    for theta in np.linspace(-3, 3, 17):
        lhs = gravity_torque(gp, theta)
        assert lhs == pytest.approx(2.0 * math.sin(theta + math.pi / 6), abs=1e-12)


@given(st.floats(0.1, 10), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.floats(-math.pi, math.pi))
def test_gravity_params_match_direct_moment(mass, dx, dy, theta):
    # Oracle: torque of the weight force about the pivot, computed from the
    # rotated lever arm and the explicit cross product.
    gp = GravityParams.from_mass_properties(mass, (dx, dy))
    lever = rotation(theta) @ np.array([dx, dy])
    oracle = cross2(lever, np.array([0.0, -mass * 9.81]))
    assert gravity_torque(gp, theta) == pytest.approx(oracle, abs=1e-9)
    assert gp.mgl == pytest.approx(mass * 9.81 * math.hypot(dx, dy), rel=1e-12)
