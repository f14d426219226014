"""Poses, polygons, convex hulls, world model, the gravity-torque
parameterization and the point-on-line contact primitive."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccfg.core import (GravityParams, HandModel, PlanarPose, PolygonModel,
                       Wall, WorldModel, convex_hull, cross2, gravity_torque,
                       hand_normal, hand_tangent, point_on_line, rotate,
                       rotation, wrap_angle)
from ccfg.graph import Factor, jacobian_check


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("coord", [0, 1])
def test_polygon_rejects_nonfinite_vertices(bad, coord):
    # a NaN vertex would otherwise pass every check and yield NaN normals,
    # and an infinite one fail as "duplicate consecutive vertices"
    verts = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]
    verts[2][coord] = bad
    with pytest.raises(ValueError, match="polygon vertices must be finite"):
        PolygonModel(verts)


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
    # True == 1 and False == 0: a bool is not a facing
    for facing in (2, True, False):
        with pytest.raises(ValueError):
            Wall(0.0, facing)
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


# ------------------------------------------------------ point-on-line contact

BOX = PolygonModel([[-0.06, -0.04], [0.06, -0.04], [0.06, 0.04], [-0.06, 0.04]])
HALF = 0.05     # the hand's half length


def contact_data(kind, index):
    """(p, anchor, normal, tangent) of one contact, as the simulator lays
    them out: an object vertex on the hand line, a hand tip on an object
    face, or an object vertex on the ground or a wall (facing -x at x =
    0.2)."""
    if kind == "vertex on hand":
        return tuple(BOX.vertices[index]), (0.01, 0.0), (0.0, -1.0), (1.0, 0.0)
    if kind == "tip on face":
        a, b = BOX.face_endpoints(index)
        e = (b - a) / np.hypot(*(b - a))
        return ((HALF if index % 2 else -HALF, 0.0), tuple(a),
                tuple(BOX.normals[index]), tuple(-e))
    if kind == "vertex on ground":
        return tuple(BOX.vertices[index]), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)
    return tuple(BOX.vertices[index]), (0.2, 0.03), (-1.0, 0.0), (0.0, 1.0)


def as_body(q):
    return (float(q[0]), float(q[1]), math.cos(q[2]), math.sin(q[2]))


def contact_factor(kind, index):
    """The primitive's gap x, gap y, normal gap and tangent gap as a factor
    of the point body's pose and, unless the line is the world's, the line
    body's pose (x, y, angle)."""
    data = contact_data(kind, index)
    if kind in ("vertex on ground", "vertex on wall"):
        def at(q):
            return point_on_line(as_body(q), (0.0, 0.0, 1.0, 0.0), *data)
        return Factor(("p",), lambda q: gap_rows(at(q)),
                      lambda q: [np.array(at(q).jacobian())[:, :3]], 1.0)

    def both(q, w):
        return point_on_line(as_body(q), as_body(w), *data)
    return Factor(("p", "l"), lambda q, w: gap_rows(both(q, w)),
                  lambda q, w: np.hsplit(np.array(both(q, w).jacobian()), 2),
                  1.0)


def gap_rows(c):
    return np.array([*c.gap, c.normal_gap, c.tangent_gap])


POSES = st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                  st.floats(-math.pi, math.pi))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["vertex on hand", "tip on face", "vertex on ground",
                        "vertex on wall"]), st.integers(0, 3), POSES, POSES)
def test_point_on_line_derivatives_match_central_differences(
        kind, index, point_pose, line_pose):
    # the analytic derivatives of the gap vector, the normal gap and the
    # tangential coordinate by both poses, against central differences
    factor = contact_factor(kind, index)
    values = [np.array(point_pose), np.array(line_pose)][:len(factor.var_ids)]
    assert jacobian_check(factor, values) < 1e-7


@given(st.sampled_from(["vertex on hand", "tip on face", "vertex on wall"]),
       st.integers(0, 3), POSES, POSES)
def test_point_on_line_geometry(kind, index, point_pose, line_pose):
    # the point is its body's transform of p, the gap is measured from the
    # line body's transform of the anchor, and the two gaps are its
    # components along the turned normal and tangent
    p, anchor, n, t = contact_data(kind, index)
    c = point_on_line(as_body(point_pose), as_body(line_pose), p, anchor, n, t)
    body, line = (PlanarPose(q[:2], q[2]) for q in (point_pose, line_pose))
    gap = body.transform(p) - line.transform(anchor)
    np.testing.assert_allclose(c.point, body.transform(p), rtol=0, atol=1e-15)
    np.testing.assert_allclose(c.gap, gap, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        [c.normal_gap, c.tangent_gap],
        [line.rotation @ n @ gap, line.rotation @ t @ gap], rtol=0, atol=1e-15)
