"""Contact classification: hand/ground/wall/slip labels, sim truth mapping."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccfg.config import NoiseConfig
from ccfg.core import (HandModel, PlanarPose, PolygonModel, Wall, WorldModel,
                       Wrench2, convex_hull, cross2, face_normals, hand_normal,
                       hand_tangent, transform_torque)
from ccfg.core.wrench import COP_FORCE_EPS
from ccfg.estimator import (EstimateView, Flush, ObjectLineHandPoint,
                            ObjectPointHandLine, PointOnLine, WallContact,
                            classify_ground, classify_hand, classify_slip,
                            classify_wall, from_sim_truth, ingest,
                            new_cone_estimate)
from ccfg.errors import DegenerateForce
from ccfg.estimator.classify import (COP_INTERIOR_FRAC, DELTA_EDGE,
                                     DELTA_LOWEST, DELTA_VERT,
                                     FORCE_THRESHOLD)
from ccfg.estimator.friction import ConeConstraint, WrenchConeEstimate
from ccfg.sim import ContactModeHypothesis, HandContact, SimWorld, step

BOX = PolygonModel([[-0.06, -0.04], [0.06, -0.04], [0.06, 0.04], [-0.06, 0.04]])
HALF_LEN = 0.05


def box_view(object_pose=PlanarPose([0.0, 0.04], 0.0), walls=()):
    R = object_pose.rotation
    verts = BOX.vertices @ R.T + object_pose.position
    return EstimateView(vertices=verts, ground_height=0.0,
                        hand_half_length=HALF_LEN, walls=tuple(walls))


def hand_wrench_at(point, force, hand_pose):
    """Wrench the hand applies through a single contact point, measured about
    the hand center."""
    r = np.asarray(point, dtype=float) - hand_pose.position
    tau = r[0] * force[1] - r[1] * force[0]
    return Wrench2(force, tau, hand_pose.position)


def flat_world(hand_pose):
    return SimWorld(polygon=BOX, object_pose=PlanarPose([0.0, 0.04], 0.0),
                    hand_pose=hand_pose, hand=HandModel(half_length=HALF_LEN),
                    world=WorldModel(ground_height=0.0),
                    mass=0.5, com=np.zeros(2), mu_hand=0.9, mu_ground=0.25,
                    mu_wall=0.3, stiffness=np.array([600.0, 600.0, 20.0]))


def test_estimate_view_rejects_nonfinite_or_misshaped_inputs():
    # A NaN vertex or ground height would otherwise come back from
    # classify_hand and classify_ground as a confident label.
    verts = box_view().vertices
    bad_verts = verts.copy()
    bad_verts[2, 1] = math.nan
    for kwargs in (dict(vertices=bad_verts),
                   dict(vertices=np.where(verts > 0, math.inf, verts)),
                   dict(vertices=verts[:2]),
                   dict(vertices=verts.ravel()),
                   dict(vertices=np.c_[verts, verts[:, :1]]),
                   dict(ground_height=math.nan),
                   dict(ground_height=math.inf),
                   dict(hand_half_length=0.0),
                   dict(hand_half_length=-HALF_LEN),
                   dict(hand_half_length=math.inf),
                   dict(hand_half_length=math.nan)):
        args = dict(vertices=verts, ground_height=0.0,
                    hand_half_length=HALF_LEN) | kwargs
        with pytest.raises(ValueError):
            EstimateView(**args)
    # a valid view keeps the caller's array as it is
    view = EstimateView(vertices=verts, ground_height=0.0,
                        hand_half_length=HALF_LEN)
    assert view.vertices is verts and verts.flags.writeable


def test_low_force_means_no_hand_contact():
    pose = PlanarPose([0.0, 0.08], 0.0)
    w = hand_wrench_at([0.0, 0.08], [0.0, -1.0], pose)
    assert classify_hand(w, pose, box_view()) is None


def test_cop_at_hand_endpoint_is_endpoint_contact():
    pose = PlanarPose([-0.1049, 0.08], 0.0)
    # only the +1 tip reaches over the face; all force goes through it
    tip = pose.position + HALF_LEN * hand_tangent(pose.angle)
    w = hand_wrench_at(tip, [0.0, -4.0], pose)
    label = classify_hand(w, pose, box_view())
    assert label == ObjectLineHandPoint(endpoint=1)


def test_centered_flat_press_is_flush_top_face():
    pose = PlanarPose([0.0, 0.08], 0.0)
    w = hand_wrench_at([0.0, 0.08], [0.0, -4.0], pose)
    assert classify_hand(w, pose, box_view()) == Flush(face=2)


def test_vertex_under_tilted_hand_matches_sim_truth():
    # Hand tilted nose-down to the right; its supporting contact on the box is
    # the top-right corner, which rides the hand interior.
    theta = -0.25
    t_hat = hand_tangent(theta)
    corner = np.array([0.06, 0.08])
    center = corner - 0.01 * t_hat
    sw = flat_world(PlanarPose(center, theta))
    target = PlanarPose(center + 6e-3 * hand_normal(theta), theta)
    sw, frame = step(sw, target)

    truth = frame.truth_label
    assert truth["hand_contact"]["kind"] == "vertex"
    assert truth["hand_contact"]["vertex"] == 2

    label = classify_hand(frame.wrench_meas, frame.hand_pose_meas, box_view())
    assert label == ObjectPointHandLine(vertex=2)


def test_corner_press_labels_match_sim_truth():
    # A flush press near the top face's right end whose commanded torque tips
    # the hand onto the box's top-right corner. Frames read as no contact are
    # left out; every other frame must carry sim truth's hand geometry.
    sw = flat_world(PlanarPose([0.045, 0.08], 0.0))
    labelled, truths = 0, set()
    for k in range(150):
        sw, frame = step(sw, PlanarPose([0.045, 0.076], -0.0002 * k))
        view = EstimateView(vertices=sw.vertices_world(), ground_height=0.0,
                            hand_half_length=HALF_LEN)
        truth = from_sim_truth(sw.contact_mode, view).hand_geometry
        truths.add(truth)
        label = classify_hand(frame.wrench_meas, frame.hand_pose_meas, view)
        if label is None:
            continue
        assert label == truth, f"step {k}: {label} but truth {truth}"
        labelled += 1
    assert truths == {Flush(2), ObjectPointHandLine(2)}
    assert labelled > 0


def test_ground_point_when_one_vertex_clearly_lowest():
    view = box_view(PlanarPose([0.0, 0.07], 0.35))
    w = Wrench2([0.0, -3.0], 0.0, [0.0, 0.12])
    assert classify_ground(view, w) == PointOnLine(vertex=0)


def test_ground_flush_under_centered_push():
    pose = PlanarPose([0.0, 0.08], 0.0)
    w = hand_wrench_at([0.0, 0.08], [0.0, -3.0], pose)
    assert classify_ground(box_view(), w) == Flush(face=0)


def test_ground_point_under_far_offset_push():
    # weightless COP lands at the push line x = 0.10, beyond the right edge
    pose = PlanarPose([0.10, 0.08], 0.0)
    w = Wrench2([0.0, -3.0], 0.0, pose.position)
    assert classify_ground(box_view(), w) == PointOnLine(vertex=1)
    # same magnitude from far left picks the other edge vertex
    w = Wrench2([0.0, -3.0], 0.0, [-0.10, 0.08])
    assert classify_ground(box_view(), w) == PointOnLine(vertex=0)


def test_wall_gate_closed_or_no_walls_returns_none():
    est = new_cone_estimate("ground", HALF_LEN)
    w = Wrench2([5.0, -3.0], 0.0)
    assert classify_wall(w, est, walls_active=False, view=box_view()) is None
    # gate short-circuits before any readiness check
    assert classify_wall(w, est, walls_active=True, view=box_view()) is None


def test_wall_detected_within_three_steps_of_truth():
    wall = Wall(0.12, -1)
    sw = SimWorld(polygon=BOX, object_pose=PlanarPose([0.0, 0.04], 0.0),
                  hand_pose=PlanarPose([0.0, 0.12], 0.0),
                  hand=HandModel(half_length=HALF_LEN),
                  world=WorldModel(ground_height=0.0, walls=(wall,)),
                  mass=0.5, com=np.zeros(2), mu_hand=0.9, mu_ground=0.25,
                  mu_wall=0.3, stiffness=np.array([600.0, 600.0, 20.0]))

    # settle onto the top face before pressing: a one-step plunge from 40 mm
    # above has no contact mode to catch it
    sw, _ = step(sw, PlanarPose([0.0, 0.0805], 0.0))

    cone = new_cone_estimate("ground", HALF_LEN)
    truth_step = None
    flagged_step = None
    for k in range(40):
        target = PlanarPose([0.002 * k, 0.076], 0.0)
        sw, frame = step(sw, target)
        walls_active = k > 22
        cone = ingest(cone, frame.wrench_meas, "ground",
                      external_contact_allowed=walls_active)
        view = EstimateView(vertices=sw.vertices_world(), ground_height=0.0,
                            hand_half_length=HALF_LEN, walls=(wall,))
        hit = classify_wall(frame.wrench_meas, cone, walls_active, view)
        truly_on = any(lab != "separate"
                       for *_, lab in frame.truth_label["walls"])
        if truly_on and truth_step is None:
            truth_step = k
        if walls_active and truth_step is None:
            assert hit is None, f"false wall alarm at step {k}"
        if hit is not None and flagged_step is None:
            flagged_step = k
            assert hit.wall_id == 0
    assert truth_step is not None, "drag never reached the wall"
    assert flagged_step is not None, "wall contact never flagged"
    assert abs(flagged_step - truth_step) <= 3


def drag_along_ground(wall, noise, seed):
    """The box drag of the wall test above, under measurement noise.

    Yields (step, classify_wall output, truth wall engaged) for every step
    after the ground cone freezes at step 23.
    """
    sw = SimWorld(polygon=BOX, object_pose=PlanarPose([0.0, 0.04], 0.0),
                  hand_pose=PlanarPose([0.0, 0.12], 0.0),
                  hand=HandModel(half_length=HALF_LEN),
                  world=WorldModel(ground_height=0.0, walls=(wall,)),
                  mass=0.5, com=np.zeros(2), mu_hand=0.9, mu_ground=0.25,
                  mu_wall=0.3, stiffness=np.array([600.0, 600.0, 20.0]))
    gen = np.random.default_rng(seed)
    sw, _ = step(sw, PlanarPose([0.0, 0.0805], 0.0), rng=gen, noise=noise)
    cone = new_cone_estimate("ground", HALF_LEN)
    for k in range(40):
        sw, frame = step(sw, PlanarPose([0.002 * k, 0.076], 0.0), rng=gen,
                         noise=noise)
        walls_active = k > 22
        cone = ingest(cone, frame.wrench_meas, "ground",
                      external_contact_allowed=walls_active)
        if not walls_active:
            continue
        view = EstimateView(vertices=sw.vertices_world(), ground_height=0.0,
                            hand_half_length=HALF_LEN, walls=(wall,))
        hit = classify_wall(frame.wrench_meas, cone, walls_active, view)
        truly_on = any(lab != "separate"
                       for *_, lab in frame.truth_label["walls"])
        yield k, hit, truly_on


def test_no_false_wall_alarm_under_default_noise():
    # the wall stands beyond the end of the drag, so the classifier is asked
    # every step but the only force besides ground friction is sensor noise
    for k, hit, truly_on in drag_along_ground(Wall(0.30, -1), NoiseConfig(),
                                              seed=0):
        assert not truly_on
        assert hit is None, f"false wall alarm at step {k}"


def test_wall_detected_under_low_noise():
    truth_step = flagged_step = None
    for k, hit, truly_on in drag_along_ground(
            Wall(0.12, -1), NoiseConfig().scaled(0.2), seed=0):
        if truly_on and truth_step is None:
            truth_step = k
        if truth_step is None:
            assert hit is None, f"false wall alarm at step {k}"
        if hit is not None and flagged_step is None:
            flagged_step = k
    assert truth_step is not None, "drag never reached the wall"
    assert flagged_step is not None, "wall contact never flagged"
    assert abs(flagged_step - truth_step) <= 3


def test_wall_contact_names_the_nearest_wall():
    # a ready ground cone, f_x <= 0, that a 5 N push to +x leaves by far more
    # than its threshold of 3 * 0.1 N
    cone = WrenchConeEstimate(
        context="ground", scale_length=HALF_LEN,
        constraints=(ConeConstraint(np.array([1.0, 0.0, 0.0])),),
        sample_count=50, noise_sigma=0.1)
    w = Wrench2([5.0, -3.0], 0.0)
    walls = (Wall(-0.30, 1), Wall(0.12, -1))
    # tilted so one vertex is nearest: vertex 1 sits 0.051 m from the right
    # wall, vertex 3 0.231 m from the left one
    right = box_view(PlanarPose([0.0, 0.05], 0.3), walls)
    assert classify_wall(w, cone, True, right) == WallContact(1, 1)
    # the same walls listed the other way round swap their ids
    swapped = box_view(PlanarPose([0.0, 0.05], 0.3), walls[::-1])
    assert classify_wall(w, cone, True, swapped) == WallContact(0, 1)
    # vertex 0 sits 0.081 m from the left wall, vertex 2 0.201 m from the
    # right one
    left = box_view(PlanarPose([-0.15, 0.05], -0.3), walls)
    assert classify_wall(w, cone, True, left) == WallContact(0, 0)
    for view in (right, swapped, left):
        dist, wid, v = min((abs(x - wall.x), wid, v)
                           for wid, wall in enumerate(view.walls)
                           for v, x in enumerate(view.vertices[:, 0]))
        assert classify_wall(w, cone, True, view) == WallContact(wid, v)


def test_slip_labels_need_motion_and_boundary_load():
    cone = WrenchConeEstimate(
        context="hand", scale_length=HALF_LEN,
        constraints=(ConeConstraint(np.array([1.0, 0.0, 0.0])),),
        sample_count=50)
    interior = Wrench2([-1.0, 5.0], 0.0)
    boundary = Wrench2([-0.1, 5.0], 0.0)
    assert classify_slip(cone, boundary, 0.0) == "stick"
    assert classify_slip(cone, interior, 3e-3) == "stick"
    assert classify_slip(cone, boundary, 3e-3) == "slide_pos"
    assert classify_slip(cone, boundary, -3e-3) == "slide_neg"
    assert classify_slip(None, boundary, 3e-3) == "slide_pos"
    # a NaN speed would otherwise read as "slide_neg"
    with pytest.raises(ValueError):
        classify_slip(None, boundary, float("nan"))


def test_from_sim_truth_mapping():
    view = box_view()
    mode = ContactModeHypothesis(
        "slide_neg", HandContact(kind="tip", face=2, tip=-1),
        ground=((0, "stick"), (1, "stick")), walls=((0, 1, "slide_pos"),))
    cfg = from_sim_truth(mode, view)
    assert cfg.hand_geometry == ObjectLineHandPoint(endpoint=-1)
    assert cfg.ground_geometry == Flush(face=0)
    assert cfg.wall_contact == WallContact(0, 1)
    assert cfg.hand_slip == "slide_neg"
    assert cfg.ground_slip == "stick"

    # vertices 3 and 0 share face 3, the last one
    wrap = ContactModeHypothesis("none", None,
                                 ground=((3, "slide_pos"), (0, "slide_pos")))
    assert from_sim_truth(wrap, view).ground_geometry == Flush(face=3)
    assert from_sim_truth(wrap, view).ground_slip == "slide_pos"

    quiet = ContactModeHypothesis("none", None,
                                  ground=((0, "separate"), (1, "separate")))
    cfg = from_sim_truth(quiet, view)
    assert cfg.hand_geometry is None
    assert cfg.wall_contact is None
    assert isinstance(cfg.ground_geometry, PointOnLine)


@pytest.mark.parametrize("contact,geometry", [
    (HandContact(kind="tip", face=2, tip=-1), ObjectLineHandPoint(-1)),
    (HandContact(kind="tip", face=0, tip=1), ObjectLineHandPoint(1)),
    (HandContact(kind="vertex", vertex=3), ObjectPointHandLine(3)),
    (HandContact(kind="flush", face=2,
                 anchors=((-0.01, -0.06, 0.04), (0.01, 0.06, 0.04))), Flush(2)),
    (HandContact(kind="pair", face=1, tip=1, vertex=2), Flush(1))])
def test_from_sim_truth_maps_each_hand_contact_kind(contact, geometry):
    mode = ContactModeHypothesis("slide_pos", contact,
                                 ((0, "stick"), (1, "stick")))
    cfg = from_sim_truth(mode, box_view())
    assert cfg.hand_geometry == geometry
    assert cfg.hand_slip == "slide_pos"


def test_from_sim_truth_needs_a_resolved_step():
    # the mode of a world no step has resolved: there is no truth to map,
    # and a default configuration would be scored as if there were
    with pytest.raises(ValueError):
        from_sim_truth(None, box_view())


@settings(max_examples=80, deadline=None)
@given(fx=st.floats(-8, 8), fy=st.floats(-8, 0.0), tau=st.floats(-0.3, 0.3),
       scale=st.floats(0.0, 1.0))
def test_force_threshold_monotone(fx, fy, tau, scale):
    # no contact below the threshold force, and a wrench scaled down from
    # one read as no contact stays no contact
    pose = PlanarPose([0.0, 0.08], 0.0)

    def label(s):
        w = Wrench2([s * fx, s * fy], s * tau, pose.position)
        return classify_hand(w, pose, box_view())

    full = label(1.0)
    assert (full is None) == (math.hypot(fx, fy) < FORCE_THRESHOLD)
    if full is None:
        assert label(scale) is None


# -- the float classifiers against their numpy originals ----------------------
#
# classify_hand and classify_ground once ran on numpy arrays. These are those
# versions, kept as the oracle, with one change: np.argsort is asked for a
# stable sort. Its default quicksort orders tied heights by the host's SIMD
# sort network, which on AVX-512 machines does not keep index order; the
# rule both versions keep is that of tied heights the lower index comes
# first.


def numpy_center_of_pressure(G, H, w):
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    chord = G - H
    span = float(np.hypot(chord[0], chord[1]))
    if span <= COP_FORCE_EPS:
        raise DegenerateForce("contact patch endpoints coincide")
    f_normal = cross2(chord, w.force) / span
    if abs(f_normal) <= COP_FORCE_EPS:
        raise DegenerateForce(
            f"normal force {f_normal:.3e} N too small for a center of pressure")
    tau_H = transform_torque(w, H).torque
    gamma = tau_H / cross2(chord, w.force)
    point = H + gamma * chord
    return point, float(gamma)


def numpy_hand_cop_offset(w_meas, hand_pose, half_length):
    t_hat = hand_tangent(hand_pose.angle)
    center = hand_pose.position
    tip_a = center - half_length * t_hat
    tip_b = center + half_length * t_hat
    point, _ = numpy_center_of_pressure(tip_a, tip_b, w_meas)
    return float(t_hat @ (point - center))


def numpy_classify_hand(w_meas, hand_pose, view):
    if float(np.hypot(*w_meas.force)) < FORCE_THRESHOLD:
        return None

    n_hat = hand_normal(hand_pose.angle)
    gaps = np.abs((view.vertices - hand_pose.position) @ n_hat)
    try:
        s = numpy_hand_cop_offset(w_meas, hand_pose, view.hand_half_length)
    except DegenerateForce:
        pass  # tangential-only load: no COP to reason from
    else:
        L = view.hand_half_length
        if abs(s - L) <= DELTA_EDGE or abs(s + L) <= DELTA_EDGE:
            return ObjectLineHandPoint(endpoint=1 if s > 0 else -1)
        t_hat = hand_tangent(hand_pose.angle)
        offsets = (view.vertices - hand_pose.position) @ t_hat
        near = np.nonzero(np.abs(offsets - s) <= DELTA_VERT)[0]
        if len(near):
            return ObjectPointHandLine(int(near[np.argmin(gaps[near])]))

    normals = face_normals(view.vertices)
    flush_face = int(np.argmin(normals @ n_hat))
    if float(normals[flush_face] @ n_hat) < -math.cos(0.1):
        return Flush(flush_face)
    return ObjectPointHandLine(int(np.argmin(gaps)))


def numpy_classify_ground(view, w_meas):
    verts = view.vertices
    ys = verts[:, 1]
    order = np.argsort(ys, kind="stable")
    lowest, second = int(order[0]), int(order[1])
    if ys[second] - ys[lowest] > DELTA_LOWEST:
        return PointOnLine(lowest)

    n = len(verts)
    if (lowest + 1) % n == second:
        face = lowest
    elif (second + 1) % n == lowest:
        face = second
    else:
        return PointOnLine(lowest)
    a, b = verts[face], verts[(face + 1) % n]

    F = w_meas.force
    c = w_meas.reference
    h = view.ground_height
    if float(np.hypot(*F)) < 1e-9:
        return Flush(face)
    if abs(F[1]) < 1e-9:
        near = face if abs(a[0] - c[0]) < abs(b[0] - c[0]) else (face + 1) % n
        return PointOnLine(near)

    x_star = c[0] - ((c[1] - h) * F[0] - w_meas.torque) / F[1]
    x_lo, x_hi = min(a[0], b[0]), max(a[0], b[0])
    margin = COP_INTERIOR_FRAC * (x_hi - x_lo)
    if x_lo + margin <= x_star <= x_hi - margin:
        return Flush(face)
    near = face if abs(a[0] - x_star) < abs(b[0] - x_star) else (face + 1) % n
    return PointOnLine(near)


def hand_outcome(label, w, pose, view):
    """Which step of classify_hand's cascade a label comes from."""
    if not isinstance(label, ObjectPointHandLine):
        return {type(None): "none", ObjectLineHandPoint: "endpoint",
                Flush: "flush"}[type(label)]
    try:
        s = numpy_hand_cop_offset(w, pose, view.hand_half_length)
    except DegenerateForce:
        return "fallback vertex"
    offsets = (view.vertices - pose.position) @ hand_tangent(pose.angle)
    near = (np.abs(offsets - s) <= DELTA_VERT).any()
    return "vertex" if near else "fallback vertex"


# Vertices lie on this grid before rotation, so level faces and tied heights
# are common. numpy's BLAS products round differently from Python floats on
# some hosts, so no draw may put a value within rounding of a tie or a band
# edge. A level hand computes the same bits both ways. Otherwise polygon and
# hand angles are kept apart (|polygon angle| >= 0.5 rad, |hand angle| <=
# 0.4 rad), or a hand parallel to a rotated level face would tie two gaps up
# to rounding. Hand half-lengths are a quarter millimetre off the millimetre
# grid and tip and vertex COPs an odd number of eighths off their target,
# so no COP lands on the edge of a DELTA_EDGE or DELTA_VERT band, whatever
# round number Hypothesis draws for the rest.
GRID = 2e-3
ORACLE_DRAWS = 1000
grid_points = st.lists(st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
                       min_size=3, max_size=8, unique=True)
polygon_angle = st.one_of(st.just(0.0), st.floats(0.5, 1.0),
                          st.floats(-1.0, -0.5))
hand_angle = st.one_of(st.just(0.0), st.floats(-0.4, 0.4))
lift = st.one_of(st.just(0.0), st.floats(0.0, 0.004))
weak_force = st.one_of(st.just(0.0), st.floats(0.0, 2.4))
tangential_force = st.one_of(st.floats(-20.0, -2.6), st.floats(2.6, 20.0))


@st.composite
def oracle_case(draw):
    hull = convex_hull(np.array(draw(grid_points), dtype=float) * GRID)
    assume(len(hull) >= 3)
    phi = draw(polygon_angle)
    shift = np.array([draw(st.floats(-0.2, 0.2)), draw(st.floats(0.0, 0.2))])
    c, s = math.cos(phi), math.sin(phi)
    x, y = hull[:, 0], hull[:, 1]
    verts = np.stack([c * x - s * y, s * x + c * y], axis=1) + shift
    half_length = (draw(st.integers(10, 59)) + 0.25) * 1e-3
    view = EstimateView(vertices=verts, ground_height=float(verts[:, 1].min()),
                        hand_half_length=half_length)

    # the hand line at or just above the vertex nearest to it, so every
    # vertex lies on the object side of it
    theta = draw(hand_angle)
    tx, ty = math.cos(theta), math.sin(theta)
    nx, ny = ty, -tx
    vx, vy = min(verts.tolist(), key=lambda v: v[0] * nx + v[1] * ny)
    up = draw(lift)
    along = draw(st.floats(-0.05, 0.05))
    pose = PlanarPose([vx - up * nx + along * tx, vy - up * ny + along * ty],
                      theta)

    # one pressing load with its COP at each tip and under each vertex, an
    # odd number of eighths of a millimetre off, and one anywhere on the
    # hand; a weak and a tangential-only load with that last COP
    t_hat, n_hat = np.array([tx, ty]), np.array([nx, ny])
    tip_off, vertex_off = (
        (draw(st.integers(-48, 47)) + 0.5) * 0.25e-3 for _ in range(2))
    cops = [-half_length + tip_off, half_length + tip_off]
    cops += [float((v - pose.position) @ t_hat) + vertex_off for v in verts]
    cops.append(draw(st.floats(-1.0, 1.0)) * half_length)
    press = draw(st.floats(2.6, 20.0))
    pressing = press * n_hat + draw(st.floats(-0.5, 0.5)) * press * t_hat
    loads = [(cop, pressing) for cop in cops]
    loads.append((cops[-1], draw(weak_force) * n_hat))
    loads.append((cops[-1], draw(tangential_force) * t_hat))
    wrenches = [hand_wrench_at(pose.position + cop * t_hat, force, pose)
                for cop, force in loads]
    return wrenches, pose, view


def test_float_classifiers_match_numpy_oracle():
    seen = set()

    @settings(max_examples=ORACLE_DRAWS, deadline=None)
    @given(oracle_case())
    def check(case):
        wrenches, pose, view = case
        for w in wrenches:
            hand = classify_hand(w, pose, view)
            assert hand == numpy_classify_hand(w, pose, view)
            ground = classify_ground(view, w)
            assert ground == numpy_classify_ground(view, w)
            seen.add(hand_outcome(hand, w, pose, view))
            seen.add("ground " + type(ground).__name__)

    check()
    assert seen == {"none", "endpoint", "vertex", "flush", "fallback vertex",
                    "ground PointOnLine", "ground Flush"}


def test_ties_go_to_the_lowest_index():
    # hand level over a level top face whose two vertices both project
    # within DELTA_VERT of the COP: their gaps are exactly equal
    top = np.array([[-0.004, 0.0], [0.004, 0.0], [0.004, 0.01],
                    [-0.004, 0.01]])
    view = EstimateView(vertices=top, ground_height=0.0,
                        hand_half_length=HALF_LEN)
    pose = PlanarPose([0.0, 0.011], 0.0)
    w = hand_wrench_at([0.001, 0.011], [0.0, -4.0], pose)
    assert classify_hand(w, pose, view) == ObjectPointHandLine(2)
    assert numpy_classify_hand(w, pose, view) == ObjectPointHandLine(2)
    # a flat roof: faces 2 and 3 both lie 0.05 rad off a level hand, and
    # the load has no COP
    roof = np.array([[-0.02, 0.0], [0.02, 0.0], [0.02, 0.01], [0.0, 0.011],
                     [-0.02, 0.01]])
    view = EstimateView(vertices=roof, ground_height=0.0,
                        hand_half_length=HALF_LEN)
    pose = PlanarPose([0.0, 0.012], 0.0)
    w = Wrench2([4.0, 0.0], 0.0, pose.position)
    assert classify_hand(w, pose, view) == Flush(2)
    assert numpy_classify_hand(w, pose, view) == Flush(2)
    # a shallow keel: vertex 0 lowest, vertices 1 and 3 tie for second, and
    # whichever ranks first names the face
    keel = np.array([[0.0, 0.0], [0.03, 0.002], [0.0, 0.03], [-0.03, 0.002]])
    view = EstimateView(vertices=keel, ground_height=0.0,
                        hand_half_length=HALF_LEN)
    w = Wrench2([0.0, -3.0], 0.0, [0.02, 0.04])
    assert classify_ground(view, w) == Flush(0)
    assert numpy_classify_ground(view, w) == Flush(0)
