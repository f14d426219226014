"""Contact classification: hand/ground/wall/slip labels, sim truth mapping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfg.config import NoiseConfig
from ccfg.core import (HandModel, PlanarPose, PolygonModel, Wall, WorldModel,
                       Wrench2, hand_normal, hand_tangent)
from ccfg.estimator import (EstimateView, Flush, ObjectLineHandPoint,
                            ObjectPointHandLine, PointOnLine, WallContact,
                            classify_ground, classify_hand, classify_slip,
                            classify_wall, from_sim_truth, ingest,
                            new_cone_estimate)
from ccfg.estimator.classify import FORCE_THRESHOLD
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
    assert (full is None) == (np.hypot(fx, fy) < FORCE_THRESHOLD)
    if full is None:
        assert label(scale) is None
