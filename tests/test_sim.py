"""Plant tests: mode enumeration, statics oracles, refusals, sensor synthesis.

The numeric anchors here are closed-form statics worked out by hand for box
rigs (weight splits, Coulomb thresholds, spring balances), not values copied
back from the solver.
"""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter, namedtuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import ccfg.sim.engine as engine
import ccfg.sim.resolve as resolve
from ccfg.config import NoiseConfig, ZERO_NOISE
from ccfg.core import (HandModel, PlanarPose, PolygonModel, Wall, WorldModel,
                       cross2, hand_tangent, rotation)
from ccfg.errors import InvariantViolation, JammedConfiguration, NoFeasibleMode
from ccfg.sim import (Observation, SimWorld, enumerate_modes, resolve_mode,
                      step, synthesize_measurements)
from ccfg.sim.modes import (ACTIVE_LABELS, ContactModeHypothesis,
                             _hand_candidates)
from ccfg.sim.resolve import (_HAND, _OBJ, _WORLD, _Batch, _ContactRows,
                              _Reference, _steps, _system)
from ccfg.sim.world import penetration_depth

BOX = PolygonModel([[-0.06, -0.04], [0.06, -0.04], [0.06, 0.04], [-0.06, 0.04]])
MASS = 0.5
WEIGHT = MASS * 9.81  # 4.905 N


def make_world(obj_pose, hand_pose, **overrides):
    kw = dict(polygon=BOX, object_pose=obj_pose, hand_pose=hand_pose,
              hand=HandModel(half_length=0.05),
              world=WorldModel(ground_height=0.0),
              mass=MASS, com=np.zeros(2),
              mu_hand=0.9, mu_ground=0.25, mu_wall=0.3,
              stiffness=np.array([600.0, 600.0, 20.0]))
    kw.update(overrides)
    return SimWorld(**kw)


def resting_world():
    # box sitting on the ground, hand hovering well above it
    return make_world(PlanarPose([0.0, 0.04], 0.0), PlanarPose([0.0, 0.12], 0.0))


def flush_world(hand_y=0.0800):
    # hand lying on the top face (face y = 0.08), covering x in [-0.05, 0.05]
    return make_world(PlanarPose([0.0, 0.04], 0.0), PlanarPose([0.0, hand_y], 0.0))


# Per-step resolver outputs of test_corner_handoff_during_long_drag and
# test_step_sequence_deterministic, recorded with the per-hypothesis Newton
# solver that the batched one replaced: chosen mode, trial count, rejection
# histogram, and object and hand poses (x, y, angle) after the step.
RECORDED = json.loads((Path(__file__).parent / "data"
                       / "resolver_regression.json").read_text())


def tap_solutions(monkeypatch):
    """Collect the ModeSolution of every step() call."""
    sols = []

    def tapped(*args, **kwargs):
        sols.append(resolve_mode(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(engine, "resolve_mode", tapped)
    return sols


def assert_matches_recording(sols, worlds, recorded):
    """Same modes, trial counts and rejection histograms as recorded, and
    poses (and flush anchors) within 1e-12."""
    assert len(sols) == len(worlds) == len(recorded)
    for sol, sw, rec in zip(sols, worlds, recorded):
        mode, want = sol.hypothesis.to_json(), dict(rec["mode"])
        got_contact, want_contact = dict(mode.pop("hand_contact") or {}), \
            dict(want.pop("hand_contact") or {})
        np.testing.assert_allclose(got_contact.pop("anchors", []),
                                   want_contact.pop("anchors", []),
                                   rtol=0, atol=1e-12)
        assert (mode, got_contact) == (want, want_contact)
        assert sol.trials == rec["trials"]
        assert sol.rejections == rec["rejections"]
        np.testing.assert_allclose(sw.object_pose.as_vector(),
                                   rec["object_pose"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(sw.hand_pose.as_vector(),
                                   rec["hand_pose"], rtol=0, atol=1e-12)


# one hypothesis's trial in a pass: its reason ("" when feasible), its
# evaluations of R and, when feasible, what the report needs of it
Trial = namedtuple("Trial", "hyp reason evaluations solution")


def pass_trials(solved):
    """The trials of a pass that resolve._solve_pass returned, in order."""
    return [Trial(h, resolve._REASONS[code], n, solved.solutions.get(i))
            for i, (h, code, n) in enumerate(zip(
                solved.hyps, solved.reasons.tolist(),
                solved.evaluations.tolist()))]


def solve_pass(sw, target, hyps):
    """One resolver pass over hyps, as trials."""
    return pass_trials(resolve._solve_pass(sw, target, hyps))


def laid_out(sw, hyps):
    """A table of sw's contacts and hyps laid out on it, with each
    hypothesis's tuple of columns."""
    build = _ContactRows(sw)
    lay = build.layout(hyps, WEIGHT)
    return build, lay, [tuple(row[:n].tolist())
                        for row, n in zip(lay.index, lay.counts)]


def net_wrench_residual(sw, sol):
    """Independent statics check: sum of all forces and torques on the object.

    Uses only the reported contact records plus gravity, so it catches any
    bookkeeping slip between the solve and the published forces.
    """
    F = np.array([0.0, -sw.mass * sw.world.gravity])
    com_w = sol.object_pose.transform(sw.com)
    tau = cross2(com_w, np.array([0.0, -sw.mass * sw.world.gravity]))
    for c in sol.contacts:
        f = np.asarray(c.force)
        F = F + f
        tau += cross2(np.asarray(c.point), f)
    return float(np.hypot(*F)), float(abs(tau))


def env_force(sol):
    """The summed force of the ground and wall contact records."""
    return np.sum([c.force for c in sol.contacts if c.iface != "hand"], axis=0)


@pytest.mark.parametrize("bad", [
    dict(mass=0.0), dict(mass=np.nan), dict(mass=np.inf),
    dict(com=[np.nan, 0.0]), dict(com=[0.0, -np.inf]),
    dict(stiffness=[600.0, np.nan, 20.0]),
    dict(stiffness=[np.inf, 600.0, 20.0]),
    dict(mu_hand=-0.1), dict(mu_ground=np.nan), dict(mu_wall=np.inf)])
def test_world_rejects_nonphysical_parameters(bad):
    # unchecked, a NaN mass or com ends as NoFeasibleMode, a NaN mu_ground as
    # a LAPACK error and a negative mu_hand as InvariantViolation
    with pytest.raises(ValueError):
        make_world(PlanarPose([0.0, 0.04], 0.0), PlanarPose([0.0, 0.12], 0.0),
                   **bad)
    # a frictionless interface is physical
    make_world(PlanarPose([0.0, 0.04], 0.0), PlanarPose([0.0, 0.12], 0.0),
               mu_hand=0.0, mu_ground=0.0, mu_wall=0.0)


# ---------------------------------------------------------------- enumeration

def test_resting_enumeration():
    hyps = enumerate_modes(resting_world())
    # hand far away: 2 ground vertices within the band, nothing else.
    # 1 all-separate + 9 non-trivial pairings of the shared tangential label.
    assert len(hyps) == 10
    assert hyps[0].active_count() == 0
    assert all(h.active_count() > 0 for h in hyps[1:])


def test_flush_enumeration_breakdown():
    hyps = enumerate_modes(flush_world(0.0805))
    kinds = Counter(h.hand_mode for h in hyps)
    assert len(hyps) == 60
    assert kinds == {"no_contact": 10, "stick_flush": 10, "slide_pos_flush": 10,
                     "slide_neg_flush": 10, "stick_point": 20}
    # flush suppression: the covered tip candidates keep only their stick label
    point_hyps = [h for h in hyps if h.hand_mode == "stick_point"]
    assert all(h.hand_contact.kind == "tip" for h in point_hyps)


def test_vertex_on_ground_and_wall_must_double_stick():
    w = WorldModel(ground_height=0.0, walls=(Wall(0.0601, -1),))
    sw = make_world(PlanarPose([0.0, 0.04], 0.0), PlanarPose([0.0, 0.2], 0.0),
                    world=w)
    hyps = enumerate_modes(sw)
    # the corner vertex sits in both the ground band and the wall band; when
    # a hypothesis activates it on both interfaces, both labels must be stick
    saw_double = 0
    for h in hyps:
        ground = {v: lab for v, lab in h.ground}
        for _, v, lab in h.walls:
            if (v in ground and ground[v] != "separate"
                    and lab != "separate"):
                assert ground[v] == "stick" and lab == "stick"
                saw_double += 1
    assert saw_double > 0


def test_tip_candidates_come_tip_major():
    # a house-shaped pentagon whose roof, two faces 0.6 degrees off flat,
    # faces the level hand resting on its ridge: the left tip (-1) lies
    # within the band of the left roof face (3), the right tip (+1) within
    # that of the right one (2).  The face sweep meets face 2 first; sorted,
    # the candidates, and so the hypotheses and their to_json() order, come
    # tip by tip
    house = PolygonModel([[-0.06, -0.04], [0.06, -0.04], [0.06, 0.04],
                          [0.0, 0.0406], [-0.06, 0.04]])
    sw = make_world(PlanarPose([0.0, 0.04], 0.0),
                    PlanarPose([0.0, 0.0806], 0.0), polygon=house)
    assert _hand_candidates(sw, sw.vertices_world(), 1e-3)[1] \
        == [(-1, 3), (1, 2)]
    seen = []
    for h in enumerate_modes(sw):
        hc = h.hand_contact
        if hc is not None and hc.kind in ("tip", "pair") and (
                hc.kind, hc.face, hc.tip, hc.vertex) not in seen:
            seen.append((hc.kind, hc.face, hc.tip, hc.vertex))
    assert seen == [("tip", 3, -1, -1), ("tip", 2, 1, -1),
                    ("pair", 3, -1, 3), ("pair", 2, 1, 3)]


# -------------------------------------------------------------- statics oracles

def test_resting_box_statics():
    sw = resting_world()
    sol = resolve_mode(sw, sw.hand_pose)
    assert sol.hypothesis.hand_mode == "no_contact"
    np.testing.assert_allclose(env_force(sol), [0.0, WEIGHT], atol=1e-9)
    np.testing.assert_allclose(sol.hand_wrench.force, [0.0, 0.0], atol=1e-12)
    # symmetric box: weight splits evenly over the two ground vertices
    fns = sorted(c.f_normal for c in sol.contacts)
    assert fns == pytest.approx([WEIGHT / 2, WEIGHT / 2], abs=1e-9)
    fres, tres = net_wrench_residual(sw, sol)
    assert fres < 1e-9 and tres < 1e-9


def test_flush_press_force_split():
    # hand starts 0.5 mm above the face, target 1 mm below it: the hand lands
    # on the face and the remaining spring stretch of 1 mm gives 0.6 N press
    sw = flush_world(0.0805)
    sol = resolve_mode(sw, PlanarPose([0.0, 0.079], 0.0))
    assert sol.hypothesis.hand_mode == "stick_flush"
    hand_fn = sorted(c.f_normal for c in sol.contacts if c.iface == "hand")
    grd_fn = sorted(c.f_normal for c in sol.contacts if c.iface == "ground")
    assert hand_fn == pytest.approx([0.3, 0.3], abs=1e-9)
    assert grd_fn == pytest.approx([(WEIGHT + 0.6) / 2] * 2, abs=1e-9)
    np.testing.assert_allclose(env_force(sol), [0.0, WEIGHT + 0.6],
                               atol=1e-9)
    fres, tres = net_wrench_residual(sw, sol)
    assert fres < 1e-9 and tres < 1e-9


def test_hand_slide_boundary():
    # 0.6 N press, lateral command 1 mm.  Full stick would need 0.6 N of
    # friction but the cone caps at 0.9 * 0.6 = 0.54 N, so the hand slides
    # and settles where spring pull equals the cone: dx = 1 - 0.54/0.6 mm.
    sw = flush_world(0.0800)
    sol = resolve_mode(sw, PlanarPose([0.001, 0.079], 0.0))
    assert sol.hypothesis.hand_mode == "slide_neg_flush"
    hand = [c for c in sol.contacts if c.iface == "hand"]
    for c in hand:
        assert abs(c.f_tangent) == pytest.approx(0.9 * c.f_normal, rel=1e-9)
    assert sol.hand_pose.position[0] == pytest.approx(1e-4, abs=1e-9)
    assert sol.object_pose.position[0] == pytest.approx(0.0, abs=1e-12)
    assert sum(abs(c.slip) for c in hand) == pytest.approx(2e-4, rel=1e-6)


def test_ground_slide_coulomb():
    # 15 N press locks the hand to the box; the pair slides on the ground.
    # Lateral balance: k (cmd - dx) = mu_g (weight + press).
    press, cmd = 15.0, 0.020
    sw = flush_world(0.0800)
    tgt = PlanarPose([cmd, 0.0800 - press / 600.0], 0.0)
    sol = resolve_mode(sw, tgt)
    assert sol.hypothesis.hand_mode == "stick_flush"
    grd = [c for c in sol.contacts if c.iface == "ground"]
    assert [c.label for c in grd] == ["slide_pos", "slide_pos"]
    for c in grd:
        assert c.f_tangent / c.f_normal == pytest.approx(-0.25, rel=1e-9)
    dx_expect = cmd - 0.25 * (WEIGHT + press) / 600.0
    assert sol.object_pose.position[0] == pytest.approx(dx_expect, rel=1e-9)
    fres, tres = net_wrench_residual(sw, sol)
    assert fres < 1e-8 and tres < 1e-8


def test_resolve_is_a_fixed_point():
    sw = flush_world(0.0800)
    tgt = PlanarPose([0.020, 0.0800 - 15.0 / 600.0], 0.0)
    s1 = resolve_mode(sw, tgt)
    s2 = resolve_mode(sw.with_poses(s1.object_pose, s1.hand_pose), tgt)
    assert np.hypot(*(np.asarray(s2.object_pose.position)
                      - s1.object_pose.position)) < 1e-12
    assert np.hypot(*(np.asarray(s2.hand_pose.position)
                      - s1.hand_pose.position)) < 1e-12
    assert abs(s2.object_pose.angle - s1.object_pose.angle) < 1e-13
    # once settled nothing moves, so the sticky relabel costs nothing
    assert s2.dissipation == 0.0


# ----------------------------------------------------------------- pivoting

def tipped_rig(kth=60.0):
    """Box tipped -0.2 rad onto its bottom-right corner, hand flush on top."""
    th = -0.2
    corner = np.array([0.06, -0.04])
    R = rotation(th)
    obj = PlanarPose(np.array([corner[0], 0.0]) - R @ corner, th)
    top_mid = obj.transform(np.array([0.0, 0.04]))
    sw = make_world(obj, PlanarPose(top_mid, th),
                    mu_hand=1.2, mu_ground=0.9,
                    stiffness=np.array([600.0, 600.0, kth]))
    hold = PlanarPose(top_mid + R @ np.array([0.0052, -0.009]), th)
    return sw, corner, obj.transform(corner), hold, th


def test_pivot_corner_stays_pinned():
    sw, corner, corner_w, hold, th = tipped_rig()
    assert sw.penetration_depth() >= -1e-12
    held = resolve_mode(sw, hold)
    assert held.hypothesis.hand_mode == "stick_point"
    assert [c.label for c in held.contacts if c.iface == "ground"] == ["stick"]

    sw = sw.with_poses(held.object_pose, held.hand_pose)
    angles = [held.object_pose.angle]
    for dth in (-0.03, -0.06):
        Rd = rotation(dth)
        tgt = PlanarPose(corner_w + Rd @ (np.asarray(hold.position) - corner_w),
                         th + dth)
        sol = resolve_mode(sw, tgt)
        drift = np.hypot(*(sol.object_pose.transform(corner) - corner_w))
        assert drift < 1e-9
        assert sol.hypothesis.hand_mode == "stick_point"
        angles.append(sol.object_pose.angle)
    # rotation follows the command direction without reaching it (the angular
    # spring yields against gravity's restoring torque)
    assert angles[1] < angles[0] and angles[2] < angles[1]
    assert angles[2] > th - 0.06


# The state before the step of the twenty-step pivot below that no
# hypothesis resolves: object and hand pose and the target (x, y, angle).
# The top face lies about 4e-4 rad off the hand line here; the tip gives way
# to the flush contact, and no enumerated hypothesis is feasible.
PIVOT_STALL = {
    "object_pose": [0.01649867159324531, 0.057512037234371004,
                    -0.33521777019993504],
    "hand_pose": [0.02966431179904864, 0.09530465344752402,
                  -0.33562164882803514],
    "target": [0.03372432462498057, 0.0857533024646083, -0.36],
}


@pytest.mark.xfail(strict=True, raises=NoFeasibleMode,
                   reason="the tip-to-flush transition of a pivot has no "
                          "feasible hypothesis")
def test_pivot_keeps_its_corner_pinned_for_twenty_steps():
    # twenty -0.02 rad turns of the target about the pinned corner. The 8th
    # resolve, at object angle -0.33522 rad, raises NoFeasibleMode over 88
    # hypotheses (no_converge 48, negative_normal 31, off_segment 4,
    # slip_direction 3, cone 1, tip_inside 1); steps of 0.005 and 0.01 rad
    # stop at the same angle. The first pass's flush candidate on face 2 has
    # its anchors 0.100000008156 m apart on the object where the hand spaces
    # them 0.1 m; as patches, its four stick hypotheses run Newton and end
    # negative_normal (3) or off_segment (1).
    sw, corner, corner_w, hold, th = tipped_rig()
    held = resolve_mode(sw, hold)
    sw = sw.with_poses(held.object_pose, held.hand_pose)
    for k in range(1, 21):
        Rd = rotation(-0.02 * k)
        tgt = PlanarPose(corner_w + Rd @ (np.asarray(hold.position) - corner_w),
                         th - 0.02 * k)
        if k == 8:
            np.testing.assert_allclose(
                [sw.object_pose.as_vector(), sw.hand_pose.as_vector(),
                 tgt.as_vector()],
                [PIVOT_STALL[key] for key in ("object_pose", "hand_pose",
                                              "target")], rtol=0, atol=1e-12)
        sol = resolve_mode(sw, tgt)
        assert np.hypot(*(sol.object_pose.transform(corner) - corner_w)) \
            < 1e-9
        sw = sw.with_poses(sol.object_pose, sol.hand_pose)


def test_corner_handoff_during_long_drag(monkeypatch):
    # dragging the hand along the top face and off its right corner walks
    # through three support regimes and then releases; the lateral hand lag
    # equals the Coulomb offset mu_h * f_press / k the whole way through
    sols = tap_solutions(monkeypatch)
    sw = flush_world(0.0800)
    gen = np.random.default_rng(4)
    kinds, worlds, firsts = [], [], []
    for k in range(1, 241):
        tgt = PlanarPose([0.0005 * k, 0.0785], 0.0)
        before = sw
        sw, _ = step(sw, tgt, rng=gen)
        worlds.append(sw)
        hc = sw.contact_label["hand_contact"] or {}
        kind = hc.get("kind")
        if not kinds or kinds[-1] != kind:
            kinds.append(kind)
            firsts.append((before, tgt, sols[-1]))
    assert kinds == ["flush", "pair", "vertex", None]
    # object never recruited: ground friction exceeds the hand's drag
    assert abs(sw.object_pose.position[0]) < 1e-9
    assert sw.hand_pose.position[0] == pytest.approx(0.0005 * 240, abs=1e-9)
    assert_matches_recording(sols, worlds,
                             RECORDED["corner_handoff_during_long_drag"])

    # the batch accounts for every hypothesis: solved one at a time, each is
    # feasible or rejected for the reason the batch counted; a trial costs at
    # least one Jacobian unless it was screened out before Newton ran
    for sol in sols:
        assert 0 < sum(sol.rejections.values()) < sol.trials
        assert sol.newton_iterations >= sol.trials - sol.screened
        assert sol.screened <= sol.rejections.get("no_converge", 0)
    # the weight screen rejects the same seven label sets at every step, and
    # nothing else is screened: a stick flush patch pins one end only, so
    # the misfit screen has no pair to check
    assert Counter(sol.screened for sol in sols) == {7: 240}
    for before, tgt, sol in firsts[:3]:
        hyps = enumerate_modes(before)
        assert len(hyps) == sol.trials
        feasible, rejected = 0, Counter()
        for h in hyps:
            [trial] = solve_pass(before, tgt, [h])
            if trial.reason:
                rejected[trial.reason] += 1
            else:
                feasible += 1
        assert rejected == sol.rejections
        assert sum(sol.rejections.values()) + feasible == sol.trials


def test_short_face_slide_uses_corner_pair():
    # a face narrower than the hand can only slide on its two corners
    slab = PolygonModel([[-0.03, -0.02], [0.03, -0.02], [0.03, 0.02],
                         [-0.03, 0.02]])
    sw = SimWorld(polygon=slab, object_pose=PlanarPose([0.0, 0.02], 0.0),
                  hand_pose=PlanarPose([0.0, 0.0400], 0.0),
                  hand=HandModel(half_length=0.05),
                  world=WorldModel(ground_height=0.0), mass=0.4,
                  com=np.zeros(2), mu_hand=0.2, mu_ground=0.9, mu_wall=0.3,
                  stiffness=np.array([600.0, 600.0, 20.0]))
    sol = resolve_mode(sw, PlanarPose([0.004, 0.0385], 0.0))
    assert sol.hypothesis.hand_mode == "slide_neg_flush"
    assert sol.hypothesis.hand_contact.kind == "pair"
    assert sol.hypothesis.hand_contact.tip == 0
    hand = [c for c in sol.contacts if c.iface == "hand"]
    assert len(hand) == 2
    for c in hand:
        assert abs(c.f_tangent) == pytest.approx(0.2 * c.f_normal, rel=1e-9)
    fres, tres = net_wrench_residual(sw, sol)
    assert fres < 1e-8 and tres < 1e-8


# ----------------------------------------------------------------- refusals

def test_toppling_command_has_no_static_answer():
    # tall thin box shoved sideways at height: every candidate mode either
    # tips through the hand or violates its friction cone
    tall = PolygonModel([[-0.01, -0.08], [0.01, -0.08],
                         [0.01, 0.08], [-0.01, 0.08]])
    sw = SimWorld(polygon=tall, object_pose=PlanarPose([0.0, 0.08], 0.0),
                  hand_pose=PlanarPose([-0.0102, 0.10], np.pi / 2),
                  hand=HandModel(half_length=0.06),
                  world=WorldModel(ground_height=0.0), mass=0.3,
                  com=np.zeros(2), mu_hand=0.3, mu_ground=0.9, mu_wall=0.3,
                  stiffness=np.array([600.0, 600.0, 20.0]))
    with pytest.raises(NoFeasibleMode) as exc:
        resolve_mode(sw, PlanarPose([0.005, 0.10], np.pi / 2))
    assert len(exc.value.diagnostics) > 0


def test_crush_against_wall_jams():
    w = WorldModel(ground_height=0.0, walls=(Wall(0.0605, -1),))
    sw = make_world(PlanarPose([0.0, 0.04], 0.0), PlanarPose([0.0, 0.0800], 0.0),
                    world=w)
    with pytest.raises(JammedConfiguration) as exc:
        resolve_mode(sw, PlanarPose([200.0, 0.055], 0.0))
    reasons = {d["reason"] for d in exc.value.diagnostics}
    assert "force_bound" in reasons


# ------------------------------------------------------------ newton system

def test_contact_jacobian_matches_finite_differences():
    # one batch mixing every kind of contact row: object points on the hand
    # line and hand tips on an object face (stick and slide), and object
    # vertices on the ground and on a wall (stick and slide), and the free
    # ends of stick patches on the hand, the ground and the wall
    w = WorldModel(ground_height=0.0, walls=(Wall(0.0605, -1),))
    sw = make_world(PlanarPose([0.0, 0.04], 0.0),
                    PlanarPose([0.03, 0.0805], 0.0), world=w)
    tgt = PlanarPose([0.032, 0.079], 0.01)
    hyps = enumerate_modes(sw, suppress_overlaps=False)
    build, _, cols = laid_out(sw, hyps)
    picked, kinds = [], set()
    for h, c in zip(hyps, cols):
        new = {(row[0], row[1], iface[:4], label == "stick",
                row[resolve._FREE]) for row, (iface, label)
               in map(build.rows.__getitem__, c)} - kinds
        if new:
            picked.append(h)
            kinds |= new
    want = {(_OBJ, _HAND, "hand"), (_HAND, _OBJ, "hand"),
            (_OBJ, _WORLD, "grou"), (_OBJ, _WORLD, "wall")}
    assert {(pb, lb, where, stick, False) for pb, lb, where in want
            for stick in (True, False)} <= kinds
    assert {(_OBJ, lb, where, True, True) for _, lb, where in want
            if lb != _OBJ} <= kinds

    build, lay, _ = laid_out(sw, picked)
    batch = _Batch(build, lay.index)
    ref = _Reference(sw, tgt)
    rng = np.random.default_rng(11)
    M, n = len(picked), 6 + 2 * batch.slots
    z = np.concatenate([rng.normal(0.0, 1e-3, (M, 6)),
                        rng.normal(0.0, 1.0, (M, n - 6))], axis=1)
    _, J = _system(z, ref, batch)
    J_fd = np.empty_like(J)
    h_step = 1e-6
    for k in range(n):
        dz = np.zeros(n)
        dz[k] = h_step
        rp, _ = _system(z + dz, ref, batch)
        rm, _ = _system(z - dz, ref, batch)
        J_fd[:, :, k] = (rp - rm) / (2 * h_step)
    for i, count in enumerate(batch.counts):
        m = 6 + 2 * count
        scale = 1.0 + np.abs(J[i, :m, :m])
        assert np.max(np.abs(J[i, :m, :m] - J_fd[i, :m, :m]) / scale) < 1e-6
    assert M >= 8


# ------------------------------------------------ recorded passes and screen

# The state before every step of the wall drag of tests/test_classify.py, at
# walls x = 0.120, 0.122 and 0.124 m: object pose, hand pose and the step's
# target (x, y, angle), each episode ending 15 steps after the box first
# touches the wall.
WALL_DRAG = json.loads((Path(__file__).parent / "data"
                        / "wall_drag_states.json").read_text())


def drag_states():
    """(world, target) before every step of the long drag, from the
    recorded poses of test_corner_handoff_during_long_drag."""
    sw = flush_world(0.0800)
    states = [(sw, PlanarPose([0.0005, 0.0785], 0.0))]
    for k, rec in enumerate(RECORDED["corner_handoff_during_long_drag"][:-1],
                            start=2):
        states.append((sw.with_poses(PlanarPose.from_vector(rec["object_pose"]),
                                     PlanarPose.from_vector(rec["hand_pose"])),
                       PlanarPose([0.0005 * k, 0.0785], 0.0)))
    return states


def wall_states():
    states = []
    for wall_x, steps in WALL_DRAG.items():
        w = WorldModel(ground_height=0.0, walls=(Wall(float(wall_x), -1),))
        states += [(make_world(PlanarPose.from_vector(obj),
                               PlanarPose.from_vector(hand), world=w),
                    PlanarPose.from_vector(target))
                   for obj, hand, target in steps]
    return states


def pivot_states():
    """The three resolves of test_pivot_corner_stays_pinned."""
    sw, _, corner_w, hold, th = tipped_rig()
    states = [(sw, hold)]
    for dth in (-0.03, -0.06):
        sol = resolve_mode(*states[-1])
        Rd = rotation(dth)
        states.append((sw.with_poses(sol.object_pose, sol.hand_pose),
                       PlanarPose(corner_w + Rd @ (np.asarray(hold.position)
                                                   - corner_w), th + dth)))
    return states


# resolve_mode's outputs on each of wall_states(), recorded before the
# resolver's contacts became one table per pass: the chosen mode, trial
# count, rejection histogram, screened count, Newton evaluations and stacked
# evaluations, the object and hand poses, and (f_n, f_t) per contact record.
WALL_RECORDED = json.loads((Path(__file__).parent / "data"
                            / "wall_regression.json").read_text())


def test_wall_states_match_recording():
    # the counts exactly; poses, flush anchors and forces within 1e-12
    sols = [resolve_mode(sw, target) for sw, target in wall_states()]
    assert_matches_recording(
        sols, [sw.with_poses(s.object_pose, s.hand_pose)
               for s, (sw, _) in zip(sols, wall_states())], WALL_RECORDED)
    for sol, rec in zip(sols, WALL_RECORDED):
        assert (sol.screened, sol.newton_iterations, sol.stacked_evaluations) \
            == (rec["screened"], rec["newton_iterations"],
                rec["stacked_evaluations"])
        np.testing.assert_allclose(
            [(c.f_normal, c.f_tangent) for c in sol.contacts],
            np.reshape(rec["forces"], (-1, 2)), rtol=0, atol=1e-12)
    assert len(sols) == 150


def test_chosen_mode_ignores_hypothesis_order():
    # the resolver's tie-break is a key of the hypothesis, not its list
    # index: on the recorded drag and wall states, enumerating every pass
    # in reverse chooses the same mode and the same poses, also on the
    # three states whose mode only the fallback pass finds
    def reversed_modes(*args, **kwargs):
        return enumerate_modes(*args, **kwargs)[::-1]

    states = drag_states()[::2] + wall_states()[::2]
    for sw, target in states:
        sol = resolve_mode(sw, target)
        with mock.patch.object(resolve, "enumerate_modes", reversed_modes):
            rev = resolve_mode(sw, target)
        assert rev.hypothesis == sol.hypothesis
        assert rev.object_pose.as_vector().tolist() \
            == sol.object_pose.as_vector().tolist()
        assert rev.hand_pose.as_vector().tolist() \
            == sol.hand_pose.as_vector().tolist()
    assert len(states) == 195


# sha256 over the states of drag_states() + wall_states() + pivot_states()
# of repr([h.to_json() for h in enumerate_modes(sw, **settings)]): the
# default pass and the fallback pass's settings at two bands
ENUMERATION_DIGESTS = {
    "default": (
        {}, "43565b15148084fa894f5d07a1988f548f8c4d646ceb628739f6c5381bea2b9b"),
    "fallback_band_0.003": (
        dict(band=0.003, suppress_overlaps=False),
        "ee3c18785be541d1fe0eaae2e2233f3fab0b5560f6e2232cfecadce8ef2ce233"),
    "fallback_band_0.01": (
        dict(band=0.01, suppress_overlaps=False),
        "2ad7f73f1d27f83060d3ab16268fbfbd61cba4f1dfa1853520be84a6792f3774"),
}


@pytest.mark.parametrize("setting", sorted(ENUMERATION_DIGESTS))
def test_enumeration_matches_recording(setting):
    # the hypotheses, their order and their flush anchors' bits: each
    # reaches the resolver's tie-break repr, to_json() and the digests
    kwargs, digest = ENUMERATION_DIGESTS[setting]
    states = drag_states() + wall_states() + pivot_states()
    h = hashlib.sha256()
    for sw, _ in states:
        h.update(repr([m.to_json() for m in enumerate_modes(sw, **kwargs)])
                 .encode())
    assert len(states) == 393
    assert h.hexdigest() == digest


# what _unbalanced and _misfit read of a table: its rows
Table = namedtuple("Table", "rows")


def reference_layout(sw, hyps):
    """Per hypothesis, from its own rows as each pass once derived them: its
    rows and labels, world (only world lines), the weight screen's verdict
    on a world hypothesis, the misfit screen's and its flush face (-1 for
    none).  The contacts that stick on one interface are one patch: its
    first contact is pinned and every later one is a free end, which the
    world's keys mark here and _build marks on the hand's flush anchors.
    Rows are built once per key."""
    build, built, out = _ContactRows(sw), {}, []
    for h in hyps:
        keys = [("hand", h.hand_contact, h.hand_label, False)] \
            if h.hand_label != "none" else []
        lines = [key for key in [("ground", v, lab) for v, lab in h.ground]
                 + list(h.walls) if key[2] != "separate"]
        keys += [(*key, key[2] == "stick" and key[0] in
                  [e[0] for e in lines[:k] if e[2] == "stick"])
                 for k, key in enumerate(lines)]
        for key in keys:
            if key not in built:
                built[key] = build._build(*key)
        rows = [r for key in keys for r in built[key]]
        # each interface that sticks has exactly one pinned contact
        sticks = [(iface, bool(row[resolve._FREE])) for row, (iface, label)
                  in rows if label == "stick"]
        assert sorted(i for i, free in sticks if not free) \
            == sorted({i for i, _ in sticks})
        world = all(row[1] == _WORLD for row, _ in rows)
        table, hc = Table(rows), h.hand_contact
        out.append((rows, world,
                    world and resolve._unbalanced(table, range(len(rows)), WEIGHT),
                    resolve._misfit(table, range(len(rows))),
                    hc.face if hc is not None and hc.kind == "flush" else -1))
    return out


def test_layout_matches_per_hypothesis_reference():
    # each pass's layout, derived per hand and environment part, against
    # each hypothesis derived on its own: the drag, wall and pivot states at
    # the three enumeration settings, each list forward and reversed, and
    # every 20th state's default list one hypothesis at a time
    def layout(sw, hyps):
        build, lay, cols = laid_out(sw, hyps)
        return [([build.rows[c] for c in col], *flags)
                for col, *flags in zip(cols, *(
                    getattr(lay, f).tolist() for f in (
                        "world", "unbalanced", "misfit", "flush")))]

    states, checked = drag_states() + wall_states() + pivot_states(), 0
    screened, free = Counter(), 0
    for kwargs, _ in ENUMERATION_DIGESTS.values():
        for k, (sw, _) in enumerate(states):
            hyps = enumerate_modes(sw, **kwargs)
            want = reference_layout(sw, hyps)
            assert layout(sw, hyps) == want
            assert layout(sw, hyps[::-1]) == want[::-1]
            if not kwargs and k % 20 == 0:
                assert [layout(sw, [h])[0] for h in hyps] == want
            checked += len(hyps)
            screened.update(unbalanced=sum(w[2] for w in want),
                            misfit=sum(w[3] for w in want))
            free += sum(row[resolve._FREE] for w in want for row, _ in w[0])
    assert checked == 234500 and free == 53070
    assert screened == {"unbalanced": 9135, "misfit": 2295}


def unscreened(trials_of):
    """Run trials_of() with both screens before Newton switched off."""
    with mock.patch.object(resolve, "_unbalanced", return_value=False), \
            mock.patch.object(resolve, "_misfit", return_value=False):
        return trials_of()


def test_screened_hypotheses_never_converge():
    # every hypothesis the screen rejects on the drag, wall and pivot rigs
    # also ends no_converge (max |R| > 1e-9) when Newton runs on it in full.
    # The drag rejects the same seven label sets at every step and the wall
    # drag moves little from one step to the next, so every 4th drag and
    # every 2nd wall state is run, which keeps this to a few seconds.
    screened = 0
    for sw, target in drag_states()[::4] + wall_states()[::2] \
            + pivot_states():
        hyps = enumerate_modes(sw)
        hyps = [h for h, unbalanced in zip(
            hyps, laid_out(sw, hyps)[1].unbalanced) if unbalanced]
        assert all(h.hand_label == "none" for h in hyps)
        trials = unscreened(lambda: solve_pass(sw, target, hyps))
        assert all(t.reason == "no_converge" and t.evaluations > 0
                   for t in trials)
        screened += len(hyps)
    assert screened > 1000


def test_misfit_stick_pairs_stay_above_the_bound():
    # every hypothesis the misfit screen rejects on the wall states, at the
    # default and the two fallback enumeration settings, run through full
    # Newton: max |R| stays above 1e-9 at every iterate of every member,
    # stacked (_system) or finished alone (_Alone.system), and each trial
    # ends no_converge.  A patch's free end pins nothing, so each is a
    # pinned ground vertex and a pinned wall vertex (both stick) spaced
    # unlike their anchors; only the fallback's wider band finds them.  A
    # stacked call also evaluates the stopped members riding along, whose
    # iterate no longer moves; a running one moves at every step, as its R
    # is not zero.
    system, alone_system = resolve._system, resolve._Alone.system
    worst, last_iterate = [], {}

    def stacked(z, ref, batch):
        R, J = system(z, ref, batch)
        for i, count in enumerate(batch.counts.tolist()):
            member = (id(batch.table), tuple(batch.cols[i, :count].tolist()))
            iterate = z[i, :6 + 2 * count].tobytes()
            if last_iterate.get(member, (None, None))[1] != iterate:
                last_iterate[member] = batch.table, iterate
                worst.append(float(np.abs(R[i]).max()))
        return R, J

    def alone(self, z):
        R, J = alone_system(self, z)
        worst.append(resolve._max_abs(R))
        return R, J

    screened, evaluations = Counter(), 0
    for setting, (kwargs, _) in sorted(ENUMERATION_DIGESTS.items()):
        for sw, target in wall_states():
            hyps = enumerate_modes(sw, **kwargs)
            hyps = [h for h, misfit in zip(hyps, laid_out(sw, hyps)[1].misfit)
                    if misfit]
            if not hyps:
                continue
            for h in hyps:
                assert {lab for _, lab in h.ground} >= {"stick"} \
                    and {lab for *_, lab in h.walls} >= {"stick"}
            last_iterate.clear()
            with mock.patch.object(resolve, "_system", stacked), \
                    mock.patch.object(resolve._Alone, "system", alone):
                trials = unscreened(lambda: solve_pass(sw, target, hyps))
            assert all(t.reason == "no_converge" and t.evaluations > 0
                       for t in trials)
            screened[setting] += len(hyps)
            evaluations += sum(t.evaluations for t in trials)
    assert screened == {"fallback_band_0.003": 270, "fallback_band_0.01": 2025}
    assert len(worst) == evaluations
    assert min(worst) > 1e-9


def flush_misfit(h):
    """Whether a stick flush hypothesis's two anchors lie further apart, or
    closer, on the object than along the hand by more than the misfit
    screen's bound (the spacing a pair of pinned anchors would need)."""
    if h.hand_label != "stick" or h.hand_contact.kind != "flush":
        return False
    (t1, *p1), (t2, *p2) = h.hand_contact.anchors
    return abs(math.dist(p1, p2) - abs(t1 - t2)) / (2.0 * math.sqrt(2.0)) \
        > resolve._MISFIT_BOUND


def test_tilted_flush_sticks_run_newton():
    # on the 80 drag steps whose hand has tilted off the top face far enough
    # that the flush anchors' spacings differ (ten stick flush hypotheses a
    # step), two pinned anchors could never close their rows: the misfit
    # screen's case.  As a patch, whose second end is free along the hand,
    # each runs Newton and fails a check after it; only the weight screen's
    # seven label sets are rejected before Newton, and every step chooses
    # its recorded mode
    tilted = 0
    for (sw, target), rec in zip(drag_states(),
                                 RECORDED["corner_handoff_during_long_drag"]):
        hyps = enumerate_modes(sw)
        if not any(map(flush_misfit, hyps)):
            continue
        tilted += 1
        trials = solve_pass(sw, target, hyps)
        misfit = [t for t in trials if flush_misfit(t.hyp)]
        assert len(misfit) == 10
        assert all(t.evaluations > 0 and t.reason for t in misfit)
        assert sum(t.evaluations == 0 for t in trials) == 7
        sol = resolve_mode(sw, target)
        assert_matches_recording(
            [sol], [sw.with_poses(sol.object_pose, sol.hand_pose)], [rec])
    assert tilted == 80


def trial_outcome(trial):
    """A trial's reason and evaluation count, and for a feasible one the
    bytes of its final iterate (pose deltas and forces), residual and
    dissipation."""
    if trial.solution is None:
        return trial.reason, trial.evaluations
    sol = trial.solution
    return (trial.reason, trial.evaluations, sol["z"].tobytes(),
            sol["residual"], sol["dissipation"])


def test_trial_does_not_depend_on_its_batch():
    # a member's Newton trajectory depends only on its own iterate (module
    # docstring), which the screens and the lazy compaction rest on: each
    # hypothesis comes out byte for byte the same solved in one batch, in
    # reverse order in blocks of 24 slots, and one hypothesis per call,
    # which finishes it alone on floats from its first iteration (35-42 s
    # on a 2-vCPU host, a third of the suite)
    feasible = alone = 0
    for sw, target in drag_states()[::4] + wall_states()[::2]:
        hyps = enumerate_modes(sw)
        with mock.patch.object(resolve, "_SLOTS", 10 ** 6):
            whole = [trial_outcome(t) for t in solve_pass(sw, target, hyps)]
        with mock.patch.object(resolve, "_SLOTS", 24):
            rev = [trial_outcome(t)
                   for t in solve_pass(sw, target, hyps[::-1])]
        assert whole == rev[::-1]
        assert whole == [trial_outcome(solve_pass(sw, target, [h])[0])
                         for h in hyps]
        alone += len(hyps)
        feasible += sum(len(o) > 2 for o in whole)
    assert feasible > 100 and alone > 15000


def test_handoff_carries_trials_unchanged():
    # with blocks of 64 slots, members still running when their block is
    # half empty ride into the next block with their iterates and counts:
    # hand-offs happen, each carried trial is byte for byte its solo solve,
    # and every hypothesis of the pass gets exactly one trial
    batches, owner, newton = [], {}, resolve._newton

    class Named(_ContactRows):
        def layout(self, hyps, weight):
            out = super().layout(hyps, weight)
            for hyp, row, n in zip(hyps, out.index, out.counts):
                owner[id(self), tuple(row[:n].tolist())] = hyp
            return out

    def recorded(ref, batch, *args):
        batches.append([owner[id(batch.table), tuple(r[r >= 0].tolist())]
                        for r in batch.cols])
        return newton(ref, batch, *args)

    carried_total = 0
    for sw, target in wall_states()[::12]:
        hyps = enumerate_modes(sw)
        batches.clear()
        owner.clear()
        with mock.patch.object(resolve, "_SLOTS", 64), \
                mock.patch.object(resolve, "_ContactRows", Named), \
                mock.patch.object(resolve, "_newton", recorded):
            trials = solve_pass(sw, target, hyps)
        assert [t.hyp for t in trials] == hyps
        seen = Counter(h for batch in batches for h in batch)
        carried = [i for i, h in enumerate(hyps) if seen[h] > 1]
        for i in carried:
            [alone] = solve_pass(sw, target, [hyps[i]])
            assert trial_outcome(trials[i]) == trial_outcome(alone)
        carried_total += len(carried)
    assert carried_total > 0


def test_resolve_enumerates_through_the_module_once_per_pass():
    # resolve_mode looks enumerate_modes up on ccfg.sim.resolve for each
    # pass, the name perfbench/tracing.py rebinds to time sim.enumerate: once
    # on a state the first pass settles, twice on a wall state that needs
    # the fallback pass
    for (sw, target), passes in ((wall_states()[0], 1), (wall_states()[33], 2)):
        with mock.patch.object(resolve, "enumerate_modes",
                               wraps=enumerate_modes) as enumerated:
            sol = resolve_mode(sw, target)
        assert enumerated.call_count == passes
        assert (sol.trials > len(enumerate_modes(sw))) == (passes == 2)


def test_stacked_evaluations_count_system_calls():
    # ModeSolution.stacked_evaluations is the number of _system calls the
    # step made over its passes, never more than the members' evaluations,
    # and none when no more than _TAIL hypotheses reach Newton, which then
    # all run alone; the wall states include four that reach the fallback
    # pass, and one drag state runs three hypotheses
    system, calls = resolve._system, []

    def counted(*args, **kwargs):
        calls.append(1)
        return system(*args, **kwargs)

    fallback = alone = 0
    for sw, target in drag_states()[::16] + wall_states()[33::5]:
        calls.clear()
        with mock.patch.object(resolve, "_system", counted):
            sol = resolve_mode(sw, target)
        assert sol.stacked_evaluations == len(calls)
        assert sol.stacked_evaluations <= sol.newton_iterations
        assert (len(calls) > 0) == (sol.trials - sol.screened > resolve._TAIL)
        fallback += sol.trials > len(enumerate_modes(sw))
        alone += not calls
    assert fallback == 4 and alone == 1


def test_steps_route_singular_and_ill_conditioned_members_to_gelsy():
    # three members of one LU run: a regular one takes the stacked LU step,
    # bit for bit np.linalg.solve's; an exactly singular one and one whose LU
    # step exceeds 1e8 take gelsy's minimum-norm step, which solves
    # J dz = -R on J's range
    sw = flush_world(0.0800)
    build, lay, _ = laid_out(sw, [enumerate_modes(sw)[1]] * 3)
    batch = _Batch(build, lay.index)
    n = 6 + 2 * batch.slots
    rng = np.random.default_rng(5)
    regular = rng.normal(size=(n, n)) + n * np.eye(n)
    singular = regular.copy()
    singular[1] = singular[0]
    u, _, vt = np.linalg.svd(rng.normal(size=(n, n)))
    ill = u @ np.diag(np.r_[np.ones(n - 1), 1e-20]) @ vt
    J, R = np.stack([regular, singular, ill]), rng.normal(size=(3, n))
    assert np.abs(np.linalg.solve(ill, -R[2])).max() > 1e8
    with np.errstate(invalid="ignore"):    # solve1 flags the singular one
        dz = _steps(R, J, batch, np.ones(3, bool))
        # the scalar tail routes a lone member's step the same way
        alone = [resolve._step_alone(R[i].tolist(), J[i]) for i in range(3)]
    assert dz[0].tobytes() == np.linalg.solve(regular, -R[0]).tobytes()
    for i in (1, 2):
        u, sv, _ = np.linalg.svd(J[i])
        span = u[:, sv > sv[0] * np.finfo(float).eps]
        on_range = span @ (span.T @ R[i])
        assert np.linalg.norm(J[i] @ dz[i] + on_range) \
            <= 1e-10 * np.linalg.norm(R[i])
        assert np.abs(dz[i]).max() < 1e3
    assert [np.array(a).tobytes() for a in alone] == [d.tobytes() for d in dz]


def lu_step(J, minus_R):
    """np.linalg.solve's step, or None where it is singular or above 1e8."""
    try:
        step = np.linalg.solve(J, minus_R)
    except np.linalg.LinAlgError:
        return None
    return step if np.abs(step).max() <= 1e8 else None


def test_stick_patches_take_lu_steps():
    # over the drag and wall states, stacked and alone: every gelsy step is
    # one whose LU step is singular or above 1e8, and every step of a member
    # with a stick patch (two sticking contacts on one interface) whose LU
    # step is neither is bit for bit that LU step.  Each chosen mode reports
    # a patch's tangential force split over its ends in proportion to their
    # normal forces, each end inside its own friction cone
    gelsy, steps, step_alone = resolve._gelsy_step, resolve._steps, \
        resolve._step_alone
    taken = Counter()

    def checked_gelsy(J, minus_R):
        assert lu_step(J, minus_R) is None
        taken["gelsy"] += 1
        return gelsy(J, minus_R)

    def checked_steps(R, J, b, keep):
        dz = steps(R, J, b, keep)
        on = b.col.iface.reshape(len(keep), -1)
        patch = [np.bincount(row[stick], minlength=1).max(initial=0) > 1
                 for row, stick in zip(on, b.col.stick.reshape(on.shape))]
        for i in np.flatnonzero(keep & np.array(patch)).tolist():
            m = 6 + 2 * int(b.counts[i])
            want = lu_step(J[i, :m, :m], -R[i, :m])
            if want is not None:
                assert dz[i, :m].tobytes() == want.tobytes()
                taken["patch LU"] += 1
        return dz

    def checked_alone(R, J):
        dz = step_alone(R, J)
        want = lu_step(J, -np.array(R))
        assert want is None or np.array(dz).tobytes() == want.tobytes()
        return dz

    patches = 0
    with mock.patch.object(resolve, "_gelsy_step", checked_gelsy), \
            mock.patch.object(resolve, "_steps", checked_steps), \
            mock.patch.object(resolve, "_step_alone", checked_alone):
        for sw, target in drag_states() + wall_states():
            sol = resolve_mode(sw, target)
            for iface in {c.iface for c in sol.contacts}:
                ends = [c for c in sol.contacts
                        if c.iface == iface and c.label == "stick"]
                if len(ends) < 2:
                    continue
                patches += 1
                mu = {"hand": sw.mu_hand, "ground": sw.mu_ground}.get(
                    iface, sw.mu_wall)
                fn, ft = (sum(getattr(c, f) for c in ends)
                          for f in ("f_normal", "f_tangent"))
                for c in ends:
                    assert c.f_tangent == pytest.approx(
                        ft * c.f_normal / fn, rel=1e-12, abs=1e-15)
                    assert abs(c.f_tangent) <= mu * c.f_normal + 1e-9
    # gelsy still serves jammed and non-converging trials
    assert patches > 300 and taken["patch LU"] > 20000 and taken["gelsy"] > 0


def test_system_layout_is_per_member():
    # _system on one batch of a whole pass, at the zero iterate and at a
    # seeded random one: every entry of R and J outside a member's own
    # 6 + 2 count rows and columns is zero (_steps never reads them, so
    # nothing else would show an entry written there); and a take of some
    # members gives their rows byte for byte
    rng, systems = np.random.default_rng(27), 0
    for sw, target in drag_states()[::20] + wall_states()[::10] + pivot_states():
        ref = _Reference(sw, target)
        build, lay, _ = laid_out(sw, enumerate_modes(sw))
        cols = lay.index[lay.counts > 0]
        batch = _Batch(build, cols)
        M, n = len(cols), 6 + 2 * batch.slots
        own = np.arange(n) < 6 + 2 * batch.counts[:, None]
        random = np.concatenate([rng.normal(0.0, 1e-3, (M, 6)),
                                 rng.normal(0.0, 1.0, (M, n - 6))], axis=1)
        keep = rng.random(M) < 0.5
        sub = batch.take(keep)
        for z in (np.zeros((M, n)), np.where(own, random, 0.0)):
            R, J = _system(z, ref, batch)
            assert not R[~own].any()
            assert not J[~(own[:, :, None] & own[:, None, :])].any()
            R_sub, J_sub = _system(z[keep], ref, sub)
            assert R_sub.tobytes() == R[keep].tobytes()
            assert J_sub.tobytes() == J[keep].tobytes()
            systems += 1
    assert systems == 60


def test_scalar_member_matches_system_bit_for_bit():
    # every iterate of every member on the drag, wall and pivot rigs, with
    # every pass stacked to its end: _Alone.system gives the member's rows
    # of _system byte for byte, the 41st evaluation included.  Where the
    # batch's padding slots add +0.0 to a sum of -0.0 (R[2] of a box whose
    # com is its origin, at zero forces), the two differ in that zero's
    # sign only, and _Alone.system gives _system's on the member alone.
    system, passes = resolve._system, resolve._solve_pass
    members, seen, compared, trials = {}, set(), Counter(), []

    def checked(z, ref, batch):
        R, J = system(z, ref, batch)
        for i, count in enumerate(batch.counts.tolist()):
            m = 6 + 2 * count
            member = (id(batch.table), tuple(batch.cols[i, :count].tolist()))
            key = (member, z[i, :m].tobytes())
            if key in seen:         # a stopped member riding along
                continue
            seen.add(key)
            if (member, id(ref)) not in members:
                members[member, id(ref)] = \
                    batch.table, ref, resolve._Alone(ref, batch, i)
            got_R, got_J = members[member, id(ref)][2].system(
                z[i, :m].tolist())
            got = [np.array(got_R), got_J]
            want = [R[i, :m], J[i, :m, :m]]
            if [g.tobytes() for g in got] != [w.tobytes() for w in want]:
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
                lone = system(z[i:i + 1, :m], ref, batch.alone(i))
                assert [g.tobytes() for g in got] == [
                    w[0].tobytes() for w in lone]
                compared["signed zero"] += 1
            compared["R and J"] += 1
        return R, J

    def recorded(*args):
        out = passes(*args)
        trials.extend(pass_trials(out))
        return out

    with mock.patch.object(resolve, "_TAIL", 0), \
            mock.patch.object(resolve, "_system", checked), \
            mock.patch.object(resolve, "_solve_pass", recorded):
        for sw, target in drag_states() + wall_states()[::2] + pivot_states():
            members.clear()
            seen.clear()
            resolve_mode(sw, target)
    assert compared["R and J"] >= sum(t.evaluations for t in trials) > 150000
    # members that reach their 41st evaluation, and members that diverge
    assert sum(t.evaluations > resolve._NEWTON_MAX_ITER for t in trials) > 0
    assert sum(t.reason == "no_converge" and 0 < t.evaluations <= 40
               for t in trials) > 1000
    assert 0 < compared["signed zero"] < compared["R and J"] / 50


def test_max_abs_is_numpys():
    # NaN anywhere gives NaN, as np.abs(R).max() does; Python's max() keeps
    # the first NaN only
    nan, inf = math.nan, math.inf
    for values in ([1.0, -2.0, 0.5], [nan, 1.0], [1.0, nan, 3.0],
                   [2.0, 1.0, nan], [-inf, 1.0], [1.0, inf, nan],
                   [-0.0, 0.0], [1e308, -1e308]):
        got, want = resolve._max_abs(values), np.abs(values).max()
        assert np.array([got]).tobytes() == np.array([want]).tobytes() \
            or (math.isnan(got) and math.isnan(want))
    assert max([1.0, nan]) == 1.0 and math.isnan(max([nan, 1.0]))


def test_tail_ends_members_as_the_stacked_loop_does():
    # the last block of a pass run stacked to its end (_TAIL 0) and finished
    # alone from the start: the same final max |R|, evaluation count and
    # iterate bytes for members that converge, diverge, stop at their 41st
    # evaluation, or whose iterate overflowed (an infinite force, past
    # _FAITHFUL, where _Alone hands the iterate to _system)
    w = WorldModel(ground_height=0.0, walls=(Wall(0.0605, -1),))
    sw = make_world(PlanarPose([0.0, 0.04], 0.0),
                    PlanarPose([0.03, 0.0805], 0.0), world=w)
    ref = _Reference(sw, PlanarPose([0.032, 0.079], 0.01))
    build, lay, rows = laid_out(sw, enumerate_modes(sw, suppress_overlaps=False))
    rows = [r for r in rows if r]
    batch = _Batch(build, lay.index[lay.counts > 0])
    rng = np.random.default_rng(3)
    n = 6 + 2 * batch.slots
    z = np.zeros((len(rows), n))
    for i, r in enumerate(rows):
        z[i, 6:6 + 2 * len(r)] = rng.normal(0.0, 3.0, 2 * len(r))
    z[0, 6] = math.inf
    count = rng.integers(0, 41, len(rows))
    count[:3] = 0
    runs = []
    for tail in (0, 10 ** 6):
        zt, ct = z.copy(), count.copy()
        with mock.patch.object(resolve, "_TAIL", tail):
            res, running, calls = resolve._newton(ref, batch, zt, ct, 0)
        assert not running.any() and (calls > 0) == (tail == 0)
        runs.append((res.tobytes(), ct.tobytes(), zt.tobytes()))
    assert runs[0] == runs[1]
    res = np.frombuffer(runs[0][0])
    ends = np.frombuffer(runs[0][1], dtype=count.dtype)
    assert (res <= 1e-10).any() and (ends == 41).any()
    assert (ends[res == math.inf] < 41).sum() > 1
    assert res[0] == math.inf and ends[0] == 1


def gelsy_draws(rng, m, count):
    """Seeded systems (J, -R) of size m: regular ones, exactly
    rank-deficient ones (a repeated row or column) and ill-conditioned ones."""
    for k in range(count):
        J = rng.normal(size=(m, m))
        if k % 3 == 1:
            i, j = rng.choice(m, 2, replace=False)
            if k % 2:
                J[i] = J[j]
            else:
                J[:, i] = J[:, j]
        elif k % 3 == 2:
            u, _, vt = np.linalg.svd(J)
            J = u @ np.diag(np.logspace(0, -rng.uniform(10, 20), m)) @ vt
        yield J, -rng.normal(size=m)


def test_gelsy_is_scipys_routine():
    # the gelsy loaded from scipy/linalg/_flapack's file is scipy.linalg's:
    # byte-equal solution, pivots and rank on every draw, called as _steps
    # calls it, and the same workspace at every system size
    gelsy, gelsy_lwork = scipy.linalg.get_lapack_funcs(
        ("gelsy", "gelsy_lwork"), dtype=np.float64)
    rng = np.random.default_rng(21)
    deficient = 0
    for m in range(6, 18, 2):
        lwork = resolve._gelsy_lwork(m)
        assert lwork == int(gelsy_lwork(m, m, 1, resolve._EPS)[0])
        for J, b in gelsy_draws(rng, m, 60):
            ours, theirs = (
                f(J, b[:, None], np.zeros((m, 1), np.int32), resolve._EPS,
                  lwork, False, False) for f in (resolve._GELSY, gelsy))
            assert ours[4] == theirs[4] == 0
            assert ours[1].tobytes() == theirs[1].tobytes()
            assert ours[2].tobytes() == theirs[2].tobytes()
            assert ours[3] == theirs[3]
            deficient += ours[3] < m
    # the 20 repeated rows or columns per size, and some ill-conditioned
    # draws, come out rank-deficient
    assert deficient > 6 * 20


def test_gelsy_loads_after_scipy_linalg():
    # scipy.linalg imported first has loaded _flapack under its own name;
    # loading it again as ccfg.sim._flapack must still give scipy's routine
    script = """
import numpy as np, scipy.linalg
import ccfg.sim.resolve as resolve
gelsy = scipy.linalg.get_lapack_funcs(("gelsy",), dtype=np.float64)[0]
J = np.random.default_rng(3).normal(size=(8, 8))
J[1] = J[0]
b = np.arange(8.0)[:, None]
print(resolve._GELSY is not gelsy,
      *(f(J, b, np.zeros((8, 1), np.int32), resolve._EPS,
          resolve._gelsy_lwork(8), False, False)[1].tobytes().hex()
        for f in (resolve._GELSY, gelsy)))
"""
    src = Path(resolve.__file__).parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert len(out) == 3 and out[0] == "True" and out[1] == out[2]


def test_missing_flapack_names_the_search():
    with mock.patch.object(resolve, "EXTENSION_SUFFIXES", [".missing.so"]):
        with pytest.raises(ImportError, match=r"linalg.*\.missing\.so"):
            resolve._load_gelsy()

WORLD_LABELS = ("separate",) + ACTIVE_LABELS


@settings(max_examples=100, deadline=None)
@given(st.floats(-0.4, 0.4), st.floats(0.0, 1.5, exclude_min=True),
       st.floats(0.0, 1.5, exclude_min=True),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from(WORLD_LABELS)),
                max_size=2, unique_by=lambda c: c[0]),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from(WORLD_LABELS)),
                max_size=2, unique_by=lambda c: c[0]))
def test_screen_rejects_only_what_newton_cannot_balance(
        angle, mu_ground, mu_wall, ground, walls):
    # a tilted box with its lowest corner on the ground and its rightmost
    # against a wall, any vertices labelled on either line, no hand contact:
    # whenever the screen fires, full Newton ends no_converge too
    R = rotation(angle)
    verts = (R @ np.asarray(BOX.vertices).T).T
    obj = PlanarPose([0.0, -float(verts[:, 1].min())], angle)
    w = WorldModel(ground_height=0.0,
                   walls=(Wall(float(verts[:, 0].max()), -1),))
    sw = make_world(obj, PlanarPose([0.0, 1.0], 0.0), world=w,
                    mu_ground=mu_ground, mu_wall=mu_wall)
    hyp = ContactModeHypothesis("none", None, tuple(ground),
                                tuple((0, v, lab) for v, lab in walls))
    target = sw.hand_pose
    [trial] = solve_pass(sw, target, [hyp])
    if trial.evaluations == 0:
        assert trial.reason == "no_converge"
        [full] = unscreened(lambda: solve_pass(sw, target, [hyp]))
        assert full.reason == "no_converge" and full.evaluations > 0


def segment_face_crossing_loop(verts, tip_a, tip_b):
    """The face-by-face loop that _segment_face_crossing computes at once."""
    n = len(verts)
    for j in range(n):
        a, b = verts[j], verts[(j + 1) % n]
        d1, d2 = cross2(b - a, tip_a - a), cross2(b - a, tip_b - a)
        d3 = cross2(tip_b - tip_a, a - tip_a)
        d4 = cross2(tip_b - tip_a, b - tip_a)
        if d1 * d2 < -1e-18 and d3 * d4 < -1e-18 and min(abs(d1), abs(
                d2)) > 1e-9 * max(1.0, float(np.hypot(*(b - a)))):
            return True
    return False


def test_segment_face_crossing_matches_the_loop():
    # seeded convex polygons and hand segments: a tip at a random point, at
    # a vertex moved by about 1e-9 m, or a segment ending on a vertex
    rng, crossings = np.random.default_rng(28), 0
    for k in range(6000):
        n = int(rng.integers(3, 7))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        verts = np.c_[np.cos(angles), np.sin(angles)] * rng.uniform(0.01, 0.1)
        tip_a = verts[rng.integers(n)] + rng.normal(0.0, 1e-9, 2) \
            if k % 3 == 0 else rng.normal(0.0, 0.08, 2)
        tip_b = verts[rng.integers(n)].copy() if k % 5 == 0 \
            else tip_a + rng.normal(0.0, 0.1, 2)
        want = segment_face_crossing_loop(verts, tip_a, tip_b)
        assert resolve._segment_face_crossing(verts, tip_a, tip_b) == want
        crossings += want
    assert 1000 < crossings < 5000


def misplaced_member(sw, face, z):
    """_misplaced's checks as the resolver ran them, one member at a time
    (face: its flush face, -1 for none): the first that fails ("" when all
    pass) and the end poses, the one kept for the report."""
    obj = PlanarPose(sw.object_pose.position + z[0:2], sw.object_pose.angle + z[2])
    hand = PlanarPose(sw.hand_pose.position + z[3:5], sw.hand_pose.angle + z[5])
    ends = np.r_[obj.as_vector(), hand.as_vector()]
    t_hat, center, half = hand_tangent(hand.angle), hand.position, \
        sw.hand.half_length
    if face >= 0:
        ta, tb = (float(t_hat @ (obj.transform(v) - center))
                  for v in sw.polygon.face_endpoints(face))
        lo, hi = min(ta, tb), max(ta, tb)
        if min(hi, half) - max(lo, -half) <= 1e-9:
            return "patch_gone", ends
    if penetration_depth(sw, obj, hand) < -resolve.PENETRATION_TOL:
        return "penetration", ends
    Rm, tips = obj.rotation, (center - half * t_hat, center + half * t_hat)
    for tip in tips:
        tip_obj = Rm.T @ (tip - obj.position)
        if np.all(sw.polygon.all_face_residuals(tip_obj) < -1e-9):
            return "tip_inside", ends
    if segment_face_crossing_loop(sw.polygon.vertices @ Rm.T + obj.position,
                                  *tips):
        return "segment_crossing", ends
    return "", ends


def assert_misplaced_per_member(sw, z, flush, misplaced=resolve._misplaced):
    """_misplaced on a block gives each member's reason and end poses bit
    for bit; returns the reasons."""
    codes, ends = misplaced(sw, z, flush)
    want = [misplaced_member(sw, face, zi) for zi, face in zip(z, flush)]
    assert [resolve._REASONS[c] for c in codes.tolist()] == [w[0] for w in want]
    assert ends.tobytes() == np.array([w[1] for w in want]).tobytes()
    return [w[0] for w in want]


def test_block_misplaced_matches_per_member_checks():
    # every member that passes _screen on the drag, wall and pivot states,
    # first and fallback passes, as the resolver checks them: each pass's
    # at once (1,717 members in 401 calls, up to 19 at a time)
    misplaced, reasons = resolve._misplaced, Counter()

    def checked(sw, z, flush):
        reasons.update(assert_misplaced_per_member(sw, z, flush, misplaced))
        return misplaced(sw, z, flush)

    with mock.patch.object(resolve, "_misplaced", checked):
        for sw, target in drag_states() + wall_states() + pivot_states():
            resolve_mode(sw, target)
    assert reasons == {"": 566, "penetration": 528, "tip_inside": 623}


# End iterates at each geometric check's tolerance, for the box at rest by a
# wall with the hand above it (EDGE_WORLD): per case its flush face, its
# two reasons, the iterate z at the tie with object and hand level, the
# scale by which a draw moves each entry of z, and the direction in z that
# crosses from the first reason to the second.  The cases: the lowest vertex
# 1e-9 below the ground, a vertex 1e-9 past the wall, a hand tip 1e-9 inside
# the top face, the hand line cutting the top right corner 1e-9 deep
# (penetration, else segment_crossing), and a flush patch on the top face
# (face 2) 1e-9 long.
EDGE_WORLD = make_world(PlanarPose([0.0, 0.04], 0.0),
                        PlanarPose([0.03, 0.0805], 0.0),
                        world=WorldModel(ground_height=0.0,
                                         walls=(Wall(0.0605, -1),)))
_Q = math.sqrt(0.5)
EDGE_CASES = [
    (-1, ("penetration", ""), (0.0, -1e-9, 0.0, 0.0, 0.0, 0.0),
     (0.0, 2e-9, 1e-9, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)),
    (-1, ("", "penetration"), (5e-4 + 1e-9, 0.0, 0.0, 0.0, 0.0, 0.0),
     (2e-9, 0.0, 1e-9, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
    (-1, ("tip_inside", ""),
     (0.0, 0.0, 0.0, 0.029 + 0.05 * _Q, 0.05 * _Q - 5e-4 - 1e-9, math.pi / 4),
     (0.0, 0.0, 1e-9, 2e-9, 2e-9, 1e-9), (0.0, 0.0, 0.0, 0.0, 1.0, 0.0)),
    (-1, ("penetration", "segment_crossing"),
     (0.0, 0.0, 0.0, 0.03 - 1e-9 * _Q, -5e-4 - 1e-9 * _Q, -math.pi / 4),
     (0.0, 0.0, 1e-9, 5e-10, 5e-10, 1e-9), (0.0, 0.0, 0.0, _Q, _Q, 0.0)),
    (2, ("", "patch_gone"), (0.0, 0.0, 0.0, 0.08 - 1e-9, -5e-4, 0.0),
     (0.0, 0.0, 1e-9, 2e-9, 1e-9, 1e-9), (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)),
]
# the object turns at which edge_ties() finds each case's tie
EDGE_TURNS = tuple(0.1 + 0.2 * k for k in range(-6, 6))


def turned(case, theta):
    """The iterate of an EDGE_CASES case with the object turned by theta,
    and its direction: at the ground or the wall, the tie worked out again
    for the turned vertices, with the hand raised well clear; otherwise the
    object lifted clear of the ground and the wall, and the hand and the
    direction turned with it about the object's center."""
    _, _, z, _, direction = case
    verts, turn = BOX.vertices @ rotation(theta).T, rotation(theta)
    if direction[1]:
        return np.r_[-0.02, -1e-9 - 0.04 - verts[:, 1].min(), theta, 0, 0.1,
                     0], np.array(direction)
    if direction[0]:
        return np.r_[0.0605 + 1e-9 - verts[:, 0].max(), 0.05, theta, 0, 0.1,
                     0], np.array(direction)
    obj, lift = EDGE_WORLD.object_pose.position + z[0:2], np.array([-0.03, 0.05])
    hand = EDGE_WORLD.hand_pose.position + z[3:5]
    return np.r_[np.add(z[0:2], lift), z[2] + theta, obj + lift + turn @ (
        hand - obj) - EDGE_WORLD.hand_pose.position, z[5] + theta], \
        np.r_[0.0, 0.0, 0.0, turn @ direction[3:5], 0.0]


@functools.lru_cache(maxsize=None)
def edge_ties():
    """Per case and turn in EDGE_TURNS, the two iterates of the turned scene
    next to its tie along the case's direction, on the first reason's side
    and on the second's: bisected from 0.8e-9 either side of turned() until
    no entry of the midpoint differs from both."""
    ties = []
    for case, theta in itertools.product(EDGE_CASES, EDGE_TURNS):
        face, reasons = case[:2]
        z, direction = turned(case, theta)
        lo, hi = -0.8e-9, 0.8e-9
        assert [misplaced_member(EDGE_WORLD, face, z + t * direction)[0]
                for t in (lo, hi)] == list(reasons)
        while True:
            mid = (lo + hi) / 2
            at = z + mid * direction
            if (at == z + lo * direction).all() or (at == z + hi * direction).all():
                break
            if misplaced_member(EDGE_WORLD, face, at)[0] == reasons[0]:
                lo = mid
            else:
                hi = mid
        ties.append((z + lo * direction, z + hi * direction))
    return ties


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.integers(0, len(EDGE_CASES) - 1),
    st.one_of(st.none(), st.integers(0, len(EDGE_TURNS) - 1)),
    st.one_of(st.just([0.0] * 6), st.lists(st.floats(-1.0, 1.0), min_size=6,
                                           max_size=6)),
    st.integers(-3, 3)), min_size=1, max_size=8))
@example([(k, t, [0.0] * 6, s) for k in range(len(EDGE_CASES))
          for t in range(len(EDGE_TURNS)) for s in (-1, 0, 1, 2)])
@example([(k, None, [s] * 6, 0) for k in range(len(EDGE_CASES))
          for s in (-1.0, 1.0)])
def test_block_misplaced_matches_per_member_at_the_tolerances(members):
    # blocks of end iterates about the tolerances of EDGE_CASES, level or
    # turned: moved by their scale, or from a turned scene's tie by up to 3
    # floats in the entry its direction moves most, where one rounding
    # apart would flip a reason: each member's reason and end poses are its
    # own checks' bit for bit
    z = []
    for k, turn, p, steps in members:
        face, _, base, scale, direction = EDGE_CASES[k]
        zk = np.add(base if turn is None else
                    edge_ties()[k * len(EDGE_TURNS) + turn][0],
                    np.multiply(scale, p))
        axis = np.abs(direction).argmax()
        zk[axis] += steps * np.spacing(zk[axis])
        z.append(zk)
    flush = np.array([EDGE_CASES[k][0] for k, *_ in members])
    assert_misplaced_per_member(EDGE_WORLD, np.array(z), flush)


def test_tolerance_iterates_straddle_their_checks():
    # moved by their scale one way and the other along their direction, the
    # level iterates of EDGE_CASES give their two reasons, and so do the two
    # sides of each turned tie
    for case, (lo, hi) in zip([c for c in EDGE_CASES for _ in EDGE_TURNS],
                              edge_ties()):
        face, reasons, base, scale, direction = case
        assert [misplaced_member(EDGE_WORLD, face, np.add(
            base, np.multiply(scale, direction) * s))[0] for s in (-1, 1)] \
            == list(reasons)
        assert (misplaced_member(EDGE_WORLD, face, lo)[0],
                misplaced_member(EDGE_WORLD, face, hi)[0]) == reasons


# ------------------------------------------------------------- measurements

def test_measurement_determinism():
    sw = resting_world()
    noise = NoiseConfig(sigma_force=0.2, sigma_torque=0.02, sigma_hand_pos=1e-3,
                        sigma_hand_angle=1e-3, sigma_vision=0.01)
    f1 = synthesize_measurements(sw, 12345, noise)
    f2 = synthesize_measurements(sw, 12345, noise)
    np.testing.assert_array_equal(f1.wrench_meas.force, f2.wrench_meas.force)
    assert f1.wrench_meas.torque == f2.wrench_meas.torque
    np.testing.assert_array_equal(f1.hand_pose_meas.position,
                                  f2.hand_pose_meas.position)
    np.testing.assert_array_equal(f1.vision_vertices, f2.vision_vertices)


@pytest.mark.parametrize("field", ["sigma_force", "sigma_torque",
                                   "sigma_hand_pos", "sigma_hand_angle",
                                   "sigma_vision"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-3])
def test_noise_config_rejects_bad_sigmas(field, bad):
    # a NaN sigma would otherwise come back as NaN measurements, no error
    with pytest.raises(ValueError):
        NoiseConfig(**{field: bad})


def test_noise_config_rejects_bad_vision_periods_and_factors():
    # a bool is an int to isinstance: True would give vision every step
    for period in (2.5, -1, None, True, False):
        with pytest.raises(ValueError):
            NoiseConfig(vision_period=period)
    with pytest.raises(ValueError):
        NoiseConfig().scaled(-1.0)
    with pytest.raises(ValueError):
        NoiseConfig().scaled(float("nan"))
    # the settings the tests and the benchmark run stay valid
    assert NoiseConfig().scaled(0.2).vision_period == 10
    assert ZERO_NOISE.scaled(3.0) == ZERO_NOISE
    assert dataclasses.replace(NoiseConfig(), vision_period=0).vision_period == 0


def test_zero_noise_reproduces_truth():
    sw = resting_world()
    f = synthesize_measurements(sw, 0, ZERO_NOISE)
    np.testing.assert_array_equal(f.hand_pose_meas.position,
                                  sw.hand_pose.position)
    np.testing.assert_array_equal(f.vision_vertices, sw.vertices_world())
    np.testing.assert_array_equal(f.wrench_meas.force, [0.0, 0.0])


def test_force_noise_statistics():
    sw = resting_world()
    noise = NoiseConfig(sigma_force=0.1, sigma_torque=0.0, sigma_hand_pos=0.0,
                        sigma_hand_angle=0.0, sigma_vision=0.0)
    gen = np.random.default_rng(99)
    xs = np.array([synthesize_measurements(sw, gen, noise).wrench_meas.force[0]
                   for _ in range(4000)])
    assert np.std(xs) == pytest.approx(0.1, rel=0.05)
    assert np.mean(xs) == pytest.approx(0.0, abs=0.01)


def test_vision_period_gating():
    sw = resting_world()
    assert synthesize_measurements(sw, 0).vision_vertices is not None
    for k in range(1, 10):
        sk = sw.with_poses(sw.object_pose, sw.hand_pose, t_index=k)
        assert synthesize_measurements(sk, 0).vision_vertices is None
    s10 = sw.with_poses(sw.object_pose, sw.hand_pose, t_index=10)
    assert synthesize_measurements(s10, 0).vision_vertices is not None
    assert synthesize_measurements(sw, 0, vision_period=0).vision_vertices is None


def test_observation_strips_truth():
    sw = resting_world()
    frame = synthesize_measurements(sw, 3)
    obs = Observation.from_frame(frame)
    assert not hasattr(obs, "truth_world")
    assert not hasattr(obs, "truth_label")
    d = frame.to_json()
    assert "truth" in d and "object_pose" in d["truth"]


# ------------------------------------------------------------------ stepping

def test_step_advances_and_labels():
    sw = flush_world(0.0805)
    assert sw.contact_mode is None and sw.contact_label is None
    nw, frame = step(sw, PlanarPose([0.0, 0.079], 0.0), rng=0)
    assert nw.t_index == 1
    assert frame.t_index == 1
    assert frame.t == pytest.approx(0.01)
    assert nw.contact_label["hand"] == "stick_flush"
    assert nw.contact_label["ground"] == [[0, "stick"], [1, "stick"]]
    # the stored truth is the resolved hypothesis; its JSON record is read
    # through, the same on the world, the frame and the frame's log record
    assert nw.contact_label == nw.contact_mode.to_json()
    assert frame.truth_label == nw.contact_label
    assert frame.to_json()["truth"]["label"] == nw.contact_label
    assert nw.penetration_depth() >= -1e-9
    # second press step from the settled state changes nothing
    nw2, _ = step(nw, PlanarPose([0.0, 0.079], 0.0), rng=1)
    assert np.hypot(*(np.asarray(nw2.object_pose.position)
                      - nw.object_pose.position)) < 1e-12


def test_step_sequence_deterministic(monkeypatch):
    sols = tap_solutions(monkeypatch)

    def run():
        sw = flush_world(0.0805)
        gen = np.random.default_rng(7)
        noise = dataclasses.replace(NoiseConfig(), vision_period=5)
        out, worlds = [], []
        for k in range(12):
            tgt = PlanarPose([0.001 * np.sin(0.3 * k), 0.0795], 0.0)
            sw, fr = step(sw, tgt, rng=gen, noise=noise)
            worlds.append(sw)
            out.append((fr.wrench_meas.force.tolist(),
                        fr.hand_pose_meas.position.tolist(),
                        None if fr.vision_vertices is None
                        else fr.vision_vertices.tolist()))
        return out, worlds

    (a, worlds), (b, _) = run(), run()
    assert a == b
    # vision arrives every noise.vision_period steps
    assert [w.t_index for w, (*_, v) in zip(worlds, a)
            if v is not None] == [5, 10]
    assert_matches_recording(sols[:12], worlds,
                             RECORDED["step_sequence_deterministic"])


def test_step_raises_typed_invariant_violations(monkeypatch):
    # a resolver answer that breaks one invariant at a time: step() refuses
    # each with the invariant named and every residual attached, whether or
    # not Python runs with assertions
    sw = flush_world(0.0800)
    tgt = PlanarPose([0.001, 0.079], 0.0)
    good = resolve_mode(sw, tgt)
    assert good.hypothesis.hand_mode == "slide_neg_flush"
    i = next(j for j, c in enumerate(good.contacts) if c.iface == "hand")
    hand = good.contacts[i]

    def with_hand(**changes):
        contacts = list(good.contacts)
        contacts[i] = dataclasses.replace(hand, **changes)
        return dataclasses.replace(good, contacts=tuple(contacts))

    sunk = PlanarPose(good.object_pose.position + np.array([0.0, -1e-3]),
                      good.object_pose.angle)
    broken = {
        "balance": dataclasses.replace(good, residual_norm=1e-3),
        "cone": with_hand(f_tangent=2.0 * sw.mu_hand * hand.f_normal),
        "complementarity": with_hand(f_tangent=0.0),
        "penetration": dataclasses.replace(good, object_pose=sunk),
    }
    for invariant, sol in broken.items():
        monkeypatch.setattr(engine, "resolve_mode", lambda *a, sol=sol, **k: sol)
        with pytest.raises(InvariantViolation) as exc:
            step(sw, tgt, rng=0)
        assert exc.value.invariant == invariant
        res = exc.value.residuals
        assert set(res) == set(broken)
        assert res["balance"] > 1e-6 if invariant == "balance" \
            else res["balance"] <= 1e-6
    assert res["penetration"] == pytest.approx(-1e-3, rel=1e-6)
    monkeypatch.setattr(engine, "resolve_mode", lambda *a, **k: good)
    step(sw, tgt, rng=0)

    # the tolerances the step() docstring promises: balance to 1e-6 and
    # penetration to 1e-9, each tried 1% past and 1% inside
    ground = float(sw.with_poses(good.object_pose, good.hand_pose)
                   .ground_gaps().min())

    def sunk_by(depth):
        pose = PlanarPose(good.object_pose.position
                          - np.array([0.0, ground + depth]),
                          good.object_pose.angle)
        return dataclasses.replace(good, object_pose=pose)

    edges = [("balance", 1.01e-6,
              dataclasses.replace(good, residual_norm=1.01e-6),
              dataclasses.replace(good, residual_norm=0.99e-6)),
             ("penetration", -1.01e-9, sunk_by(1.01e-9), sunk_by(0.99e-9))]
    for invariant, value, past, inside in edges:
        monkeypatch.setattr(engine, "resolve_mode",
                            lambda *a, sol=past, **k: sol)
        with pytest.raises(InvariantViolation) as exc:
            step(sw, tgt, rng=0)
        assert exc.value.invariant == invariant
        assert exc.value.residuals[invariant] == pytest.approx(value,
                                                               rel=1e-4)
        monkeypatch.setattr(engine, "resolve_mode",
                            lambda *a, sol=inside, **k: sol)
        step(sw, tgt, rng=0)


# ------------------------------------------------------------ property tests

def _resting_case(seed, n):
    """Convex hull of n random points, posed with face 0 flat on the ground
    and statically stable (centroid strictly over the support span), or None
    when the draw gives no such polygon."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.06, 0.06, size=(n, 2))
    from ccfg.core import convex_hull
    hull = convex_hull(pts)
    if len(hull) < 3:
        return None
    poly = PolygonModel(hull)
    if poly.area() < 2e-3:
        return None
    # rotate face 0 down: its outward normal becomes (0, -1)
    a, b = poly.face_endpoints(0)
    edge = b - a
    ang = -float(np.arctan2(edge[1], edge[0]))
    R = rotation(ang)
    verts = (R @ np.asarray(poly.vertices).T).T
    lo = float(np.min(verts[:, 1]))
    pose = PlanarPose([0.0, -lo], ang)
    world_face = [pose.transform(a), pose.transform(b)]
    cx = float(pose.transform(poly.centroid())[0])
    x0, x1 = sorted([world_face[0][0], world_face[1][0]])
    if not (x0 + 0.005 < cx < x1 - 0.005):
        return None
    return poly, pose


@st.composite
def resting_polygons(draw):
    return _resting_case(draw(st.integers(0, 10_000)),
                         draw(st.integers(4, 8)))


def assert_rests_in_balance(poly, pose):
    sw = SimWorld(polygon=poly, object_pose=pose,
                  hand_pose=PlanarPose([0.0, 1.0], 0.0),
                  hand=HandModel(half_length=0.05),
                  world=WorldModel(ground_height=0.0), mass=0.8,
                  com=poly.centroid(), mu_hand=0.9, mu_ground=0.4,
                  mu_wall=0.3, stiffness=np.array([600.0, 600.0, 20.0]))
    sol = resolve_mode(sw, sw.hand_pose)
    np.testing.assert_allclose(env_force(sol), [0.0, 0.8 * 9.81],
                               atol=1e-7)
    fres, tres = net_wrench_residual(sw, sol)
    assert fres < 1e-7 and tres < 1e-7
    assert abs(sol.object_pose.angle - pose.angle) < 1e-9
    return sol


def test_three_vertices_near_ground_rest_on_adjacent_pair():
    # Hexagon whose bottom face is flat on the ground with the next corner
    # only 0.47 mm up: three vertices inside the activation band. Support
    # must land on the two touching vertices; pairing the band extremes
    # would demand the raised corner descend while pinned in x, which no
    # rigid motion satisfies.
    hull = np.array([[-0.04972209994276507, -0.03158273920846803],
                     [-0.00251384422309991, -0.04083133024355057],
                     [0.02814925816910574, -0.04635935760943159],
                     [0.03615293582476763, 0.00985944432772413],
                     [-0.00832463755029866, 0.01041582857257689],
                     [-0.04870456293115209, -0.00802476717162314]])
    poly = PolygonModel(hull)
    pose = PlanarPose([0.0, 0.04055291706211488], 0.19346023401455548)
    sw = make_world(pose, PlanarPose([0.0, 10.0], 0.0), polygon=poly,
                    mass=0.8, com=poly.centroid())
    gaps = sw.ground_gaps()
    assert np.count_nonzero(gaps <= 1e-3) == 3

    sol = resolve_mode(sw, sw.hand_pose)
    assert sol.hypothesis.to_json()["ground"] == \
        [[0, "stick"], [1, "stick"], [2, "separate"]]
    np.testing.assert_allclose(env_force(sol), [0.0, 0.8 * 9.81],
                               atol=1e-7)
    assert abs(sol.object_pose.angle - pose.angle) < 1e-9


# A sliver face puts vertex 4, 0.36 mm up and still inside the activation
# band, between the two supports 0 and 1 in x.
SLIVER_PENTAGON = (
    PolygonModel([[-0.03087923805297496, -0.03793304695631396],
                  [0.02009015075090398, -0.05347109205582301],
                  [0.0480993106374296, 0.026780353141326263],
                  [0.02457449083415983, 0.029676051219049496],
                  [-0.03054876987486104, -0.03713094394919626]]),
    PlanarPose([0.0, 0.04528890816008931], 0.2959008582053193))


@settings(max_examples=25, deadline=None)
@given(resting_polygons())
@example(SLIVER_PENTAGON)
def test_any_stable_resting_polygon_balances(case):
    if case is None:
        return
    assert_rests_in_balance(*case)


@pytest.mark.parametrize("seed, n", [(2281, 7), (2281, 8), (2448, 7),
                                     (2962, 4)])
def test_raised_vertex_between_supports_is_not_paired(seed, n):
    # Draws of the strategy above whose tangent order puts a raised in-band
    # vertex between the two supports; the support pair shares a face.
    poly, pose = _resting_case(seed, n)
    sol = assert_rests_in_balance(poly, pose)
    active = [v for v, lab in sol.hypothesis.ground if lab != "separate"]
    assert len(active) == 2
    assert (active[0] - active[1]) % poly.n_vertices in (1, poly.n_vertices - 1)


@settings(max_examples=30, deadline=None)
@given(st.floats(-0.003, 0.003), st.floats(-0.003, 0.001),
       st.floats(-0.02, 0.02))
@example(-0.0017335808181532443, -0.002735139242432411, 0.0078125)
def test_random_flush_commands_stay_physical(dx, dy, dth):
    assert_flush_command_physical(PlanarPose([dx, 0.0802 + dy], dth))


def test_flush_rotation_needs_the_fallback_pass():
    # rotating the hand off the face it lies on: the first pass, with the
    # tip slide labels suppressed under the flush patch, has no feasible
    # mode, and the fallback finds the tip sliding along the top face
    target = PlanarPose([0.003, 0.0802], -0.02)
    sw = flush_world(0.0802)
    first = resolve._solve_pass(sw, target, enumerate_modes(sw))
    assert first.reasons.all() and not first.solutions
    sol = assert_flush_command_physical(target)
    assert sol.hypothesis.hand_mode == "slide_neg_point"
    hc = sol.hypothesis.hand_contact
    assert (hc.kind, hc.face, hc.tip) == ("tip", 2, 1)
    assert sol.trials == 100


def assert_flush_command_physical(target):
    """Resolve target from flush_world(0.0802) and check that the result
    balances, stays in every friction cone, dissipates and does not
    penetrate; returns the solution."""
    sw = flush_world(0.0802)
    sol = resolve_mode(sw, target)
    assert sol.residual_norm <= 1e-9
    for c in sol.contacts:
        mu = {"hand": sw.mu_hand, "ground": sw.mu_ground,
              "wall": sw.mu_wall}[c.iface if c.iface in ("hand", "ground")
                                  else "wall"]
        assert abs(c.f_tangent) <= mu * c.f_normal + 1e-6 + 1e-6 * c.f_normal
        assert c.f_normal >= -1e-9
        # slip and friction must not fight: power flow is non-negative
        assert -c.f_tangent * c.slip >= -1e-12
    nw = sw.with_poses(sol.object_pose, sol.hand_pose)
    assert nw.penetration_depth() >= -1e-9
    fres, tres = net_wrench_residual(sw, sol)
    assert fres < 1e-7 and tres < 1e-7
    return sol
