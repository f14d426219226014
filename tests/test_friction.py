"""Wrench-cone estimation: fitting, freezing, violation checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfg.config import FrictionEstConfig
from ccfg.core import Wrench2
from ccfg.errors import NotReady
from ccfg.estimator import (ConeConstraint, WrenchConeEstimate,
                            check_violation, ingest, new_cone_estimate,
                            violation_threshold)
from ccfg.estimator.friction import MAX_HULL_RAYS, _thin_rays

SCALE = 0.05  # m, hand half-length used as the torque normalizer


def cone_wrenches(rng, n, mu, sigma_force=0.0, sigma_torque=0.0):
    """Wrenches from a ground-style friction cone about +y with COP on the
    patch, optionally corrupted by sensor noise."""
    fn = rng.uniform(2.0, 8.0, size=n)
    ft = rng.uniform(-mu, mu, size=n) * fn
    cop = rng.uniform(-SCALE, SCALE, size=n)
    force = np.stack([ft, fn], axis=1) + rng.normal(0.0, sigma_force, (n, 2))
    tau = cop * fn + rng.normal(0.0, sigma_torque, n)
    return [Wrench2(force[i], tau[i]) for i in range(n)]


def fit_from(wrenches, config=None):
    est = new_cone_estimate("ground", SCALE)
    for w in wrenches:
        est = ingest(est, w, "ground", external_contact_allowed=False,
                     config=config)
    return est


def force_facet_rays(est):
    """Edge directions of the fitted force-plane wedge.

    A facet normal determines its edge ray only up to sign; these tests all
    use cones supported on +y, so orient each ray upward.
    """
    rays = []
    for c in est.constraints:
        if abs(c.normal[2]) < 1e-12:
            r = np.array([-c.normal[1], c.normal[0]])
            rays.append(r if r[1] > 0 else -r)
    return rays


def test_frozen_ingest_is_identity():
    est = fit_from(cone_wrenches(np.random.default_rng(0), 30, 0.5))
    frozen = ingest(est, Wrench2([0.0, 5.0], 0.0), "ground", True)
    assert frozen.frozen
    again = ingest(frozen, Wrench2([50.0, -3.0], 2.0), "ground", True)
    assert again is frozen
    # byte identical through any number of frozen ingests, learning or not
    third = ingest(again, Wrench2([1.0, 1.0], 0.0), "ground", False)
    assert third is frozen
    assert third.to_json() == frozen.to_json()


def test_warmup_guard_below_twenty_samples():
    rng = np.random.default_rng(1)
    ws = cone_wrenches(rng, 19, 0.5)
    est = fit_from(ws)
    assert not est.ready
    assert est.constraints == ()
    with pytest.raises(NotReady):
        check_violation(est, Wrench2([0.0, 5.0], 0.0))
    est = ingest(est, Wrench2([0.1, 5.0], 0.0), "ground", False)
    assert est.ready
    assert est.sample_count == 20


def test_fitted_half_angle_matches_generating_cone():
    rng = np.random.default_rng(7)
    est = fit_from(cone_wrenches(rng, 500, 0.5, sigma_force=0.05))
    lo, hi = force_facet_rays(est)
    span = math.acos(float(np.clip(lo @ hi, -1.0, 1.0)))
    assert span / 2 == pytest.approx(math.atan(0.5), abs=math.radians(3.0))
    # both edges straddle the support direction symmetrically
    assert lo[1] > 0 and hi[1] > 0
    assert lo[0] * hi[0] < 0


def test_violation_sign_inside_boundary_outside():
    # handmade single-facet estimate: forces must stay left of the +y axis
    est = WrenchConeEstimate(
        context="ground", scale_length=SCALE,
        constraints=(ConeConstraint(np.array([1.0, 0.0, 0.0])),),
        sample_count=100)
    inside = check_violation(est, Wrench2([-2.0, 5.0], 0.0))
    assert inside.max_violation < 0
    boundary = check_violation(est, Wrench2([0.0, 5.0], 0.0))
    assert boundary.max_violation == pytest.approx(0.0, abs=1e-9)
    outside = check_violation(est, Wrench2([2.0, 5.0], 0.0))
    assert outside.max_violation == pytest.approx(2.0)
    assert outside.violating_index == 0


def test_lateral_push_outside_learned_cone_flags():
    rng = np.random.default_rng(3)
    est = fit_from(cone_wrenches(rng, 400, 0.5))
    # tangential ratio 0.8 exceeds the mu=0.5 wedge the samples span
    bad = check_violation(est, Wrench2([0.8 * 5.0, 5.0], 0.0))
    assert bad.max_violation > 0
    ok = check_violation(est, Wrench2([0.2 * 5.0, 5.0], 0.0))
    assert ok.max_violation < 0


def test_out_of_patch_torque_flags():
    rng = np.random.default_rng(4)
    est = fit_from(cone_wrenches(rng, 400, 0.5))
    # center of pressure 5 patch-lengths off the physical contact
    bad = check_violation(est, Wrench2([0.0, 5.0], 5.0 * SCALE * 5.0))
    assert bad.max_violation > 0


def test_in_cone_samples_within_noise_bound():
    sigma_f = 0.1
    rng = np.random.default_rng(11)
    ws = cone_wrenches(rng, 800, 0.5, sigma_force=sigma_f, sigma_torque=0.01)
    est = fit_from(ws)
    violations = np.array([check_violation(est, w).max_violation for w in ws])
    assert np.mean(violations <= 3.0 * sigma_f) >= 0.99
    # every constraint holds for >= 95% of the samples that built it
    for j, c in enumerate(est.constraints):
        vals = est.samples @ c.normal - c.offset
        assert np.mean(vals <= 3.0 * sigma_f) >= 0.95, f"constraint {j}"


def test_ring_buffer_caps_and_counts():
    cfg = FrictionEstConfig(buffer_size=50)
    rng = np.random.default_rng(5)
    est = fit_from(cone_wrenches(rng, 120, 0.3), config=cfg)
    assert est.samples.shape == (50, 3)
    assert est.sample_count == 120


def test_freeze_before_ready_stays_not_ready():
    est = new_cone_estimate("hand", SCALE)
    est = ingest(est, Wrench2([0.0, 3.0], 0.0), "hand", False)
    est = ingest(est, Wrench2([0.0, 3.0], 0.0), "hand", True)
    assert est.frozen and not est.ready
    with pytest.raises(NotReady):
        check_violation(est, Wrench2([0.0, 3.0], 0.0))


def test_json_round_trip():
    rng = np.random.default_rng(6)
    est = fit_from(cone_wrenches(rng, 60, 0.4))
    back = WrenchConeEstimate.from_json(est.to_json())
    assert back.context == est.context
    assert back.sample_count == est.sample_count
    # a reloaded cone has no samples, so it must carry its noise estimate to
    # run the same wall test as the original
    assert est.noise_sigma > 0
    assert back.noise_sigma == est.noise_sigma
    assert violation_threshold(back) == violation_threshold(est)
    assert len(back.constraints) == len(est.constraints)
    for a, b in zip(back.constraints, est.constraints):
        np.testing.assert_allclose(a.normal, b.normal)
        assert a.offset == b.offset


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
       mu=st.floats(0.05, 1.2))
def test_fit_properties_random_streams(seed, n, mu):
    rng = np.random.default_rng(seed)
    est = fit_from(cone_wrenches(rng, n, mu))
    assert len(est.constraints) in (0, 4)
    for c in est.constraints:
        assert np.linalg.norm(c.normal) == pytest.approx(1.0)
    assert est.ready == (n >= FrictionEstConfig().min_samples)


def thin_rays_reference(rays, angles):
    """Bin-by-bin loop: each bin keeps its argmin and argmax angle."""
    lo, hi = float(angles.min()), float(angles.max())
    bins = np.minimum((MAX_HULL_RAYS * (angles - lo) / (hi - lo)).astype(int),
                      MAX_HULL_RAYS - 1)
    keep = set()
    for b in np.unique(bins):
        members = np.nonzero(bins == b)[0]
        keep.add(members[np.argmin(angles[members])])
        keep.add(members[np.argmax(angles[members])])
    return rays[sorted(keep)]


def test_thin_rays_matches_bin_loop_with_ties():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(MAX_HULL_RAYS + 1, 2000))
        angles = rng.uniform(-0.4, 0.4, n)
        if trial % 2:
            # few distinct angles: every bin holds ties at both extremes
            angles = np.round(angles * 40) / 40
        rays = np.c_[np.cos(angles), np.sin(angles), np.arange(n)]
        assert np.array_equal(_thin_rays(rays, angles),
                              thin_rays_reference(rays, angles))
