"""Estimation stack: friction cones, contact classification, kinematics."""

from .classify import (ContactConfiguration, EstimateView, Flush,
                       ObjectLineHandPoint, ObjectPointHandLine, PointOnLine,
                       WallContact, classify_ground, classify_hand,
                       classify_slip, classify_wall, from_sim_truth)
from .friction import (ConeConstraint, ViolationReport, WrenchConeEstimate,
                       check_violation, ingest, new_cone_estimate,
                       violation_threshold)

__all__ = [
    "ConeConstraint",
    "ContactConfiguration",
    "EstimateView",
    "Flush",
    "ObjectLineHandPoint",
    "ObjectPointHandLine",
    "PointOnLine",
    "ViolationReport",
    "WallContact",
    "WrenchConeEstimate",
    "check_violation",
    "classify_ground",
    "classify_hand",
    "classify_slip",
    "classify_wall",
    "from_sim_truth",
    "ingest",
    "new_cone_estimate",
    "violation_threshold",
]
