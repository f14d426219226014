"""Planar geometry and contact-mechanics primitives shared by the whole toolkit."""

from .contact import PointLineContact, point_on_line
from .hull import convex_hull
from .mechanics import FrictionResidual, friction_complementarity_residual
from .polygon import PolygonModel, face_normals
from .pose import (PlanarPose, cross2, hand_normal, hand_tangent, rotate,
                   rotation, wrap_angle)
from .world import (GRAVITY_ACCEL, GravityParams, HandModel, Wall, WorldModel,
                    gravity_torque)
from .wrench import Wrench2, center_of_pressure, transform_torque

__all__ = [
    "FrictionResidual",
    "GRAVITY_ACCEL",
    "GravityParams",
    "HandModel",
    "PlanarPose",
    "PointLineContact",
    "PolygonModel",
    "Wall",
    "WorldModel",
    "Wrench2",
    "center_of_pressure",
    "convex_hull",
    "cross2",
    "face_normals",
    "friction_complementarity_residual",
    "gravity_torque",
    "hand_normal",
    "hand_tangent",
    "point_on_line",
    "rotate",
    "rotation",
    "transform_torque",
    "wrap_angle",
]
