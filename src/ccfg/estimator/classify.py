"""Per-frame contact classification from tactile measurements.

Maps a measured hand wrench plus the previous kinematic estimate to a guess of
the contact configuration: what the hand touches (nothing, a face flush, a
hand endpoint on an object face, an object vertex on the hand line), what the
ground touches (a vertex or a whole face), whether a wall is engaged, and
whether each interface sticks or slides. The downstream estimator uses these
labels to pick which kinematic factors to add, so the classifier prefers
being conservative over being fast. from_sim_truth maps the simulator's
resolved contact mode onto the same labels.

Hand-side decisions run on the measured center of pressure along the hand
line. Ground-side decisions use the estimated polygon's lowest vertices and a
weightless center of pressure on the bottom edge. Wall detection compares the
measured wrench against the frozen ground-phase wrench cone; a violation
above the cone's own noise-scaled threshold (friction.violation_threshold)
means some force besides ground friction has appeared.

classify_hand and classify_ground run every frame on one wrench and a few
vertices. At that size numpy's fixed cost per call, about a microsecond, is
most of the work, so they read those numbers once (.tolist()) and decide on
Python floats, with the formulas numpy evaluated. The last bit of a dot
product or a hypot can differ from numpy's (BLAS may fuse a multiply-add;
np.hypot is libm's), which moves a label only when a value lies within
rounding of a band edge or of a tie. Exact ties go to the lowest index.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import PlanarPose, Wrench2, center_of_pressure
from ..errors import DegenerateForce
from .friction import (WrenchConeEstimate, check_violation,
                       violation_threshold)

FORCE_THRESHOLD = 2.5     # N; below this the hand is not in contact
DELTA_EDGE = 5e-3         # m; COP-to-hand-endpoint band
DELTA_VERT = 8e-3         # m; COP-to-projected-vertex band
DELTA_LOWEST = 5e-3       # m; strictly-lowest-vertex margin
COP_INTERIOR_FRAC = 0.10  # fraction of edge length for flush COP margin
SLIP_SPEED_TOL = 1e-4     # m/s below which contacts count as sticking
SLIP_BOUNDARY_BAND = 0.3  # N; cone-boundary proximity for slip labels


# -- label types --------------------------------------------------------------

@dataclass(frozen=True)
class Flush:
    """Whole face against the opposing line (hand or ground)."""
    face: int

    def to_json(self):
        return {"kind": "flush", "face": self.face}


@dataclass(frozen=True)
class ObjectLineHandPoint:
    """A hand endpoint pressing the interior of an object face."""
    endpoint: int  # +1 or -1 along the hand tangent

    def to_json(self):
        return {"kind": "object_line_hand_point", "endpoint": self.endpoint}


@dataclass(frozen=True)
class ObjectPointHandLine:
    """An object vertex against the interior of the hand line."""
    vertex: int

    def to_json(self):
        return {"kind": "object_point_hand_line", "vertex": self.vertex}


@dataclass(frozen=True)
class PointOnLine:
    """A single object vertex on the ground line."""
    vertex: int

    def to_json(self):
        return {"kind": "point_on_line", "vertex": self.vertex}


@dataclass(frozen=True)
class WallContact:
    wall_id: int
    vertex: int

    def to_json(self):
        return {"kind": "wall", "wall_id": self.wall_id, "vertex": self.vertex}


@dataclass(frozen=True)
class ContactConfiguration:
    hand_geometry: object          # None | Flush | ObjectLineHandPoint | ObjectPointHandLine
    ground_geometry: object        # PointOnLine | Flush
    wall_contact: Optional[WallContact]
    hand_slip: str                 # "stick" | "slide_pos" | "slide_neg"
    ground_slip: str


@dataclass(frozen=True)
class EstimateView:
    """The slice of a kinematic estimate the classifier needs.

    vertices are the estimated object vertices in the world frame, CCW, as
    an (n >= 3, 2) array; walls are the world's wall planes (empty tuple when
    the scene has none). Every number must be finite and the half-length
    positive: a NaN vertex or height would otherwise come back as a
    confident label.
    """

    vertices: np.ndarray
    ground_height: float
    hand_half_length: float
    walls: tuple = ()

    def __post_init__(self):
        # checks only: the vertices are neither copied nor altered
        shape = np.shape(self.vertices)
        if (len(shape) != 2 or shape[0] < 3 or shape[1] != 2
                or not np.isfinite(self.vertices).all()):
            raise ValueError("estimate vertices must be a finite (n >= 3, 2) "
                             "array")
        # plain comparisons, false for NaN
        if not -math.inf < self.ground_height < math.inf:
            raise ValueError("estimate ground_height must be finite")
        if not 0 < self.hand_half_length < math.inf:
            raise ValueError("estimate hand_half_length must be positive "
                             "and finite")


# -- hand geometry -------------------------------------------------------------

def classify_hand(w_meas: Wrench2, hand_pose: PlanarPose, view: EstimateView):
    """Decision cascade for the hand-side contact geometry.

    Force below threshold means no contact; a COP at a hand endpoint means the
    endpoint presses an object face; a COP at a projected object vertex means
    that vertex rides the hand line. Anything else, a tangential-only load
    with no COP included, is flush against the most anti-parallel face if
    that face lies within 0.1 rad of the hand line, and otherwise the object
    vertex nearest the hand line. Of equally near vertices or equally
    anti-parallel faces, the lowest index wins.
    """
    fx, fy = w_meas.force.tolist()
    if math.hypot(fx, fy) < FORCE_THRESHOLD:
        return None

    px, py = hand_pose.position.tolist()
    # hand_tangent and hand_normal of the hand angle
    tx, ty = math.cos(hand_pose.angle), math.sin(hand_pose.angle)
    nx, ny = ty, -tx
    verts = view.vertices.tolist()
    rel = [(x - px, y - py) for x, y in verts]
    gaps = [abs(dx * nx + dy * ny) for dx, dy in rel]
    L = view.hand_half_length
    try:
        (qx, qy), _ = center_of_pressure((px - L * tx, py - L * ty),
                                         (px + L * tx, py + L * ty), w_meas)
    except DegenerateForce:
        pass  # tangential-only load: no COP to reason from
    else:
        s = (qx - px) * tx + (qy - py) * ty
        if abs(s - L) <= DELTA_EDGE or abs(s + L) <= DELTA_EDGE:
            return ObjectLineHandPoint(endpoint=1 if s > 0 else -1)
        near = [i for i, (dx, dy) in enumerate(rel)
                if abs(dx * tx + dy * ty - s) <= DELTA_VERT]
        if near:
            return ObjectPointHandLine(min(near, key=gaps.__getitem__))

    # face_normals . n_hat: face i runs from vertex i to vertex i + 1
    dots = []
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        ex, ey = bx - ax, by - ay
        length = math.hypot(ex, ey)
        if not length:
            break  # coincident vertices: no normal, so no flush face
        dots.append(ey / length * nx - ex / length * ny)
    else:
        flush_face = dots.index(min(dots))
        if dots[flush_face] < -math.cos(0.1):
            return Flush(flush_face)
    return ObjectPointHandLine(gaps.index(min(gaps)))


# -- ground geometry -----------------------------------------------------------

def classify_ground(view: EstimateView, w_meas: Wrench2):
    """Ground-side geometry from the estimated polygon and a weightless COP.

    One vertex strictly lowest keeps the object on a point. A level bottom
    edge is flush only while the weightless center of pressure stays
    interior to the edge by a margin; otherwise the contact is the edge
    vertex nearest that COP. The weightless COP is where the ground reaction
    would act if it balanced the hand wrench alone: the object's weight is
    left out, so a sideways push can move it off a face that is flush.
    Vertices of equal height rank by index.
    """
    verts = view.vertices.tolist()
    n = len(verts)
    ys = [y for _, y in verts]
    lowest, second = sorted(range(n), key=ys.__getitem__)[:2]
    if ys[second] - ys[lowest] > DELTA_LOWEST:
        return PointOnLine(lowest)

    if (lowest + 1) % n == second:
        face = lowest
    elif (second + 1) % n == lowest:
        face = second
    else:
        # two near-level vertices that do not share an edge: stay on the point
        return PointOnLine(lowest)
    ax, bx = verts[face][0], verts[(face + 1) % n][0]

    fx, fy = w_meas.force.tolist()
    cx, cy = w_meas.reference.tolist()
    h = view.ground_height
    if math.hypot(fx, fy) < 1e-9:
        return Flush(face)
    if abs(fy) < 1e-9:
        near = face if abs(ax - cx) < abs(bx - cx) else (face + 1) % n
        return PointOnLine(near)

    # torque balance about (x*, h) with ground reaction -F acting there
    x_star = cx - ((cy - h) * fx - w_meas.torque) / fy
    x_lo, x_hi = min(ax, bx), max(ax, bx)
    margin = COP_INTERIOR_FRAC * (x_hi - x_lo)
    if x_lo + margin <= x_star <= x_hi - margin:
        return Flush(face)
    near = face if abs(ax - x_star) < abs(bx - x_star) else (face + 1) % n
    return PointOnLine(near)


# -- wall detection ------------------------------------------------------------

def classify_wall(w_meas: Wrench2, ground_cone: WrenchConeEstimate,
                  walls_active: bool, view: EstimateView
                  ) -> Optional[WallContact]:
    """Wall contact iff the measured wrench leaves the frozen ground cone by
    more than violation_sigma_factor times the cone's noise_sigma, the
    robust noise scale of the ground-phase samples it was fit from (see
    friction.violation_threshold). The contact is placed at the estimated
    vertex nearest any wall."""
    if not walls_active or not view.walls:
        return None
    report = check_violation(ground_cone, w_meas)
    if report.max_violation <= violation_threshold(ground_cone):
        return None
    best = None
    for wid, wall in enumerate(view.walls):
        dist = np.abs(view.vertices[:, 0] - wall.x)
        v = int(np.argmin(dist))
        if best is None or dist[v] < best[0]:
            best = (float(dist[v]), wid, v)
    return WallContact(wall_id=best[1], vertex=best[2])


# -- slip labels ---------------------------------------------------------------

def classify_slip(cone: Optional[WrenchConeEstimate], w_meas: Wrench2,
                  rel_tangential_speed: float) -> str:
    """Slide labels need both measured relative motion and a load near the
    friction-cone boundary; everything else is sticking. The speed must be
    finite."""
    if not -math.inf < rel_tangential_speed < math.inf:
        raise ValueError("relative tangential speed must be finite")
    if abs(rel_tangential_speed) < SLIP_SPEED_TOL:
        return "stick"
    if cone is not None and cone.ready:
        v = check_violation(cone, w_meas).max_violation
        if v < -SLIP_BOUNDARY_BAND:
            return "stick"
    return "slide_pos" if rel_tangential_speed > 0 else "slide_neg"


# -- sim truth adapter -----------------------------------------------------------

def from_sim_truth(mode, view: EstimateView) -> ContactConfiguration:
    """Map the simulator's resolved contact mode (SimWorld.contact_mode, a
    sim ContactModeHypothesis) onto a ContactConfiguration so predictions and
    truth share one vocabulary for confusion matrices. None, the mode of a
    world no step has resolved yet, raises ValueError."""
    if mode is None:
        raise ValueError("no resolved step, so no sim truth to map")
    hc = mode.hand_contact
    if mode.hand_label == "none":
        hand_geometry = None
    elif hc.kind == "tip":
        hand_geometry = ObjectLineHandPoint(hc.tip)
    elif hc.kind == "vertex":
        hand_geometry = ObjectPointHandLine(hc.vertex)
    else:
        # flush and transitional two-point contacts share the flush shape
        hand_geometry = Flush(hc.face)
    hand_slip = "stick" if mode.hand_label == "none" else mode.hand_label

    active = [(v, lab) for v, lab in mode.ground if lab != "separate"]
    if len(active) == 2:
        # an active pair shares a face; vertices 0 and n - 1 share the last
        a, b = sorted(v for v, _ in active)
        ground_geometry = Flush(b if b - a > 1 else a)
    elif active:
        ground_geometry = PointOnLine(active[0][0])
    else:
        ground_geometry = PointOnLine(int(np.argmin(view.vertices[:, 1])))
    ground_slip = active[0][1] if active else "stick"
    wall_contact = next((WallContact(wid, v) for wid, v, lab in mode.walls
                         if lab != "separate"), None)
    return ContactConfiguration(hand_geometry, ground_geometry, wall_contact,
                                hand_slip, ground_slip)
