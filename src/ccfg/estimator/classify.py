"""Per-frame contact classification from tactile measurements.

Maps a measured hand wrench plus the previous kinematic estimate to a guess of
the contact configuration: what the hand touches (nothing, a face flush, a
hand endpoint on an object face, an object vertex on the hand line), what the
ground touches (a vertex or a whole face), whether a wall is engaged, and
whether each interface sticks or slides. The downstream estimator uses these
labels to pick which kinematic factors to add, so the classifier prefers
being conservative and debounced over being fast.

Hand-side decisions run on the measured center of pressure along the hand
line. Ground-side decisions use the estimated polygon's lowest vertices and a
weightless center of pressure on the bottom edge. Wall detection compares the
measured wrench against the frozen ground-phase wrench cone; a violation
above the cone's own noise-scaled threshold (friction.violation_threshold)
means some force besides ground friction has appeared.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import (PlanarPose, Wrench2, center_of_pressure, face_normals,
                    hand_normal, hand_tangent)
from ..errors import DegenerateForce
from .friction import (WrenchConeEstimate, check_violation,
                       violation_threshold)

FORCE_THRESHOLD = 2.5     # N; below this the hand is not in contact
DELTA_EDGE = 5e-3         # m; COP-to-hand-endpoint band
DELTA_VERT = 8e-3         # m; COP-to-projected-vertex band
DELTA_LOWEST = 5e-3       # m; strictly-lowest-vertex margin
COP_INTERIOR_FRAC = 0.10  # fraction of edge length for flush COP margin
HYSTERESIS_FRAMES = 3     # consecutive frames before a label switches
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

def _hand_cop_offset(w_meas: Wrench2, hand_pose: PlanarPose,
                     half_length: float) -> float:
    t_hat = hand_tangent(hand_pose.angle)
    center = hand_pose.position
    tip_a = center - half_length * t_hat
    tip_b = center + half_length * t_hat
    cop = center_of_pressure(tip_a, tip_b, w_meas)
    return float(t_hat @ (cop.point - center))


def classify_hand(w_meas: Wrench2, hand_pose: PlanarPose, view: EstimateView):
    """Decision cascade for the hand-side contact geometry.

    Force below threshold means no contact; a COP at a hand endpoint means the
    endpoint presses an object face; a COP at a projected object vertex means
    that vertex rides the hand line. Anything else, a tangential-only load
    with no COP included, is flush against the most anti-parallel face if
    that face lies within 0.1 rad of the hand line, and otherwise the object
    vertex nearest the hand line.
    """
    if float(np.hypot(*w_meas.force)) < FORCE_THRESHOLD:
        return None

    n_hat = hand_normal(hand_pose.angle)
    gaps = np.abs((view.vertices - hand_pose.position) @ n_hat)
    try:
        s = _hand_cop_offset(w_meas, hand_pose, view.hand_half_length)
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


# -- ground geometry -----------------------------------------------------------

def classify_ground(view: EstimateView, w_meas: Wrench2):
    """Ground-side geometry from the estimated polygon and a weightless COP.

    One vertex strictly lowest keeps the object on a point. A level bottom
    edge is flush only while the weightless center of pressure stays
    interior to the edge by a margin; otherwise the contact is the edge
    vertex nearest that COP. The weightless COP is where the ground reaction
    would act if it balanced the hand wrench alone: the object's weight is
    left out, so a sideways push can move it off a face that is flush.
    """
    verts = view.vertices
    ys = verts[:, 1]
    order = np.argsort(ys)
    lowest, second = int(order[0]), int(order[1])
    if ys[second] - ys[lowest] > DELTA_LOWEST:
        return PointOnLine(lowest)

    n = len(verts)
    if (lowest + 1) % n == second:
        face = lowest
    elif (second + 1) % n == lowest:
        face = second
    else:
        # two near-level vertices that do not share an edge: stay on the point
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

    # torque balance about (x*, h) with ground reaction -F acting there
    x_star = c[0] - ((c[1] - h) * F[0] - w_meas.torque) / F[1]
    x_lo, x_hi = min(a[0], b[0]), max(a[0], b[0])
    margin = COP_INTERIOR_FRAC * (x_hi - x_lo)
    if x_lo + margin <= x_star <= x_hi - margin:
        return Flush(face)
    near = face if abs(a[0] - x_star) < abs(b[0] - x_star) else (face + 1) % n
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


# -- debouncing ----------------------------------------------------------------

class LabelFilter:
    """Per-field hysteresis: a changed label must persist for a run of frames
    before it is emitted, suppressing single-frame chatter."""

    FIELDS = ("hand_geometry", "ground_geometry", "wall_contact",
              "hand_slip", "ground_slip")

    def __init__(self):
        self.emitted: Optional[ContactConfiguration] = None
        self._pending = {f: (None, 0) for f in self.FIELDS}

    def update(self, raw: ContactConfiguration) -> ContactConfiguration:
        if self.emitted is None:
            self.emitted = raw
            return raw
        out = {}
        for f in self.FIELDS:
            new = getattr(raw, f)
            cur = getattr(self.emitted, f)
            if new == cur:
                self._pending[f] = (None, 0)
                out[f] = cur
                continue
            cand, count = self._pending[f]
            count = count + 1 if new == cand else 1
            if count >= HYSTERESIS_FRAMES:
                self._pending[f] = (None, 0)
                out[f] = new
            else:
                self._pending[f] = (new, count)
                out[f] = cur
        self.emitted = ContactConfiguration(**out)
        return self.emitted


# -- sim truth adapter -----------------------------------------------------------

def from_sim_truth(label: dict, view: EstimateView) -> ContactConfiguration:
    """Map a simulator truth label record onto a ContactConfiguration so
    predictions and truth share one vocabulary for confusion matrices."""

    def slip_of(name: str) -> str:
        if name.startswith("slide_pos"):
            return "slide_pos"
        if name.startswith("slide_neg"):
            return "slide_neg"
        return "stick"

    hand_geometry = None
    hand_slip = "stick"
    if label and label.get("hand") and label["hand"] != "no_contact":
        hand_slip = slip_of(label["hand"])
        hc = label.get("hand_contact") or {}
        kind = hc.get("kind")
        if kind == "tip":
            hand_geometry = ObjectLineHandPoint(int(hc.get("tip", 1)) or 1)
        elif kind == "vertex":
            hand_geometry = ObjectPointHandLine(int(hc.get("vertex", 0)))
        else:
            # flush and transitional two-point contacts share the flush shape
            hand_geometry = Flush(int(hc.get("face", 0)))

    active = [(int(v), lab) for v, lab in (label or {}).get("ground", [])
              if lab != "separate"]
    if len(active) >= 2:
        verts = sorted(v for v, _ in active)
        n = len(view.vertices)
        face = verts[-1] if verts[0] == 0 and verts[-1] == n - 1 else verts[0]
        ground_geometry = Flush(face)
    elif len(active) == 1:
        ground_geometry = PointOnLine(active[0][0])
    else:
        ground_geometry = PointOnLine(int(np.argmin(view.vertices[:, 1])))
    ground_slip = slip_of(active[0][1]) if active else "stick"

    wall_contact = None
    for wid, v, lab in (label or {}).get("walls", []):
        if lab != "separate":
            wall_contact = WallContact(int(wid), int(v))
            break

    return ContactConfiguration(hand_geometry, ground_geometry, wall_contact,
                                hand_slip, ground_slip)
