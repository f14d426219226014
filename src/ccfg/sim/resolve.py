"""Quasi-static step resolution.

Each mode hypothesis fixes which contacts are active and how they behave
(stick, slide with a given sign).  That turns one simulation step into a
square root-finding problem:

unknowns   object pose delta (3), hand pose delta (3), one (f_n, f_t) pair
           per active contact point
equations  object force/torque balance including gravity (3), hand
           force/torque balance against the impedance spring (3), and two
           rows per active contact

Every contact is one generic row: a material point of one body held on a
line of another.  An object vertex on the hand line, a hand tip on an object
face and an object vertex on the ground or a wall (lines of the fixed world)
differ only in their data.  The force f_n n + f_t t, with n and t fixed in
the line's frame, acts at the point on the point's body and its reaction on
the line's body.  Stick pins the point to the line's material point it is
held on, as a gap in a fixed world basis (world x/y at the hand, the line's
own normal and tangent at the ground and walls); slide keeps the normal gap
closed and ties f_t to -s * mu * f_n.  A face seated on the hand is two
point contacts at the overlap patch ends, which reproduces the patch torque
limits through f_n >= 0 at both ends.

All hypotheses of one enumeration pass are solved together by Newton
iteration with analytic Jacobians: one stacked iterate, one stacked residual
and Jacobian per iteration, one stacked LU solve per system size.  A member
leaves the batch when it converges (max |R| <= 1e-10), diverges (a
non-finite step or a pose step above 0.5) or has taken 40 steps, after which
its residual is evaluated once more.  Two collinear stick points leave the
tangential split statically indeterminate and wrench-neutral: those systems,
and any whose LU step is singular or above 1e8, take minimum-norm (gelsy)
steps, and the report redistributes the split in proportion to the normal
forces.

Before any block is built, a hypothesis whose contacts all lie on lines of
the fixed world (ground, walls) is screened: its object x/y balance rows
and slide rows are linear in the contact forces with constant coefficients,
since a world line's n and t are never rotated and gravity is constant.
When their least-squares residual is far above the convergence test (for
example the all-separate mode, or every contact sliding one way), no iterate
can converge, and the trial is rejected as no_converge with no Jacobian
evaluated.  This is exact: a member's Newton trajectory depends only on its
own iterate (residuals are elementwise, each LU or gelsy solve is per
member, padding slots add exact zeros), and such a member ends no_converge
whether it diverges or stalls, so every other trial and every reason come
out as without the screen.

Among the hypotheses that survive all feasibility checks the resolver picks
the one with minimal slip dissipation (sum of squared tangential relative
displacements).  Among modes within 1e-13 of the least it prefers more
sticking contacts, then fewer active contacts, then the lesser repr of
to_json(): a key of the hypothesis alone, so the choice does not depend on
the order the hypotheses are listed in.  The repr is unique among feasible
trials, which all come from one pass (a wider pass runs only when the last
found nothing), and a pass has at most one flush candidate per face.
"""

import functools
import math
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.linalg import _umath_linalg

from ..core import PlanarPose, Wrench2, cross2, wrap_angle
from ..errors import JammedConfiguration, NoFeasibleMode
from .modes import ACTIVATION_BAND, ContactModeHypothesis, enumerate_modes
from .world import SimWorld

_OBJ, _HAND, _WORLD = 0, 1, 2          # bodies; the world has no unknowns

# Columns of a contact row.  Points and vectors take two columns, in the
# frame of the point's body (p) or of the line's body (the five vectors
# anchor, n, t, pin, origin).  anchor is the stick pin, or for slide any
# point of the line; pin is where the contact started (slip is measured from
# it); the contact must stay within [lo, hi] along t from origin.  basis
# holds the two stick residual rows in world coordinates, s the slide sign
# (0 for stick).
_PB, _LB, _P, _ANCHOR, _N, _BASIS, _LO, _HI, _S, _MU = \
    0, 1, 2, 4, 6, 14, 18, 19, 20, 21
_NCOL = 22

_SIGN = {"stick": 0, "slide_pos": 1, "slide_neg": -1}
_WORLD_POSE = np.array([[0.0], [0.0], [1.0], [0.0]])   # x, y, cos, sin
_GELSY, _GELSY_LWORK = scipy.linalg.get_lapack_funcs(
    ("gelsy", "gelsy_lwork"), dtype=np.float64)
_EPS = float(np.finfo(np.float64).eps)
_SLOTS = 512          # contact slots per batch; keeps its arrays near 1 MB
_FORCE_BOUND = 1e5    # N; beyond this a mode counts as jammed


@dataclass(frozen=True)
class ContactForce:
    """One resolved contact point, world frame, force acting on the object."""

    iface: str
    label: str
    point: tuple
    force: tuple
    f_normal: float
    f_tangent: float
    slip: float


@dataclass(frozen=True)
class ModeSolution:
    hypothesis: ContactModeHypothesis
    object_pose: PlanarPose
    hand_pose: PlanarPose
    contacts: tuple
    hand_wrench: Wrench2
    env_wrench: Wrench2
    dissipation: float
    residual_norm: float
    trials: int
    newton_iterations: int     # Jacobian evaluations summed over all trials
    rejections: dict           # reason -> count over the infeasible trials
    screened: int              # no_converge trials rejected before Newton


# one solved hypothesis: reason is "" when feasible, and then solution holds
# what the report needs
_Trial = namedtuple("_Trial", "hyp reason evaluations solution")


class _ContactRows:
    """Contact rows of the hypotheses of one pass: calling it with a
    hypothesis gives one (row, (iface, label)) per active contact, built once
    per contact however many hypotheses share it."""

    def __init__(self, sw: SimWorld):
        self.sw, self.cache = sw, {}
        self.verts_w, self.t_hat = sw.vertices_world(), sw.hand_tangent()
        self.center, self.half = sw.hand_pose.position, sw.hand.half_length

    def __call__(self, hyp: ContactModeHypothesis) -> list:
        keys = [("hand", hyp.hand_contact, hyp.hand_label)] \
            if hyp.hand_label != "none" else []
        keys += [("ground", v, lab) for v, lab in hyp.ground
                 if lab != "separate"]
        keys += [(k, v, lab) for k, v, lab in hyp.walls if lab != "separate"]
        out = []
        for key in keys:
            if key not in self.cache:
                self.cache[key] = self._build(*key)
            out += self.cache[key]
        return out

    def _build(self, where, which, label):
        sw, hc = self.sw, which
        if where != "hand":         # object vertex on the ground or a wall
            if where == "ground":
                n, t, mu, iface = (0.0, 1.0), (1.0, 0.0), sw.mu_ground, where
                pin = (float(self.verts_w[which, 0]), sw.world.ground_height)
            else:
                wall = sw.world.walls[where]
                n, t = (float(wall.facing), 0.0), (0.0, 1.0)
                mu, iface = sw.mu_wall, f"wall{where}"
                pin = (wall.x, float(self.verts_w[which, 1]))
            return [((_OBJ, _WORLD, *sw.polygon.vertices[which], *pin, *n, *t,
                      *pin, 0.0, 0.0, *n, *t, -math.inf, math.inf,
                      _SIGN[label], mu), (iface, label))]
        if hc.kind == "vertex":
            return [self._on_hand(label, vertex=hc.vertex)]
        if hc.kind == "flush":
            # a sticking patch pins the object material at both patch ends;
            # a sliding one glides the face under fixed hand coordinates
            if label == "stick":
                return [self._on_hand(label, p=(ox, oy), t0=float(t_star))
                        for t_star, ox, oy in hc.anchors]
            return [self._on_face(hc.face, float(t_star), label)
                    for t_star, _, _ in hc.anchors]
        if hc.kind == "pair":
            # slide-only support pair: each patch end is either a hand tip
            # riding the face or a face corner riding the hand line
            if hc.tip != 0:
                return [self._on_face(hc.face, hc.tip * self.half, label),
                        self._on_hand(label, vertex=hc.vertex)]
            return [self._on_hand(label, vertex=vi)
                    for vi in (hc.face, (hc.face + 1) % len(self.verts_w))]
        return [self._on_face(hc.face, hc.tip * self.half, label)]  # a tip

    def _on_hand(self, label, vertex=None, p=None, t0=None):
        """Object vertex (or point p at hand coordinate t0) on the hand."""
        if vertex is not None:
            p = self.sw.polygon.vertices[vertex]
            t0 = float((self.verts_w[vertex] - self.center) @ self.t_hat)
        anchor = (t0, 0.0) if label == "stick" else (0.0, 0.0)
        return ((_OBJ, _HAND, p[0], p[1], *anchor, 0.0, -1.0, 1.0, 0.0,
                 t0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, -self.half, self.half,
                 _SIGN[label], self.sw.mu_hand), ("hand", label))

    def _on_face(self, j, t0, label):
        """Hand point at coordinate t0 riding on object face j.  Slide labels
        run along the hand tangent and the face tangent may run the other
        way, so the sign carries the frame flip."""
        sw = self.sw
        a, b = sw.polygon.face_endpoints(j)
        edge = b - a
        length = float(np.hypot(*edge))
        e_obj = edge / length
        pt_w = self.center + t0 * self.t_hat
        a_w = sw.object_pose.transform(a)
        e_w = sw.object_pose.rotation @ e_obj
        s_start = float(e_w @ (pt_w - a_w))
        flip = 1 if float(e_w @ self.t_hat) >= 0.0 else -1
        s = _SIGN[label] * flip
        anchor = a + min(max(s_start, 0.0), length) * e_obj if s == 0 else a
        return ((_HAND, _OBJ, t0, 0.0, *anchor, *sw.polygon.normals[j],
                 *(-e_obj), *(a + s_start * e_obj), *a, -1.0, 0.0, 0.0, -1.0,
                 -length, 0.0, s, sw.mu_hand), ("hand", label))


class _Batch:
    """The contact rows of a batch of hypotheses sorted by (min_norm,
    contact count), padded with empty slots (world on world, all data zero)
    to C >= 1 slots each, and what the kernel derives from them once: per
    (object, hand) the incidence of point and line and their sign (+1 on the
    point's body, -1 on the line's), and the derivative rows over the pose
    deltas whose translation columns are fixed.  The per-slot data runs over
    the K = M * C slots, member-major, in one array (dropping members is one
    gather); counts and min_norm run over the members."""

    _FIELDS = (("pb", ()), ("lb", ()), ("p", (2,)), ("p_perp", (2,)),
               ("v", (5, 2)), ("v_perp", (5, 2)), ("basis", (2, 2)),
               ("lo", ()), ("hi", ()), ("s", ()), ("s_mu", ()),
               ("on_point", (2,)), ("on_line", (2,)), ("sign", (2,)),
               ("d_angle", (6,)), ("d_gap", (2, 6)), ("d_lever", (2, 2, 6)),
               ("stick_rows", (2, 6)))

    def __init__(self, rows: list, min_norm):
        self.counts = np.array([len(r) for r in rows])
        self.min_norm = min_norm
        self.slots = C = max(1, self.counts.max())
        self.fcol = 6 + 2 * np.arange(C)
        empty = [((_WORLD, _WORLD) + (0.0,) * (_NCOL - 2), None)]
        col = np.array([row for r in rows for row, _ in r + empty * (C - len(r))],
                       dtype=float).T
        K, ids = col.shape[1], np.array([[_OBJ], [_HAND]])
        self.data = np.zeros((sum(math.prod(f) for _, f in self._FIELDS), K))
        self._views()
        self.pb[:], self.lb[:], self.p[:] = col[_PB], col[_LB], col[_P:_P + 2]
        self.v[:] = col[_ANCHOR:_BASIS].reshape(5, 2, K)
        self.p_perp[:] = -self.p[1], self.p[0]              # rotated +90
        self.v_perp[:, 0], self.v_perp[:, 1] = -self.v[:, 1], self.v[:, 0]
        self.basis[:] = col[_BASIS:_LO].reshape(2, 2, K) * (col[_S] == 0)
        self.lo[:], self.hi[:], self.s[:] = col[_LO], col[_HI], col[_S]
        self.s_mu[:] = col[_S] * col[_MU]
        self.on_point[:], self.on_line[:] = col[_PB] == ids, col[_LB] == ids
        self.sign[:] = self.on_point - self.on_line
        self.d_angle[2::3] = self.on_line
        for i in range(2):
            self.d_gap[i, i::3] = self.sign
            self.d_lever[:, i, i::3] = self.on_point - np.eye(2)[..., None]
        self.stick_rows[:] = self.basis[:, 0, None] * self.d_gap[0] \
            + self.basis[:, 1, None] * self.d_gap[1]
        self._views()       # the booleans and indices derived from the rows

    def _views(self):
        K, at = self.data.shape[1], 0
        for name, shape in self._FIELDS:
            size = math.prod(shape)
            setattr(self, name, self.data[at:at + size].reshape(shape + (K,)))
            at += size
        self.stick = self.s == 0
        self.sliding, self.hand_point = ~self.stick, self.pb == _HAND
        self.member = np.repeat(np.arange(len(self.counts)), self.slots)
        self.pi = 3 * self.member + self.pb.astype(np.intp)
        self.li = 3 * self.member + self.lb.astype(np.intp)

    def take(self, keep) -> "_Batch":
        """The members selected by keep (a mask or indices)."""
        idx = np.flatnonzero(keep) if keep.dtype == bool else keep
        out = object.__new__(_Batch)
        out.counts, out.min_norm = self.counts[idx], self.min_norm[idx]
        C, out.slots, out.fcol = self.slots, self.slots, self.fcol
        out.data = self.data[:, (C * idx[:, None] + np.arange(C)).ravel()]
        out._views()
        return out

    def place(self, bodies, vectors=5):
        """Point and line bodies (4, K) for body poses (4, M, 3), the
        point's offset from its body origin and its world position (2, K),
        and the first `vectors` of anchor, n, t, pin, origin rotated into
        the world (vectors, 2, K)."""
        flat = bodies.reshape(4, -1)
        pbody, lbody = flat[:, self.pi], flat[:, self.li]
        offset = pbody[2] * self.p + pbody[3] * self.p_perp
        turned = lbody[2] * self.v[:vectors] + lbody[3] * self.v_perp[:vectors]
        return pbody, lbody, offset, pbody[:2] + offset, turned


def _wrap(theta):
    """wrap_angle on an array."""
    t = np.fmod(theta, 2.0 * math.pi)
    return np.where(t <= -math.pi, t + 2.0 * math.pi,
                    np.where(t > math.pi, t - 2.0 * math.pi, t))


class _Reference:
    """The data of one step that every hypothesis shares."""

    def __init__(self, sw: SimWorld, target: PlanarPose):
        self.position = np.stack([sw.object_pose.position,
                                  sw.hand_pose.position])
        self.angle = np.array([sw.object_pose.angle, sw.hand_pose.angle])
        self.target, self.stiffness = target.as_vector(), sw.stiffness
        self.weight, self.com = sw.mass * sw.world.gravity, sw.com

    def bodies(self, z, wrap=False):
        """x, y, cos, sin (4, M, 3) of object, hand and world at iterates z."""
        pose = z[:, :6].reshape(len(z), 2, 3)
        angle = self.angle + pose[:, :, 2]
        if wrap:
            angle = _wrap(angle)
        out = np.empty((4, len(z), 3))
        out[:2, :, :2] = (self.position + pose[:, :, :2]).transpose(2, 0, 1)
        np.cos(angle, out=out[2, :, :2])
        np.sin(angle, out=out[3, :, :2])
        out[:, :, _WORLD] = _WORLD_POSE
        return out


def _system(z, ref, b):
    """Stacked residuals R (M, n) and Jacobians J (M, n, n) at iterates z.

    Rows: object balance (3), hand balance (3), then two per contact slot.
    Columns: object and hand pose deltas, then (f_n, f_t) per slot.  Empty
    slots have zero residual rows.  Each balance row adds its contacts in
    slot order, like the scalar sum it stands for.
    """
    M, n = z.shape
    C = (n - 6) // 2
    K = M * C
    bodies = ref.bodies(z)
    pbody, lbody, offset, point, turned = b.place(bodies, vectors=3)
    nrm, tan = turned[1], turned[2]
    gap = point - (lbody[:2] + turned[0])
    fn, ft = z[:, 6::2].ravel(), z[:, 7::2].ravel()
    vecs = np.empty((3, 2, K))                 # force on the point body, n, t
    vecs[0] = fn * nrm + ft * tan
    vecs[1:] = turned[1:3]
    force = vecs[0]

    # lever from the object and the hand origin to the point; about the hand,
    # a hand point's lever is its own offset, equal in exact arithmetic and
    # rounded as the trajectories in tests/data/resolver_regression.json
    lever = point - bodies[:2, :, :2].transpose(2, 0, 1)[:, :, b.member]
    np.copyto(lever[1], offset, where=b.hand_point)
    cross = lever[:, None, 0] * vecs[:, 1] - lever[:, None, 1] * vecs[:, 0]
    lever_force = lever[:, 0] * force[0] + lever[:, 1] * force[1]

    co, so = bodies[2, :, _OBJ], bodies[3, :, _OBJ]
    mg, (kx, ky, kth) = ref.weight, ref.stiffness
    balance = np.empty((6, M))
    balance[:2] = ((0.0,), (-mg,))
    balance[2] = -mg * (co * ref.com[0] - so * ref.com[1])
    balance[3:5] = ref.stiffness[:2, None] \
        * (ref.target[:2, None] - bodies[:2, :, _HAND])
    balance[5] = kth * _wrap(ref.target[2] - ref.angle[1] - z[:, 5])
    wrench = np.empty((2, 3, K))
    wrench[:, :2] = force
    wrench[:, 2] = cross[:, 0]
    wrench *= b.sign[:, None]
    rows = np.empty((2, K))
    rows[0] = nrm[0] * gap[0] + nrm[1] * gap[1]
    rows[1] = ft + b.s_mu * fn
    np.copyto(rows, b.basis[:, 0] * gap[0] + b.basis[:, 1] * gap[1],
              where=b.stick)

    # angle columns: rotating the point's offset and the anchor
    th_point = (pbody[2] * b.p_perp - pbody[3] * b.p)[:, None] * b.on_point
    th_gap = th_point - (lbody[2] * b.v_perp[0]
                         - lbody[3] * b.v[0])[:, None] * b.on_line
    d_gap = b.d_gap.copy()
    d_gap[:, 2::3] = th_gap
    d_lever = b.d_lever.copy()
    d_lever[:, :, 2::3] = th_point
    perp_gap = nrm[0] * gap[1] - nrm[1] * gap[0]
    d_rows = b.stick_rows.copy()
    d_rows[:, 2::3] = b.basis[:, 0, None] * th_gap[0] \
        + b.basis[:, 1, None] * th_gap[1]
    np.copyto(d_rows[0], perp_gap * b.d_angle + nrm[0] * d_gap[0]
              + nrm[1] * d_gap[1], where=b.sliding)
    d_wrench = np.empty((2, 3, 6, K))
    d_wrench[:, :2] = np.stack([-force[1], force[0]])[:, None] * b.d_angle
    d_wrench[:, 2] = (d_lever[:, 0] * force[1] - d_lever[:, 1] * force[0]
                      + lever_force[:, None] * b.d_angle)
    d_wrench *= b.sign[:, None, None]
    d_force = np.empty((2, 3, 2, K))
    d_force[:, :2, 0] = nrm
    d_force[:, :2, 1] = tan
    d_force[:, 2] = cross[:, 1:]
    d_force *= b.sign[:, None, None]

    J_pose = np.zeros((6, 6, M))
    J_pose[2, 2] = mg * (so * ref.com[0] + co * ref.com[1])
    J_pose[3, 3], J_pose[4, 4], J_pose[5, 5] = -kx, -ky, -kth
    wrench, d_wrench = wrench.reshape(6, M, C), d_wrench.reshape(6, 6, M, C)
    for c in range(C):
        balance += wrench[..., c]
        J_pose += d_wrench[..., c]

    R = np.empty((M, n))
    R[:, :6] = balance.T
    R[:, 6:] = rows.reshape(2, M, C).transpose(1, 2, 0).reshape(M, 2 * C)
    J = np.zeros((M, n, n))
    J[:, :6, :6] = J_pose.transpose(2, 0, 1)
    J[:, :6, 6:] = d_force.reshape(6, 2, M, C).transpose(2, 0, 3, 1) \
        .reshape(M, 6, 2 * C)
    J[:, 6:, :6] = d_rows.reshape(2, 6, M, C).transpose(2, 3, 0, 1) \
        .reshape(M, 2 * C, 6)
    J[:, b.fcol + 1, b.fcol] = b.s_mu.reshape(M, C)
    J[:, b.fcol + 1, b.fcol + 1] = np.abs(b.s).reshape(M, C)
    return R, J


def _steps(R, J, counts, min_norm):
    """Newton steps dz with J dz = -R for a batch sorted as _Batch sorts it.

    The LU members of each system size are solved in one stack.  The gufunc
    behind np.linalg.solve marks an exactly singular member with NaN where
    np.linalg.solve would raise for the whole stack; such members, steps
    above 1e8 and the min_norm members take a gelsy step instead.
    """
    dz = np.zeros_like(R)
    lu = len(min_norm) - np.count_nonzero(min_norm)
    gelsy = list(range(lu, len(counts)))
    edges = [0, *(np.flatnonzero(np.diff(counts[:lu])) + 1).tolist(), lu]
    for lo, hi in zip(edges[:-1], edges[1:]) if lu else ():
        m = 6 + 2 * counts[lo]
        x = _umath_linalg.solve1(J[lo:hi, :m, :m], -R[lo:hi, :m],
                                 signature="dd->d")
        dz[lo:hi, :m] = x
        gelsy += (lo + np.flatnonzero(~(np.abs(x).max(axis=1) <= 1e8))).tolist()
    for i in gelsy:
        m = 6 + 2 * counts[i]
        lwork = int(_GELSY_LWORK(m, m, 1, _EPS)[0])    # as lstsq sizes it
        dz[i, :m] = _GELSY(J[i, :m, :m], -R[i, :m],
                           np.zeros((m, 1), dtype=np.int32), _EPS, lwork,
                           False, False)[1]
    return dz


def _newton(ref, batch, tol=1e-10, max_iter=40):
    """Newton iteration from zero on every member of a batch at once.

    Returns the iterates (N, n), the final max |R| (inf when diverged) and
    the Jacobian evaluations per member.
    """
    N, n = len(batch.counts), 6 + 2 * batch.slots
    z = np.zeros((N, n))
    res = np.full(N, math.inf)
    evaluations = np.zeros(N, dtype=int)
    live, b = np.arange(N), batch
    with np.errstate(all="ignore"):   # non-finite members are dropped below
        for it in range(max_iter + 1):
            R, J = _system(z[live], ref, b)
            r = np.abs(R).max(axis=1)
            keep = np.isfinite(r)
            done = keep & (r <= tol) if it < max_iter else keep
            res[live[done]] = r[done]
            keep &= ~done
            if keep.any():
                sub = slice(None) if keep.all() else keep
                dz = _steps(R[sub], J[sub], b.counts[sub], b.min_norm[sub])
                good = np.isfinite(dz).all(axis=1) \
                    & (np.abs(dz[:, :6]).max(axis=1) <= 0.5)
                keep[keep] = good
                z[live[keep]] += dz[good]
            if not keep.all():
                evaluations[live[~keep]] = it + 1
                live, b = live[keep], b.take(keep)
                if not live.size:
                    break
    return z, res, evaluations


def _segment_face_crossing(sw: SimWorld) -> bool:
    """True if the hand segment properly crosses any polygon face."""
    tip_a, tip_b = sw.hand_tips()
    verts = sw.vertices_world()
    n = len(verts)
    for j in range(n):
        a, b = verts[j], verts[(j + 1) % n]
        d1 = cross2(b - a, tip_a - a)
        d2 = cross2(b - a, tip_b - a)
        d3 = cross2(tip_b - tip_a, a - tip_a)
        d4 = cross2(tip_b - tip_a, b - tip_a)
        if d1 * d2 < -1e-18 and d3 * d4 < -1e-18:
            # proper crossing; grazing within tolerance does not count
            if min(abs(d1), abs(d2)) > 1e-9 * max(1.0, float(np.hypot(*(b - a)))):
                return True
    return False


def _screen(ref, batch, z, res):
    """The array checks in their order: convergence, normal force signs,
    then contact by contact the line's extent and the slip direction.
    Returns the first failing reason per member ("" when all pass) and the
    end geometry of those that pass: world points (C, 2), n and t (C, 2, 2)
    and slips (C,) per contact slot."""
    reasons = np.where(res > 1e-9, "no_converge", "").astype(object)
    conv = np.flatnonzero(res <= 1e-9)
    b, zc = batch.take(conv), z[conv]
    M, C = len(conv), b.slots
    _, lbody, _, point, turned = b.place(ref.bodies(zc, wrap=True))
    tan = turned[2]

    def along(start):
        d = point - (lbody[:2] + start)
        return tan[0] * d[0] + tan[1] * d[1]

    slips, extent = along(turned[3]), along(turned[4])
    off = (extent < b.lo - 1e-9) | (extent > b.hi + 1e-9)
    bad = (off | (slips * b.s < -1e-9)).reshape(M, C)
    first = np.arange(M) * C + bad.argmax(axis=1)
    late = np.where(~off[first], "slip_direction",
                    np.where(b.lb[first] == _HAND, "off_segment", "off_face"))
    early = np.where((zc[:, 6::2] < -1e-9).any(axis=1), "negative_normal",
                     np.where(bad.any(axis=1), late, ""))
    reasons[conv] = early
    point = point.reshape(2, M, C).transpose(1, 2, 0)
    directions = turned[1:3].reshape(2, 2, M, C).transpose(2, 3, 0, 1)
    slips = slips.reshape(M, C)
    return reasons, {int(i): (point[k], directions[k], slips[k])
                     for k, i in enumerate(conv) if not early[k]}


def _check_trial(sw, hyp, rows, z):
    """The remaining feasibility checks of a member that passed _screen.

    Returns ("", (forces, end state)) when it passes, with the tangential
    force of each stick group re-split in proportion to the normal forces,
    else (reason, None).
    """
    # the bound applies to what each interface transmits as a whole: a flush
    # patch is two anchor points sharing one physical contact
    forces = [[f, t] for f, t in zip(z[6::2].tolist(), z[7::2].tolist())]
    totals, groups = {}, {}
    for i, (row, (iface, _)) in enumerate(rows):
        tot = totals.setdefault(iface, [0.0, 0.0])
        tot[0] += forces[i][0]
        tot[1] += forces[i][1]
        if row[_S] == 0:
            groups.setdefault(iface, []).append(i)
    for fn_sum, ft_sum in totals.values():
        if max(abs(fn_sum), abs(ft_sum)) > _FORCE_BOUND:
            return "force_bound", None
    sums = {iface: (sum(forces[i][0] for i in idxs),
                    sum(forces[i][1] for i in idxs))
            for iface, idxs in groups.items()}
    for iface, (fn_sum, ft_sum) in sums.items():
        if abs(ft_sum) > rows[groups[iface][0]][0][_MU] * fn_sum + 1e-9:
            return "cone", None

    end = sw.with_poses(
        PlanarPose(sw.object_pose.position + z[0:2],
                   sw.object_pose.angle + z[2]),
        PlanarPose(sw.hand_pose.position + z[3:5], sw.hand_pose.angle + z[5]))
    # flush patch must keep positive overlap
    hc = hyp.hand_contact
    if hc is not None and hc.kind == "flush":
        t_hat, center = end.hand_tangent(), end.hand_pose.position
        ta, tb = (float(t_hat @ (end.object_pose.transform(v) - center))
                  for v in sw.polygon.face_endpoints(hc.face))
        lo, hi = min(ta, tb), max(ta, tb)
        if min(hi, sw.hand.half_length) - max(lo, -sw.hand.half_length) <= 1e-9:
            return "patch_gone", None

    if end.penetration_depth() < -1e-9:
        return "penetration", None
    Rm = end.object_pose.rotation
    for tip in end.hand_tips():
        tip_obj = Rm.T @ (tip - end.object_pose.position)
        if np.all(sw.polygon.all_face_residuals(tip_obj) < -1e-9):
            return "tip_inside", None
    if _segment_face_crossing(end):
        return "segment_crossing", None

    # proportional tangential re-split inside stick groups (wrench neutral)
    for iface, idxs in groups.items():
        fn_sum, ft_sum = sums[iface]
        if len(idxs) > 1 and fn_sum > 1e-12:
            for i in idxs:
                forces[i][1] = ft_sum * forces[i][0] / fn_sum
    return "", (forces, end)


def _unbalanced(rows, weight) -> bool:
    """True when the object touches only lines of the fixed world and their
    forces cannot cancel its weight whatever the iterate (see _inconsistent).
    """
    if any(row[_LB] != _WORLD for row, _ in rows):
        return False
    return _inconsistent(weight, tuple((*row[_N:_N + 4], row[_S] * row[_MU])
                                       for row, _ in rows))


@functools.lru_cache(maxsize=256)
def _inconsistent(weight, lines) -> bool:
    """Whether forces f_n n + f_t t on world lines (n, t, s mu), sliding
    where s mu != 0, have no exact solution for the object's x/y balance.

    The balance rows and the slide rows f_t + s mu f_n = 0 are A f = b in
    the forces alone, with constant coefficients: a world line's n and t are
    never rotated.  A least-squares residual far above the convergence test
    bounds max |R| above it at every iterate.
    """
    slides = [(i, s_mu) for i, (*_, s_mu) in enumerate(lines) if s_mu != 0]
    A = np.zeros((2 + len(slides), 2 * len(lines)))
    for i, (nx, ny, tx, ty, _) in enumerate(lines):
        A[:2, 2 * i:2 * i + 2] = (nx, tx), (ny, ty)
    for r, (i, s_mu) in enumerate(slides, start=2):
        A[r, 2 * i:2 * i + 2] = s_mu, 1.0
    b = np.zeros(len(A))
    b[1] = weight
    f = np.linalg.lstsq(A, b)[0]
    return float(np.linalg.norm(A @ f - b)) > 1e-6 * math.sqrt(len(A))


def _solve_pass(sw, target, hyps):
    """Solve and screen one enumeration pass, one trial per hypothesis.

    Hypotheses whose world contacts cannot balance the weight are rejected
    as no_converge before Newton runs.  The rest are sorted by (min_norm,
    contact count), so that each system size is one run and padding stays
    small, and batched in blocks of at most _SLOTS contact slots, which
    keeps the stacked arrays to a few MB when a wall brings hundreds of
    hypotheses.
    """
    build, ref = _ContactRows(sw), _Reference(sw, target)
    rows = [build(h) for h in hyps]
    counts = [len(r) for r in rows]
    # two stick points on one interface line leave the tangential force split
    # wrench neutral, a null space a plain solve would blow up on
    min_norm = np.array([len(st) != len(set(st)) for st in (
        [iface for _, (iface, label) in r if label == "stick"] for r in rows)])
    trials = [None] * len(hyps)
    blocks, width = [], 1
    for i in np.lexsort((counts, min_norm)).tolist():
        if _unbalanced(rows[i], ref.weight):
            trials[i] = _Trial(hyps[i], "no_converge", 0, None)
            continue
        width = max(width, counts[i])
        if not blocks or (len(blocks[-1]) + 1) * width > _SLOTS:
            blocks.append([])
            width = max(1, counts[i])
        blocks[-1].append(i)
    for block in blocks:
        batch = _Batch([rows[i] for i in block], min_norm[block])
        z, res, evaluations = _newton(ref, batch)
        reasons, geometry = _screen(ref, batch, z, res)
        for j, i in enumerate(block):
            k, reason, sol = len(rows[i]), reasons[j], None
            if not reason:
                reason, passed = _check_trial(sw, hyps[i], rows[i],
                                              z[j, :6 + 2 * k])
            if not reason:
                slips = geometry[j][2][:k].tolist()
                sol = {"rows": rows[i], "passed": passed,
                       "geometry": geometry[j], "slips": slips,
                       "residual": float(res[j]),
                       "dissipation": float(sum(
                           sl ** 2 for sl, (row, _) in zip(slips, rows[i])
                           if row[_S] != 0))}
            trials[i] = _Trial(hyps[i], reason, int(evaluations[j]), sol)
    return trials


def _finish(sw, chosen, trials) -> ModeSolution:
    sol = chosen.solution
    (forces, end), (points, directions, _) = sol["passed"], sol["geometry"]
    center = end.hand_pose.position
    records, hand_F, env_F, hand_tau, env_tau = [], np.zeros(2), \
        np.zeros(2), 0.0, 0.0
    for i, (row, (iface, label)) in enumerate(sol["rows"]):
        (fn, ft), point, (nrm, tan) = forces[i], points[i], directions[i]
        F = fn * nrm + ft * tan         # on the point's body
        if row[_LB] == _OBJ:
            F = -F
        records.append(ContactForce(
            iface=iface, label=label, point=tuple(point), force=tuple(F),
            f_normal=float(fn), f_tangent=float(ft),
            slip=float(sol["slips"][i])))
        if iface == "hand":
            hand_F += F
            hand_tau += cross2(point - center, F)
        else:
            env_F += F
            env_tau += cross2(point - center, F)
    return ModeSolution(
        hypothesis=chosen.hyp, object_pose=end.object_pose,
        hand_pose=end.hand_pose, contacts=tuple(records),
        hand_wrench=Wrench2(hand_F, hand_tau, center),
        env_wrench=Wrench2(env_F, env_tau, center),
        dissipation=sol["dissipation"], residual_norm=sol["residual"],
        trials=len(trials),
        newton_iterations=sum(t.evaluations for t in trials),
        rejections=dict(sorted(Counter(t.reason for t in trials
                                       if t.reason).items())),
        # Newton evaluates every member it runs at least once
        screened=sum(t.evaluations == 0 for t in trials))


def resolve_mode(sw: SimWorld, target: PlanarPose,
                 hypotheses=None) -> ModeSolution:
    """Pick and solve the contact mode for one impedance target."""
    expandable = hypotheses is None
    if hypotheses is None:
        hypotheses = enumerate_modes(sw)
    trials = _solve_pass(sw, target, list(hypotheses))
    seen = set(hypotheses)

    def feasible():
        return [t for t in trials if not t.reason]

    def widen(band):
        fresh = [h for h in enumerate_modes(sw, band, suppress_overlaps=False)
                 if h not in seen]
        seen.update(fresh)
        trials.extend(_solve_pass(sw, target, fresh))

    if not feasible() and expandable:
        # a flush candidate may have suppressed the very point-slide label the
        # command needs (e.g. the hand rotating off a face it started flush
        # with), so retry with the full label set before giving up
        widen(ACTIVATION_BAND)

    if not feasible() and expandable:
        # the proximity band only sees contacts that are already close, but a
        # single command may sweep across one (drag ending against a wall, a
        # plunge onto the object): widen the band to the commanded reach so
        # those crossings get candidates; the force-sign and penetration
        # screens still reject anything the motion cannot actually touch
        dp = float(np.linalg.norm(target.position - sw.hand_pose.position))
        dth = abs(wrap_angle(target.angle - sw.hand_pose.angle))
        verts = sw.vertices_world()
        radius = float(np.max(np.linalg.norm(
            verts - verts.mean(axis=0), axis=1)))
        reach = dp + dth * (sw.hand.half_length + 2.0 * radius)
        if reach > 0.0:
            widen(ACTIVATION_BAND + reach)

    ok = feasible()
    if not ok:
        diag = [{"mode": t.hyp.to_json(), "reason": t.reason} for t in trials]
        if any(t.reason == "force_bound" for t in trials):
            raise JammedConfiguration(
                f"all {len(trials)} mode hypotheses infeasible, contact force "
                f"bound {_FORCE_BOUND:g} N exceeded", diagnostics=diag)
        raise NoFeasibleMode(
            f"no feasible contact mode among {len(trials)} hypotheses",
            diagnostics=diag)

    best_d = min(t.solution["dissipation"] for t in ok)
    # ties: a key of the hypothesis alone (see the module docstring)
    chosen = min((t for t in ok
                  if t.solution["dissipation"] <= best_d + 1e-13),
                 key=lambda t: (-t.hyp.stick_count(), t.hyp.active_count(),
                                repr(t.hyp.to_json())))
    return _finish(sw, chosen, trials)
