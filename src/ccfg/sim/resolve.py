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
limits through f_n >= 0 at both ends.  Two contacts that stick on one
interface are one patch: the first end is pinned, and the second, free end
keeps its normal gap closed with f_t = 0, so the patch's tangential force
is one unknown, which the report splits in proportion to the normal forces.

The hypotheses of one enumeration pass stream through stacked Newton
iteration with analytic Jacobians, one stacked LU solve per system size, at
most _SLOTS contact slots at a time.  A member stops when it converges (max
|R| <= 1e-10), diverges or has taken 40 steps; its residual is then
evaluated once more, with a J that no step reads.  It diverges, and its
trial ends no_converge, when a pose step is above 0.5 or a step component
is not finite or above 1e8: the LU step of a jammed object, its forces
undetermined (an exactly singular J gives NaN), or of an iterate that
cannot converge.  The rule reads the member's own step only.  In a pass's
last block the last _TAIL running members are finished one by one on Python
floats (_Alone, built on core.point_on_line), with _system's operations.  As
every entry of R and J comes from the arithmetic of the scalar expression
it stands for, each sum adding in slot order, R, J and the steps are bit
for bit those of a lone member, stacked or alone (but for the sign of a
zero R entry, which a padding slot's +0.0 turns from -0.0 to +0.0 and no
step or stop reads), and each member counts its own evaluations of R and J
(newton_iterations; stacked_evaluations counts _system calls, none for the
scalar tail): a trial comes out the same in any batch.

Everything else is done once per pass, per block or per distinct part, as
arrays.  A hypothesis is one hand option and one environment option of the
enumeration; each distinct (interface, contact, label, free) is a column of
the pass's table (_ContactRows), and each part's columns, flags and screen
verdicts are found once and gathered into the pass's index matrix, one row
per hypothesis.  A batch (_Batch) is rows of that matrix, so building,
compacting and handing off a batch are gathers (see _newton, _solve_pass).
The members a block stops are checked together (_screen), those that pass
once more together at the pass's end (_misplaced), and each trial ends as a
reason code and an evaluation count in the pass's arrays.

Before any block is built, a hypothesis whose contacts all lie on lines of
the fixed world (ground, walls) is screened: its object x/y balance rows
and slide rows are linear in the contact forces with constant coefficients
(a world line's n and t never turn, and gravity is constant).  When their
least-squares residual is far above the convergence test (the all-separate
mode, or every contact sliding one way), no iterate can converge, and the
trial is rejected as no_converge with no Jacobian evaluated.  This is
exact: a member's Newton trajectory depends only on its own iterate, and
such a member ends no_converge whether it diverges or stalls, so every
other trial and every reason come out as without the screen.

A second screen rejects, the same way, a hypothesis with two stick contacts
that pin points of one body to anchors on one other body at spacings that
do not fit.  A stick contact's two rows are its gap g = x_p + R_p p -
(x_l + R_l a) in an orthonormal basis, so |g| <= sqrt(2) max |R|.  For two
such contacts with the same point body and line body, g1 - g2 = R_p (p1 -
p2) - R_l (a1 - a2), and rotations keep lengths, so |g1| + |g2| >= |g1 -
g2| >= delta = | |p1 - p2| - |a1 - a2| |.  Hence max |R| >= delta /
(2 sqrt(2)) at every iterate in exact arithmetic.  The feasibility test
passes a trial at max |R| <= 1e-9 only, and rounding moves a stick row and
delta by a few ulps of the rigs' coordinates, about 1e-16 m; a bound above
1e-9 + 1e-12 therefore leaves the trial only no_converge.  A patch's free
end is not pinned, so the pairs it checks lie on two interfaces: a ground
vertex and a wall vertex that both stick.

Only when no trial of the first pass, over enumerate_modes(sw), is feasible
does one fallback pass run, over the hypotheses it has not tried with the
suppressed slide labels restored and the band grown by the commanded reach.
A trial comes out the same in either pass and in any batch, so the fallback
finds exactly the feasible modes of the wider enumeration.

Among the hypotheses that survive all feasibility checks the resolver picks
the one with minimal slip dissipation (sum of squared tangential relative
displacements).  Among modes within 1e-13 of the least it prefers more
sticking contacts, then fewer active contacts, then the lesser repr of
to_json(), which only a tie computes: a key of the hypothesis alone, so the
choice does not depend on the order the hypotheses are listed in.  The repr
is unique among feasible trials, which all come from one pass (the fallback
runs only when the first found nothing), and a pass has at most one flush
candidate per face.
"""

import functools
import itertools
import math
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from ..core import PlanarPose, Wrench2, cross2, point_on_line, wrap_angle
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
# (0 for stick), free 1 on a stick patch's second end, whose rows are the
# slide rows with s mu = 0.
_PB, _LB, _P, _ANCHOR, _N, _BASIS, _LO, _HI, _S, _MU, _FREE = \
    0, 1, 2, 4, 6, 14, 18, 19, 20, 21, 22
_NCOL = 23

_SIGN = {"stick": 0, "slide_pos": 1, "slide_neg": -1}
_WORLD_POSE = np.array([0.0, 0.0, 1.0, 0.0])      # x, y, cos, sin
# place in _Reference.poses by coordinate (x, y, cos, sin) and body
_COORDINATE = np.array([[0, 3, 10], [1, 4, 11], [6, 7, 12], [8, 9, 13]])


_SLOTS = 512   # contact slots per batch, carried members included; ~1 MB
# share of _SLOTS that a block's running members fill at most when they are
# handed off to the next block; bounds the batches built (see _solve_pass)
_HANDOFF = 0.5
_NEWTON_TOL = 1e-10   # max |R| at which a Newton member has converged
_NEWTON_MAX_ITER = 40  # steps before an unconverged member is given up
# running members that a pass's last block finishes one by one on floats
# (_newton_alone) rather than stacked.  Cost model, 2-vCPU host: a stacked
# call (_system and _steps) takes 178 us plus 2.9 us per slot of its batch,
# a 3-contact member's scalar iteration 38 us.  Replayed on the recorded
# passes of the drag states, the Newton time per step falls from 11.1 ms
# stacked to 8.8, 8.6, 8.5 and 8.7 ms at 4, 6, 8 and 12; the wall states'
# last blocks are flat from 4 to 16.
_TAIL = 8
# |z| up to which _Alone's terms are all finite: past it (no trial gets
# there) it hands the iterate to _system
_FAITHFUL = 1e100
# m; deepest penetration a resolved state may keep. engine.step checks its
# input and output against the same bound.
PENETRATION_TOL = 1e-9
_FORCE_BOUND = 1e5    # N; beyond this a mode counts as jammed
_MISFIT_BOUND = 1e-9 + 1e-12  # m; a misfit stick pair's least max |R|


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
    dissipation: float
    residual_norm: float
    trials: int
    # evaluations of R and J summed over all trials
    newton_iterations: int
    # _system calls over all passes, one per stacked iteration of a batch;
    # the scalar tail (the members a pass's last block finishes alone,
    # _TAIL) adds none
    stacked_evaluations: int
    rejections: dict           # reason -> count over the infeasible trials
    screened: int              # no_converge trials rejected before Newton


# why a trial is infeasible, by code ("" when feasible), in check order
_REASONS = ("", "no_converge", "negative_normal", "slip_direction",
            "off_segment", "off_face", "force_bound", "cone", "patch_gone",
            "penetration", "tip_inside", "segment_crossing")
_CODE = {reason: k for k, reason in enumerate(_REASONS)}
# one pass's trials: per hypothesis a code in _REASONS and its evaluations
# of R, the report's needs of each feasible one by index, the _system calls
_Pass = namedtuple("_Pass", "hyps reasons evaluations solutions calls")
_Columns = namedtuple("_Columns", "v v_perp basis lo hi s s_mu on_point "
                      "on_line sign d_angle lb d_rows gather kind iface "
                      "hand_point stick slide")


def _columns(data, ints, flags) -> _Columns:
    """Views of a table's (or a batch's) float, int and bool rows, per column:
    n, t, p, anchor, pin, origin (v) and their +90 degree turns, each body's
    incidence and sign (+1 on the point's body, -1 on the line's), the stick
    rows' J by the pose deltas (d_rows), where place() gathers, the kind, a
    stick label (stick) and slide rows (slide: a slide or a free end)."""
    K = data.shape[1]
    return _Columns(
        data[0:12], data[12:24], data[24:28].reshape(2, 2, K), data[28],
        data[29], data[30], data[31], data[32:34], data[34:36], data[36:38],
        data[38:44], data[44], data[45:57].reshape(2, 6, K), ints[:32],
        ints[32], ints[33], flags[0], flags[1], flags[2])


# a pass's hypotheses as arrays: each one's columns (padded with -1) and
# count, flags, screen verdicts and flush face (-1 for none)
_Layout = namedtuple("_Layout", "index counts world unbalanced misfit flush")


class _ContactRows:
    """The contacts of one pass as one table, a column per distinct
    (interface, contact, label, free): rows[c] is (row, (iface, label)).
    layout() lays the pass out on it and derives what the solver and the
    checks read per column (col, the empty column -1 last), the
    derivatives' fixed parts by kind of slot and _Alone's plain floats."""

    _EMPTY = ((_WORLD, _WORLD) + (0.0,) * (_NCOL - 2), (None, None))

    def __init__(self, sw: SimWorld):
        self.sw, self.cache, self.rows, self.iface = sw, {}, [], []
        self.verts_w, self.t_hat = sw.vertices_world(), sw.hand_tangent()
        self.center, self.half = sw.hand_pose.position, sw.hand.half_length
        # interfaces by number, and their mu: the hand, the ground, each wall
        self.ifaces = ("hand", "ground", *range(len(sw.world.walls)))
        self.mu = np.array([sw.mu_hand, sw.mu_ground]
                           + [sw.mu_wall] * len(sw.world.walls))

    def layout(self, hyps, weight) -> _Layout:
        """hyps as arrays, derived per distinct part: a hypothesis is a hand
        part (label, contact) and an environment part (ground and wall
        labels), told apart by the objects enumerate_modes shares among an
        option's hypotheses.  Its row is its hand part's columns, then its
        environment part's.  A stick pair lies within a part (the hand's
        contacts and the world's differ in interface and kind), and only a
        hand part without contacts leaves a hypothesis on world lines: each
        flag and verdict of a hypothesis is one of its parts'."""
        hand_at, env_at, hp, ep = {}, {}, [], []
        for h in hyps:
            hp.append(hand_at.setdefault((h.hand_label, id(h.hand_contact)),
                                         len(hand_at)))
            ep.append(env_at.setdefault((id(h.ground), id(h.walls)),
                                        len(env_at)))
        # a hypothesis of each part, by part number
        hand, env = ([h for _, h in sorted(dict(zip(at, hyps)).items())]
                     for at in (hp, ep))
        parts = [self._part([("hand", h.hand_contact, h.hand_label)]
                            if h.hand_label != "none" else []) for h in hand]
        parts += [self._part(
            [("ground", v, lab) for v, lab in h.ground if lab != "separate"]
            + [w for w in h.walls if w[2] != "separate"]) for h in env]
        self._derive()
        # per part its row, count and flags: its misfit verdict, checked
        # where two pinned contacts are of one kind; off the world
        counts = np.array([len(part) for part in parts], dtype=int)
        index = np.full((len(parts), max(1, counts.max(initial=0))), -1)
        index[np.arange(index.shape[1]) < counts[:, None]] = list(
            itertools.chain.from_iterable(parts))
        c = self.col
        kinds = np.sort(np.where(c.stick[index] & ~c.slide[index],
                                 c.kind[index], -1))
        paired = ((kinds[:, 1:] == kinds[:, :-1]) & (kinds[:, 1:] >= 0)).any(axis=1)
        misfit = [p and _misfit(self, part)
                  for p, part in zip(paired.tolist(), parts)]
        flags = np.array([misfit, (c.lb[index] != _WORLD).any(axis=1)], dtype=bool)
        hp, ep = np.array(hp, dtype=int), np.array(ep, dtype=int) + len(hand)
        misfit, off_world = flags[:, hp] | flags[:, ep]
        unbalanced = np.zeros(len(parts), dtype=bool)
        for e in set(ep[~off_world].tolist()):
            unbalanced[e] = _unbalanced(self, parts[e], weight)
        total = counts[hp] + counts[ep]
        rows = np.concatenate((index[hp], index[ep]), axis=1)
        out = np.full((len(hp), max(1, total.max(initial=0))), -1)
        out[np.arange(out.shape[1]) < total[:, None]] = rows[rows >= 0]
        flush = np.array([h.hand_contact.face if h.hand_contact is not None
                          and h.hand_contact.kind == "flush" else -1
                          for h in hand], dtype=int)
        return _Layout(out, total, ~off_world, ~off_world & unbalanced[ep],
                       misfit, flush[hp])

    def _part(self, keys) -> tuple:
        """The columns of a part's rows, by their keys, each built once; a
        stick after the first on its interface is its patch's free end."""
        out, seen = (), set()
        for where, which, label in keys:
            key = (where, which, label, label == "stick" and (where, label) in seen)
            seen.add((where, label))
            if key not in self.cache:
                rows, k = self._build(*key), len(self.rows)
                self.cache[key] = tuple(range(k, k + len(rows)))
                self.rows += rows
                self.iface += [self.ifaces.index(key[0])] * len(rows)
            out += self.cache[key]
        return out

    def _derive(self):
        col = np.array([row for row, _ in self.rows + [self._EMPTY]],
                       dtype=float).T
        K, ids, s = col.shape[1], np.array([[_OBJ], [_HAND]]), col[_S]
        self.data, self.ints, self.flags = \
            np.zeros((57, K)), np.zeros((34, K), int), np.zeros((3, K), bool)
        c = self.col = _columns(self.data, self.ints, self.flags)
        c.v[:4], c.v[4:6] = col[_N:_N + 4], col[_P:_P + 2]
        c.v[6:8], c.v[8:] = col[_ANCHOR:_N], col[_N + 4:_BASIS]
        c.v_perp[0::2], c.v_perp[1::2] = -c.v[1::2], c.v[0::2]
        slide = c.slide[:] = (s != 0) | (col[_FREE] != 0)
        c.basis[:] = col[_BASIS:_LO].reshape(2, 2, K) * ~slide
        c.lo[:], c.hi[:], c.s[:], c.s_mu[:] = col[_LO], col[_HI], s, s * col[_MU]
        c.on_point[:], c.on_line[:] = col[_PB] == ids, col[_LB] == ids
        c.sign[:] = c.on_point - c.on_line
        c.d_angle[2::3], c.lb[:] = c.on_line, col[_LB]
        c.kind[:], c.iface[:] = col[_PB] * 3 + col[_LB], self.iface + [-1]
        c.hand_point[:], c.stick[:-1] = col[_PB] == _HAND, s[:-1] == 0
        # the fixed parts of the gap's and the levers' derivatives, once per
        # kind of slot and gathered per call, and the stick rows' by column
        at = np.zeros(9, int)
        at[c.kind] = np.arange(K)
        d_gap, d_lever = np.zeros((2, 6, K)), np.zeros((2, 2, 6, K))
        d_gap[0, 0::3] = d_gap[1, 1::3] = c.sign
        d_lever[:, 0, 0::3] = d_lever[:, 1, 1::3] = c.on_point - np.eye(2)[..., None]
        self.d_gap, self.d_lever = d_gap[..., at], d_lever[..., at]
        c.d_rows[:] = c.basis[:, 0, None] * d_gap[0] + c.basis[:, 1, None] * d_gap[1]
        # where place() gathers a column's bodies' x, y and v's cos and sin
        turn = [1] * 4 + [0] * 2 + [1] * 6      # line, point or line body
        body = np.array([col[_PB], col[_LB], 0 * s, 0 * s + 1],
                        dtype=int)[[0, 0, 1, 1, 2, 2, 3, 3] + turn + turn]
        c.gather[:] = _COORDINATE[
            np.array([0, 1] * 4 + [2] * 12 + [3] * 12)[:, None], body]
        # per column for _Alone: bodies, p, anchor, n, t, basis, stick, s mu
        self.scalar = [
            (divmod(k, 3), *divmod(k, 3), x[4:6], x[6:8], x[0:2], x[2:4],
             *x[8:12], not sl, *x[13:20]) for k, sl, x in zip(
                 c.kind.tolist(), slide.tolist(), np.concatenate((
                     self.data[:8], self.data[24:28], self.data[30:38])).T.tolist())]

    def _build(self, where, which, label, free):
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
                      _SIGN[label], mu, free), (iface, label))]
        if hc.kind == "vertex":
            return [self._on_hand(label, vertex=hc.vertex)]
        if hc.kind == "flush":
            # a sticking patch pins the object material at its first end;
            # a sliding one glides the face under fixed hand coordinates
            if label == "stick":
                return [self._on_hand(label, p=(ox, oy), t0=float(t_star),
                                      free=k > 0)
                        for k, (t_star, ox, oy) in enumerate(hc.anchors)]
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

    def _on_hand(self, label, vertex=None, p=None, t0=None, free=False):
        """Object vertex (or point p at hand coordinate t0) on the hand."""
        if vertex is not None:
            p = self.sw.polygon.vertices[vertex]
            t0 = float((self.verts_w[vertex] - self.center) @ self.t_hat)
        anchor = (t0, 0.0) if label == "stick" else (0.0, 0.0)
        return ((_OBJ, _HAND, p[0], p[1], *anchor, 0.0, -1.0, 1.0, 0.0,
                 t0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, -self.half, self.half,
                 _SIGN[label], self.sw.mu_hand, free), ("hand", label))

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
                 -length, 0.0, s, sw.mu_hand, False), ("hand", label))


class _Batch:
    """Hypotheses of one pass sorted by contact count, as rows of an index
    matrix into its table (_ContactRows): member i's slots are the columns
    cols[i], padded with the empty column -1 to `slots`.  A build, and so a
    take, gathers the table: per slot its columns (col) and where place()
    gathers body coordinates; per member the runs of members of one size
    and, once _system reads it, a template of the entries of J no iterate
    moves."""

    def __init__(self, table: _ContactRows, cols):
        self.table, self.cols = table, cols
        (M, C), flat = cols.shape, cols.ravel()
        self.slots, self.counts = C, np.count_nonzero(cols >= 0, axis=1)
        self.col = _columns(*(np.take(a, flat, axis=1) for a in (
            table.data, table.ints, table.flags)))      # C order, as _system reads
        self.gather = self.col.gather + 14 * np.repeat(np.arange(M), C)
        edges = [0, *(np.flatnonzero(np.diff(self.counts)) + 1).tolist(), M]
        self.runs = [(lo, hi, 6 + 2 * int(self.counts[lo]))
                     for lo, hi in zip(edges[:-1], edges[1:])]

    @functools.cached_property
    def template(self):
        (M, C), c, f = self.cols.shape, self.col, 6 + 2 * np.arange(self.slots)
        J0 = np.zeros((M, 6 + 2 * C, 6 + 2 * C))
        J0[:, 6:, :6] = c.d_rows.reshape(2, 6, M, C).transpose(
            2, 3, 0, 1).reshape(M, 2 * C, 6)
        J0[:, f + 1, f] = c.s_mu.reshape(M, C)
        J0[:, f + 1, f + 1] = c.slide.reshape(M, C)
        return J0

    def take(self, keep) -> "_Batch":
        """The members selected by keep (a mask or indices)."""
        return _Batch(self.table, self.cols[keep])

    def alone(self, i) -> "_Batch":
        """A batch of member i alone, with no padding slot."""
        return _Batch(self.table, self.cols[i:i + 1, :max(1, self.counts[i])])

    def place(self, poses, vectors, out=None):
        """x, y of point, line, object and hand body, the cos and sin turning
        v, and v's first `vectors` turned (p to the point's offset)."""
        g, k, c = poses.reshape(-1)[self.gather], 2 * vectors, self.col
        return g[:8], g[8:], np.add(g[8:8 + k] * c.v[:k],
                                    g[20:20 + k] * c.v_perp[:k], out=out)


def _wrap(theta):
    """wrap_angle on an array."""
    if not (np.abs(theta) >= math.pi).any():
        return theta            # which fmod would leave as it is
    t = np.fmod(theta, 2.0 * math.pi)
    return np.where(t <= -math.pi, t + 2.0 * math.pi,
                    np.where(t > math.pi, t - 2.0 * math.pi, t))


class _Reference:
    """The data of one step that every hypothesis shares."""

    def __init__(self, sw: SimWorld, target: PlanarPose):
        self.pose = np.array([*sw.object_pose.position, sw.object_pose.angle,
                              *sw.hand_pose.position, sw.hand_pose.angle])
        self.target, self.stiffness = target.as_vector(), sw.stiffness
        self.turn = self.target[2] - sw.hand_pose.angle
        self.weight, self.com = sw.mass * sw.world.gravity, sw.com.tolist()
        # object force balance and J's pose block before any contact adds
        self.no_contact = np.array([[0.0], [-self.weight]])
        self.pose_block = np.diag(np.r_[0, 0, 0, -self.stiffness]).reshape(36, 1)

    def poses(self, z, wrap=False):
        """Per member (M, 14): x, y, angle of object and hand, the cosines
        and the sines of the two angles, and the world's x, y, cos, sin."""
        out = np.empty((len(z), 14))
        np.add(z[:, :6], self.pose, out=out[:, :6])
        angle = _wrap(out[:, 2:6:3]) if wrap else out[:, 2:6:3]
        np.cos(angle, out=out[:, 6:8])
        np.sin(angle, out=out[:, 8:10])
        out[:, 10:] = _WORLD_POSE
        return out


def _system(z, ref, b):
    """Stacked residuals R (M, n) and Jacobians J (M, n, n) at iterates z.
    Rows: object balance (3), hand balance (3), then two per contact slot.
    Columns: object and hand pose deltas, then (f_n, f_t) per slot.  Empty
    slots have zero residual rows.  Each balance row and pose block entry
    starts from its value with no contact (first) and adds its contacts in
    slot order, like the scalar sum it stands for.  The contact rows, the
    force columns and the angle columns take every slot's stick entries,
    then a slide slot's entries over them."""
    (M, n), C, c = z.shape, b.slots, b.col
    K, poses = M * C, ref.poses(z)
    # per slot -F_y, F, n, t (slices for the moments), offset and anchor
    w = np.empty((11, K))
    g, turns, _ = b.place(poses, 4, out=w[3:])
    nrm, tan, offset, anchor = w[3:].reshape(4, 2, K)
    point = g[0:2] + offset
    gap = point - (g[2:4] + anchor)
    fn, ft = z[:, 6:].reshape(K, 2).T
    force = np.add(fn * nrm, ft * tan, out=w[1:3])

    # lever from the object and the hand origin to the point; a hand point's
    # is its offset, rounded as tests/data/resolver_regression.json records
    lever = point - g[4:8].reshape(2, 2, K)
    np.copyto(lever[1], offset, where=c.hand_point)
    moment = lever[:, :, None, None] * w[1:7].reshape(3, 2, K)
    cross = moment[:, 0, :, 1] - moment[:, 1, :, 0]     # lever x (F, n, t)
    lever_force = moment[:, 0, 0, 0] + moment[:, 1, 0, 1]
    # angle columns: p turning with its body, the anchor with the line's
    th = turns[4:8] * c.v_perp[4:8] - turns[16:20] * c.v[4:8]
    del g, turns, moment            # the largest arrays, before the next ones

    # per slot the sums' terms, the wrench on each body and its derivative
    # by the pose deltas (6 + 36 rows), and the entries R and J take
    terms = np.empty((42, K))
    np.multiply(force, c.sign[:, None], out=terms[:6].reshape(2, 3, K)[:, :2])
    np.multiply(cross[:, 0], c.sign, out=terms[2:6:3])
    table = np.empty((26, K))
    np.add(c.basis[:, 0] * gap[0], c.basis[:, 1] * gap[1], out=table[:2])
    np.add(nrm[0] * gap[0], nrm[1] * gap[1], out=table[2])
    np.add(ft, c.s_mu * fn, out=table[3])
    th_point = th[:2, None] * c.on_point
    th_gap = th_point - th[2:, None] * c.on_line
    d_force = table[4:16].reshape(2, 2, 3, K)     # body, n or t, row
    np.multiply(c.sign[:, None, None], w[3:7].reshape(2, 2, K),
                out=d_force[:, :, :2])
    np.multiply(cross[:, 1:], c.sign[:, None], out=d_force[:, :, 2])
    np.add(c.basis[:, 0, None] * th_gap[0], c.basis[:, 1, None] * th_gap[1],
           out=table[16:20].reshape(2, 2, K))
    d_gap = b.table.d_gap[..., c.kind]
    d_gap[:, 2::3] = th_gap
    perp_gap = nrm[0] * gap[1] - nrm[1] * gap[0]
    np.add(perp_gap * c.d_angle + nrm[0] * d_gap[0], nrm[1] * d_gap[1],
           out=table[20:])

    d_wrench = terms[6:].reshape(2, 3, 6, K)
    np.negative(force[1], out=w[0])
    np.multiply(w[:2, None] * c.d_angle, c.sign[:, None, None],
                out=d_wrench[:, :2])
    d_lever = b.table.d_lever[..., c.kind]
    d_lever[:, :, 2::3] = th_point
    np.multiply(d_lever[:, 0] * force[1] - d_lever[:, 1] * force[0]
                + lever_force[:, None] * c.d_angle, c.sign[:, None],
                out=d_wrench[:, 2])

    first = np.empty((len(terms), M))
    co, so, (comx, comy) = poses[:, 6], poses[:, 8], ref.com
    first[:2] = ref.no_contact
    np.multiply(-ref.weight, co * comx - so * comy, out=first[2])
    first[3:5] = (ref.stiffness[:2] * (ref.target[:2] - poses[:, 3:5])).T
    np.multiply(ref.stiffness[2], _wrap(ref.turn - z[:, 5]), out=first[5])
    first[6:] = ref.pose_block
    np.multiply(ref.weight, so * comx + co * comy, out=first[6 + 14])
    terms = terms.reshape(-1, M, C)
    for s in range(C):      # an accumulate would cost a call per short row
        first += terms[:, :, s]
    R, slide = np.empty((M, n)), c.slide.reshape(M, C, 1)
    R[:, :6], rows = first[:6].T, R[:, 6:].reshape(M, C, 2)
    np.copyto(rows, table[:2].reshape(2, M, C).transpose(1, 2, 0))
    np.copyto(rows, table[2:4].reshape(2, M, C).transpose(1, 2, 0), where=slide)
    J = b.template.copy()
    J[:, :6, :6] = first[6:].reshape(6, 6, M).transpose(2, 0, 1)
    # J[3 j + q, f + v]: body j's balance row q by the slot's f_n or f_t
    np.copyto(J[:, :6, 6:].reshape(M, 2, 3, C, 2),
              table[4:16].reshape(2, 2, 3, M, C).transpose(3, 0, 2, 4, 1))
    # J[f + r, 3 j + 2]: contact row r by body j's angle
    np.copyto(J[:, 6:, 2:6:3].reshape(M, C, 2, 2),
              table[16:20].reshape(2, 2, M, C).transpose(2, 3, 0, 1))
    np.copyto(J[:, 6::2, :6], table[20:].reshape(6, M, C).transpose(1, 2, 0),
              where=slide)
    return R, J


def _steps(R, J, b, keep):
    """Newton steps dz with J dz = -R for the members of batch b that keep
    selects.  Each run of members of one size is one stacked LU solve; its
    gufunc marks an exactly singular member with NaN where np.linalg.solve
    would raise, and _newton stops it as it stops a step above 1e8."""
    dz = np.zeros_like(R)
    for lo, hi, m in b.runs:
        if keep[lo:hi].any():
            dz[lo:hi, :m] = _umath_linalg.solve1(
                J[lo:hi, :m, :m], -R[lo:hi, :m], signature="dd->d")
    return dz


def _max_abs(values):
    """max |v| as np.abs(values).max() gives it: NaN when any v is NaN,
    which Python's max() skips unless it comes first."""
    return math.nan if any(map(math.isnan, values)) \
        else max(map(abs, values))


class _Alone:
    """Member i of batch b as plain floats, to finish its Newton iteration
    without the batch.

    system(z) gives the member's R and J as _system(z, ref, batch) gives
    them for a batch of this member alone, which has no padding slot: the
    contact geometry from core.point_on_line, the cosines and sines from
    _Reference.poses, and every entry from the same floating-point
    operations in the same order, each balance row and pose block entry
    adding its contacts in slot order to its value with no contact.  The one
    difference is in the pose block: of the terms _system adds there, those
    that are a product with 0.0 for a contact's bodies (a world line's, or
    those in the columns of a body the contact does not move) are left out.
    A finite zero changes a sum only when the sum is -0.0, and in
    round-to-nearest a sum is -0.0 only when both of its terms are; so the
    sums that start from +0.0 or from a nonzero entry never are, and only
    J[2, 2], whose gravity term may start it at -0.0, adds all its terms.
    Every term is finite while no |z| exceeds _FAITHFUL (see system).
    Slots are of the three kinds _ContactRows builds: an object point on
    the hand line, a hand point on an object face and an object point on a
    world line."""

    def __init__(self, ref, b, i):
        self.m = m = 6 + 2 * int(b.counts[i])
        self.ref, self.lone = ref, (b, i)
        self.template = b.template[i, :m, :m].ravel().tolist()
        self.contacts = [(*b.table.scalar[c], f, f * m, (f + 1) * m)
                         for f, c in zip(range(6, m, 2), b.cols[i].tolist())]
        self.first_J = ref.pose_block.ravel().tolist()
        self.stiffness, self.target = ref.stiffness.tolist(), ref.target.tolist()
        self.turn = float(ref.turn)

    def system(self, z):
        """R (a list) and J (an (m, m) array) at iterate z (a list).  An
        iterate with some |z| above _FAITHFUL is evaluated by _system
        itself, on a batch of this member alone."""
        ref, m = self.ref, self.m
        if max(map(abs, z)) > _FAITHFUL:
            b, i = self.lone
            R, J = _system(np.array([z]), ref, b.alone(i))
            return R[0].tolist(), J[0]
        P = ref.poses(np.array([z[:6]]))[0].tolist()
        body = ((P[0], P[1], P[6], P[8]), (P[3], P[4], P[7], P[9]),
                (P[10], P[11], P[12], P[13]))
        xo, yo, xh, yh, co, so = P[0], P[1], P[3], P[4], P[6], P[8]
        (comx, comy), weight, (k0, k1, k2) = ref.com, ref.weight, self.stiffness
        # the balance rows and the pose block before any contact
        r0, r1, r2 = 0.0, -weight, -weight * (co * comx - so * comy)
        r3, r4 = k0 * (self.target[0] - xh), k1 * (self.target[1] - yh)
        r5 = k2 * wrap_angle(self.turn - z[5])
        R = [0.0] * m
        js = self.first_J[:]                # J[r, c] at js[6 r + c]
        js[14] = weight * (so * comx + co * comy)
        J = self.template[:]
        for (kind, pb, lb, p, anchor, nv, tv, b00, b01, b10, b11, stick, s_mu,
             op0, op1, ol0, ol1, s0, s1, f, fm, f1m) in self.contacts:
            (px, py), (ox, oy), (nx, ny), (tx, ty), (gx, gy), normal_gap, _, \
                (th0, th1), (th2, th3) = point_on_line(
                    body[pb], body[lb], p, anchor, nv, tv)
            fn, ft = z[f], z[f + 1]
            Fx, Fy = fn * nx + ft * tx, fn * ny + ft * ty
            l0x, l0y = px - xo, py - yo
            l1x, l1y = (ox, oy) if pb == _HAND else (px - xh, py - yh)
            r0 += Fx * s0
            r1 += Fy * s0
            r2 += (l0x * Fy - l0y * Fx) * s0
            r3 += Fx * s1
            r4 += Fy * s1
            r5 += (l1x * Fy - l1y * Fx) * s1
            if stick:
                R[f], R[f + 1] = b00 * gx + b01 * gy, b10 * gx + b11 * gy
            else:
                R[f], R[f + 1] = normal_gap, ft + s_mu * fn
            # the balance rows by the contact's forces
            J[f], J[m + f], J[2 * m + f] = \
                s0 * nx, s0 * ny, (l0x * ny - l0y * nx) * s0
            J[f + 1], J[m + f + 1], J[2 * m + f + 1] = \
                s0 * tx, s0 * ty, (l0x * ty - l0y * tx) * s0
            J[3 * m + f], J[4 * m + f], J[5 * m + f] = \
                s1 * nx, s1 * ny, (l1x * ny - l1y * nx) * s1
            J[3 * m + f + 1], J[4 * m + f + 1], J[5 * m + f + 1] = \
                s1 * tx, s1 * ty, (l1x * ty - l1y * tx) * s1
            # the contact rows by the angles: the gap turns with either body
            # (a slide slot's basis is zero, which its second row takes)
            tp00, tp10, tp01, tp11 = th0 * op0, th1 * op0, th0 * op1, th1 * op1
            tg00, tg10 = tp00 - th2 * ol0, tp10 - th3 * ol0
            tg01, tg11 = tp01 - th2 * ol1, tp11 - th3 * ol1
            J[f1m + 2], J[f1m + 5] = \
                b10 * tg00 + b11 * tg10, b10 * tg01 + b11 * tg11
            if stick:
                J[fm + 2], J[fm + 5] = \
                    b00 * tg00 + b01 * tg10, b00 * tg01 + b01 * tg11
            else:
                perp = nx * gy - ny * gx
                J[fm:fm + 6] = (
                    (perp * 0.0 + nx * s0) + ny * 0.0,
                    (perp * 0.0 + nx * 0.0) + ny * s0,
                    (perp * ol0 + nx * tg00) + ny * tg10,
                    (perp * 0.0 + nx * s1) + ny * 0.0,
                    (perp * 0.0 + nx * 0.0) + ny * s1,
                    (perp * ol1 + nx * tg01) + ny * tg11)
            # the pose block: the force turns with the line's body (its
            # angle column), each lever moves with both bodies
            lf0 = l0x * Fx + l0y * Fy
            js[14] += ((tp00 * Fy - tp10 * Fx) + lf0 * ol0) * s0
            if kind == (_OBJ, _HAND):
                # J[0:5, 5], the force turning with the hand, and row 5, the
                # hand's moment, by every column
                lf1, X = l1x * Fx + l1y * Fy, th0 * Fy - th1 * Fx
                js[5] += -Fy
                js[11] += Fx
                js[17] += lf0
                js[23] += Fy
                js[29] += -Fx
                js[30] += -Fy
                js[31] += Fx
                js[32] += -X
                js[33] += Fy
                js[34] += -Fx
                js[35] += -lf1
            elif kind == (_HAND, _OBJ):
                # J[:, 2], the force turning with the object, row 2, the
                # object's moment, by every column, and J[5, 5]: the hand's
                # lever is the point's offset, which turns with the hand
                lf1, X = l1x * Fx + l1y * Fy, th0 * Fy - th1 * Fx
                js[2] += Fy
                js[8] += -Fx
                js[12] += Fy
                js[13] += -Fx
                js[15] += -Fy
                js[16] += Fx
                js[17] += -X
                js[20] += -Fy
                js[26] += Fx
                js[32] += lf1
                js[35] += X
            elif kind != (_OBJ, _WORLD):
                raise ValueError(f"no scalar rows for bodies {kind}")
        R[:6] = r0, r1, r2, r3, r4, r5
        for r in range(6):
            J[r * m:r * m + 6] = js[6 * r:6 * r + 6]
        return R, np.frombuffer(_packer(m)[1](*J)).reshape(m, m)


@functools.lru_cache(maxsize=None)
def _packer(m):
    """Packers of m and m * m floats into the bytes of a float64 array."""
    return struct.Struct(f"{m}d").pack, struct.Struct(f"{m * m}d").pack


def _step_alone(R, J):
    """One member's Newton step (a list), _steps' LU solve: NaN where J is
    exactly singular."""
    minus_R = np.frombuffer(_packer(len(R))[0](*[-x for x in R]))
    return _umath_linalg.solve1(J, minus_R, signature="dd->d").tolist()


def _newton_alone(ref, b, i, z, count):
    """Finish member i of batch b on its own, from iterate z (its row,
    updated in place) after count evaluations, with _newton's steps and
    stops: _steps' LU step, diverged on a step component that is not
    finite or above 1e8 or a pose step above 0.5, and at most 41
    evaluations.  Returns the final max |R| (inf when diverged) and the
    count."""
    alone = _Alone(ref, b, i)
    zl, res = z[:alone.m].tolist(), math.inf
    while True:
        R, J = alone.system(zl)
        count += 1
        r = _max_abs(R)
        if not r < math.inf:                # non-finite: dropped
            break
        if r <= _NEWTON_TOL or count > _NEWTON_MAX_ITER:
            res = r
            break
        dz = _step_alone(R, J)
        if not (all(abs(d) <= 0.5 for d in dz[:6])
                and all(abs(d) <= 1e8 for d in dz)):
            break                           # diverged
        zl = [a + d for a, d in zip(zl, dz)]
    z[:alone.m] = zl
    return res, count


def _newton(ref, batch, z, count, handoff):
    """Newton iteration on every member of a batch at once, from iterates z
    (N, n) after count evaluations per member (zero for a member that has
    not run yet); both are updated in place.  A member's count is its
    iteration index, so its trajectory does not depend on when it joined
    the batch: its 41st evaluation ends it.  Returns the final max |R| per
    member (inf when diverged or still running), which members are still
    running and the number of _system calls.  Stacked iteration stops when
    no more than `handoff` members are running.  In the last block of a
    pass (handoff 0) it stops at _TAIL, and _newton_alone finishes the
    members still running one by one (see _TAIL)."""
    N = len(batch.counts)
    res, running = np.full(N, math.inf), np.zeros(N, dtype=bool)
    # b holds rows `at` of z and count, as zb and cb
    at, b, zb, cb = np.arange(N), batch, z, count
    active, live, limit, calls = np.ones(N, dtype=bool), N, handoff or _TAIL, 0
    with np.errstate(all="ignore"):   # non-finite members are dropped below
        while live > limit:
            R, J = _system(zb, ref, b)
            cb += active
            r = np.abs(R).max(axis=1)
            ok = active & np.isfinite(r)
            done = ok & ((r <= _NEWTON_TOL) | (cb > _NEWTON_MAX_ITER))
            if done.any():
                res[at[done]] = r[done]
            keep = ok ^ done
            if keep.any():
                dz = _steps(R, J, b, keep)
                step = np.abs(dz)
                keep &= (step[:, :6].max(axis=1) <= 0.5) \
                    & (step.max(axis=1) <= 1e8)
                np.add(zb, dz, out=zb, where=keep[:, None])
            del R, J                # before the next evaluation allocates
            live, active, calls = np.count_nonzero(keep), keep, calls + 1
            # drop stopped members once they are half the batch or 9, about
            # a take's cost in member iterations (chosen on a cost model)
            if live > limit and len(keep) - live >= min(live, 9):
                z[at], count[at] = zb, cb
                at, b, zb, cb, active = at[keep], b.take(keep), zb[keep], \
                    cb[keep], active[keep]
        if not handoff:
            for j in np.flatnonzero(active).tolist():
                res[at[j]], cb[j] = _newton_alone(ref, b, j, zb[j], int(cb[j]))
            active = np.zeros_like(active)
    z[at], count[at], running[at] = zb, cb, active
    return res, running, calls


@np.errstate(all="ignore")     # the members that did not converge may overflow
def _screen(ref, b, z, res):
    """The array checks of a block's members in their order: convergence,
    normal force signs, contact by contact the line's extent and the slip
    direction, then per interface the force bound on its summed forces (a
    flush patch is two anchors sharing one physical contact) and the cone on
    its sticking ones, summed in slot order from 0.0.  Returns the code in
    _REASONS of the first that fails per member (0 when all pass), and the
    end geometry per member and contact slot: world points (M, C, 2), n and
    t (M, C, 2, 2) and slips (M, C)."""
    g, _, turned = b.place(ref.poses(z, wrap=True), 6)
    point, tan, (M, C), c = g[:2] + turned[4:6], turned[2:4], b.cols.shape, b.col

    def along(start):
        d = point - (g[2:4] + start)
        return tan[0] * d[0] + tan[1] * d[1]

    slips, extent = along(turned[8:10]), along(turned[10:12])
    off = (extent < c.lo - 1e-9) | (extent > c.hi + 1e-9)
    bad = (off | (slips * c.s < -1e-9)).reshape(M, C)
    first = np.arange(M) * C + bad.argmax(axis=1)
    late = np.where(~off[first], _CODE["slip_direction"], np.where(
        c.lb[first] == _HAND, _CODE["off_segment"], _CODE["off_face"]))
    # per member, slot and interface number: a contact on it, a sticking
    # one, and their forces
    mu = b.table.mu
    on = c.iface.reshape(M, C, 1) == np.arange(len(mu))
    on = np.stack([on, on & c.stick.reshape(M, C, 1)])
    terms = np.where(on[..., None], z[:, 6:].reshape(M, C, 1, 2), 0.0)
    sums = np.zeros((2, M, len(mu), 2))
    for s in range(C):
        sums += terms[:, :, s]
    cone = on[1].any(axis=1) & (
        np.abs(sums[1, ..., 1]) > mu * sums[1, ..., 0] + 1e-9)
    reasons = np.where(res > 1e-9, _CODE["no_converge"], np.where(
        (z[:, 6::2] < -1e-9).any(axis=1), _CODE["negative_normal"], np.where(
            bad.any(axis=1), late, np.where(
                (np.abs(sums[0]) > _FORCE_BOUND).any(axis=(1, 2)),
                _CODE["force_bound"], np.where(cone.any(axis=1), _CODE["cone"], 0)))))
    return reasons, (point.reshape(2, M, C).transpose(1, 2, 0),
                     turned[:4].reshape(2, 2, M, C).transpose(2, 3, 0, 1),
                     slips.reshape(M, C))


def _misplaced(sw, z, flush):
    """The geometric checks, in their order, of members that passed _screen
    (a flush member, flush >= 0 its face, must keep a positive overlap), on
    the poses their iterates z end at: per member the code in _REASONS of
    the first that fails (0 when all pass), and the end poses (M, 6), object
    then hand (x, y, angle).  Every value is bit for bit the one PlanarPose,
    penetration_depth and all_face_residuals give a lone member: angles
    wrapped as wrap_angle does and turned by math.cos and math.sin, the same
    operations element by element, and the products a lone member takes with
    @ kept as @ on C-ordered stacks, each member's the same BLAS call on the
    same layout (the vertices turned, their hand gaps, the tips in the
    object's frame, the face residuals; np.vecdot for the patch ends)."""
    ends = np.array([*sw.object_pose.position, sw.object_pose.angle,
                     *sw.hand_pose.position, sw.hand_pose.angle]) + z[:, :6]
    ends[:, 2::3] = _wrap(ends[:, 2::3])
    (co, ch), (so, sh) = (np.array([list(map(f, a)) for a in
                                    ends[:, 2::3].T.tolist()])
                          for f in (math.cos, math.sin))
    obj, center, poly, half = ends[:, None, :2], ends[:, 3:5], sw.polygon, \
        sw.hand.half_length
    rot = np.stack([co, -so, so, co], axis=1).reshape(-1, 2, 2)
    t_hat, n_hat = np.stack([ch, sh], axis=1), np.stack([sh, -ch], axis=1)
    # the flush patch's ends along the hand, its face turned as transform()
    gone, on = np.zeros(len(z), dtype=bool), np.flatnonzero(flush >= 0)
    if len(on):
        c, s = co[on], so[on]
        ta, tb = (np.vecdot(t_hat[on], np.stack(
            [c * v[:, 0] - s * v[:, 1], s * v[:, 0] + c * v[:, 1]], axis=1)
            + obj[on, 0] - center[on]) for v in (
                poly.vertices[(flush[on] + k) % poly.n_vertices] for k in (0, 1)))
        gone[on] = np.minimum(np.maximum(ta, tb), half) \
            - np.maximum(np.minimum(ta, tb), -half) <= 1e-9
    # penetration_depth's: the ground, each wall and the hand
    verts = poly.vertices @ rot.transpose(0, 2, 1) + obj
    rel = verts - center[:, None]
    tang, gaps = ((rel @ u[..., None])[..., 0] for u in (t_hat, n_hat))
    worst = np.minimum.reduce([
        verts[..., 1] - sw.world.ground_height,
        *(wall.facing * (verts[..., 0] - wall.x) for wall in sw.world.walls),
        np.where(np.abs(tang) <= half + 1e-9, gaps, math.inf)]).min(axis=1)
    tips = np.stack([center - half * t_hat, center + half * t_hat], axis=1)
    tip_obj = rot[:, None].transpose(0, 1, 3, 2) @ (tips - obj)[..., None]
    inside = ((poly.normals @ tip_obj)[..., 0] - poly.offsets < -1e-9).all(axis=2)
    reasons = np.where(gone, _CODE["patch_gone"], np.where(
        worst < -PENETRATION_TOL, _CODE["penetration"], np.where(
            inside.any(axis=1), _CODE["tip_inside"], np.where(
                _segment_face_crossing(verts, tips[:, 0], tips[:, 1]),
                _CODE["segment_crossing"], 0))))
    return reasons, ends


def _segment_face_crossing(verts, tip_a, tip_b):
    """Whether the hand segment properly crosses any polygon face, grazing
    within tolerance not counting: every face at once, by cross products,
    for each leading index of verts (..., n, 2) and the tips (..., 2)."""
    ends, seg = np.roll(verts, -1, axis=-2), tip_b - tip_a
    edge = ends - verts
    d1, d2 = (edge[..., 0] * (t[..., 1, None] - verts[..., 1])
              - edge[..., 1] * (t[..., 0, None] - verts[..., 0])
              for t in (tip_a, tip_b))
    d3, d4 = (seg[..., 0, None] * (v[..., 1] - tip_a[..., 1, None])
              - seg[..., 1, None] * (v[..., 0] - tip_a[..., 0, None])
              for v in (verts, ends))
    return ((d1 * d2 < -1e-18) & (d3 * d4 < -1e-18) & (np.minimum(
        abs(d1), abs(d2)) > 1e-9 * np.maximum(1.0, np.hypot(
            edge[..., 0], edge[..., 1])))).any(axis=-1)


def _unbalanced(table, cols, weight) -> bool:
    """True when forces on the world lines of cols (an environment part)
    cannot cancel the object's weight whatever the iterate (see
    _inconsistent)."""
    return _inconsistent(weight, tuple(
        (*row[_N:_N + 4], row[_S] * row[_MU])
        for row, _ in (table.rows[c] for c in cols)))


def _misfit(table, cols) -> bool:
    """True when two stick rows, no patch's free end, with the same point
    body and line body space their points and anchors so differently that
    max |R| stays above _MISFIT_BOUND at every iterate (module docstring)."""
    sticks = {}
    for row, _ in (table.rows[c] for c in cols):
        if row[_S] == 0 and not row[_FREE]:
            sticks.setdefault((row[_PB], row[_LB]), []).append(row)
    for group in sticks.values():
        for r1, r2 in itertools.combinations(group, 2):
            delta = abs(math.dist(r1[_P:_P + 2], r2[_P:_P + 2])
                        - math.dist(r1[_ANCHOR:_ANCHOR + 2],
                                    r2[_ANCHOR:_ANCHOR + 2]))
            if delta / (2.0 * math.sqrt(2.0)) > _MISFIT_BOUND:
                return True
    return False


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


def _solve_pass(sw, target, hyps) -> _Pass:
    """Solve and screen one enumeration pass of any hypotheses, laid out
    once per distinct part (_ContactRows.layout).

    Hypotheses whose world contacts cannot balance the weight, and those
    with a misfit stick pair, are rejected as no_converge before Newton
    runs.  The rest stream, in contact count order, so that each system
    size is one run and padding stays small, through blocks of
    at most _SLOTS contact slots, a few MB of stacked arrays.  Once the
    members still running in a block fill no more than _HANDOFF of the
    slots and hypotheses are left, they are handed off with their iterates
    and counts to the next block, which the next hypotheses fill up: a
    block's slowest members ride along with fresh ones, each iteration one
    _system call whatever the batch size.  As each block admits at least 1
    - _HANDOFF of the slots anew, a pass builds at most twice as many
    batches as blocks at one half.  The members a block stops are screened
    together (_screen); those that pass, once more at the pass's end
    (_misplaced).
    """
    table, ref = _ContactRows(sw), _Reference(sw, target)
    lay = table.layout(hyps, ref.weight)
    counts = lay.counts.tolist()
    reasons = np.where(lay.unbalanced | lay.misfit, _CODE["no_converge"], 0)
    evaluations, solutions = np.zeros(len(hyps), dtype=int), {}
    passed = {}     # by hypothesis: its iterate, residual and end geometry
    order = np.argsort(lay.counts, kind="stable")
    queue = order[reasons[order] == 0].tolist()
    # block: the members handed off, with their iterates z and counts
    block, z, count, calls, pos = [], np.zeros((0, 6)), np.zeros(0, int), 0, 0
    while pos < len(queue):
        # the next hypotheses join while the block's slots fit, one at least
        carried = len(block)
        width = np.maximum.accumulate(np.maximum(
            lay.counts[queue[pos:]], lay.counts[block].max() if block else 1))
        n = max(1, np.count_nonzero(
            (carried + 1 + np.arange(len(width))) * width <= _SLOTS))
        block += queue[pos:pos + n]
        width, pos = int(width[n - 1]), pos + n
        members = np.array(block)
        batch = _Batch(table, lay.index[members, :width])
        zb = np.zeros((len(block), 6 + 2 * width))
        cb = np.zeros(len(block), int)
        zb[:carried, :z.shape[1]], cb[:carried] = z[:, :zb.shape[1]], count
        handoff = int(_HANDOFF * _SLOTS) // max(width, counts[queue[pos]]) \
            if pos < len(queue) else 0
        res, running, block_calls = _newton(ref, batch, zb, cb, handoff)
        calls += block_calls
        codes, geometry = _screen(ref, batch, zb, res)
        stopped = ~running
        reasons[members[stopped]] = codes[stopped]
        evaluations[members[stopped]] = cb[stopped]
        for j in np.flatnonzero(stopped & (codes == 0)).tolist():
            i = block[j]
            passed[i] = (zb[j, :6 + 2 * counts[i]].copy(), float(res[j]),
                         tuple(g[j] for g in geometry))
        block = members[running].tolist()
        z, count = zb[running], cb[running]
    if passed:
        at = list(passed)
        reasons[at] = _misplaced(sw, np.array([passed[i][0][:6] for i in at]),
                                 lay.flush[at])[0]
    for i, (zi, residual, geometry) in passed.items():
        if reasons[i]:
            continue
        rows = [table.rows[k] for k in lay.index[i, :counts[i]].tolist()]
        slips = geometry[2][:counts[i]].tolist()
        solutions[i] = {
            "rows": rows, "z": zi, "geometry": geometry, "residual": residual,
            "dissipation": float(sum(sl ** 2 for sl, (row, _) in
                                     zip(slips, rows) if row[_S] != 0))}
    return _Pass(hyps, reasons, evaluations, solutions, calls)


def _finish(sw, hyp, sol, passes) -> ModeSolution:
    """The report of the chosen trial (hyp, sol) of the passes, with the
    tangential force of each stick group re-split in proportion to the
    normal forces (wrench neutral)."""
    z, (points, directions, slips) = sol["z"], sol["geometry"]
    obj = PlanarPose(sw.object_pose.position + z[0:2], sw.object_pose.angle + z[2])
    hand = PlanarPose(sw.hand_pose.position + z[3:5], sw.hand_pose.angle + z[5])
    forces = [[f, t] for f, t in zip(z[6::2].tolist(), z[7::2].tolist())]
    groups = {}
    for i, (row, (iface, _)) in enumerate(sol["rows"]):
        if row[_S] == 0:
            groups.setdefault(iface, []).append(i)
    for idxs in groups.values():
        fn_sum, ft_sum = (sum(forces[i][k] for i in idxs) for k in (0, 1))
        if len(idxs) > 1 and fn_sum > 1e-12:
            for i in idxs:
                forces[i][1] = ft_sum * forces[i][0] / fn_sum
    records, hand_F, hand_tau, center = [], np.zeros(2), 0.0, hand.position
    for i, (row, (iface, label)) in enumerate(sol["rows"]):
        (fn, ft), point, (nrm, tan) = forces[i], points[i], directions[i]
        F = fn * nrm + ft * tan         # on the point's body
        if row[_LB] == _OBJ:
            F = -F
        # a stick contact's rows pin its slip to zero: what is left of it is
        # the Newton residual, which residual_norm reports
        records.append(ContactForce(
            iface=iface, label=label, point=tuple(point), force=tuple(F),
            f_normal=float(fn), f_tangent=float(ft),
            slip=float(slips[i]) if row[_S] != 0 else 0.0))
        if iface == "hand":
            hand_F += F
            hand_tau += cross2(point - center, F)
    codes = np.concatenate([p.reasons for p in passes])
    return ModeSolution(
        hypothesis=hyp, object_pose=obj,
        hand_pose=hand, contacts=tuple(records),
        hand_wrench=Wrench2(hand_F, hand_tau, center),
        dissipation=sol["dissipation"], residual_norm=sol["residual"],
        trials=len(codes),
        newton_iterations=sum(int(p.evaluations.sum()) for p in passes),
        stacked_evaluations=sum(p.calls for p in passes),
        rejections=dict(sorted((_REASONS[k], n) for k, n in enumerate(
            np.bincount(codes).tolist()) if k and n)),
        # Newton evaluates every member it runs at least once
        screened=sum(int(np.count_nonzero(p.evaluations == 0)) for p in passes))


def resolve_mode(sw: SimWorld, target: PlanarPose) -> ModeSolution:
    """Pick and solve the contact mode for one impedance target."""
    passes = [_solve_pass(sw, target, enumerate_modes(sw))]
    if not passes[0].solutions:
        # a flush candidate may suppress the slide label the command needs,
        # and one command may sweep across a contact the band does not see
        # yet; the screens still reject what the motion cannot touch
        dp = float(np.linalg.norm(target.position - sw.hand_pose.position))
        dth = abs(wrap_angle(target.angle - sw.hand_pose.angle))
        verts = sw.vertices_world()
        radius = float(np.max(np.linalg.norm(
            verts - verts.mean(axis=0), axis=1)))
        reach = dp + dth * (sw.hand.half_length + 2.0 * radius)
        seen = set(passes[0].hyps)
        passes.append(_solve_pass(sw, target, [
            h for h in enumerate_modes(sw, ACTIVATION_BAND + reach,
                                       suppress_overlaps=False)
            if h not in seen]))
    ok = [(p.hyps[i], sol) for p in passes for i, sol in p.solutions.items()]
    if not ok:
        diag = [{"mode": h.to_json(), "reason": _REASONS[code]}
                for p in passes for h, code in zip(p.hyps, p.reasons.tolist())]
        if any(d["reason"] == "force_bound" for d in diag):
            raise JammedConfiguration(
                f"all {len(diag)} mode hypotheses infeasible, contact force "
                f"bound {_FORCE_BOUND:g} N exceeded", diagnostics=diag)
        raise NoFeasibleMode(
            f"no feasible contact mode among {len(diag)} hypotheses",
            diagnostics=diag)

    best_d = min(sol["dissipation"] for _, sol in ok)
    tied = [(h, sol) for h, sol in ok if sol["dissipation"] <= best_d + 1e-13]
    # ties: a key of the hypothesis alone (see the module docstring)
    hyp, sol = tied[0] if len(tied) == 1 else min(
        tied, key=lambda t: (-t[0].stick_count(), t[0].active_count(),
                             repr(t[0].to_json())))
    return _finish(sw, hyp, sol, passes)
