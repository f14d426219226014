"""Contact-mode hypothesis enumeration.

Contacts live at three interfaces: hand line against the object, object
vertices against the ground line, object vertices against vertical walls.
A hypothesis assigns one label per candidate contact.  Tangential labels:

* ``separate``  no force, gap may open
* ``stick``     contact point pinned, |f_t| <= mu f_n
* ``slide_pos`` object material slides toward +tangent relative to the
  other body, f_t = -mu f_n on the object
* ``slide_neg`` mirror image

Two candidates at the same interface must share their tangential label when
both are active: a rigid body cannot stick at one point of a line contact
while sliding at another (the motion would have to be a rotation, which
breaks the second point's normal constraint).  Joint activity is further
limited to candidates that share a face, (a - b) mod n in {1, n - 1}: two
vertices resting on a line make it a supporting line of the convex polygon,
which meets it in a single face.  Of the two boundary chains between any
other pair, the one on the line's side would pass through the surface.
Nearness along the tangent is no substitute: a vertex still inside the
activation band can sit, in tangent order, between the two that bear the
load.
A vertex simultaneously on the ground and against a wall can only be active
on both as stick-stick.

A face seated on the hand is handled as a pair of point contacts at the ends
of the overlap patch.  While a flush candidate exists, a hand tip on that
face keeps only its stick variant: a tip sliding along the face is one half
of the flush slide and would otherwise shadow it with half the slip cost.
Face corners are never suppressed.

An end of the overlap patch is a hand tip when the face sticks out past the
hand, and a face corner when the hand sticks out past the face.  A flush
candidate bakes in the split seen at the current pose, which goes stale the
moment a sliding corner crosses a tip.  The "pair" candidates cover those
regimes explicitly: tip+corner while a corner is near a tip, corner+corner
when the whole face fits under the hand.  Pairs carry slide labels only;
their stick variant is the ordinary flush stick.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .world import SimWorld

ACTIVE_LABELS = ("stick", "slide_pos", "slide_neg")
ACTIVATION_BAND = 1e-3   # m; contacts closer than this are candidates


@dataclass(frozen=True)
class HandContact:
    """Geometric identity of one hand-object contact candidate."""

    kind: str                  # "vertex" | "tip" | "flush" | "pair"
    vertex: int = -1           # polygon vertex index, kind in ("vertex", "pair")
    face: int = -1             # polygon face index, kind in ("tip", "flush", "pair")
    tip: int = 0               # -1 or +1, kind in ("tip", "pair"); 0 = no tip end
    anchors: tuple = ()        # kind == "flush": ((t_hand, ox, oy), (t_hand, ox, oy))

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "vertex":
            out["vertex"] = self.vertex
        elif self.kind == "tip":
            out["face"] = self.face
            out["tip"] = self.tip
        elif self.kind == "pair":
            out["face"] = self.face
            out["tip"] = self.tip
            out["vertex"] = self.vertex
        else:
            out["face"] = self.face
            out["anchors"] = [list(a) for a in self.anchors]
        return out


@dataclass(frozen=True)
class ContactModeHypothesis:
    hand_label: str                                  # "none" or an ACTIVE_LABEL
    hand_contact: Optional[HandContact]
    ground: tuple = ()                               # ((vertex, label), ...)
    walls: tuple = ()                                # ((wall, vertex, label), ...)

    @property
    def hand_mode(self) -> str:
        if self.hand_label == "none":
            return "no_contact"
        # a pair is still a line-on-face contact, just with different ends
        shape = "flush" if self.hand_contact.kind in ("flush", "pair") \
            else "point"
        return f"{self.hand_label}_{shape}" if self.hand_label != "stick" \
            else f"stick_{shape}"

    def active_count(self) -> int:
        n = 0 if self.hand_label == "none" else 1
        n += sum(1 for _, lab in self.ground if lab != "separate")
        n += sum(1 for _, _, lab in self.walls if lab != "separate")
        return n

    def stick_count(self) -> int:
        n = 1 if self.hand_label == "stick" else 0
        n += sum(1 for _, lab in self.ground if lab == "stick")
        n += sum(1 for _, _, lab in self.walls if lab == "stick")
        return n

    def to_json(self) -> dict:
        return {
            "hand": self.hand_mode,
            "hand_contact": None if self.hand_contact is None
            else self.hand_contact.to_json(),
            "ground": [[v, lab] for v, lab in self.ground],
            "walls": [[w, v, lab] for w, v, lab in self.walls],
        }


def _ground_candidates(sw: SimWorld, band: float) -> list:
    gaps = sw.ground_gaps()
    idx = [int(i) for i in np.nonzero(gaps <= band)[0]]
    xs = sw.vertices_world()[:, 0]
    return sorted(idx, key=lambda i: xs[i])


def _wall_candidates(sw: SimWorld, wall_index: int, band: float) -> list:
    gaps = sw.wall_gaps(wall_index)
    idx = [int(i) for i in np.nonzero(gaps <= band)[0]]
    ys = sw.vertices_world()[:, 1]
    return sorted(idx, key=lambda i: ys[i])


def _hand_candidates(sw: SimWorld, band: float):
    """Vertex-on-line, tip-on-face, flush, and patch-end pair candidates."""
    verts = sw.vertices_world()
    n_hat = sw.hand_normal()
    t_hat = sw.hand_tangent()
    center = sw.hand_pose.position
    half = sw.hand.half_length
    gaps = (verts - center) @ n_hat
    tang = (verts - center) @ t_hat
    n = len(verts)

    # vertices slightly beyond the tips stay candidates: a sliding face can
    # carry its corner into the segment within one step
    vertex_cands = [int(i) for i in range(n)
                    if gaps[i] <= band and abs(tang[i]) <= half + band]

    R = sw.object_pose.rotation
    normals_w = sw.polygon.normals @ R.T

    tip_cands = []
    for tip_sign, tip in zip((-1, 1), sw.hand_tips()):
        for j in range(n):
            n_f = normals_w[j]
            if n_f @ n_hat > -0.5:
                continue
            a, b = sw.polygon.face_endpoints(j)
            a_w = sw.object_pose.transform(a)
            b_w = sw.object_pose.transform(b)
            edge = b_w - a_w
            length = float(np.hypot(*edge))
            s = float((tip - a_w) @ edge) / length
            d = float(n_f @ (tip - a_w))
            if -1e-9 <= d <= band and -band <= s <= length + band:
                tip_cands.append((tip_sign, j))

    flush_cands = []
    for j in range(len(verts)):
        n_f = normals_w[j]
        if n_f @ n_hat > -0.866:
            continue
        a, b = sw.polygon.face_endpoints(j)
        a_w = sw.object_pose.transform(a)
        b_w = sw.object_pose.transform(b)
        ta = float((a_w - center) @ t_hat)
        tb = float((b_w - center) @ t_hat)
        if abs(tb - ta) < 1e-9:
            continue
        lo, hi = min(ta, tb), max(ta, tb)
        p_lo, p_hi = max(lo, -half), min(hi, half)
        if p_hi - p_lo <= 1e-6:
            continue
        anchors = []
        ok = True
        for t_star in (p_lo, p_hi):
            # Face point whose hand-tangential coordinate equals t_star.
            frac = (t_star - ta) / (tb - ta)
            p_w = a_w + frac * (b_w - a_w)
            gap = float((p_w - center) @ n_hat)
            if not (-1e-6 <= gap <= band):
                ok = False
                break
            p_obj = R.T @ (p_w - sw.object_pose.position)
            anchors.append((t_star, float(p_obj[0]), float(p_obj[1])))
        if ok:
            flush_cands.append((j, tuple(anchors)))

    # support pairs across a corner handoff (see module docstring)
    vset = set(vertex_cands)
    pair_cands = []
    for tip_sign, j in tip_cands:
        for vi in (j, (j + 1) % n):
            if vi not in vset:
                continue
            tv = float(tang[vi])
            # the corner must sit on the inward side of that tip
            if tip_sign < 0:
                if tv <= -half + 1e-6:
                    continue
            elif tv >= half - 1e-6:
                continue
            pair_cands.append((j, tip_sign, vi))
    for j in range(n):
        if normals_w[j] @ n_hat > -0.866:
            continue
        vi, vj = j, (j + 1) % n
        if vi in vset and vj in vset and abs(tang[vi] - tang[vj]) > 1e-6:
            pair_cands.append((j, 0, -1))   # both region ends are corners

    return vertex_cands, tip_cands, flush_cands, pair_cands


def _pair_options(cands: list, n: int, tag) -> list:
    """Label assignments for the candidates of one environment interface.

    n is the polygon's vertex count.  Besides singles, only pairs that share
    a face may be jointly active (see module docstring); an active pair
    shares one tangential label.  Candidates arrive sorted along the
    interface (by x on the ground, by y on a wall), which fixes the label
    order inside each hypothesis tuple: to_json(), the frame truth_label and
    the resolver's tie-break repr all read that order.
    """
    if not cands:
        return [()]

    def assign(active, lab):
        return tuple(tag(v, lab if v in active else "separate")
                     for v in cands)

    opts = [assign((), "separate")]
    for v in cands:
        for lab in ACTIVE_LABELS:
            opts.append(assign((v,), lab))
    for i, a in enumerate(cands):
        for b in cands[i + 1:]:
            if (a - b) % n in (1, n - 1):
                for lab in ACTIVE_LABELS:
                    opts.append(assign((a, b), lab))
    return opts


def _hand_options(sw: SimWorld, band: float,
                  suppress_overlaps: bool = True) -> list:
    vertex_cands, tip_cands, flush_cands, pair_cands = \
        _hand_candidates(sw, band)
    flush_faces = {j for j, _ in flush_cands} if suppress_overlaps else set()

    options = [("none", None)]
    for i in vertex_cands:
        # face corners always keep their slide labels: a corner is never
        # interior to the overlap patch, so its slide never duplicates the
        # flush slide and becomes the true mode once the press centroid
        # crosses it
        for lab in ACTIVE_LABELS:
            options.append((lab, HandContact(kind="vertex", vertex=i)))
    for tip_sign, j in tip_cands:
        if j in flush_faces:
            labels = ("stick",)
        else:
            labels = ACTIVE_LABELS
        for lab in labels:
            options.append((lab, HandContact(kind="tip", face=j, tip=tip_sign)))
    for j, anchors in flush_cands:
        for lab in ACTIVE_LABELS:
            options.append((lab, HandContact(kind="flush", face=j,
                                             anchors=anchors)))
    for j, tip_sign, vi in pair_cands:
        for lab in ("slide_pos", "slide_neg"):
            options.append((lab, HandContact(kind="pair", face=j,
                                             tip=tip_sign, vertex=vi)))
    return options


def enumerate_modes(sw: SimWorld, band: float = ACTIVATION_BAND,
                    suppress_overlaps: bool = True) -> list:
    """All mode hypotheses consistent with current proximity.

    The all-separate hypothesis is always first; the order of the rest
    carries no meaning, and the resolver's choice does not depend on it.
    Candidates use a proximity band (default 1 mm): anything clearly
    separated is not enumerated.

    With suppress_overlaps a flush candidate strips the slide labels from the
    point candidates it covers (a point sliding along a face it is flush with
    duplicates the flush slide).  Commands that rotate the hand off the face
    within one step need those labels back: when no hypothesis of the default
    call is feasible, the resolver's one fallback pass re-enumerates with
    suppression off and the band widened by the commanded reach.
    """
    n = sw.polygon.n_vertices
    ground_opts = _pair_options(_ground_candidates(sw, band), n,
                                lambda v, lab: (v, lab))
    wall_lists = []
    for k in range(len(sw.world.walls)):
        cands = _wall_candidates(sw, k, band)
        wall_lists.append(_pair_options(cands, n,
                                        lambda v, lab, k=k: (k, v, lab)))
    hand_opts = _hand_options(sw, band, suppress_overlaps)

    # the environment options do not depend on the hand's: test each
    # (ground, walls) combination once
    combos = [tuple(itertools.chain.from_iterable(c))
              for c in itertools.product(*wall_lists)]
    env = [(tuple(g), walls) for g in ground_opts for walls in combos
           if _jointly_consistent(g, walls)]
    return [ContactModeHypothesis(hand_label=hand_lab, hand_contact=hand_geom,
                                  ground=g, walls=walls)
            for hand_lab, hand_geom in hand_opts for g, walls in env]


def _jointly_consistent(ground, walls) -> bool:
    """A vertex active on ground and wall at once must stick on both."""
    g_lab = dict(ground)
    for _, v, w_lab in walls:
        lab = g_lab.get(v)
        if lab is None or lab == "separate" or w_lab == "separate":
            continue
        if not (lab == "stick" and w_lab == "stick"):
            return False
    return True
