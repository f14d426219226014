"""Convex hulls of noisy planar point sets.

The exact hull of noisy samples of a convex shape sprouts spurious vertices on
every noise bump. noisy_convex_hull removes them by peeling hull vertices that
sit within a noise band of the chord joining their neighbors, where the band is
fitted from the hull itself. All decisions depend only on the exact hull's
vertex set, never on interior points, so adding interior points can never
change the output.

The peel runs on an index ring over the exact hull's m vertices. Heights are
computed once; deleting a vertex changes the neighbor chord of its two ring
neighbors only, so only their heights are recomputed. A peel is accepted when
every exact-hull vertex stays within one band of the peeled ring, and only the
new chord prev -> next needs testing against them: every other edge of the
candidate ring is an edge of the current ring, which is either an edge of the
exact hull (which contains its own vertices) or a chord that passed this same
test when it was made. A peel therefore costs O(m) plus O(log m) heap work,
and the whole fit O(m^2) at worst, where testing every edge of every
candidate cost O(m^2) per peel.
"""

import heapq

import numpy as np

from ..errors import TooFewPoints
from .pose import CROSS_REL_TOL, extent

MIN_POINTS = 8
# Upper clip on the fitted noise band, as a fraction of the hull diameter.
# Keeps genuinely polygonal corners from being peeled when the median vertex
# height is large (few-vertex hulls).
BAND_DIAMETER_CAP = 0.02
# Chords shorter than this give their middle vertex height 0.
MIN_CHORD = 1e-15
# Absolute slack of the coverage test, on top of the band.
COVER_SLACK = 1e-12
# Rows per block of the pairwise-distance matrix; bounds its memory on large
# hulls.
DIAMETER_ROWS = 256


def convex_hull(points) -> np.ndarray:
    """Strict convex hull (collinear points dropped), counterclockwise.

    Andrew's monotone chain over the lexicographically sorted unique points.
    A turn counts as collinear when its cross product is at most
    CROSS_REL_TOL * extent**2, the tolerance PolygonModel checks against, so
    any hull of 3 or more vertices is a valid PolygonModel. Degenerate inputs,
    slivers included, yield fewer than 3 vertices.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts.copy()
    tol = CROSS_REL_TOL * extent(pts) ** 2

    def half(seq):
        chain = []
        for p in seq:
            px, py = p
            while len(chain) >= 2:
                (ax, ay), (ox, oy) = chain[-1], chain[-2]
                # cross2(a - o, p - o) on Python floats
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > tol:
                    break
                chain.pop()
            chain.append(p)
        return chain

    seq = pts.tolist()
    lower = half(seq)
    upper = half(seq[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _vertex_heights(x, y, prev, cur, nxt) -> np.ndarray:
    """Perpendicular distance of vertices cur to their neighbors' chord
    prev -> next, for index arrays into the coordinates x and y."""
    cx, cy = x[nxt] - x[prev], y[nxt] - y[prev]
    lengths = np.hypot(cx, cy)
    # CCW ring: the vertex pokes outward (to the right) of prev->next.
    cross = (x[cur] - x[prev]) * cy - (y[cur] - y[prev]) * cx
    short = lengths < MIN_CHORD
    return np.where(short, 0.0, cross / np.where(short, 1.0, lengths))


def _diameter(x, y) -> float:
    """Largest pairwise distance, DIAMETER_ROWS rows at a time."""
    return max(float(np.hypot(x[i:i + DIAMETER_ROWS, None] - x,
                              y[i:i + DIAMETER_ROWS, None] - y).max())
               for i in range(0, len(x), DIAMETER_ROWS))


def noisy_convex_hull(points) -> np.ndarray:
    """Convex hull of noisy samples, with noise-scale vertices peeled away.

    The band is 2x the median perpendicular height of the exact hull's vertices
    over their neighbor chords, capped at a small fraction of the hull
    diameter. Vertices shorter than the band are peeled greedily (shortest
    first, ties in ring order) as long as every exact-hull vertex stays within
    one band of the peeled hull; a vertex whose peel fails that test is never
    tried again. Since any input point is a convex combination of the exact
    hull's vertices and the inflated hull is convex, that acceptance rule keeps
    every input point inside the returned hull inflated by the fitted band.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    if len(pts) < MIN_POINTS:
        raise TooFewPoints(f"need at least {MIN_POINTS} points, got {len(pts)}")

    hull = convex_hull(pts)
    m = len(hull)
    if m <= 3:
        return hull

    x, y = hull[:, 0], hull[:, 1]
    idx = np.arange(m)
    heights = _vertex_heights(x, y, np.roll(idx, 1), idx, np.roll(idx, -1))
    band = min(2.0 * float(np.median(heights)),
               BAND_DIAMETER_CAP * _diameter(x, y))
    if band <= 0.0:
        return hull

    prev = np.roll(idx, 1).tolist()
    nxt = np.roll(idx, -1).tolist()
    xs, ys, h = x.tolist(), y.tolist(), heights.tolist()
    alive = [True] * m
    blocked = set()
    # (height, vertex) entries, popped shortest first with ties in ring
    # order; an entry is stale once its vertex's height has changed.
    queue = [(h[i], i) for i in range(m) if h[i] < band]
    heapq.heapify(queue)
    limit = band + COVER_SLACK
    left = m
    while left > 3 and queue:
        hi, i = heapq.heappop(queue)
        if not alive[i] or i in blocked or hi != h[i]:
            continue
        p, n = prev[i], nxt[i]
        ex, ey = xs[n] - xs[p], ys[n] - ys[p]
        length = float(np.hypot(ex, ey))
        nx, ny = ey / length, -ex / length
        if not np.all(hull @ (nx, ny) - (nx * xs[p] + ny * ys[p]) <= limit):
            blocked.add(i)
            continue
        alive[i] = False
        left -= 1
        nxt[p], prev[n] = n, p
        for j, hj in zip((p, n), _vertex_heights(
                x, y, [prev[p], p], [p, n], [n, nxt[n]]).tolist()):
            h[j] = hj
            if hj < band:
                heapq.heappush(queue, (hj, j))
    return hull[np.array(alive)]
