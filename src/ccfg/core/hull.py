"""Exact convex hulls of planar point sets."""

import numpy as np

from .pose import CROSS_REL_TOL, extent


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
