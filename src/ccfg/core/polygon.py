"""Convex polygon model with per-face normal angles and offsets."""

from dataclasses import dataclass

import numpy as np

from .pose import CROSS_REL_TOL, cross2, extent


def face_normals(vertices) -> np.ndarray:
    """Outward unit normals of a CCW polygon, one row per face i running
    from vertices[i] to vertices[i+1]: each edge direction rotated -90 deg."""
    verts = np.asarray(vertices, dtype=float)
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    return np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lengths[:, None]


@dataclass(frozen=True, eq=False)
class PolygonModel:
    """Convex polygon in the object frame.

    Vertices are stored counterclockwise; face i runs from vertices[i] to
    vertices[i+1] (cyclic). Each face carries an outward unit normal encoded as
    an angle phi and an offset d, so that every point (x, y) on the face
    satisfies x*cos(phi) + y*sin(phi) - d = 0.
    """

    vertices: np.ndarray       # (n, 2)
    normal_angles: np.ndarray  # (n,)
    offsets: np.ndarray        # (n,)

    def __init__(self, vertices):
        verts = np.array(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("polygon needs at least 3 planar vertices")
        n = len(verts)
        edges = np.roll(verts, -1, axis=0) - verts
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        # Tolerances are relative to the polygon's extent and shared with
        # convex_hull. An edge no longer than CROSS_REL_TOL * span cannot make
        # a turn above the hull's collinearity tolerance with any other edge,
        # so the hull never keeps one.
        span = extent(verts)
        if np.any(lengths <= CROSS_REL_TOL * span):
            raise ValueError("polygon has duplicate consecutive vertices")
        # CCW order and convexity: consecutive edge cross products must not
        # turn clockwise anywhere.
        crosses = np.array([cross2(edges[i], edges[(i + 1) % n]) for i in range(n)])
        if np.any(crosses < -CROSS_REL_TOL * span ** 2):
            raise ValueError("polygon is not convex and counterclockwise")
        area2 = sum(cross2(verts[i], verts[(i + 1) % n]) for i in range(n))
        if area2 <= 0:
            raise ValueError("polygon vertices must wind counterclockwise")
        normals = face_normals(verts)
        angles = np.arctan2(normals[:, 1], normals[:, 0])
        offs = np.einsum("ij,ij->i", normals, verts)
        for arr in (verts, angles, offs):
            arr.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "normal_angles", angles)
        object.__setattr__(self, "offsets", offs)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def normals(self) -> np.ndarray:
        """Outward unit normals, one row per face."""
        return np.stack([np.cos(self.normal_angles),
                         np.sin(self.normal_angles)], axis=1)

    def all_face_residuals(self, point) -> np.ndarray:
        """Signed distance of one point to every face line, outward positive."""
        return (self.normals @ np.asarray(point, dtype=float)) - self.offsets

    def face_endpoints(self, i: int):
        n = self.n_vertices
        return self.vertices[i % n], self.vertices[(i + 1) % n]

    def contains(self, point, margin: float = 0.0) -> bool:
        return bool(np.all(self.all_face_residuals(point) <= margin))

    def centroid(self) -> np.ndarray:
        verts = self.vertices
        nxt = np.roll(verts, -1, axis=0)
        cross = verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]
        area = cross.sum() / 2.0
        cx = ((verts[:, 0] + nxt[:, 0]) * cross).sum() / (6.0 * area)
        cy = ((verts[:, 1] + nxt[:, 1]) * cross).sum() / (6.0 * area)
        return np.array([cx, cy])

    def area(self) -> float:
        verts = self.vertices
        nxt = np.roll(verts, -1, axis=0)
        return float((verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]).sum() / 2.0)

    def to_json(self) -> dict:
        return {"vertices_m": [[float(x), float(y)] for x, y in self.vertices]}

    @staticmethod
    def from_json(d: dict) -> "PolygonModel":
        return PolygonModel(np.asarray(d["vertices_m"], dtype=float))

    def __eq__(self, other):
        if not isinstance(other, PolygonModel):
            return NotImplemented
        return (self.n_vertices == other.n_vertices
                and bool(np.all(self.vertices == other.vertices)))
