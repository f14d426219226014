"""Correctness checks computed apart from the program.

Each function returns a list of error strings, empty when the check holds.
They use plain numpy on the program's published outputs (contact records,
poses, cone constraints, graph values), never the program's own residuals.
"""

import math

import numpy as np

BALANCE_TOL = 1e-7      # N and N*m, net wrench on the object
CONE_TOL = 1e-9         # N, |f_t| <= mu f_n and f_n >= 0
PENETRATION_TOL = 1e-9  # m
WLS_TOL = 1e-8          # window poses against the dense weighted solve


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def world_vertices(sw):
    c, s = math.cos(sw.object_pose.angle), math.sin(sw.object_pose.angle)
    rot = np.array([[c, -s], [s, c]])
    return sw.polygon.vertices @ rot.T + sw.object_pose.position


def statics_errors(sw, sol):
    """Net force and torque on the object from the reported ContactForce
    records plus gravity, and the friction cone at every contact."""
    errs = []
    weight = np.array([0.0, -sw.mass * sw.world.gravity])
    c, s = math.cos(sol.object_pose.angle), math.sin(sol.object_pose.angle)
    com = np.array([[c, -s], [s, c]]) @ sw.com + sol.object_pose.position
    force = weight.copy()
    torque = cross2(com, weight)
    mu = {"hand": sw.mu_hand, "ground": sw.mu_ground}
    for rec in sol.contacts:
        f = np.asarray(rec.force, dtype=float)
        force += f
        torque += cross2(np.asarray(rec.point, dtype=float), f)
        m = mu.get(rec.iface, sw.mu_wall)
        tol = CONE_TOL * (1.0 + abs(rec.f_normal))
        if rec.f_normal < -tol:
            errs.append(f"{rec.iface}: negative normal force {rec.f_normal:g}")
        if abs(rec.f_tangent) > m * rec.f_normal + tol:
            errs.append(f"{rec.iface}: |f_t| {abs(rec.f_tangent):g} above "
                        f"mu f_n {m * rec.f_normal:g}")
        if abs(math.hypot(rec.f_normal, rec.f_tangent)
               - math.hypot(*f)) > tol:
            errs.append(f"{rec.iface}: force vector disagrees with f_n, f_t")
    if math.hypot(*force) > BALANCE_TOL or abs(torque) > BALANCE_TOL:
        errs.append(f"net wrench on object ({math.hypot(*force):.3g} N, "
                    f"{abs(torque):.3g} N*m) above {BALANCE_TOL:g}")
    return errs


def penetration_errors(sw):
    """Object vertices against ground, walls and the hand segment, and hand
    tips against the object, from the poses alone."""
    errs = []
    verts = world_vertices(sw)
    worst = float(verts[:, 1].min() - sw.world.ground_height)
    for wall in sw.world.walls:
        worst = min(worst, float((wall.facing * (verts[:, 0] - wall.x)).min()))
    th = sw.hand_pose.angle
    tangent = np.array([math.cos(th), math.sin(th)])
    normal = np.array([math.sin(th), -math.cos(th)])  # palm side, into object
    rel = verts - sw.hand_pose.position
    inside = np.abs(rel @ tangent) <= sw.hand.half_length + PENETRATION_TOL
    if inside.any():
        worst = min(worst, float((rel[inside] @ normal).min()))
    if worst < -PENETRATION_TOL:
        errs.append(f"object penetrates by {-worst:.3g} m")
    edges = np.roll(verts, -1, axis=0) - verts
    outward = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    outward /= np.hypot(outward[:, 0], outward[:, 1])[:, None]
    for sign in (-1.0, 1.0):
        tip = sw.hand_pose.position + sign * sw.hand.half_length * tangent
        depth = float(np.max(np.einsum("ij,ij->i", outward, tip - verts)))
        if depth < -PENETRATION_TOL:
            errs.append(f"hand tip {sign:+.0f} inside the object by "
                        f"{-depth:.3g} m")
    return errs


def cone_violation(constraints, scale_length, force, torque):
    """max_j n_j . (f_x, f_y, tau / l) - b_j, and its index."""
    w = np.array([force[0], force[1], torque / scale_length])
    vals = [float(np.dot(c.normal, w) - c.offset) for c in constraints]
    j = int(np.argmax(vals))
    return vals[j], j


def force_edge_angles(constraints, axis):
    """Angles of the fitted force-plane edges from the cone axis (radians,
    signed, counterclockwise positive)."""
    out = []
    for c in constraints:
        if abs(c.normal[2]) > 0.0:
            continue
        ray = np.array([-c.normal[1], c.normal[0]])
        if ray @ axis < 0:
            ray = -ray
        out.append(math.atan2(cross2(axis, ray), float(ray @ axis)))
    return sorted(out)


def dense_window_solve(records, free_ids, values):
    """Minimiser of sum ||(sum_i B_i x_i - z) / sigma||^2 over the free
    variables by numpy.linalg.lstsq, with every other variable held at the
    given value. records hold (var_ids, blocks, z, sigma) of linear factors.
    """
    col = {}
    for vid in free_ids:
        col[vid] = len(col) * 3
    rows, rhs = [], []
    for var_ids, blocks, z, sigma in records:
        if not any(v in col for v in var_ids):
            continue
        a = np.zeros((len(z), 3 * len(free_ids)))
        b = np.array(z, dtype=float)
        for vid, block in zip(var_ids, blocks):
            if vid in col:
                a[:, col[vid]:col[vid] + 3] = block
            else:
                b = b - block @ values[vid]
        rows.append(a / sigma[:, None])
        rhs.append(b / sigma)
    a = np.vstack(rows)
    x, *_ = np.linalg.lstsq(a, np.concatenate(rhs), rcond=None)
    return {vid: x[c:c + 3] for vid, c in col.items()}, a.shape
