"""The planar contact primitive: a material point of one body held on a line
of another.

An object vertex on the hand line, a hand tip on an object face and an
object vertex on the ground or a wall are all this one contact; they differ
only in their data.  The point p is fixed in its body's frame; the line is
given in its body's frame by a point on it (the anchor a), its normal n and
its tangent t.  The gap g = x_p + R_p p - (x_l + R_l a) is the point's
offset from the anchor in the world, n.g its distance from the line and
t.g its coordinate along it.

Everything is plain Python floats.  A body's pose enters as (x, y, cos,
sin) of its angle, so a caller that takes the cosines and sines of its
poses once, as an array, gets each quantity from the same floating-point
operations, in the same order, as its array code: a vector v turns as
(c v_x + s (-v_y), c v_y + s v_x) and its derivative by the angle is
(c (-v_y) - s v_x, c v_x - s v_y).  The fixed world is the pose
(0, 0, 1, 0).
"""

from typing import NamedTuple


class PointLineContact(NamedTuple):
    """One point on one line at two body poses, world frame."""

    point: tuple         # the material point x_p + R_p p
    offset: tuple        # R_p p: the point less its body's origin
    normal: tuple        # R_l n
    tangent: tuple       # R_l t
    gap: tuple           # point - (x_l + R_l a)
    normal_gap: float    # normal . gap: the distance from the line
    tangent_gap: float   # tangent . gap: the coordinate along the line
    turn_point: tuple    # d gap / d angle_p, which is d offset / d angle_p
    turn_anchor: tuple   # d (R_l a) / d angle_l; d gap / d angle_l is -it

    def jacobian(self) -> list:
        """The derivatives of gap x, gap y, normal_gap and tangent_gap
        (rows) by x, y and angle of the point's body, then of the line's
        (columns).  Turning the line's body turns n and t with it, which
        adds (n x g, t x g) to the line-angle column."""
        (gx, gy), (tpx, tpy), (tax, tay) = \
            self.gap, self.turn_point, self.turn_anchor
        rows = [[1.0, 0.0, tpx, -1.0, 0.0, -tax],
                [0.0, 1.0, tpy, 0.0, -1.0, -tay]]
        for vx, vy in (self.normal, self.tangent):
            rows.append([vx, vy, vx * tpx + vy * tpy, -vx, -vy,
                         (vx * gy - vy * gx) - (vx * tax + vy * tay)])
        return rows


def point_on_line(point_pose, line_pose, p, anchor, normal,
                  tangent) -> PointLineContact:
    """The contact of material point p of one body on the line (anchor,
    normal, tangent) of another, the bodies at poses (x, y, cos, sin)."""
    xp, yp, cp, sp = point_pose
    xl, yl, cl, sl = line_pose
    (p0, p1), (a0, a1), (n0, n1), (t0, t1) = p, anchor, normal, tangent
    nx, ny = cl * n0 + sl * -n1, cl * n1 + sl * n0
    tx, ty = cl * t0 + sl * -t1, cl * t1 + sl * t0
    ox, oy = cp * p0 + sp * -p1, cp * p1 + sp * p0
    px, py = xp + ox, yp + oy
    gx, gy = px - (xl + (cl * a0 + sl * -a1)), py - (yl + (cl * a1 + sl * a0))
    return PointLineContact((px, py), (ox, oy), (nx, ny), (tx, ty), (gx, gy),
                            nx * gx + ny * gy, tx * gx + ty * gy,
                            (cp * -p1 - sp * p0, cp * p0 - sp * p1),
                            (cl * -a1 - sl * a0, cl * a0 - sl * a1))
