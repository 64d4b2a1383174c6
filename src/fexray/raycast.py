"""Ray intersection kernels: slab, triangle and tetrahedron.

The kernels broadcast over leading axes, so a call on one ray and a call on
a batch give bitwise-equal results per ray.
"""

from __future__ import annotations

import numpy as np

from .mesh import TET_FACES

# inclusive hit tolerance for entry ordering; keeps grazing rays on shared faces
TET_FACE_TOL = 1e-12
# relative determinant threshold below which a ray counts as parallel
PARALLEL_TOL = 1e-14


def slab_intervals(o, inv_d, d, pmin, pmax):
    """Slab test; all arguments broadcast over leading axes.

    Returns (t_enter, t_exit, hit).  Division-free: uses the precomputed
    reciprocal direction.  Axes with zero direction are handled by an
    inside-slab containment check (this also absorbs the 0 * inf = NaN corner
    case when the origin sits exactly on a slab plane).
    """
    with np.errstate(invalid="ignore"):  # 0 * inf lanes are replaced below
        t1 = (pmin - o) * inv_d
        t2 = (pmax - o) * inv_d
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    zero = d == 0.0
    if np.any(zero):
        inside = (o >= pmin) & (o <= pmax)
        lo = np.where(zero, np.where(inside, -np.inf, np.inf), lo)
        hi = np.where(zero, np.where(inside, np.inf, -np.inf), hi)
    t_enter = np.maximum(np.maximum(lo[..., 0], lo[..., 1]), lo[..., 2])
    t_exit = np.minimum(np.minimum(hi[..., 0], hi[..., 1]), hi[..., 2])
    hit = (t_enter <= t_exit) & (t_exit >= 0.0)
    return t_enter, t_exit, hit


def _cross(ax, ay, az, bx, by, bz):
    return ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx


def moller_trumbore(o, d, p, q, r, inclusive: bool = False, tol: float = TET_FACE_TOL):
    """Cramer's-rule ray/triangle solve; broadcasts over leading axes.

    Returns (t, u, v, hit).  Strict acceptance is u > 0, v > 0, t > 0 and
    u + v <= 1; the inclusive variant relaxes the strict inequalities by
    ``tol`` so edge and vertex hits are kept.  Near-parallel rays
    (|det| < 1e-14 * scale^3) never hit.
    """
    e1x = q[..., 0] - p[..., 0]
    e1y = q[..., 1] - p[..., 1]
    e1z = q[..., 2] - p[..., 2]
    e2x = r[..., 0] - p[..., 0]
    e2y = r[..., 1] - p[..., 1]
    e2z = r[..., 2] - p[..., 2]
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    tx = o[..., 0] - p[..., 0]
    ty = o[..., 1] - p[..., 1]
    tz = o[..., 2] - p[..., 2]

    px, py, pz = _cross(dx, dy, dz, e2x, e2y, e2z)  # d x E2
    det = px * e1x + py * e1y + pz * e1z
    d_norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    e1_norm = np.sqrt(e1x * e1x + e1y * e1y + e1z * e1z)
    e2_norm = np.sqrt(e2x * e2x + e2y * e2y + e2z * e2z)
    parallel = np.abs(det) < PARALLEL_TOL * d_norm * e1_norm * e2_norm

    safe = np.where(parallel, 1.0, det)
    qx, qy, qz = _cross(tx, ty, tz, e1x, e1y, e1z)  # T x E1
    t = (qx * e2x + qy * e2y + qz * e2z) / safe
    u = (px * tx + py * ty + pz * tz) / safe
    v = (qx * dx + qy * dy + qz * dz) / safe
    if inclusive:
        hit = (u >= -tol) & (v >= -tol) & (t >= -tol) & (u + v <= 1.0 + tol)
    else:
        hit = (u > 0.0) & (v > 0.0) & (t > 0.0) & (u + v <= 1.0)
    hit = hit & ~parallel
    return t, u, v, hit


def tet_entry(o, d, corners):
    """Minimum boundary-inclusive face-hit parameter; broadcasts leading axes.

    corners has shape (..., 4, 3).  Returns (t_entry, hit); misses carry
    t_entry = +inf.
    """
    t_min = None
    any_hit = None
    for fa, fb, fc in TET_FACES:
        t, _, _, hit = moller_trumbore(
            o,
            d,
            corners[..., fa, :],
            corners[..., fb, :],
            corners[..., fc, :],
            inclusive=True,
        )
        t = np.where(hit, t, np.inf)
        t_min = t if t_min is None else np.minimum(t_min, t)
        any_hit = hit if any_hit is None else (any_hit | hit)
    return t_min, any_hit

