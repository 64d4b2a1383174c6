"""Ray primitives and intersection kernels: slab, triangle, tetrahedron, tree.

The private kernels broadcast over leading axes and are shared by the scalar
API and the batched renderer, so both execution paths produce bitwise-equal
results per ray.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .spatial import Aabb, Obb, ObbTree

# inclusive hit tolerance for entry ordering; keeps grazing rays on shared faces
TET_FACE_TOL = 1e-12
# relative determinant threshold below which a ray counts as parallel
PARALLEL_TOL = 1e-14

TET_FACES = ((0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2))


class HitInterval(NamedTuple):
    t_enter: float
    t_exit: float


@dataclass(frozen=True)
class Ray:
    """Origin, direction and precomputed reciprocal direction."""

    origin: np.ndarray
    direction: np.ndarray
    inv_direction: np.ndarray = field(init=False)

    def __post_init__(self):
        o = np.ascontiguousarray(np.asarray(self.origin, dtype=np.float64))
        d = np.ascontiguousarray(np.asarray(self.direction, dtype=np.float64))
        if o.shape != (3,) or d.shape != (3,):
            raise ValueError("ray origin and direction must be 3-vectors")
        if not (np.isfinite(o).all() and np.isfinite(d).all()):
            raise ValueError("ray contains non-finite components")
        if (d == 0.0).all():
            raise ValueError("ray direction must be nonzero")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "inv_direction", 1.0 / d)


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


def halfspace_intervals(o, d, normals, offsets):
    """Ray parameter range inside the half-spaces n . x <= h (Cyrus-Beck).

    o, d: (..., 3); normals: (..., m, 3); offsets: (..., m); leading axes
    broadcast.  Returns (t_lo, t_hi), empty when t_lo > t_hi.  A plane
    parallel to the ray (n . d == 0) keeps the whole line or none of it,
    depending on whether the origin lies inside, like the zero-direction
    axes of ``slab_intervals``.
    """
    o = o[..., None, :]
    d = d[..., None, :]
    nd = normals[..., 0] * d[..., 0] + normals[..., 1] * d[..., 1] + normals[..., 2] * d[..., 2]
    gap = offsets - (
        normals[..., 0] * o[..., 0] + normals[..., 1] * o[..., 1] + normals[..., 2] * o[..., 2]
    )
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel lanes replaced below
        t = gap / nd
    lo = np.where(nd < 0.0, t, -np.inf)
    hi = np.where(nd > 0.0, t, np.inf)
    outside = (nd == 0.0) & (gap < 0.0)
    if np.any(outside):
        lo = np.where(outside, np.inf, lo)
        hi = np.where(outside, -np.inf, hi)
    return lo.max(axis=-1), hi.min(axis=-1)


def ray_aabb(ray: Ray, box: Aabb) -> Optional[HitInterval]:
    t_enter, t_exit, hit = slab_intervals(
        ray.origin, ray.inv_direction, ray.direction, box.pmin, box.pmax
    )
    if not hit:
        return None
    return HitInterval(float(t_enter), float(t_exit))


def ray_obb(ray: Ray, obb: Obb) -> Optional[HitInterval]:
    """Slab test against the basis-transformed ray; t is frame-invariant."""
    o = obb.basis.to_local(ray.origin)
    d = obb.basis.rotate(ray.direction)
    with np.errstate(divide="ignore"):
        inv_d = 1.0 / d
    t_enter, t_exit, hit = slab_intervals(o, inv_d, d, obb.box.pmin, obb.box.pmax)
    if not hit:
        return None
    return HitInterval(float(t_enter), float(t_exit))


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


def ray_triangle(ray: Ray, tri: np.ndarray, inclusive: bool = False):
    """Ray/triangle intersection; returns (t, u, v) or None."""
    tri = np.asarray(tri, dtype=np.float64)
    t, u, v, hit = moller_trumbore(
        ray.origin, ray.direction, tri[0], tri[1], tri[2], inclusive=inclusive
    )
    if not hit:
        return None
    return float(t), float(u), float(v)


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


def ray_tet_entry(ray: Ray, corners: np.ndarray) -> Optional[float]:
    """Entry parameter of a ray into a (corner) tetrahedron, or None."""
    corners = np.asarray(corners, dtype=np.float64)
    t, hit = tet_entry(ray.origin, ray.direction, corners)
    if not hit:
        return None
    return float(t)


def traverse(tree: ObbTree, ray: Ray) -> list:
    """Leaves whose OBB the ray hits, ordered by ascending entry parameter."""
    hits = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        interval = ray_obb(ray, node.obb)
        if interval is None:
            continue
        if node.is_leaf:
            hits.append((node, interval))
        else:
            stack.append(node.right)
            stack.append(node.left)
    hits.sort(key=lambda pair: pair[1].t_enter)
    return hits


def order_candidates(mesh, ray: Ray, element_ids: np.ndarray) -> np.ndarray:
    """Order candidate elements by linear-guess entry parameter.

    Elements whose corner tetrahedron the ray hits come first, sorted by
    entry t; misses follow, sorted by element id, so that no candidate is
    ever dropped for a sample inside a curved bulge.
    """
    element_ids = np.asarray(element_ids, dtype=np.int64)
    if element_ids.size == 0:
        return element_ids
    corners = mesh.nodes[mesh.elements[element_ids, :4]]
    t, _ = tet_entry(ray.origin, ray.direction, corners)
    order = np.lexsort((element_ids, t))
    return element_ids[order]
