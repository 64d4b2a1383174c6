"""Global-to-local Newton iteration and point-in-element classification.

A quadratic tetrahedron maps reference coordinates xi to

    X(xi) = n0 + A xi + sum_e 4 phi_a phi_b d_e,

with A = [n1 - n0, n2 - n0, n3 - n0] the corner-tetrahedron matrix, phi the
barycentrics (1 - x - y - z, x, y, z) and d_e the offset of the mid-edge node
of edge e = (a, b) from the edge midpoint.  Newton's method is
affine-invariant, so it runs on the reference-frame residual

    g(xi) = A^-1 (X(xi) - p) = xi - lam + sum_e M_e phi_a phi_b,

where lam = A^-1 (p - n0) are the corner-tetrahedron barycentrics of the
query point p and M_e = 4 A^-1 d_e are the element's edge bulges.  In exact
arithmetic the iterates are those of Newton on X(xi) - p.

``_element_frames`` builds n0, A^-1 and the bulges once per set of elements,
with explicit elementwise arithmetic, so an element's frame has the same bits
whichever elements it is built with.  A straight element (every bulge exactly
zero, and every 4-node element) has xi = lam: Newton from lam would stop
after one iteration with a zero step, so those lanes take lam directly and
count that one iteration.  Curved lanes start Newton from lam, unless the
element's bulges sum to ``WARM_BULGE`` or more (see there).  A lane stops
when the step relative to the first iterate drops below the tolerance, and
fails on a singular Jacobian (|det g'| < SINGULAR_REL, i.e. |det J| below
SINGULAR_REL |det A|), divergence or iteration overflow; a lane whose corner
matrix has no inverse fails as singular.  Lanes are frozen once they stop,
so results do not depend on which other points share the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import EDGE_VERTICES, Mesh, MeshError, map_points

# success additionally requires the mapped point to reproduce the query
RESIDUAL_REL = 1e-8
# Newton iterates escaping this reference-space ball count as diverged
DIVERGENCE_NORM = 10.0
# |det| threshold of the reference-frame Jacobian (det J / det A) below
# which a lane fails as singular
SINGULAR_REL = 1e-14
# The bulge term sum_e M_e phi_a phi_b moves a point by up to sum_e |M_e| / 4
# (phi_a phi_b <= 1/4).  Once sum_e |M_e| reaches this bound that shift can
# exceed the reference tetrahedron, lam says little about xi, and Newton
# starts from the centroid instead.  In a sweep of random curved elements the
# lam start missed 515 interior points of the 716 elements past the bound,
# where the centroid start missed 41, and none of the 1 870 below it.
WARM_BULGE = 4.0


@dataclass(frozen=True)
class NewtonSettings:
    eps_tol: float = 1e-10
    max_iter: int = 20

    def __post_init__(self):
        if not 0.0 < self.eps_tol < math.inf:
            raise ValueError("eps_tol must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def in_hull(xi: np.ndarray, geom_tol: float = 1e-8) -> np.ndarray:
    """Barycentric in-hull test, broadcasting over leading axes."""
    xi = np.asarray(xi, dtype=np.float64)
    ok = (
        (xi[..., 0] >= -geom_tol)
        & (xi[..., 1] >= -geom_tol)
        & (xi[..., 2] >= -geom_tol)
        & (xi[..., 0] + xi[..., 1] + xi[..., 2] <= 1.0 + geom_tol)
    )
    return ok


@dataclass(frozen=True)
class _ElementFrames:
    """Reference-frame data of a set of elements, one column per element.

    ``corner`` holds n0 in rows 0-2 and A^-1, row-major, in rows 3-11.
    ``bulges`` row 6 * a + e is component a of M_e.  Elements whose corner
    matrix has no finite inverse are ``singular`` and carry zeros.
    """

    corner: np.ndarray  # (12, n)
    bulges: np.ndarray  # (18, n)
    curved: np.ndarray  # (n,) some bulge is nonzero
    warm: np.ndarray  # (n,) sum_e |M_e| < WARM_BULGE: Newton starts from lam
    singular: np.ndarray  # (n,)
    diam: np.ndarray  # (n,) node bounding-box diagonal


def _element_frames(nodes: np.ndarray) -> _ElementFrames:
    """Reference-frame data of elements with nodes (n, n_nodes, 3)."""
    nodes = np.asarray(nodes, dtype=np.float64)
    cols = nodes.transpose(1, 2, 0)  # (n_nodes, 3, n)
    n0 = cols[0]
    # A[r][c] = (n_{c+1} - n0)_r
    a, b, c = cols[1][0] - n0[0], cols[2][0] - n0[0], cols[3][0] - n0[0]
    d_, e, g = cols[1][1] - n0[1], cols[2][1] - n0[1], cols[3][1] - n0[1]
    h, i, k = cols[1][2] - n0[2], cols[2][2] - n0[2], cols[3][2] - n0[2]
    adj = np.array(
        [
            e * k - g * i, c * i - b * k, b * g - c * e,
            g * h - d_ * k, a * k - c * h, c * d_ - a * g,
            d_ * i - e * h, b * h - a * i, a * e - b * d_,
        ]
    )
    det = a * adj[0] + b * adj[3] + c * adj[6]
    m = np.zeros((3, 6, nodes.shape[0]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = adj / det
        if nodes.shape[1] == 10:
            for j, (p, q) in enumerate(EDGE_VERTICES):
                off = 4.0 * (cols[4 + j] - 0.5 * (cols[p] + cols[q]))
                for r in range(3):
                    m[r, j] = (
                        inv[3 * r] * off[0] + inv[3 * r + 1] * off[1]
                    ) + inv[3 * r + 2] * off[2]
    singular = ~(np.isfinite(inv).all(axis=0) & np.isfinite(m).all(axis=(0, 1)))
    inv[:, singular] = 0.0
    m[:, :, singular] = 0.0
    ext = nodes.max(axis=1) - nodes.min(axis=1)
    return _ElementFrames(
        corner=np.concatenate([n0, inv]),
        bulges=m.reshape(18, -1),
        curved=(m != 0.0).any(axis=(0, 1)),
        warm=sum(np.sqrt(m[0, j] ** 2 + m[1, j] ** 2 + m[2, j] ** 2) for j in range(6))
        < WARM_BULGE,
        singular=singular,
        diam=np.sqrt(ext[:, 0] ** 2 + ext[:, 1] ** 2 + ext[:, 2] ** 2),
    )


def _reference_newton(
    bulges: np.ndarray, lam: np.ndarray, start: np.ndarray, settings: NewtonSettings
):
    """Newton on g(xi) = xi - lam + sum_e M_e phi_a phi_b from xi = start.

    ``bulges`` is (18, k) per lane as in ``_ElementFrames``; ``lam`` and
    ``start`` are (3, k).
    With p_e = phi_a phi_b over ``EDGE_VERTICES`` and w = 1 - x - y - z the
    Jacobian rows are

        J_a0 = [a = 0] + M0 (w - x) + (M1 - M2) y + (M4 - M3) z
        J_a1 = [a = 1] + M2 (w - y) + (M1 - M0) x + (M5 - M3) z
        J_a2 = [a = 2] + M3 (w - z) + (M4 - M0) x + (M5 - M2) y

    Returns (xi (3, k), converged, iterations).
    """
    k = lam.shape[1]
    xi = np.empty((3, k))
    converged = np.zeros(k, dtype=bool)
    iters = np.full(k, settings.max_iter, dtype=np.int64)
    # running lanes: rows x, y, z, lam (3), step denominator, bulges (18)
    state = np.empty((25, k))
    state[0:3] = start
    state[3:6] = lam
    state[6] = 1.0
    state[7:] = bulges
    lane = np.arange(k)
    for it in range(1, settings.max_iter + 1):
        x, y, z = state[0], state[1], state[2]
        w = 1.0 - x - y - z
        p = (w * x, x * y, y * w, w * z, x * z, y * z)
        wx, wy, wz = w - x, w - y, w - z
        f, jac = [], []
        for a in range(3):
            mm = state[7 + 6 * a : 13 + 6 * a]
            f.append(
                (state[a] - state[3 + a])
                + (mm[0] * p[0] + mm[1] * p[1] + mm[2] * p[2]
                   + mm[3] * p[3] + mm[4] * p[4] + mm[5] * p[5])
            )
            jac.append(
                (
                    mm[0] * wx + (mm[1] - mm[2]) * y + (mm[4] - mm[3]) * z,
                    mm[2] * wy + (mm[1] - mm[0]) * x + (mm[5] - mm[3]) * z,
                    mm[3] * wz + (mm[4] - mm[0]) * x + (mm[5] - mm[2]) * y,
                )
            )
            jac[a][a][...] += 1.0  # the identity part of I + sum_e M_e (x) grad p_e
        (ja, jb, jc), (jd, je, jg), (jh, ji, jk) = jac
        co00 = je * jk - jg * ji
        co01 = jc * ji - jb * jk
        co02 = jb * jg - jc * je
        co10 = jg * jh - jd * jk
        co11 = ja * jk - jc * jh
        co12 = jc * jd - ja * jg
        co20 = jd * ji - je * jh
        co21 = jb * jh - ja * ji
        co22 = ja * je - jb * jd
        det = ja * co00 + jb * co10 + jc * co20
        singular = np.abs(det) < SINGULAR_REL
        with np.errstate(divide="ignore", invalid="ignore"):  # singular lanes are discarded
            d0 = (co00 * f[0] + co01 * f[1] + co02 * f[2]) / det
            d1 = (co10 * f[0] + co11 * f[1] + co12 * f[2]) / det
            d2 = (co20 * f[0] + co21 * f[1] + co22 * f[2]) / det
        if singular.any():
            d0[singular] = d1[singular] = d2[singular] = 0.0
        x -= d0
        y -= d1
        z -= d2
        norm = np.sqrt(x**2 + y**2 + z**2)
        if it == 1:
            state[6] = np.maximum(norm, 1.0)
        step = np.sqrt(d0**2 + d1**2 + d2**2)
        conv_now = (step / state[6] < settings.eps_tol) & ~singular
        stop = conv_now | singular | (norm > DIVERGENCE_NORM)
        if not stop.any():
            continue
        done = lane[stop]
        xi[:, done] = state[:3, stop]
        iters[done] = it
        converged[done] = conv_now[stop]
        keep = np.flatnonzero(~stop)
        if keep.size == 0:
            return xi, converged, iters
        lane = lane[keep]
        state = state.take(keep, axis=1)
    xi[:, lane] = state[:3]
    return xi, converged, iters


def _solve(frames: _ElementFrames, cols: np.ndarray, points: np.ndarray, settings):
    """Reference coordinates of ``points`` in the frames ``cols`` (one per point).

    Returns (xi, converged, iterations) with shapes (k, 3), (k,), (k,).
    """
    n0, inv = np.split(frames.corner.take(cols, axis=1), [3])
    dx = points[:, 0] - n0[0]
    dy = points[:, 1] - n0[1]
    dz = points[:, 2] - n0[2]
    xi = np.array(
        [(inv[3 * r] * dx + inv[3 * r + 1] * dy) + inv[3 * r + 2] * dz for r in range(3)]
    )
    iters = np.ones(cols.size, dtype=np.int64)
    converged = ~frames.singular[cols]
    curved = np.flatnonzero(frames.curved[cols])
    if curved.size:
        lam = xi[:, curved]
        start = np.where(frames.warm[cols[curved]], lam, 0.25)
        xi[:, curved], converged[curved], iters[curved] = _reference_newton(
            frames.bulges.take(cols[curved], axis=1), lam, start, settings
        )
    return xi.T, converged, iters


def newton_solve(
    nodes: np.ndarray,
    order: str,
    points: np.ndarray,
    settings: NewtonSettings,
    det_scale=None,
):
    """Invert the isoparametric map for a batch of points.

    ``nodes`` is one element's (n_nodes, 3) coordinates, or (n_nodes, 3, k)
    with one column per point.  ``order`` and ``det_scale`` are not needed:
    the node count sets the order, and the singular test is relative to the
    corner matrix the reference frame divides out.  Returns
    (xi, converged, iterations) with shapes (k, 3), (k,), (k,).
    """
    points = np.asarray(points, dtype=np.float64)
    nodes = np.asarray(nodes, dtype=np.float64)
    frames = _element_frames(nodes[None] if nodes.ndim == 2 else nodes.transpose(2, 0, 1))
    n = frames.diam.size
    cols = np.zeros(points.shape[0], dtype=np.int64) if n == 1 else np.arange(n)
    return _solve(frames, cols, points, settings)


def membership_test(
    mesh: Mesh,
    e,
    points: np.ndarray,
    settings: NewtonSettings,
    geom_tol: float,
    frames: _ElementFrames | None = None,
):
    """Batched point-in-element test.

    ``e`` is one element id for all points, or an array with one id per
    point.  ``frames`` is ``_element_frames`` of the whole mesh, for callers
    that test many elements; without it the frames of the tested elements
    are built here.  Returns (inside, xi, iterations, converged): ``inside``
    lanes converged, landed in the reference hull and reproduce the query
    point within the residual bound.
    """
    points = np.asarray(points, dtype=np.float64)
    ids = np.atleast_1d(np.asarray(e, dtype=np.int64))
    if ids.size and (ids.min() < 0 or ids.max() >= mesh.n_elements):
        raise MeshError(f"element id out of range [0, {mesh.n_elements})")
    if frames is None:
        frames = _element_frames(mesh.nodes[mesh.elements[ids]])
        cols = np.arange(ids.size)
    else:
        cols = ids
    if ids.size == 1:
        cols = np.broadcast_to(cols, points.shape[:1])
        ids = np.broadcast_to(ids, points.shape[:1])
    xi, converged, iters = _solve(frames, cols, points, settings)
    inside = converged & in_hull(xi, geom_tol)
    if inside.any():
        idx = np.flatnonzero(inside)
        # the lanes' element nodes, (n_nodes, k, 3); take on the transposed
        # connectivity keeps both gathers contiguous
        nodes = mesh.nodes.take(mesh.elements.T.take(ids[idx], axis=1), axis=0)
        res = map_points(nodes, xi[idx], mesh.order) - points[idx]
        res_norm = np.sqrt(res[:, 0] ** 2 + res[:, 1] ** 2 + res[:, 2] ** 2)
        inside[idx[res_norm > RESIDUAL_REL * frames.diam[cols[idx]]]] = False
    return inside, xi, iters, converged

