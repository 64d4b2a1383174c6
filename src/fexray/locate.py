"""Global-to-local Newton iteration and point-in-element classification.

The Newton kernel is batched over query points but every lane follows exactly
the per-point iteration: stop when the update norm relative to the first
iterate drops below the tolerance, fail on a singular Jacobian, divergence or
iteration overflow.  Lanes are frozen once they stop, so results do not
depend on which other points share the batch.

Node coordinates enter the kernels structure-of-arrays, shape
(n_nodes, 3, k): one column per lane when every lane has its own element, or
k = 1 when one element serves the whole batch.  Both layouts run the same
elementwise arithmetic per lane, so a point gets bitwise the same answer
whichever elements share its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, MeshError, map_points

# success additionally requires the mapped point to reproduce the query
RESIDUAL_REL = 1e-8
# Newton iterates escaping this reference-space ball count as diverged
DIVERGENCE_NORM = 10.0
# relative |det J| threshold for the singular-Jacobian bailout
SINGULAR_REL = 1e-14

DEFAULT_INITIAL_GUESS = np.array([0.25, 0.25, 0.25])

# Newton lanes iterated together; lanes are independent, so this only sets
# the size of the per-iteration temporaries (chosen to stay in cache)
NEWTON_BLOCK = 4096


@dataclass(frozen=True)
class NewtonSettings:
    eps_tol: float = 1e-10
    max_iter: int = 20
    initial_guess: np.ndarray = field(default_factory=lambda: DEFAULT_INITIAL_GUESS.copy())

    def __post_init__(self):
        if not self.eps_tol > 0.0:
            raise ValueError("eps_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        object.__setattr__(
            self, "initial_guess", np.asarray(self.initial_guess, dtype=np.float64)
        )


@dataclass(frozen=True)
class Location:
    element: int
    xi: np.ndarray
    iterations: int


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


def _residual_jacobian_quadratic(n, xi, pts):
    """Fused residual and Jacobian for 10-node elements.

    ``n`` holds the node coordinates as (10, 3, k) with k = 1 or one column
    per lane; avoiding the (k, 10, 3) intermediates of the generic kernels
    keeps the Newton loop memory-bound on (k,) lanes only.
    """
    x, y, z = xi[..., 0], xi[..., 1], xi[..., 2]
    w = 1.0 - x - y - z
    q0 = w * (2.0 * w - 1.0)
    q1 = x * (2.0 * x - 1.0)
    q2 = y * (2.0 * y - 1.0)
    q3 = z * (2.0 * z - 1.0)
    p4 = x * w
    p5 = x * y
    p6 = y * w
    p7 = z * w
    p8 = x * z
    p9 = y * z
    g0 = 1.0 - 4.0 * w
    gx = 4.0 * x - 1.0
    gy = 4.0 * y - 1.0
    gz = 4.0 * z - 1.0
    t4 = w - x
    t6 = w - y
    t7 = w - z
    f = np.empty(xi.shape)
    jac = np.empty(xi.shape[:-1] + (3, 3))
    for a in range(3):
        n0, n1, n2, n3 = n[0][a], n[1][a], n[2][a], n[3][a]
        n4, n5, n6, n7, n8, n9 = n[4][a], n[5][a], n[6][a], n[7][a], n[8][a], n[9][a]
        f[..., a] = (
            n0 * q0
            + n1 * q1
            + n2 * q2
            + n3 * q3
            + 4.0 * (n4 * p4 + n5 * p5 + n6 * p6 + n7 * p7 + n8 * p8 + n9 * p9)
        ) - pts[..., a]
        jac[..., a, 0] = n0 * g0 + n1 * gx + 4.0 * (n4 * t4 + (n5 - n6) * y + (n8 - n7) * z)
        jac[..., a, 1] = n0 * g0 + n2 * gy + 4.0 * (n6 * t6 + (n5 - n4) * x + (n9 - n7) * z)
        jac[..., a, 2] = n0 * g0 + n3 * gz + 4.0 * (n7 * t7 + (n8 - n4) * x + (n9 - n6) * y)
    return f, jac


def _residual_jacobian_linear(n, xi, pts):
    """Residual and constant Jacobian for 4-node elements; ``n`` is (4, 3, k)."""
    x, y, z = xi[..., 0], xi[..., 1], xi[..., 2]
    w = 1.0 - x - y - z
    f = np.empty(xi.shape)
    jac = np.empty(xi.shape[:-1] + (3, 3))
    for a in range(3):
        n0, n1, n2, n3 = n[0][a], n[1][a], n[2][a], n[3][a]
        f[..., a] = (n0 * w + n1 * x + n2 * y + n3 * z) - pts[..., a]
        jac[..., a, 0] = n1 - n0
        jac[..., a, 1] = n2 - n0
        jac[..., a, 2] = n3 - n0
    return f, jac


def _solve3(j, f):
    """Solve J d = f per lane via the adjugate; returns (d, det)."""
    a, b, c = j[..., 0, 0], j[..., 0, 1], j[..., 0, 2]
    d_, e, g = j[..., 1, 0], j[..., 1, 1], j[..., 1, 2]
    h, i, k = j[..., 2, 0], j[..., 2, 1], j[..., 2, 2]
    co00 = e * k - g * i
    co01 = c * i - b * k
    co02 = b * g - c * e
    co10 = g * h - d_ * k
    co11 = a * k - c * h
    co12 = c * d_ - a * g
    co20 = d_ * i - e * h
    co21 = b * h - a * i
    co22 = a * e - b * d_
    det = a * co00 + b * co10 + c * co20
    f0, f1, f2 = f[..., 0], f[..., 1], f[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):  # singular lanes are discarded
        x0 = (co00 * f0 + co01 * f1 + co02 * f2) / det
        x1 = (co10 * f0 + co11 * f1 + co12 * f2) / det
        x2 = (co20 * f0 + co21 * f1 + co22 * f2) / det
    return np.stack([x0, x1, x2], axis=-1), det


def newton_solve(
    nodes: np.ndarray,
    order: str,
    points: np.ndarray,
    settings: NewtonSettings,
    det_scale,
):
    """Invert the isoparametric map for a batch of points.

    ``nodes`` is one element's (n_nodes, 3) coordinates, or (n_nodes, 3, k)
    with one column per point; ``det_scale`` is a scalar or one value per
    point.  Returns (xi, converged, iterations) with shapes (k, 3), (k,), (k,).
    """
    points = np.asarray(points, dtype=np.float64)
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.ndim == 2:
        nodes = nodes[..., None]
    det_scale = np.atleast_1d(np.asarray(det_scale, dtype=np.float64))
    k = points.shape[0]
    xi = np.empty((k, 3))
    converged = np.empty(k, dtype=bool)
    iters = np.empty(k, dtype=np.int64)
    # blocks of lanes keep the iteration's temporaries cache-sized
    for lo in range(0, k, NEWTON_BLOCK):
        block = slice(lo, lo + NEWTON_BLOCK)
        xi[block], converged[block], iters[block] = _newton_lanes(
            nodes if nodes.shape[2] == 1 else nodes[:, :, block],
            points[block],
            settings,
            det_scale if det_scale.size == 1 else det_scale[block],
        )
    return xi, converged, iters


def _newton_lanes(nodes, points, settings, det_scale):
    k = points.shape[0]
    xi = np.broadcast_to(settings.initial_guess, (k, 3)).copy()
    converged = np.zeros(k, dtype=bool)
    iters = np.zeros(k, dtype=np.int64)
    denom = np.ones(k)
    active = np.arange(k)
    # per-lane nodes and singular thresholds are compacted along with ``active``
    lane_nodes = nodes
    lane_singular = SINGULAR_REL * det_scale
    kernel = (
        _residual_jacobian_quadratic if nodes.shape[0] == 10 else _residual_jacobian_linear
    )

    for it in range(1, settings.max_iter + 1):
        if active.size == 0:
            break
        xa = xi[active]
        f, jac = kernel(lane_nodes, xa, points[active])
        delta, det = _solve3(jac, f)
        singular = np.abs(det) < lane_singular
        delta = np.where(singular[:, None], 0.0, delta)
        xn = xa - delta
        xi[active] = xn
        iters[active] = it
        if it == 1:
            n1 = np.sqrt(xn[:, 0] ** 2 + xn[:, 1] ** 2 + xn[:, 2] ** 2)
            denom[active] = np.maximum(n1, 1.0)
        step = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2 + delta[:, 2] ** 2)
        conv_now = step / denom[active] < settings.eps_tol
        conv_now = conv_now & ~singular
        diverged = (
            np.sqrt(xn[:, 0] ** 2 + xn[:, 1] ** 2 + xn[:, 2] ** 2) > DIVERGENCE_NORM
        )
        fail_now = singular | (diverged & ~conv_now)
        converged[active[conv_now]] = True
        running = ~(conv_now | fail_now)
        if running.all():
            continue
        active = active[running]
        if lane_nodes.shape[2] > 1:
            lane_nodes = lane_nodes[:, :, running]
        if lane_singular.size > 1:
            lane_singular = lane_singular[running]

    return xi, converged, iters


def _element_scales(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per element: (|det| scale of the corner tetrahedron, node bounding-box diagonal).

    ``nodes`` has shape (n_elements, n_nodes, 3).  The stacked ``@`` products
    run the same dot kernel as ``np.dot`` on one element's 3-vectors.
    """
    a = nodes[:, 1] - nodes[:, 0]
    b = nodes[:, 2] - nodes[:, 0]
    c = nodes[:, 3] - nodes[:, 0]
    det6 = np.abs((a[:, None, :] @ np.cross(b, c)[:, :, None])[:, 0, 0])
    ext = nodes.max(axis=1) - nodes.min(axis=1)
    diam = np.sqrt((ext[:, None, :] @ ext[:, :, None])[:, 0, 0])
    return det6, diam


def membership_test(
    mesh: Mesh,
    e,
    points: np.ndarray,
    settings: NewtonSettings,
    geom_tol: float,
    scales: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Batched point-in-element test.

    ``e`` is one element id for all points, or an array with one id per
    point.  ``scales`` is ``_element_scales`` of the whole mesh, for callers
    that test many elements; without it the scales of the tested elements
    are computed here.  Returns (inside, xi, iterations, converged):
    ``inside`` lanes converged, landed in the reference hull and reproduce
    the query point within the residual bound.
    """
    points = np.asarray(points, dtype=np.float64)
    ids = np.atleast_1d(np.asarray(e, dtype=np.int64))
    if ids.size and (ids.min() < 0 or ids.max() >= mesh.n_elements):
        raise MeshError(f"element id out of range [0, {mesh.n_elements})")
    conn = mesh.elements[ids]
    if scales is None:
        det_scale, diam = _element_scales(mesh.nodes[conn])
    else:
        det_scale, diam = scales[0][ids], scales[1][ids]
    nodes = mesh.nodes.T[:, conn.T].transpose(1, 0, 2)  # (n_nodes, 3, lanes)
    xi, converged, iters = newton_solve(nodes, mesh.order, points, settings, det_scale)
    inside = converged & in_hull(xi, geom_tol)
    if inside.any():
        idx = np.flatnonzero(inside)
        if ids.size == 1:
            lane_nodes, lane_diam = nodes[:, :, 0], diam
        else:
            lane_nodes, lane_diam = nodes[:, :, idx].transpose(0, 2, 1), diam[idx]
        res = map_points(lane_nodes, xi[idx], mesh.order) - points[idx]
        res_norm = np.sqrt(res[:, 0] ** 2 + res[:, 1] ** 2 + res[:, 2] ** 2)
        inside[idx[res_norm > RESIDUAL_REL * lane_diam]] = False
    return inside, xi, iters, converged


def global_to_local(
    mesh: Mesh, e: int, x: np.ndarray, settings: NewtonSettings | None = None
):
    """Reference coordinates of global point x in element e, or None.

    None means the Newton iteration did not converge (singular Jacobian,
    divergence or iteration overflow) or the converged point does not
    reproduce x; a returned xi may still lie outside the reference hull.
    """
    settings = settings or NewtonSettings()
    nodes = mesh.element_nodes(e)
    det_scale, diam = _element_scales(nodes[None])
    xi, converged, _ = newton_solve(
        nodes, mesh.order, np.asarray(x, dtype=np.float64)[None, :], settings, det_scale
    )
    if not converged[0]:
        return None
    res = map_points(nodes, xi[0], mesh.order) - np.asarray(x, dtype=np.float64)
    if float(np.linalg.norm(res)) > RESIDUAL_REL * diam[0]:
        return None
    return xi[0]


def locate_point(
    mesh: Mesh,
    candidates,
    x: np.ndarray,
    settings: NewtonSettings | None = None,
    geom_tol: float = 1e-8,
):
    """First candidate element containing x, or None.

    ``candidates`` is an ordered iterable of element ids (normally ordered by
    the linear entry guess).
    """
    settings = settings or NewtonSettings()
    pt = np.asarray(x, dtype=np.float64)[None, :]
    for e in candidates:
        inside, xi, iters, _ = membership_test(mesh, int(e), pt, settings, geom_tol)
        if inside[0]:
            return Location(int(e), xi[0], int(iters[0]))
    return None
