"""Physical-space Newton inversion of one element: the reference the
reference-frame kernel of ``fexray.locate`` is checked against.

It iterates on X(xi) - p with the full isoparametric Jacobian from
xi = (1/4, 1/4, 1/4), under the same stopping rules as ``fexray.locate``:
the step relative to the first iterate below the tolerance, |det J| below
SINGULAR_REL * |det A|, the iterate beyond DIVERGENCE_NORM, or the
iteration cap.
"""

import numpy as np

from fexray.locate import DIVERGENCE_NORM, RESIDUAL_REL, SINGULAR_REL, in_hull
from fexray.mesh import map_points
from tests.helpers import jacobian


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
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = (co00 * f0 + co01 * f1 + co02 * f2) / det
        x1 = (co10 * f0 + co11 * f1 + co12 * f2) / det
        x2 = (co20 * f0 + co21 * f1 + co22 * f2) / det
    return np.stack([x0, x1, x2], axis=-1), det


def newton_physical(nodes, order, points, eps_tol=1e-10, max_iter=20):
    """(xi, converged, iterations) of Newton on map_points(nodes, xi) - points."""
    a, b, c = nodes[1] - nodes[0], nodes[2] - nodes[0], nodes[3] - nodes[0]
    singular_at = SINGULAR_REL * abs(float(np.dot(a, np.cross(b, c))))
    k = points.shape[0]
    xi = np.full((k, 3), 0.25)
    converged = np.zeros(k, dtype=bool)
    iters = np.zeros(k, dtype=np.int64)
    denom = np.ones(k)
    active = np.arange(k)
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        xa = xi[active]
        f = map_points(nodes, xa, order) - points[active]
        delta, det = _solve3(jacobian(nodes, xa, order), f)
        singular = np.abs(det) < singular_at
        delta = np.where(singular[:, None], 0.0, delta)
        xn = xa - delta
        xi[active] = xn
        iters[active] = it
        if it == 1:
            denom[active] = np.maximum(np.linalg.norm(xn, axis=1), 1.0)
        conv_now = (np.linalg.norm(delta, axis=1) / denom[active] < eps_tol) & ~singular
        diverged = np.linalg.norm(xn, axis=1) > DIVERGENCE_NORM
        converged[active[conv_now]] = True
        active = active[~(conv_now | singular | diverged)]
    return xi, converged, iters


def inside_physical(nodes, order, points, geom_tol=1e-8):
    """Membership of ``points`` in one element by ``newton_physical``."""
    xi, converged, _ = newton_physical(nodes, order, points)
    inside = converged & in_hull(xi, geom_tol)
    diam = np.linalg.norm(nodes.max(axis=0) - nodes.min(axis=0))
    res = np.linalg.norm(map_points(nodes, xi, order) - points, axis=1)
    return inside & (res <= RESIDUAL_REL * diam)
