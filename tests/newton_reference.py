"""Newton references the kernel of ``fexray.locate`` is checked against.

``newton_physical`` inverts one element in physical space: it iterates on
X(xi) - p with the full isoparametric Jacobian from xi = (1/4, 1/4, 1/4),
under the same stopping rules as ``fexray.locate``: the step relative to
the first iterate below the tolerance, |det J| below SINGULAR_REL * |det A|,
the iterate beyond DIVERGENCE_NORM, or the iteration cap.

``plain_newton`` is the reference-frame kernel as it was before it ran
on a workspace of fixed rows, kept verbatim: the workspace kernel must give
its bytes.
"""

import numpy as np

from fexray.locate import (
    DIVERGENCE_NORM,
    RESIDUAL_REL,
    SINGULAR_REL,
    NewtonSettings,
    in_hull,
)
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


def plain_newton(
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


def plain_membership(mesh, ids, points, settings, geom_tol, frames, values):
    """``membership_test`` of lanes ``ids`` (one element id per point) with
    ``_element_frames`` of the whole mesh, as it was before it ran on a
    workspace: ``plain_newton`` and the node gather through ``map_points``.
    Returns (inside, xi, iterations, converged, interpolated values)."""
    cols = ids
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
        xi[:, curved], converged[curved], iters[curved] = plain_newton(
            frames.bulges.take(cols[curved], axis=1), lam, start, settings
        )
    xi = xi.T
    out = np.full(ids.size, np.nan)
    inside = converged & in_hull(xi, geom_tol)
    if inside.any():
        idx = np.flatnonzero(inside)
        table = np.column_stack([mesh.nodes, values])
        nodes = table.take(mesh.elements.T.take(ids[idx], axis=1), axis=0)
        mapped = map_points(nodes, xi[idx], mesh.order)
        res = mapped[:, :3] - points[idx]
        res_norm = np.sqrt(res[:, 0] ** 2 + res[:, 1] ** 2 + res[:, 2] ** 2)
        inside[idx[res_norm > RESIDUAL_REL * frames.diam[cols[idx]]]] = False
        out[idx] = mapped[:, 3]
    return inside, xi, iters, converged, out
