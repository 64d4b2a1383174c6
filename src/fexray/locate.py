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

The kernel and the residual check run on a workspace of ``WORK_ROWS``
lane-length rows (``newton_workspace``): every intermediate is written into
a row with ``out=``, in the fixed order of the sums above, and stopped lanes
are masked out and, once there are enough of them, compacted away one row
at a time, so no lane-sized array is allocated per iteration and the bits
are those of the plain expressions.  The caller that makes many calls owns
the workspace: the renderer makes one per tile for its Newton batches and
drops it before the tile's claims are resolved.  A call without one, or
with more points than it holds, makes its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# the residual check sums the map itself; the benchmark's span tracer
# rebinds map_points here, so the name must resolve
from .mesh import EDGE_VERTICES, Mesh, MeshError, map_points  # noqa: F401

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
# The kernel drops stopped lanes from its rows once they are 1/COMPACT_SHARE
# of the rows or more; until then it records them and runs them on, masked,
# since compacting 25 state rows for a few lanes costs more than carrying them.
COMPACT_SHARE = 8


@dataclass(frozen=True)
class NewtonSettings:
    """A lane converges once its step relative to max(|xi_1|, 1), xi_1 the
    first iterate, drops below ``eps_tol``; ``max_iter`` (an integer >= 1)
    caps its iterations."""

    eps_tol: float = 1e-10
    max_iter: int = 20

    def __post_init__(self):
        if not 0.0 < self.eps_tol < math.inf:
            raise ValueError("eps_tol must be finite and positive")
        _check_count("max_iter", self.max_iter)


def _check_count(name: str, value) -> None:
    """Reject a count that is not an integer >= 1; a float or a bool is
    not a count, a numpy integer is."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


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


# Workspace rows.  The running lanes' state: x, y, z, lam (3), the step
# denominator max(|xi_1|, 1) and the bulges (18), plus one spare row that
# compaction takes into; then the lane ids (two rows), the lane flags and
# the per-iteration scratch rows.
_X, _LAM, _SCALE, _BULGES, _STATE = 0, 3, 6, 7, 25
_LANE, _FLAGS, _SCRATCH = 26, 28, 29
WORK_ROWS = 59
# (diagonal bulge, (bulge, bulge, coordinate) twice) of Jacobian column c:
# J_ac = [a = c] + M_diag (w - xi_c) + (M_i - M_j) xi_u + (M_k - M_l) xi_v
_JAC_TERMS = (
    (0, (1, 2, 1), (4, 3, 2)),
    (2, (1, 0, 0), (5, 3, 2)),
    (3, (4, 0, 0), (5, 2, 1)),
)
# cofactor (r, c) of J = J_i J_j - J_k J_l, entries row-major
_COFACTORS = (
    (4, 8, 5, 7), (2, 7, 1, 8), (1, 5, 2, 4),
    (5, 6, 3, 8), (0, 8, 2, 6), (2, 3, 0, 5),
    (3, 7, 4, 6), (1, 6, 0, 7), (0, 4, 1, 3),
)


def newton_workspace(lanes: int) -> np.ndarray:
    """Scratch rows for ``membership_test`` calls of up to ``lanes`` points.

    A caller that makes many calls owns one and passes it to each; a call
    without one, or with more points, makes its own.
    """
    return np.empty((WORK_ROWS, lanes))


def _take(a, indices, out):
    """Elements ``indices`` of 1-d ``a`` into ``out``.  The indices are
    valid; mode "clip" spares numpy the copy of ``out`` that "raise" makes."""
    return a.take(indices, out=out, mode="clip")


def _workspace(work: np.ndarray | None, k: int) -> np.ndarray:
    return work if work is not None and work.shape[1] >= k else newton_workspace(k)


def _reference_newton(
    bulges: np.ndarray,
    lam: np.ndarray,
    start: np.ndarray,
    settings: NewtonSettings,
    work: np.ndarray | None = None,
):
    """Newton on g(xi) = xi - lam + sum_e M_e phi_a phi_b from xi = start.

    ``bulges`` is (18, k) per lane as in ``_ElementFrames``; ``lam`` and
    ``start`` are (3, k); ``work`` is a ``newton_workspace``.
    Returns (xi (3, k), converged, iterations).
    """
    k = lam.shape[1]
    work = _workspace(work, k)
    work[_X : _X + 3, :k] = start
    work[_LAM : _LAM + 3, :k] = lam
    work[_BULGES:_STATE, :k] = bulges
    return _newton(work, k, settings)


# stopped lanes that are not compacted away yet run on, so their arithmetic
# may overflow or divide by zero; only the live lanes are read
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton(work: np.ndarray, k: int, settings: NewtonSettings):
    """Run Newton on the k lanes whose start, lam and bulges fill the state
    rows of ``work``.

    With p_e = phi_a phi_b over ``EDGE_VERTICES`` and w = 1 - x - y - z the
    Jacobian rows are

        J_a0 = [a = 0] + M0 (w - x) + (M1 - M2) y + (M4 - M3) z
        J_a1 = [a = 1] + M2 (w - y) + (M1 - M0) x + (M5 - M3) z
        J_a2 = [a = 2] + M3 (w - z) + (M4 - M0) x + (M5 - M2) y

    Every intermediate is written into a row of ``work`` in the fixed order
    of these sums, so an iteration allocates no lane-sized array.  A lane
    is recorded in the iteration it stops and is then masked out; once the
    stopped lanes make up 1/``COMPACT_SHARE`` of the rows, the live ones are
    compacted one row at a time.
    """
    mul, add, sub = np.multiply, np.add, np.subtract
    xi = np.empty((3, k))
    converged = np.zeros(k, dtype=bool)
    iters = np.full(k, settings.max_iter, dtype=np.int64)
    state = list(work[:_STATE])
    spare = work[_STATE]
    lane, lane_spare = (row.view(np.int64) for row in work[_LANE : _LANE + 2])
    lane[:k] = np.arange(k)
    flags = work[_FLAGS].view(np.bool_).reshape(8, -1)
    flags[4, :k] = True
    scratch = work[_SCRATCH:]
    n = running = k
    for it in range(1, settings.max_iter + 1):
        s = [row[:n] for row in state]
        x = s[_X : _X + 3]
        lam, m = s[_LAM : _LAM + 3], s[_BULGES:_STATE]
        t = [row[:n] for row in scratch]
        w, p, f, jac, co, det, tmp = t[0], t[1:7], t[7:10], t[10:19], t[19:28], t[28], t[29]
        singular, conv, stop, flag, live = (row[:n] for row in flags[:5])
        sub(1.0, x[0], out=w)
        sub(w, x[1], out=w)
        sub(w, x[2], out=w)
        # p_e = phi_a phi_b over EDGE_VERTICES
        pairs = ((w, x[0]), (x[0], x[1]), (x[1], w), (w, x[2]), (x[0], x[2]), (x[1], x[2]))
        for pe, (u, v) in zip(p, pairs):
            mul(u, v, out=pe)
        for a in range(3):
            mm = m[6 * a : 6 * a + 6]
            mul(mm[0], p[0], out=f[a])
            for e in range(1, 6):
                add(f[a], mul(mm[e], p[e], out=tmp), out=f[a])
            add(sub(x[a], lam[a], out=tmp), f[a], out=f[a])
        wx = p[:3]  # p is spent: w - x, w - y, w - z
        for c in range(3):
            sub(w, x[c], out=wx[c])
        for a in range(3):
            mm = m[6 * a : 6 * a + 6]
            for c, (diag, (i, j, u), (q, r, v)) in enumerate(_JAC_TERMS):
                jac_ac = jac[3 * a + c]
                mul(mm[diag], wx[c], out=jac_ac)
                add(jac_ac, mul(sub(mm[i], mm[j], out=tmp), x[u], out=tmp), out=jac_ac)
                add(jac_ac, mul(sub(mm[q], mm[r], out=tmp), x[v], out=tmp), out=jac_ac)
            add(jac[4 * a], 1.0, out=jac[4 * a])  # I + sum_e M_e (x) grad p_e
        for cij, (i, j, q, r) in zip(co, _COFACTORS):
            sub(mul(jac[i], jac[j], out=cij), mul(jac[q], jac[r], out=tmp), out=cij)
        mul(jac[0], co[0], out=det)
        add(det, mul(jac[1], co[3], out=tmp), out=det)
        add(det, mul(jac[2], co[6], out=tmp), out=det)
        np.less(np.abs(det, out=tmp), SINGULAR_REL, out=singular)
        d = jac[:3]  # the Jacobian is spent
        for r in range(3):  # singular lanes are discarded
            mul(co[3 * r], f[0], out=d[r])
            add(d[r], mul(co[3 * r + 1], f[1], out=tmp), out=d[r])
            add(d[r], mul(co[3 * r + 2], f[2], out=tmp), out=d[r])
            np.divide(d[r], det, out=d[r])
        if singular.any():
            for dr in d:
                np.copyto(dr, 0.0, where=singular)
        for c in range(3):
            sub(x[c], d[c], out=x[c])
        norm, step = p[3], p[4]
        for length, v in ((norm, x), (step, d)):
            mul(v[0], v[0], out=length)
            add(length, mul(v[1], v[1], out=tmp), out=length)
            add(length, mul(v[2], v[2], out=tmp), out=length)
            np.sqrt(length, out=length)
        if it == 1:
            np.maximum(norm, 1.0, out=s[_SCALE])
        np.divide(step, s[_SCALE], out=step)
        np.less(step, settings.eps_tol, out=conv)
        np.logical_not(singular, out=flag)
        np.logical_and(conv, flag, out=conv)
        np.greater(norm, DIVERGENCE_NORM, out=stop)
        np.logical_or(stop, singular, out=stop)
        np.logical_or(stop, conv, out=stop)
        if running < n:
            np.logical_and(stop, live, out=stop)
        if not stop.any():
            continue
        done = np.flatnonzero(stop)
        ids = lane[:n].take(done)
        for r in range(3):
            xi[r, ids] = x[r].take(done)
        iters[ids] = it
        converged[ids] = conv.take(done)
        running -= done.size
        if running == 0:
            return xi, converged, iters
        if COMPACT_SHARE * (n - running) < n:
            live[done] = False  # too few stopped rows to pay for compacting
            continue
        keep = np.flatnonzero(np.logical_and(live, np.logical_not(stop, out=flag), out=flag))
        for i, row in enumerate(state):
            _take(row[:n], keep, out=spare[:running])
            state[i], spare = spare, row
        _take(lane[:n], keep, out=lane_spare[:running])
        lane, lane_spare = lane_spare, lane
        n = running
        live[:n] = True
    live = flags[4, :n]
    ids = lane[:n][live]
    for r in range(3):
        xi[r, ids] = state[_X + r][:n][live]
    return xi, converged, iters


def _solve(
    frames: _ElementFrames,
    cols: np.ndarray,
    points: np.ndarray,
    settings: NewtonSettings,
    work: np.ndarray | None = None,
):
    """Reference coordinates of ``points`` in the frames ``cols`` (one per point).

    Returns (xi, converged, iterations) with shapes (k, 3), (k,), (k,).
    """
    mul, add = np.multiply, np.add
    k = cols.size
    work = _workspace(work, k)
    d = [row[:k] for row in work[_SCRATCH : _SCRATCH + 3]]
    tmp = work[_SCRATCH + 3, :k]
    corner = frames.corner
    for c in range(3):
        np.subtract(points[:, c], _take(corner[c], cols, out=tmp), out=d[c])
    # lam = A^-1 (p - n0), rows 3-11 of the corner data
    xi = np.empty((3, k))
    for r in range(3):
        mul(_take(corner[3 + 3 * r], cols, out=tmp), d[0], out=xi[r])
        add(xi[r], mul(_take(corner[4 + 3 * r], cols, out=tmp), d[1], out=tmp), out=xi[r])
        add(xi[r], mul(_take(corner[5 + 3 * r], cols, out=tmp), d[2], out=tmp), out=xi[r])
    iters = np.ones(k, dtype=np.int64)
    converged = ~frames.singular[cols]
    curved = np.flatnonzero(frames.curved[cols])
    if curved.size:
        kc = curved.size
        ccols = cols[curved]
        warm = frames.warm[ccols]
        for r in range(3):
            lam = _take(xi[r], curved, out=work[_LAM + r, :kc])
            np.copyto(work[_X + r, :kc], 0.25)
            np.copyto(work[_X + r, :kc], lam, where=warm)
        for r in range(18):
            _take(frames.bulges[r], ccols, out=work[_BULGES + r, :kc])
        xi[:, curved], converged[curved], iters[curved] = _newton(work, kc, settings)
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


def _shape_rows(x, y, z, w, order: str, rows):
    """Shape values N_i at lanes (x, y, z), w = 1 - x - y - z, with the
    expressions of ``mesh.shape_values``; quadratic ones fill ``rows``."""
    if order == "linear":
        return (w, x, y, z)
    mul = np.multiply
    for ni, v in zip(rows, (w, x, y, z)):
        mul(v, np.subtract(mul(v, 2.0, out=ni), 1.0, out=ni), out=ni)
    for ni, (u, v) in zip(rows[4:], ((x, w), (x, y), (y, w), (z, w), (x, z), (y, z))):
        mul(mul(u, 4.0, out=ni), v, out=ni)
    return rows


def membership_test(
    mesh: Mesh,
    e,
    points: np.ndarray,
    settings: NewtonSettings,
    geom_tol: float,
    frames: _ElementFrames | None = None,
    values: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
):
    """Batched point-in-element test.

    ``e`` is one element id for all points, or an array with one id per
    point.  ``points`` (k, 3) may have any memory layout, with the same
    results; the renderer passes column-major points, whose coordinate
    columns are contiguous.  ``frames`` is ``_element_frames`` of the whole
    mesh, for callers that test many elements; without it the frames of the
    tested elements are built here.  ``work`` is a ``newton_workspace`` for
    callers that test many batches.  Returns (inside, xi, iterations,
    converged): ``inside`` lanes converged, landed in the reference hull and
    reproduce the query point within the residual bound.

    With nodal ``values`` (one per mesh node), ``out`` (one per point)
    receives their interpolation at the ``inside`` lanes.  The residual
    check and the interpolation share one evaluation of the shape
    functions, and sum each coordinate and the values over the lanes'
    nodes in the fixed order of ``map_points`` and ``interpolate_values``,
    so the results have the bits of those calls.
    """
    mul, add = np.multiply, np.add
    points = np.asarray(points, dtype=np.float64)
    if values is not None:
        values = np.asarray(values, dtype=np.float64)
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
    work = _workspace(work, ids.size)
    xi, converged, iters = _solve(frames, cols, points, settings, work)
    inside = converged & in_hull(xi, geom_tol)
    if inside.any():
        idx = np.flatnonzero(inside)
        t = [row[: idx.size] for row in work]
        elem, base, flat, node = (row.view(np.int64) for row in t[:4])
        x, y, z, w, tmp = t[4:9]
        for r, v in enumerate((x, y, z)):
            _take(xi[:, r], idx, out=v)
        np.subtract(np.subtract(np.subtract(1.0, x, out=w), y, out=w), z, out=w)
        # X(xi) and the values: sum_i N_i times node i's column.  Row-major
        # tables are read flat: entry (i, c) of row r sits at c + r * width
        sums = t[19 : 22 if values is None else 23]
        coords, conn = mesh.nodes.ravel(), mesh.elements.ravel()
        mul(_take(ids, idx, out=elem), mesh.elements.shape[1], out=base)
        for i, ni in enumerate(_shape_rows(x, y, z, w, mesh.order, t[9:19])):
            mul(_take(conn[i:], base, out=node), 3, out=flat)
            for c, acc in enumerate(sums):
                if c < 3:
                    _take(coords[c:], flat, out=tmp)
                else:
                    _take(values, node, out=tmp)
                if i == 0:
                    mul(ni, tmp, out=acc)
                else:
                    add(acc, mul(ni, tmp, out=tmp), out=acc)
        res = t[23]
        for c in range(3):
            np.subtract(sums[c], _take(points[:, c], idx, out=tmp), out=sums[c])
        mul(sums[0], sums[0], out=res)
        add(res, mul(sums[1], sums[1], out=tmp), out=res)
        add(res, mul(sums[2], sums[2], out=tmp), out=res)
        np.sqrt(res, out=res)
        _take(frames.diam, _take(cols, idx, out=elem), out=tmp)
        inside[idx[res > mul(tmp, RESIDUAL_REL, out=tmp)]] = False
        if values is not None:
            out[idx] = sums[3]
    return inside, xi, iters, converged
