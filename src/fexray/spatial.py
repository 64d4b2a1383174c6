"""Oriented bounding boxes, the OBB tree, and the area-weighted PCA of a
triangulated surface.

Boxes are fitted to element *bounding points*: the element nodes plus one
quadratic Bezier control point per edge (2*m - (p0+p1)/2 for midnode m).  The
control net encloses each curved edge, so a box around the bounding points
also encloses the curved element geometry.

The OBB tree is built one level at a time over a point table that holds each
corner node once and each edge control point once.  Midnodes are left out:
m = p0/4 + p1/4 + c/2 is a convex combination of the edge ends and the
control point c, so no box needs it.  Every node, leaf or not, takes its
origin and axes from the unit-weight PCA of its distinct table rows and its
box from their extent.  The (ray, element) pairs come from the element
clips, so a leaf's axes only decide which rays its slab test sees: the
hull-surface PCA of OBBTree (Gottschalk, Lin & Manocha, SIGGRAPH 1996)
gives the same images, but its one qhull call per leaf more than doubles
the tree build (2058-element cylinder: 36 ms against 17 ms).  A split node keeps no box, as rays meet
only leaf boxes.  Each level is fitted once, over all its nodes, and a
node's result depends only on its own elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .locate import _check_count
from .mesh import EDGE_VERTICES, Mesh

# multiplicative box inflation to absorb roundoff in slab tests at box faces
BOX_INFLATION = 1e-9
# Default leaf size of the OBB tree.  A leaf costs the render one slab call
# and a pixel rectangle of lanes; a larger leaf tests more element boxes per
# ray.  Measured over leaf sizes 10-64, 32 gave the lowest set-up plus render
# time summed over the two benchmark workloads without slowing any other
# scene measured; the images do not depend on it.
MAX_LEAF_ELEMENTS = 32


class DegenerateGeometryError(ValueError):
    """Input too degenerate for the requested construction."""


@dataclass(frozen=True)
class Basis:
    """Orthonormal right-handed basis; rows are the basis vectors.  The rows
    are taken as given: ``_eigen_rows`` makes them orthonormal and
    right-handed."""

    rows: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float64))
        origin = np.ascontiguousarray(np.asarray(self.origin, dtype=np.float64))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "origin", origin)

    def to_world(self, points: np.ndarray) -> np.ndarray:
        """Map basis-frame points to world coordinates."""
        p = np.asarray(points, dtype=np.float64)
        q = _rotate_components(self.rows.T, p[..., 0], p[..., 1], p[..., 2])
        return q + self.origin


def _rotate_components(rows, d0, d1, d2):
    # explicit fixed-order expressions keep scalar and batched calls bitwise
    # equal; ``rows`` is one (3, 3) matrix or one per point, (..., 3, 3)
    out = np.stack(
        [
            rows[..., 0, 0] * d0 + rows[..., 0, 1] * d1 + rows[..., 0, 2] * d2,
            rows[..., 1, 0] * d0 + rows[..., 1, 1] * d1 + rows[..., 1, 2] * d2,
            rows[..., 2, 0] * d0 + rows[..., 2, 1] * d1 + rows[..., 2, 2] * d2,
        ],
        axis=-1,
    )
    return out


def _rotate(rows: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Rotate vectors ``d`` (..., 3) by per-vector rows (..., 3, 3)."""
    return _rotate_components(rows, d[..., 0], d[..., 1], d[..., 2])


@dataclass(frozen=True)
class Aabb:
    pmin: np.ndarray
    pmax: np.ndarray

    def __post_init__(self):
        pmin = np.ascontiguousarray(np.asarray(self.pmin, dtype=np.float64))
        pmax = np.ascontiguousarray(np.asarray(self.pmax, dtype=np.float64))
        object.__setattr__(self, "pmin", pmin)
        object.__setattr__(self, "pmax", pmax)
        if (pmin > pmax).any():
            raise ValueError("box min exceeds max")

    @property
    def extents(self) -> np.ndarray:
        return self.pmax - self.pmin


@dataclass(frozen=True)
class Obb:
    basis: Basis
    box: Aabb


def triangles_centroid_area(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroids and Heron areas for triangles of shape (n, 3, 3)."""
    tris = np.asarray(tris, dtype=np.float64)
    p, q, r = tris[:, 0], tris[:, 1], tris[:, 2]
    centroids = (p + q + r) / 3.0
    s1 = np.linalg.norm(p - q, axis=1)
    s2 = np.linalg.norm(q - r, axis=1)
    s3 = np.linalg.norm(r - p, axis=1)
    # Heron via Kahan's sorted rearrangement: immune to cancellation on needles
    a = np.maximum(s1, np.maximum(s2, s3))
    c = np.minimum(s1, np.minimum(s2, s3))
    b = s1 + s2 + s3 - a - c
    prod = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    areas = 0.25 * np.sqrt(np.maximum(prod, 0.0))
    return centroids, areas


def weighted_center(tris: np.ndarray) -> np.ndarray:
    """Area-weighted mean of triangle centroids."""
    centroids, areas = triangles_centroid_area(tris)
    total = areas.sum()
    if total <= 0.0:
        raise DegenerateGeometryError("surface has zero total area")
    return areas @ centroids / total


def covariance(tris: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Covariance of sqrt(area)-scaled, mu-centered triangle centroids."""
    centroids, areas = triangles_centroid_area(tris)
    if centroids.shape[0] < 2:
        raise DegenerateGeometryError("covariance needs at least two triangles")
    cbar = np.sqrt(areas)[:, None] * (centroids - np.asarray(mu, dtype=np.float64))
    return cbar.T @ cbar / (len(cbar) - 1)


def _eigen_rows(cov: np.ndarray) -> np.ndarray:
    """Eigenvector rows of each covariance in a (k, 3, 3) stack, descending
    eigenvalue.

    Signs are canonicalized (largest component of each row positive) and the
    last row is flipped if needed to make each basis right-handed.
    """
    _, v = np.linalg.eigh(cov)
    rows = np.ascontiguousarray(np.swapaxes(v[..., ::-1], -1, -2))
    lead = np.take_along_axis(rows, np.argmax(np.abs(rows), axis=-1)[..., None], axis=-1)
    rows = np.where(lead < 0.0, -rows, rows)
    rows[np.linalg.det(rows) < 0.0, 2] *= -1.0
    return rows


def _fit_boxes(points, starts, rows, origins):
    """Inflated min/max box of each segment of ``points`` in its frame
    (``rows[i]``, ``origins[i]``).  Segment i holds the rows from
    ``starts[i]`` up to the next start.  Boxes grow by ``BOX_INFLATION``
    times their diagonal."""
    owner = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(points)))
    local = _rotate(rows[owner], points - origins[owner])
    pmin = np.minimum.reduceat(local, starts, axis=0)
    pmax = np.maximum.reduceat(local, starts, axis=0)
    eps = BOX_INFLATION * np.linalg.norm(pmax - pmin, axis=-1, keepdims=True)
    return pmin - eps, pmax + eps


def _control_points(mid, a, b):
    """Bezier control point of the quadratic edge from a through mid to b."""
    return 2.0 * mid - 0.5 * (a + b)


def element_bounding_points(mesh: Mesh) -> np.ndarray:
    """Bounding points per element: nodes plus per-edge Bezier control points.

    Shape (n_elements, 16, 3) for quadratic meshes, (n_elements, 4, 3) for
    linear ones.
    """
    pts = mesh.nodes[mesh.elements]
    if mesh.order == "linear":
        return pts
    ctrl = np.empty((mesh.n_elements, 6, 3))
    for m, (a, b) in enumerate(EDGE_VERTICES):
        ctrl[:, m] = _control_points(pts[:, 4 + m], pts[:, a], pts[:, b])
    return np.concatenate([pts, ctrl], axis=1)


def _point_table(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The tree's fit input: each corner node once, keyed by node id, then
    each edge control point once, keyed by (sorted corner ids, midnode id).

    Returns the table and each element's rows into it, shape (n_elements, 4)
    or (n_elements, 10).  Elements sharing an edge share its control point
    with equal bits, because 0.5 * (a + b) is commutative; no float
    comparison is made.
    """
    conn = mesh.elements
    corner_ids, corner_rows = np.unique(conn[:, :4], return_inverse=True)
    table = mesh.nodes[corner_ids]
    corner_rows = corner_rows.reshape(-1, 4)
    if mesh.order == "linear":
        return table, corner_rows
    ends = np.sort(conn[:, EDGE_VERTICES], axis=2)  # (n_elements, 6, 2)
    keys = np.concatenate([ends, conn[:, 4:, None]], axis=2).reshape(-1, 3)
    # np.unique(keys, axis=0, return_inverse=True), as one lexsort
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
    edges = keys[first]
    edge_rows = np.empty(len(keys), dtype=np.int64)
    edge_rows[order] = np.cumsum(first) - 1
    a, b, mid = mesh.nodes[edges.T]
    rows = np.hstack([corner_rows, len(table) + edge_rows.reshape(-1, 6)])
    return np.concatenate([table, _control_points(mid, a, b)]), rows


# Exact maximum of a linear functional over a quadratic tetrahedron.  For a
# direction n, n . X(phi) over barycentrics phi is the quadratic form
# phi^T Q phi with Q_ii = n . (corner i) and Q_ab = n . (control point of
# edge ab).  Its maximum over the simplex is a vertex value or the value at
# the stationary point of a face S with 2-4 vertices, phi_S ~ adj(Q_SS) 1,
# where that point has every phi >= 0.  By Cramer's rule entry j of
# adj(Q_SS) 1 is det(Q_SS with column j replaced by ones).

# _Q_ROWS[i, j]: the value row holding Q_ij (corners 0-3, then the control
# points in EDGE_VERTICES order); row 10 is a row of ones
_Q_ROWS = np.zeros((4, 4), dtype=np.int64)
for _e, (_a, _b) in enumerate(EDGE_VERTICES):
    _Q_ROWS[_a, _b] = _Q_ROWS[_b, _a] = 4 + _e
_Q_ROWS[np.diag_indices(4)] = np.arange(4)
_ONES = 10
_TRIANGLES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


# per triangle and column j, Q_SS with column j replaced by ones: (3, 3, 12)
_TRIANGLE_CRAMER = np.array(
    [
        [[_ONES if c == j else _Q_ROWS[s[r], s[c]] for c in range(3)] for r in range(3)]
        for s in _TRIANGLES
        for j in range(3)
    ]
).transpose(1, 2, 0)
# the 3 x 3 minors of Q without row r and column i, r-major: (3, 3, 16); the
# interior's entry i is the expansion sum_r (-1)^(r+i) minor_ri along the
# column of ones
_INTERIOR_MINORS = np.array(
    [np.delete(np.delete(_Q_ROWS, r, axis=0), i, axis=1) for r in range(4) for i in range(4)]
).transpose(1, 2, 0)
_INTERIOR_SIGNS = (-1.0) ** np.add.outer(np.arange(4), np.arange(4))[:, :, None]
# Q_SS of the edges, triangles and interior: (k, k, faces)
_FACE_Q = [
    np.array([_Q_ROWS[np.ix_(s, s)] for s in faces]).transpose(1, 2, 0)
    for faces in (EDGE_VERTICES, _TRIANGLES, ((0, 1, 2, 3),))
]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _quadratic_max(values: np.ndarray) -> np.ndarray:
    """Exact maximum over the reference tetrahedron of the quadratic with
    Bezier values ``values`` (10, ...): n . X at the 4 corners, then at the 6
    edge control points in ``EDGE_VERTICES`` order.

    Where no control value exceeds every corner value, a corner attains the
    control-net maximum and that is the answer.  Elsewhere the candidates of
    the 11 faces are computed relative to the largest corner value and
    scaled to the largest value difference, and q is
    evaluated at each candidate phi that has no negative weight: a feasible
    phi never gives more than the maximum, so a badly conditioned solve (the
    flat faces of a straight element) only loses a candidate that a smaller
    face supplies as well.  The result never exceeds the control-net bound.
    """
    values = np.asarray(values, dtype=np.float64)
    shape = values.shape[1:]
    values = values.reshape(10, -1)
    corner = values[:4].max(axis=0)
    net = np.maximum(corner, values[4:].max(axis=0))
    rows = np.flatnonzero(net > corner)
    if rows.size:
        top = corner[rows]
        q = np.ones((11, rows.size))
        q[:10] = values[:, rows] - top
        # scaled to at most 1 in size, so no determinant overflows
        scale = np.abs(q[:10]).max(axis=0)
        q[:10] /= scale
        edge_a, edge_b = np.array(EDGE_VERTICES).T
        diag, c = q[:4], q[4:10]
        weights = (
            np.stack([diag[edge_b] - c, diag[edge_a] - c]),  # (2, 6, R)
            _det3(q[_TRIANGLE_CRAMER]).reshape(4, 3, -1).transpose(1, 0, 2),
            (_det3(q[_INTERIOR_MINORS]).reshape(4, 4, -1) * _INTERIOR_SIGNS).sum(axis=0)[:, None],
        )
        best = np.zeros(rows.size)  # the largest corner value
        for v, face_q in zip(weights, _FACE_Q):
            qs = q[face_q]
            # v summing to zero gives a non-finite phi, which is infeasible
            with np.errstate(invalid="ignore", divide="ignore"):
                phi = v / v.sum(axis=0)
                value = 0.0
                for i in range(len(phi)):
                    row = qs[i][0] * phi[0]
                    for j in range(1, len(phi)):
                        row = row + qs[i][j] * phi[j]
                    value = value + phi[i] * row
            feasible = (phi >= 0.0).all(axis=0)
            best = np.maximum(best, np.where(feasible, value, 0.0).max(axis=0))
        net[rows] = np.minimum(top + scale * best, net[rows])
    return net.reshape(shape)


def model_aabb(mesh: Mesh) -> Aabb:
    """Axis-aligned box around the whole mesh, curved geometry included,
    inflated like the tree's boxes."""
    return _inflated_box(element_bounding_points(mesh).reshape(-1, 3))


def _inflated_box(points: np.ndarray) -> Aabb:
    """Box around ``points`` (n, 3), inflated like the tree's boxes.  Each
    column is reduced on its own: an ``axis=0`` reduction of a row-major
    table runs an inner loop of length 3."""
    pmin = np.array([points[:, c].min() for c in range(3)])
    pmax = np.array([points[:, c].max() for c in range(3)])
    eps = BOX_INFLATION * float(np.linalg.norm(pmax - pmin))
    return Aabb(pmin - eps, pmax + eps)


@dataclass
class ObbNode:
    """A leaf holds its box and element ids, an internal node its children."""

    obb: Obb | None  # None on an internal node
    depth: int
    elements: np.ndarray | None = None  # leaf payload, element ids
    left: "ObbNode | None" = None
    right: "ObbNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.elements is not None


@dataclass
class ObbTree:
    """The leaves, which rays are tested against; only they have an ``obb``.
    ``root`` and ``left``/``right``/``depth`` are kept to count nodes and depth.
    ``mesh`` is the mesh the tree was built over."""

    root: ObbNode
    leaves: list[ObbNode]
    mesh: Mesh


def _fit_level(table, elem_rows, elems, seg, n_nodes):
    """PCA boxes of the ``n_nodes`` nodes of one tree level.

    ``elems`` holds the nodes' element ids grouped by node, ``seg`` the node
    of each.  A node's points are its distinct table rows in ascending order.
    Its origin is their mean and its basis the eigenvectors of their
    covariance over n - 1, and its box is fitted to them.  Each node is
    reduced on its own, so its result does not depend on the other nodes.
    Returns (rows, origins, pmin, pmax).
    """
    n_table = len(table)
    key = np.sort((seg[:, None] * n_table + elem_rows[elems]).ravel())
    key = key[np.r_[True, key[1:] != key[:-1]]]  # np.unique, without its hash pass
    pseg, prow = np.divmod(key, n_table)
    points = table[prow]
    starts = np.searchsorted(pseg, np.arange(n_nodes))
    counts = np.diff(starts, append=len(points))
    origins = np.add.reduceat(points, starts, axis=0) / counts[:, None]
    centered = points - np.repeat(origins, counts, axis=0)
    cov = np.add.reduceat(centered[:, :, None] * centered[:, None, :], starts, axis=0)
    rows = _eigen_rows(cov / (counts - 1)[:, None, None])
    pmin, pmax = _fit_boxes(points, starts, rows, origins)
    return rows, origins, pmin, pmax


def build_obb_tree(mesh: Mesh, max_leaf_elements: int = MAX_LEAF_ELEMENTS) -> ObbTree:
    """Top-down binary OBB tree over the mesh elements, built level by level.

    A node of more than ``max_leaf_elements`` elements is split with a plane
    through its basis origin orthogonal to the box axis of largest extent;
    element membership follows the corner centroid, with on-plane elements
    going to the first child.  Falls back to the next-longest axis when a
    split does not separate, and makes a leaf when no axis separates.

    Each node is fitted once, by the PCA of its points, with the bits
    ``_fit_level`` gives it alone; its box holds all its bounding points.  A
    split node keeps no box.  ``tree.leaves`` lists the leaves depth first,
    first child first.
    """
    _check_count("max_leaf_elements", max_leaf_elements)
    table, elem_rows = _point_table(mesh)
    centroids = mesh.corner_coords().mean(axis=1)
    elems = np.arange(mesh.n_elements, dtype=np.int64)
    seg = np.zeros(mesh.n_elements, dtype=np.int64)
    levels = []
    n_nodes = 1
    while n_nodes:
        estarts = np.searchsorted(seg, np.arange(n_nodes))
        n_elems = np.diff(estarts, append=len(elems))
        rows, origins, pmin, pmax = _fit_level(table, elem_rows, elems, seg, n_nodes)
        side = _rotate(rows[seg], centroids[elems] - origins[seg]) > 0.0
        n_second = np.add.reduceat(side.astype(np.int64), estarts, axis=0)
        separates = (n_second > 0) & (n_second < n_elems[:, None])
        by_extent = np.argsort(pmin - pmax, axis=1, kind="stable")
        usable = np.take_along_axis(separates, by_extent, axis=1)
        axis = by_extent[np.arange(n_nodes), usable.argmax(axis=1)]
        split = usable.any(axis=1) & (n_elems > max_leaf_elements)
        level = [None] * n_nodes  # a split node is made once its children are
        for i in np.flatnonzero(~split):
            obb = Obb(Basis(rows[i], origins[i]), Aabb(pmin[i], pmax[i]))
            level[i] = ObbNode(obb, len(levels), elems[estarts[i] : estarts[i] + n_elems[i]])
        levels.append(level)
        # children keep their parent's element order
        child = 2 * (np.cumsum(split) - 1)[seg] + side[np.arange(len(seg)), axis[seg]]
        keep = split[seg]
        order = np.argsort(child[keep], kind="stable")
        elems, seg = elems[keep][order], child[keep][order]
        n_nodes = 2 * int(np.count_nonzero(split))

    # bottom-up: a level's split nodes take the next level's nodes, two each
    nodes = []
    for depth in reversed(range(len(levels))):
        below = iter(nodes)
        nodes = [
            ObbNode(None, depth, left=next(below), right=next(below)) if node is None else node
            for node in levels[depth]
        ]
    leaves, stack = [], [nodes[0]]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack += [node.right, node.left]
    return ObbTree(nodes[0], leaves, mesh)
