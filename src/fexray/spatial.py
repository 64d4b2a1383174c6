"""Surface PCA, convex hulls, oriented bounding boxes and the OBB tree.

Boxes are fitted to element *bounding points*: the ten element nodes plus one
quadratic Bezier control point per edge (2*m - (p0+p1)/2 for midnode m).  The
control net encloses each curved edge, so a box around the bounding points
also encloses the curved element geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .mesh import EDGE_VERTICES, Mesh

# multiplicative box inflation to absorb roundoff in slab tests at box faces
BOX_INFLATION = 1e-9


class DegenerateGeometryError(ValueError):
    """Input too degenerate for the requested construction."""


@dataclass(frozen=True)
class Basis:
    """Orthonormal right-handed basis; rows are the basis vectors."""

    rows: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float64))
        origin = np.ascontiguousarray(np.asarray(self.origin, dtype=np.float64))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "origin", origin)
        rtr = rows @ rows.T
        if np.abs(rtr - np.eye(3)).max() > 1e-10:
            raise ValueError("basis rows are not orthonormal")
        if np.linalg.det(rows) < 0.0:
            raise ValueError("basis is not right-handed")

    def to_local(self, points: np.ndarray) -> np.ndarray:
        """Rigidly transform world points into the basis frame."""
        p = np.asarray(points, dtype=np.float64)
        d0 = p[..., 0] - self.origin[0]
        d1 = p[..., 1] - self.origin[1]
        d2 = p[..., 2] - self.origin[2]
        return _rotate_components(self.rows, d0, d1, d2)

    def to_world(self, points: np.ndarray) -> np.ndarray:
        """Inverse of to_local."""
        p = np.asarray(points, dtype=np.float64)
        q = _rotate_components(self.rows.T, p[..., 0], p[..., 1], p[..., 2])
        return q + self.origin

    def rotate(self, vectors: np.ndarray) -> np.ndarray:
        """Rotate world vectors into the basis frame (no translation)."""
        v = np.asarray(vectors, dtype=np.float64)
        return _rotate_components(self.rows, v[..., 0], v[..., 1], v[..., 2])


def _rotate_components(rows, d0, d1, d2):
    # explicit fixed-order expressions keep scalar and batched calls bitwise equal
    out = np.stack(
        [
            rows[0, 0] * d0 + rows[0, 1] * d1 + rows[0, 2] * d2,
            rows[1, 0] * d0 + rows[1, 1] * d1 + rows[1, 2] * d2,
            rows[2, 0] * d0 + rows[2, 1] * d1 + rows[2, 2] * d2,
        ],
        axis=-1,
    )
    return out


IDENTITY_BASIS_ROWS = np.eye(3)


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

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))


@dataclass(frozen=True)
class Obb:
    basis: Basis
    box: Aabb

    @property
    def volume(self) -> float:
        return self.box.volume


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
    return (areas[:, None] * centroids).sum(axis=0) / total


def covariance(tris: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Covariance of sqrt(area)-scaled, mu-centered triangle centroids."""
    centroids, areas = triangles_centroid_area(tris)
    n = centroids.shape[0]
    if n < 2:
        raise DegenerateGeometryError("covariance needs at least two triangles")
    cbar = np.sqrt(areas)[:, None] * (centroids - np.asarray(mu, dtype=np.float64))
    cov = cbar.T @ cbar / (n - 1)
    return 0.5 * (cov + cov.T)


def pca_basis(tris: np.ndarray) -> Basis:
    """Orthonormal basis of covariance eigenvectors, descending eigenvalue.

    Signs are canonicalized (largest component of each row positive) and the
    last row is flipped if needed to make the basis right-handed.
    """
    mu = weighted_center(tris)
    cov = covariance(tris, mu)
    return Basis(_eigen_rows(cov), mu)


def _eigen_rows(cov: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(cov)
    rows = v[:, ::-1].T.copy()  # descending eigenvalue order
    for i in range(3):
        k = int(np.argmax(np.abs(rows[i])))
        if rows[i, k] < 0.0:
            rows[i] = -rows[i]
    if np.linalg.det(rows) < 0.0:
        rows[2] = -rows[2]
    return rows


@dataclass(frozen=True)
class HullResult:
    """Triangulated convex hull: vertex ids and outward-oriented faces."""

    vertex_indices: np.ndarray
    faces: np.ndarray  # (n_faces, 3) indices into the input point array


def convex_hull(points: np.ndarray) -> HullResult:
    """3-d convex hull (qhull); raises DegenerateGeometryError on flat input."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] < 4:
        raise DegenerateGeometryError("need at least 4 points for a 3-d hull")
    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise DegenerateGeometryError(f"degenerate hull: {exc}") from exc
    faces = hull.simplices.copy()
    # orient every triangle outward using qhull's outward facet normals
    tri = points[faces]
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    flip = np.einsum("ij,ij->i", n, hull.equations[:, :3]) < 0.0
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return HullResult(np.sort(hull.vertices.astype(np.int64)), faces.astype(np.int64))


def fit_obb(points: np.ndarray, basis: Basis) -> Obb:
    """Componentwise min/max box of basis-transformed points, inflated by
    ``BOX_INFLATION`` times its diagonal."""
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        raise DegenerateGeometryError("cannot fit a box to an empty point set")
    local = basis.to_local(points.reshape(-1, 3))
    return Obb(basis, _inflated_box(local))


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
        ctrl[:, m] = 2.0 * pts[:, 4 + m] - 0.5 * (pts[:, a] + pts[:, b])
    return np.concatenate([pts, ctrl], axis=1)


def model_aabb(mesh: Mesh) -> Aabb:
    """Axis-aligned box around the whole mesh, curved geometry included,
    inflated like ``fit_obb``."""
    return _inflated_box(element_bounding_points(mesh).reshape(-1, 3))


def _inflated_box(points: np.ndarray) -> Aabb:
    pmin = points.min(axis=0)
    pmax = points.max(axis=0)
    eps = BOX_INFLATION * float(np.linalg.norm(pmax - pmin))
    return Aabb(pmin - eps, pmax + eps)


@dataclass
class ObbNode:
    obb: Obb
    depth: int
    elements: np.ndarray | None = None  # leaf payload, element ids
    left: "ObbNode | None" = None
    right: "ObbNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.elements is not None


@dataclass
class ObbTree:
    root: ObbNode
    leaves: list[ObbNode]
    max_leaf_elements: int
    n_elements: int


def _subset_obb(points: np.ndarray, centroids: np.ndarray) -> tuple[Obb, bool]:
    """OBB for a subset; returns (obb, hull_degenerate)."""
    flat = points.reshape(-1, 3)
    try:
        hull = convex_hull(flat)
        tris = flat[hull.faces]
        basis = pca_basis(tris)
        return fit_obb(flat, basis), False
    except DegenerateGeometryError:
        pass
    # flat subset: PCA over raw element centroids with unit weights
    mu = centroids.mean(axis=0)
    if centroids.shape[0] >= 2:
        d = centroids - mu
        cov = d.T @ d / (centroids.shape[0] - 1)
        rows = _eigen_rows(0.5 * (cov + cov.T))
    else:
        rows = IDENTITY_BASIS_ROWS
    return fit_obb(flat, Basis(rows, mu)), True


def build_obb_tree(mesh: Mesh, max_leaf_elements: int = 10) -> ObbTree:
    """Top-down binary OBB tree over the mesh elements.

    A node is split with a plane through the basis origin orthogonal to the
    box axis of largest extent; element membership follows the corner
    centroid, with on-plane elements going to the first child.  Falls back
    to the next-longest axis when a split does not separate, and makes a
    leaf when no axis separates or the subset hull is degenerate.
    """
    if max_leaf_elements < 1:
        raise ValueError("max_leaf_elements must be >= 1")
    bpoints = element_bounding_points(mesh)
    centroids = mesh.corner_coords().mean(axis=1)
    leaves: list[ObbNode] = []

    root = ObbNode(obb=None, depth=0)  # type: ignore[arg-type]
    stack: list[tuple[ObbNode, np.ndarray]] = [
        (root, np.arange(mesh.n_elements, dtype=np.int64))
    ]
    while stack:
        node, elems = stack.pop()
        obb, degenerate = _subset_obb(bpoints[elems], centroids[elems])
        node.obb = obb
        if len(elems) <= max_leaf_elements or degenerate:
            node.elements = elems
            leaves.append(node)
            continue
        order = np.argsort(-obb.box.extents, kind="stable")
        split = None
        for axis in order:
            row = obb.basis.rows[axis]
            side = (centroids[elems] - obb.basis.origin) @ row
            first = elems[side <= 0.0]
            second = elems[side > 0.0]
            if len(first) > 0 and len(second) > 0:
                split = (first, second)
                break
        if split is None:
            node.elements = elems
            leaves.append(node)
            continue
        node.left = ObbNode(obb=None, depth=node.depth + 1)  # type: ignore[arg-type]
        node.right = ObbNode(obb=None, depth=node.depth + 1)  # type: ignore[arg-type]
        # push right first so the left child is processed first (stable leaf order)
        stack.append((node.right, split[1]))
        stack.append((node.left, split[0]))

    _expand_over_children(root)
    return ObbTree(root, leaves, max_leaf_elements, mesh.n_elements)


def _box_corners_world(obb: Obb) -> np.ndarray:
    lo, hi = obb.box.pmin, obb.box.pmax
    corners = np.array(
        [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
    )
    return obb.basis.to_world(corners)


def _expand_over_children(root: ObbNode) -> None:
    """Grow each internal box over its children's box corners.

    Child boxes live in their own bases and may poke out of a tightly fitted
    parent box; nesting the boxes makes hierarchical pruning agree exactly
    with a flat scan over the leaves.  Leaf boxes are untouched.
    """
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if not node.is_leaf:
            stack.append(node.left)
            stack.append(node.right)
    for node in reversed(order):
        if node.is_leaf:
            continue
        corners = np.vstack(
            [_box_corners_world(node.left.obb), _box_corners_world(node.right.obb)]
        )
        local = node.obb.basis.to_local(corners)
        pmin = np.minimum(node.obb.box.pmin, local.min(axis=0))
        pmax = np.maximum(node.obb.box.pmax, local.max(axis=0))
        node.obb = Obb(node.obb.basis, Aabb(pmin, pmax))

