"""Tetrahedral mesh data model, shape functions and isoparametric mapping.

Elements are 4-node (linear) or 10-node (quadratic) tetrahedra.  Reference
coordinates xi = (xi1, xi2, xi3) live on the unit tetrahedron with corners at
the origin and the three unit vectors; the fourth barycentric coordinate is
1 - xi1 - xi2 - xi3.

Node ordering convention (fixed, also used by the text file format):
corners 1-4, then the mid-edge nodes of edges (1-2), (2-3), (3-1), (1-4),
(2-4), (3-4).

All evaluation kernels broadcast over leading axes, and every nodal reduction
is written as an explicit fixed-order sum so that scalar and batched calls
produce bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# local edge endpoints (0-based corners) for the 6 mid-edge nodes
EDGE_VERTICES = ((0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3))

# corner triples of the four faces, wound outward for a positively oriented
# tetrahedron
TET_FACES = ((0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2))

# reference coordinates of the 10 nodes of the quadratic tetrahedron
REFERENCE_NODES = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.0],
        [0.0, 0.0, 0.5],
        [0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5],
    ]
)


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


@dataclass(frozen=True)
class Mesh:
    """Immutable tetrahedral mesh.

    nodes: (n_nodes, 3) coordinates in cm.
    elements: (n_elements, 4) or (n_elements, 10) node indices.
    """

    nodes: np.ndarray
    elements: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=np.float64))
        elements = np.ascontiguousarray(np.asarray(self.elements, dtype=np.int64))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        validate_mesh(self)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def order(self) -> str:
        return "quadratic" if self.elements.shape[1] == 10 else "linear"

    def element_nodes(self, e: int) -> np.ndarray:
        """Coordinates of element e's nodes, shape (4, 3) or (10, 3)."""
        if not 0 <= e < self.n_elements:
            raise MeshError(f"element id {e} out of range [0, {self.n_elements})")
        return self.nodes[self.elements[e]]

    def corner_coords(self) -> np.ndarray:
        """Corner coordinates of all elements, shape (n_elements, 4, 3)."""
        return self.nodes[self.elements[:, :4]]


@dataclass(frozen=True)
class NodalField:
    """One scalar per mesh node (density in g/cm^3, or unitless)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 1:
            raise ValueError("field values must be a 1-d array")
        if not np.isfinite(values).all():
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


def validate_mesh(mesh: Mesh) -> None:
    nodes, elements = mesh.nodes, mesh.elements
    if nodes.ndim != 2 or nodes.shape[1] != 3:
        raise MeshError("nodes must have shape (n_nodes, 3)")
    if not np.isfinite(nodes).all():
        raise MeshError("node coordinates contain non-finite values")
    if elements.ndim != 2 or elements.shape[1] not in (4, 10):
        raise MeshError("elements must have shape (n_elements, 4) or (n_elements, 10)")
    if elements.size == 0:
        raise MeshError("mesh has no elements")
    if elements.min() < 0 or elements.max() >= nodes.shape[0]:
        raise MeshError("element connectivity references nonexistent nodes")

    corners = nodes[elements[:, :4]]
    vol6 = _corner_volume6(corners)
    if (vol6 <= 0.0).any():
        bad = int(np.argmax(vol6 <= 0.0))
        raise MeshError(f"element {bad} has non-positive corner volume")

    if elements.shape[1] == 10:
        for m, (a, b) in enumerate(EDGE_VERTICES):
            pa = nodes[elements[:, a]]
            pb = nodes[elements[:, b]]
            mid = nodes[elements[:, 4 + m]]
            edge_len = np.linalg.norm(pb - pa, axis=1)
            off = np.linalg.norm(mid - 0.5 * (pa + pb), axis=1)
            if (off > 0.5 * edge_len).any():
                bad = int(np.argmax(off > 0.5 * edge_len))
                raise MeshError(
                    f"element {bad}: mid-edge node {4 + m} too far from edge midpoint"
                )
        # duplicate nodes within one element collapse the geometry mapping
        pts = nodes[elements]  # (m, 10, 3)
        d2 = ((pts[:, :, None, :] - pts[:, None, :, :]) ** 2).sum(-1)
        iu = np.triu_indices(elements.shape[1], k=1)
        if (d2[:, iu[0], iu[1]] < (1e-12) ** 2).any():
            raise MeshError("element contains duplicate node coordinates")
        det = _lattice_jacobian_dets(pts)
        if (det <= 0.0).any():
            bad, at = np.unravel_index(int(np.argmax(det <= 0.0)), det.shape)
            raise MeshError(
                f"element {bad} is folded: det J <= 0 at reference point "
                f"{_FOLD_LATTICE[at].tolist()}"
            )


def _lattice_jacobian_dets(pts: np.ndarray) -> np.ndarray:
    """det J of 10-node elements (m, 10, 3) at the points of ``_FOLD_LATTICE``.

    det J of a quadratic tetrahedron is a cubic in xi, so a sign change
    shows at this lattice unless it hides between its points; a value
    <= 0 at any point proves the element folded or degenerate.
    """
    m = pts.shape[0]
    # (60, 10) @ (10, 3m): row 3 * point + b holds dN_i/dxi_b at that point
    t = (_FOLD_GRADIENTS @ pts.transpose(1, 0, 2).reshape(10, 3 * m)).reshape(20, 3, m, 3)
    # t[point, b, element, a] = J_ab, the transpose of J
    return (
        t[:, 0, :, 0] * (t[:, 1, :, 1] * t[:, 2, :, 2] - t[:, 1, :, 2] * t[:, 2, :, 1])
        - t[:, 0, :, 1] * (t[:, 1, :, 0] * t[:, 2, :, 2] - t[:, 1, :, 2] * t[:, 2, :, 0])
        + t[:, 0, :, 2] * (t[:, 1, :, 0] * t[:, 2, :, 1] - t[:, 1, :, 1] * t[:, 2, :, 0])
    ).T


def _corner_volume6(corners: np.ndarray) -> np.ndarray:
    """6x signed volume of corner tetrahedra; corners has shape (..., 4, 3)."""
    a = corners[..., 1, :] - corners[..., 0, :]
    b = corners[..., 2, :] - corners[..., 0, :]
    c = corners[..., 3, :] - corners[..., 0, :]
    return (
        a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
        + a[..., 1] * (b[..., 2] * c[..., 0] - b[..., 0] * c[..., 2])
        + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    )


def shape_values(xi: np.ndarray, order: str = "quadratic") -> np.ndarray:
    """Shape function values N_i(xi); xi broadcasts over leading axes.

    Returns shape (..., 4) for linear, (..., 10) for quadratic.  The values
    sum to one for any xi (partition of unity).
    """
    xi = np.asarray(xi, dtype=np.float64)
    x, y, z = xi[..., 0], xi[..., 1], xi[..., 2]
    w = 1.0 - x - y - z
    if order == "linear":
        return np.stack([w, x, y, z], axis=-1)
    if order != "quadratic":
        raise ValueError(f"unknown order {order!r}")
    return np.stack(
        [
            w * (2.0 * w - 1.0),
            x * (2.0 * x - 1.0),
            y * (2.0 * y - 1.0),
            z * (2.0 * z - 1.0),
            4.0 * x * w,
            4.0 * x * y,
            4.0 * y * w,
            4.0 * z * w,
            4.0 * x * z,
            4.0 * y * z,
        ],
        axis=-1,
    )


def shape_gradients(xi: np.ndarray, order: str = "quadratic") -> np.ndarray:
    """Gradients dN_i/dxi_j, shape (..., n_nodes, 3); columns sum to zero."""
    xi = np.asarray(xi, dtype=np.float64)
    x, y, z = xi[..., 0], xi[..., 1], xi[..., 2]
    zero = np.zeros_like(x)
    if order == "linear":
        one = np.ones_like(x)
        rows = [
            (-one, -one, -one),
            (one, zero, zero),
            (zero, one, zero),
            (zero, zero, one),
        ]
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    if order != "quadratic":
        raise ValueError(f"unknown order {order!r}")
    w = 1.0 - x - y - z
    g0 = 1.0 - 4.0 * w
    rows = [
        (g0, g0, g0),
        (4.0 * x - 1.0, zero, zero),
        (zero, 4.0 * y - 1.0, zero),
        (zero, zero, 4.0 * z - 1.0),
        (4.0 * (w - x), -4.0 * x, -4.0 * x),
        (4.0 * y, 4.0 * x, zero),
        (-4.0 * y, 4.0 * (w - y), -4.0 * y),
        (-4.0 * z, -4.0 * z, 4.0 * (w - z)),
        (4.0 * z, zero, 4.0 * x),
        (zero, 4.0 * z, 4.0 * y),
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


# the 20 points xi in {0, 1/3, 2/3, 1}^3 of the reference tetrahedron
_FOLD_LATTICE = np.array(
    [(i, j, k) for i in range(4) for j in range(4 - i) for k in range(4 - i - j)]
) / 3.0
_FOLD_GRADIENTS = shape_gradients(_FOLD_LATTICE).transpose(0, 2, 1).reshape(60, 10)


def map_points(nodes: np.ndarray, xi: np.ndarray, order: str = "quadratic") -> np.ndarray:
    """Isoparametric map sum_i N_i(xi) * nodes[i] for one element.

    nodes: (n_nodes, 3); xi: (..., 3).  Fixed-order accumulation.
    """
    n = shape_values(xi, order)
    out = n[..., 0, None] * nodes[0]
    for i in range(1, nodes.shape[0]):
        out = out + n[..., i, None] * nodes[i]
    return out


def interpolate_values(values: np.ndarray, xi: np.ndarray, order: str = "quadratic") -> np.ndarray:
    """Interpolate nodal scalars at xi: sum_i N_i(xi) * values[i]."""
    n = shape_values(xi, order)
    out = n[..., 0] * values[0]
    for i in range(1, values.shape[0]):
        out = out + n[..., i] * values[i]
    return out


def boundary_faces(mesh: Mesh) -> np.ndarray:
    """Outward-oriented corner-node triangles of faces owned by one element.

    Returns shape (n_faces, 3) node index triples.  Raises MeshError for a
    non-manifold face shared by more than two elements.
    """
    seen: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    elems = mesh.elements[:, :4]
    for e in range(mesh.n_elements):
        c = elems[e]
        for lf in TET_FACES:
            tri = (int(c[lf[0]]), int(c[lf[1]]), int(c[lf[2]]))
            key = tuple(sorted(tri))
            seen.setdefault(key, []).append(tri)
    faces = []
    for key, tris in seen.items():
        if len(tris) > 2:
            raise MeshError(f"non-manifold face {key} shared by {len(tris)} elements")
        if len(tris) == 1:
            faces.append(tris[0])
    faces.sort()
    return np.array(faces, dtype=np.int64).reshape(-1, 3)
