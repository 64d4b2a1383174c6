"""Small helpers the tests use that the library itself does not need.

The spatial helpers are one-node calls of the batched kernels that build the
OBB tree, so their tests exercise the library's formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from fexray import spatial
from fexray.io_text import RenderConfig
from fexray.mesh import TET_FACES, Mesh, NodalField, interpolate_values, map_points, shape_gradients
from fexray.spatial import Aabb, Basis, DegenerateGeometryError, Obb, element_bounding_points
from fexray.xray import ELEMENT_BOX_MARGIN, _ElementClip

# -- mesh ---------------------------------------------------------------------


def jacobian(nodes: np.ndarray, xi: np.ndarray, order: str = "quadratic") -> np.ndarray:
    """Jacobian J_ab = d(map)_a / dxi_b at xi, shape (..., 3, 3)."""
    dn = shape_gradients(xi, order)
    jac = dn[..., 0, None, :] * nodes[0][:, None]
    for i in range(1, nodes.shape[0]):
        jac = jac + dn[..., i, None, :] * nodes[i][:, None]
    return jac


def local_to_global(mesh: Mesh, e: int, xi: np.ndarray) -> np.ndarray:
    """Global coordinates of reference point xi inside element e."""
    return map_points(mesh.element_nodes(e), xi, mesh.order)


def interpolate(field: NodalField, mesh: Mesh, e: int, xi: np.ndarray) -> np.ndarray:
    """Field value at reference point xi inside element e."""
    if len(field) != mesh.n_nodes:
        raise ValueError(
            f"field length {len(field)} does not match mesh node count {mesh.n_nodes}"
        )
    return interpolate_values(field.values[mesh.elements[e]], xi, mesh.order)


# -- configuration ------------------------------------------------------------


def serialize_config(cfg: RenderConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) round-trips."""
    lines = []
    for f in fields(RenderConfig):
        v = getattr(cfg, f.name)
        if v is None or v == "":
            continue
        if isinstance(v, float):
            v = f"{v:.17g}"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


# -- spatial ------------------------------------------------------------------


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


def to_local(basis: Basis, points: np.ndarray) -> np.ndarray:
    """Rigidly transform world points into the basis frame; the inverse of
    ``Basis.to_world``."""
    p = np.asarray(points, dtype=np.float64)
    d0 = p[..., 0] - basis.origin[0]
    d1 = p[..., 1] - basis.origin[1]
    d2 = p[..., 2] - basis.origin[2]
    return spatial._rotate_components(basis.rows, d0, d1, d2)


def rotate(basis: Basis, vectors: np.ndarray) -> np.ndarray:
    """Rotate world vectors into the basis frame (no translation)."""
    v = np.asarray(vectors, dtype=np.float64)
    return spatial._rotate_components(basis.rows, v[..., 0], v[..., 1], v[..., 2])


def pca_basis(tris: np.ndarray) -> Basis:
    """Basis of the area-weighted surface covariance's eigenvectors, in
    descending eigenvalue order, with the tree's sign and handedness rule."""
    mu = spatial.weighted_center(tris)
    cov = spatial.covariance(tris, mu)
    return Basis(spatial._eigen_rows(cov[None])[0], mu)


def fit_obb(points: np.ndarray, basis: Basis) -> Obb:
    """The tree's box fit for one point set: componentwise min/max of the
    basis-transformed points, inflated by ``BOX_INFLATION`` times its
    diagonal."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if points.size == 0:
        raise DegenerateGeometryError("cannot fit a box to an empty point set")
    pmin, pmax = spatial._fit_boxes(
        points, np.zeros(1, dtype=np.int64), basis.rows[None], basis.origin[None]
    )
    return Obb(basis, Aabb(pmin[0], pmax[0]))


# -- render -------------------------------------------------------------------


def depth_clip_planes(clip: _ElementClip, a: np.ndarray, b: np.ndarray, e: np.ndarray):
    """Depth range (t_in, t_out) of the rays at detector-frame (a, b) in the
    clips of the elements e, computed on the (pairs, 4, 3) gather of the
    face normals with reductions over the face axis.

    Same rule as ``xray._depth_clip``, which folds one face row at a time;
    the tests check that both give the same bytes.
    """
    normals = np.stack([clip.n_a, clip.n_b, clip.n_t], axis=-1).transpose(1, 0, 2)
    n = normals[e]
    n_t = n[..., 2]
    gap = clip.offset.T[e] - (n[..., 0] * a[:, None] + n[..., 1] * b[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):  # n_t == 0 lanes are replaced
        t = gap / n_t
    outside = (n_t == 0.0) & (gap < 0.0)
    t_in = np.where(n_t < 0.0, t, np.where(outside, np.inf, -np.inf)).max(axis=1)
    t_out = np.where(n_t > 0.0, t, np.inf).min(axis=1)
    return np.maximum(clip.lo[e, 2], t_in), np.minimum(clip.hi[e, 2], t_out)


def control_net_clip(mesh: Mesh, det, nets=None) -> _ElementClip:
    """The element clip built on the convex hull of each element's Bezier
    control net (Farin, *Curves and Surfaces for CAGD*, 2002): each corner
    face plane and box side moves out to the farthest control point, then
    by the margin.

    ``xray._element_clip`` moves them only to the exact maximum over the
    element, so its clip lies inside this one; the tests render with both.
    It takes the control ``nets`` that ``_element_clip`` gets, so it can
    stand in for it, but builds its points from the mesh itself.
    """
    world = element_bounding_points(mesh)
    normals = np.empty((mesh.n_elements, len(TET_FACES), 3))
    for f, (i, j, k) in enumerate(TET_FACES):
        n = np.cross(world[:, j] - world[:, i], world[:, k] - world[:, i])
        normals[:, f] = n / np.linalg.norm(n, axis=1)[:, None]
    # the frame may be left-handed, so normals are rotated, not recomputed
    frame = np.stack([det.axis_u, det.axis_v, det.normal])
    normals = normals @ frame.T
    bpts = (world - det.origin) @ frame.T
    lo = bpts.min(axis=1)
    hi = bpts.max(axis=1)
    margin = ELEMENT_BOX_MARGIN * np.linalg.norm(hi - lo, axis=1)[:, None]
    offsets = (bpts @ normals.transpose(0, 2, 1)).max(axis=1) + margin
    return _ElementClip.from_planes(lo - margin, hi + margin, normals, offsets)
