"""Orthographic detector, ray integration, attenuation and render driver.

Sampling scheme: rays carry a global equidistant grid t_j = (j + 1/2) * step
anchored at the emission plane; a sample is a grid point (ray, j) with t_j
inside the model box's depth range along the rays (clamped to t >= 0), the
one grid range [J_lo, J_hi] of the render.  Samples outside every element
contribute exactly zero; the global anchoring makes the tree-accelerated,
brute-force and multi-worker paths produce bitwise-identical images.

``render`` works in detector-frame coordinates (a, b, t): all rays share
one direction, so a ray is origin + a * axis_u + b * axis_v + t * normal and
its origin in any box frame is linear in its pixel offsets (a, b).  Once per
render the detector origin and axes are rotated into the frames of all tree
leaves, and each leaf box is projected onto the detector as a padded pixel
rectangle that holds every ray that can meet it.  A tile's candidate
elements are those of the leaves whose rectangle meets the tile's rows.
The tile also slab-tests each of those leaf boxes on its rays, and the grid
points inside the union of the leaf boxes are the render's ``samples``
count; the boxes cut no pair.  Internal nodes keep no box: the leaves
partition the elements.  Brute force is the one-leaf case, the model box in
the identity frame holding every element.  Newton lanes carry their grid
point (ray, j), and all claims on one (ray, j) are resolved together.  The
lane-sized geometry (leaf-local ray origins, Newton sample points) is
column-major: each coordinate is one contiguous row, filled in the fixed
order of the row-major expressions, so the bits are theirs.

Point location then streams (ray, element) pairs through three bounded
stages.  First the candidates' pairs are enumerated pixel row by pixel row
from the element clips (in the detector frame): over the depth window where
the grid points [J_lo, J_hi] meet an element's box, each face plane admits a
half-plane in (a, b), and each row of the element box's footprint gets one
column interval cut by all four, so no (elements x rays) mask is built.
The pairs whose ray crosses the element's box footprint go on.  Then each
pair's ray is clipped to the element's box depth range intersected with the
four face half-spaces of its corner tetrahedron, each plane pushed out to
the exact maximum of its normal's component over the element, and the box
sides likewise; as the ray runs along t, a face bounds t through its
normal's t component alone.  The planes are stored as face rows, one
contiguous array per face and normal component, so the clip is four passes
over the pairs, each folding one face's bound into the depth range.  The
element lies inside that clip, so the clip drops only (sample, element)
pairs Newton would reject.  Last, whole pairs fill fixed-size lane batches,
each with one ``membership_test`` call, each lane carrying its own element
id; the Newton reference frames of all elements are built once per render.
Every lane is independent of its batch and a sample claimed by several
elements goes to the lowest element id, whatever order the lanes come in,
so neither batch sizes nor the pair order change an image.

The detector is rendered as contiguous row-major ray ranges (tiles) of
``TILE_SAMPLES`` samples, counting each ray at the grid points on the
longest chord of the model box along the rays, so a tile's transient
arrays are bounded by the budget whatever the detector size.  Tile edges
depend only on the detector, the model box, the step and the budget, never
on the worker count, and every ray's samples, claims and sum stay inside
one tile, so images and counters do not depend on the tiling.  ``workers``
only sizes an ordered process pool over the tiles.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .locate import (
    NewtonSettings,
    _check_count,
    _element_frames,
    _ElementFrames,
    membership_test,
    newton_workspace,
)
# the renderer calls neither interpolate_values nor tet_entry; the
# benchmark's span tracer rebinds both names here, so they must resolve
from .mesh import TET_FACES, Mesh, NodalField, check_field, interpolate_values  # noqa: F401
from .raycast import slab_intervals, tet_entry  # noqa: F401
from .spatial import (
    MAX_LEAF_ELEMENTS,
    Aabb,
    Basis,
    Obb,
    ObbNode,
    ObbTree,
    _inflated_box,
    _quadratic_max,
    _rotate,
    build_obb_tree,
    element_bounding_points,
)

FACE_SELECTORS = {
    "+x": (0, 1.0),
    "-x": (0, -1.0),
    "+y": (1, 1.0),
    "-y": (1, -1.0),
    "+z": (2, 1.0),
    "-z": (2, -1.0),
}
ATTENUATION_VARIANTS = ("identity", "linear", "table")

# the per-element clip (box and face planes) is pushed out by this fraction of
# the element box diagonal; covers the in-hull tolerance shell and the Newton
# residual bound with room to spare
ELEMENT_BOX_MARGIN = 1e-6
# corner k of a box takes pmax on the axes where _BOX_CORNERS[k] is set
_BOX_CORNERS = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=bool)


@dataclass(frozen=True)
class Detector:
    """Orthographic emission plane with one ray per pixel center."""

    origin: np.ndarray  # center of pixel (0, 0)
    axis_u: np.ndarray
    axis_v: np.ndarray
    normal: np.ndarray  # unit ray direction
    nu: int
    nv: int
    pitch: float

    def __post_init__(self):
        for name in ("origin", "axis_u", "axis_v", "normal"):
            v = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            if v.shape != (3,) or not np.isfinite(v).all():
                raise ValueError(f"detector {name} must be a finite 3-vector")
            object.__setattr__(self, name, v)
        _check_count("nu", self.nu)
        _check_count("nv", self.nv)
        if not 0.0 < self.pitch < math.inf:
            raise ValueError("pixel pitch must be finite and positive")
        for a, b in ((self.axis_u, self.axis_v), (self.axis_u, self.normal), (self.axis_v, self.normal)):
            if abs(float(np.dot(a, b))) > 1e-12:
                raise ValueError("detector axes must be mutually orthogonal")
        for a in (self.axis_u, self.axis_v, self.normal):
            if abs(float(np.linalg.norm(a)) - 1.0) > 1e-12:
                raise ValueError("detector axes must be unit vectors")

    @property
    def n_rays(self) -> int:
        return self.nu * self.nv

    def pixel_origin(self, i: int, j: int) -> np.ndarray:
        return self.origin + (i * self.pitch) * self.axis_u + (j * self.pitch) * self.axis_v


@dataclass(frozen=True)
class IntegrationSettings:
    step: float = 0.01
    max_leaf_elements: int = MAX_LEAF_ELEMENTS
    newton: NewtonSettings = dataclasses.field(default_factory=NewtonSettings)
    geom_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValueError("step must be finite and positive")
        _check_count("max_leaf_elements", self.max_leaf_elements)
        if not 0.0 <= self.geom_tol < math.inf:
            raise ValueError("geom_tol must be finite and non-negative")


@dataclass(frozen=True)
class AttenuationModel:
    """Maps projected density to a Beer-Lambert attenuation integral.

    identity: the mu integral is the projected density itself.
    linear:   mu = kappa * rho, applied after summation.
    table:    mu(rho) looked up per sample inside the integration; samples
              outside every element contribute zero attenuation.
    """

    variant: str = "identity"
    kappa: float = 1.0
    table_rho: np.ndarray | None = None
    table_mu: np.ndarray | None = None
    i_in: float = 1.0

    def __post_init__(self):
        if self.variant not in ATTENUATION_VARIANTS:
            raise ValueError(f"unknown attenuation variant {self.variant!r}")
        if self.variant == "linear" and not 0.0 <= self.kappa < math.inf:
            raise ValueError("kappa must be finite and non-negative")
        if self.variant == "table":
            rho = np.asarray(self.table_rho, dtype=np.float64)
            mu = np.asarray(self.table_mu, dtype=np.float64)
            if rho.ndim != 1 or rho.shape != mu.shape or rho.size < 2:
                raise ValueError("lookup table needs >= 2 matching entries")
            if not (np.isfinite(rho).all() and np.isfinite(mu).all()):
                raise ValueError("lookup table contains non-finite values")
            if not (np.diff(rho) > 0.0).all():
                raise ValueError("lookup table densities must increase strictly")
            object.__setattr__(self, "table_rho", rho)
            object.__setattr__(self, "table_mu", mu)
        if not 0.0 < self.i_in < math.inf:
            raise ValueError("source intensity i_in must be finite and positive")

    def mu_of_rho(self, rho: np.ndarray) -> np.ndarray:
        return np.interp(rho, self.table_rho, self.table_mu)


def attenuate(projected_mu_integral: float, model: AttenuationModel):
    """Beer-Lambert transmitted intensity I_in * exp(-integral)."""
    return model.i_in * np.exp(-np.asarray(projected_mu_integral, dtype=np.float64))


@dataclass
class RenderStats:
    """Render counters; ``samples`` counts the grid points inside the union
    of the leaf boxes a ray hits, ``pairs_tested`` the (sample, element)
    pairs sent to Newton, ``pairs_inside`` those accepted.
    ``newton_iterations`` counts Newton kernel iterations: a lane of a
    straight element, solved in closed form, counts 1, and computing the
    corner-tetrahedron start is not counted.  ``samples_multi_claimed``
    counts the samples that two or more elements accepted, as elements
    sharing a face both can within ``geom_tol``; the lowest id wins.

    Only ``samples`` depends on the leaf boxes, so on the tree's leaf size;
    every other counter and the image equal brute force's."""

    rays: int = 0
    samples: int = 0
    pairs_tested: int = 0
    pairs_inside: int = 0
    newton_iterations: int = 0
    non_converged: int = 0
    samples_multi_claimed: int = 0
    wall_time: float = 0.0

    def merge(self, other: "RenderStats") -> None:
        """Add ``other``'s counters; the wall time is the caller's."""
        for f in dataclasses.fields(self):
            if f.name != "wall_time":
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        """The counters and the wall time in seconds, under the names of
        ``to_text``."""
        return {
            "wall_time_s" if f.name == "wall_time" else f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
        }

    def to_text(self) -> str:
        """One ``name = value`` line per entry of ``to_dict``, the wall time
        to the millisecond."""
        return "".join(
            f"{k} = {v:.3f}\n" if k == "wall_time_s" else f"{k} = {v}\n"
            for k, v in self.to_dict().items()
        )


@dataclass(frozen=True)
class ProjectionImage:
    """Per-pixel projected density (g/cm^2) and optional intensity grid."""

    density: np.ndarray  # (nv, nu)
    pitch: float
    intensity: np.ndarray | None = None
    stats: RenderStats = dataclasses.field(default_factory=RenderStats)

    def __post_init__(self):
        density = np.ascontiguousarray(np.asarray(self.density, dtype=np.float64))
        if density.ndim != 2:
            raise ValueError("density grid must be 2-d")
        if not np.isfinite(density).all():
            raise ValueError("density grid contains non-finite values")
        if (density < 0.0).any():
            raise ValueError("projected density must be non-negative")
        object.__setattr__(self, "density", density)

    @property
    def nv(self) -> int:
        return self.density.shape[0]

    @property
    def nu(self) -> int:
        return self.density.shape[1]


def make_detector(
    model_box: Aabb,
    face: str,
    rays_per_cm2: float | None = None,
    pitch: float | None = None,
    nu: int | None = None,
    nv: int | None = None,
) -> Detector:
    """Detector on a box face, grid centered and covering the face fully.

    Either ``rays_per_cm2`` (pixel pitch 1/sqrt of it) or ``pitch``, not
    both, must be given; ``nu`` and ``nv`` are given together or not at
    all, and by default the pixel counts cover the face extents.  Ray
    direction is the inward face normal.
    """
    if face not in FACE_SELECTORS:
        raise ValueError(
            f"invalid face {face!r}; expected one of {sorted(FACE_SELECTORS)}"
        )
    if (nu is None) != (nv is None):
        raise ValueError("nu and nv must be given together")
    axis, sign = FACE_SELECTORS[face]
    if rays_per_cm2 is not None:
        if pitch is not None:
            raise ValueError("rays_per_cm2 and pitch exclude each other")
        if not 0.0 < rays_per_cm2 < math.inf:
            raise ValueError(f"rays_per_cm2 must be positive and finite, got {rays_per_cm2}")
        pitch = 1.0 / math.sqrt(rays_per_cm2)
    elif pitch is None:
        raise ValueError("either rays_per_cm2 or pitch is required")
    elif not 0.0 < pitch < math.inf:
        raise ValueError(f"pitch must be positive and finite, got {pitch}")
    u_ax = (axis + 1) % 3
    v_ax = (axis + 2) % 3
    if nu is None:
        span_u = float(model_box.pmax[u_ax] - model_box.pmin[u_ax])
        span_v = float(model_box.pmax[v_ax] - model_box.pmin[v_ax])
        # guard so that an exact multiple does not gain a pixel from roundoff
        nu = max(1, math.ceil(span_u / pitch * (1.0 - 1e-12)))
        nv = max(1, math.ceil(span_v / pitch * (1.0 - 1e-12)))
    origin = np.zeros(3)
    origin[axis] = model_box.pmax[axis] if sign > 0 else model_box.pmin[axis]
    origin[u_ax] = 0.5 * float(model_box.pmin[u_ax] + model_box.pmax[u_ax]) - 0.5 * (nu - 1) * pitch
    origin[v_ax] = 0.5 * float(model_box.pmin[v_ax] + model_box.pmax[v_ax]) - 0.5 * (nv - 1) * pitch
    axis_u = np.zeros(3)
    axis_u[u_ax] = 1.0
    axis_v = np.zeros(3)
    axis_v[v_ax] = 1.0
    normal = np.zeros(3)
    normal[axis] = -sign
    return Detector(origin, axis_u, axis_v, normal, nu, nv, float(pitch))


def _grid_range(t_enter, t_exit, step: float):
    """Global-grid sample index range [j_lo, j_hi] inside an interval.

    Intervals whose bounds an int64 cannot hold yield an empty range: the
    non-finite ones of rays that miss a box via a zero-direction axis, and
    the huge ones of a missed box nearly parallel to the rays.
    """
    a = np.maximum(t_enter, 0.0)
    with np.errstate(invalid="ignore"):
        lo = np.ceil(a / step - 0.5)
        hi = np.floor(t_exit / step - 0.5)
    bad = ~((np.abs(lo) < 2.0**63) & (np.abs(hi) < 2.0**63))
    if np.any(bad):
        lo = np.where(bad, 1.0, lo)
        hi = np.where(bad, 0.0, hi)
    return lo.astype(np.int64), hi.astype(np.int64)


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate arange(start, start+count) rows."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


@dataclass(frozen=True)
class _ElementClip:
    """Per-element clip volumes in detector-frame coordinates, as face rows.

    A point origin + a * axis_u + b * axis_v + t * normal has frame
    coordinates (a, b, t).  It lies in element e's clip when it is inside
    the box [lo[e], hi[e]] and, for each face f,
    ``n_a[f, e] * a + n_b[f, e] * b + n_t[f, e] * t <= offset[f, e]``.
    Row f of each (4, n_elements) face array holds face f of every element,
    so a pass over face f takes contiguous values per element; ``t_lo`` and
    ``t_hi`` are the box's depth bounds.
    """

    lo: np.ndarray  # (n_elements, 3)
    hi: np.ndarray
    t_lo: np.ndarray  # (n_elements,)
    t_hi: np.ndarray
    n_a: np.ndarray  # (4, n_elements) components of the unit outward normals
    n_b: np.ndarray
    n_t: np.ndarray
    offset: np.ndarray

    @classmethod
    def from_planes(cls, lo, hi, normals, offsets) -> "_ElementClip":
        """Clip of boxes [lo, hi], (n, 3) each, and face planes with
        (n, 4, 3) normals and (n, 4) offsets."""
        n_a, n_b, n_t = np.ascontiguousarray(np.transpose(normals, (2, 1, 0)))
        return cls(
            lo, hi, np.ascontiguousarray(lo[:, 2]), np.ascontiguousarray(hi[:, 2]),
            n_a, n_b, n_t, np.ascontiguousarray(offsets.T),
        )


# corners, then the edge control points of ``element_bounding_points``: the
# control net of a quadratic element
_BEZIER_POINTS = np.r_[0:4, 10:16]


def _box_and_clip(mesh: Mesh, det: Detector) -> tuple[Aabb, _ElementClip]:
    """The model box (``model_aabb``'s bits) and the element clip, from one
    ``element_bounding_points`` call.  The clip reads the control nets
    alone, so the midnodes are dropped before its temporaries are made."""
    points = element_bounding_points(mesh)
    box = _inflated_box(points.reshape(-1, 3))
    if mesh.order == "quadratic":
        points = points[:, _BEZIER_POINTS]
    return box, _element_clip(mesh, det, points)


def _element_clip(mesh: Mesh, det: Detector, nets: np.ndarray) -> _ElementClip:
    """Box and face planes enclosing each element, tight to its geometry;
    ``nets`` (n_elements, points, 3) holds each element's control net: its
    corners, then a quadratic element's edge control points.

    Each plane keeps its corner-face normal n and moves out to the exact
    maximum of n . X over the element, and the box to the maxima along
    +-u, +-v and +-t (``spatial._quadratic_max``; a linear element's are
    at its corners); box and planes then grow by the margin.  Built in the
    detector frame, where every ray runs along t at fixed (a, b); for the
    axis-aligned detectors of ``make_detector`` the box is the world box.
    """
    frame = np.stack([det.axis_u, det.axis_v, det.normal])
    # frame coordinates (a, b, t) of the points, (3, points, elements)
    rel = (nets - det.origin).transpose(2, 1, 0)
    x = np.array([r[0] * rel[0] + r[1] * rel[1] + r[2] * rel[2] for r in frame])
    # corner-face normals, computed in the frame; a left-handed frame
    # flips the cross product
    i, j, k = np.array(TET_FACES).T
    e1, e2 = x[:, j] - x[:, i], x[:, k] - x[:, i]
    n = np.array([
        e1[1] * e2[2] - e1[2] * e2[1],
        e1[2] * e2[0] - e1[0] * e2[2],
        e1[0] * e2[1] - e1[1] * e2[0],
    ])
    n *= np.sign(np.linalg.det(frame)) / np.sqrt(n[0] ** 2 + n[1] ** 2 + n[2] ** 2)
    # n . X at every point for the 4 face normals, +u, +v, +t, -u, -v, -t
    values = np.concatenate(
        [n[0][None] * x[0][:, None] + n[1][None] * x[1][:, None] + n[2][None] * x[2][:, None],
         x.transpose(1, 0, 2), -x.transpose(1, 0, 2)],
        axis=1,
    )
    top = _quadratic_max(values) if mesh.order == "quadratic" else values.max(axis=0)
    hi, lo = top[4:7], -top[7:10]
    margin = ELEMENT_BOX_MARGIN * np.sqrt(((hi - lo) ** 2).sum(axis=0))
    return _ElementClip.from_planes(
        np.ascontiguousarray((lo - margin).T), np.ascontiguousarray((hi + margin).T),
        n.transpose(2, 1, 0), (top[:4] + margin).T,
    )


def _depth_clip(clip: _ElementClip, a: np.ndarray, b: np.ndarray, e: np.ndarray):
    """Depth range (t_in, t_out) of the rays at detector-frame (a, b) inside
    the clips of the elements e, pair by pair; empty when t_in > t_out.

    The rays run along t, so face f bounds t by gap / n_t, with
    gap = offset - n_a * a - n_b * b: from below where n_t < 0, from above
    where n_t > 0.  A face with n_t == 0 keeps the whole ray or none of it.
    The box bounds t by its depth extent; its (a, b) footprint is
    ``_pairs_of_runs``' test.  Starting from the box's bounds, one pass per
    face takes the pairs' face-row values and folds that face's bound into
    (t_in, t_out).  Maximum and minimum are exact and keep the later operand
    on a tie of +0.0 and -0.0, so the range has the bytes of a reduction over
    the faces in face order.
    """
    t_in, t_out = clip.t_lo[e], clip.t_hi[e]
    with np.errstate(divide="ignore", invalid="ignore"):  # n_t == 0 lanes are replaced
        for f in range(len(TET_FACES)):
            n_t = clip.n_t[f][e]
            gap = clip.offset[f][e] - (clip.n_a[f][e] * a + clip.n_b[f][e] * b)
            t = gap / n_t
            outside = (n_t == 0.0) & (gap < 0.0)
            t_in = np.maximum(t_in, np.where(n_t < 0.0, t, np.where(outside, np.inf, -np.inf)))
            t_out = np.minimum(t_out, np.where(n_t > 0.0, t, np.inf))
    return t_in, t_out


def _regroup(parts, budget: int, weight: int | None = None):
    """Re-cut a stream of column tuples into batches of at most ``budget``
    summed row weight: column ``weight``'s positive values, or 1 per row
    without one.

    Rows keep their order, and a row heavier than the budget is a batch of
    its own.  Parts are held until they pass the budget, so at most one
    batch plus one part is held at a time.
    """
    held, n_held, w_held = [], 0, 0
    for cols in parts:
        held.append(cols)
        n_held += cols[0].size
        w_held += cols[0].size if weight is None else int(cols[weight].sum())
        if w_held <= budget:
            continue
        cols = tuple(np.concatenate(c) for c in zip(*held))
        cum = np.arange(1, n_held + 1) if weight is None else np.cumsum(cols[weight])
        first, base = 0, 0
        while True:
            end = int(np.searchsorted(cum, base + budget, side="right"))
            if end >= n_held:
                break
            end = max(end, first + 1)
            yield tuple(c[first:end] for c in cols)
            first, base = end, int(cum[end - 1])
        held = [tuple(c[first:] for c in cols)]
        n_held, w_held = n_held - first, w_held - base
    if n_held:
        yield tuple(np.concatenate(c) for c in zip(*held))


@dataclass(frozen=True)
class _LeafFrames:
    """The leaves with the detector in each leaf's frame.

    In leaf k's frame the ray at detector-frame (a, b) starts at
    c[k] + a * u[k] + b * v[k] and runs along d[k].  Only the rays at pixels
    i0 <= i <= i1 of rows k0 <= row <= k1 (``rect[k]``) can meet the box.
    """

    leaves: list[ObbNode]
    c: np.ndarray  # (n_leaves, 3)
    u: np.ndarray
    v: np.ndarray
    d: np.ndarray
    inv_d: np.ndarray
    rect: np.ndarray  # (n_leaves, 4) int64: i0, i1, k0, k1


def _leaf_frames(leaves: list[ObbNode], det: Detector) -> _LeafFrames:
    """Rotate the detector into every leaf frame and project each leaf box
    onto the detector, once per render.

    As u, v and d are orthonormal, a box point p lies on the ray at
    a = (p - c) . u, b = (p - c) . v; the box corners bound the rays that
    can meet it.  The pixel rectangle is padded by one pixel, far more than
    the roundoff of the projection and of the slab test, and clipped to the
    detector; it is empty (i0 > i1 or k0 > k1) for a box beside it.
    """
    rows = np.stack([leaf.obb.basis.rows for leaf in leaves])
    origins = np.stack([leaf.obb.basis.origin for leaf in leaves])
    c = _rotate(rows, det.origin - origins)
    u = _rotate(rows, det.axis_u)
    v = _rotate(rows, det.axis_v)
    d = _rotate(rows, det.normal)
    with np.errstate(divide="ignore"):
        inv_d = 1.0 / d
    pmin = np.stack([leaf.obb.box.pmin for leaf in leaves])
    pmax = np.stack([leaf.obb.box.pmax for leaf in leaves])
    corners = np.where(_BOX_CORNERS, pmax[:, None], pmin[:, None]) - c[:, None]
    rect = []
    for axis, n in ((u, det.nu), (v, det.nv)):
        pix = (corners * axis[:, None]).sum(axis=-1) / det.pitch
        lo = np.floor(pix.min(axis=1)) - 1.0
        hi = np.ceil(pix.max(axis=1)) + 1.0
        rect += [np.clip(lo, 0, n), np.clip(hi, -1, n - 1)]
    return _LeafFrames(leaves, c, u, v, d, inv_d, np.stack(rect, axis=1).astype(np.int64))


@dataclass
class _RenderContext:
    mesh: Mesh
    values: np.ndarray
    leaves: _LeafFrames
    detector: Detector
    settings: IntegrationSettings
    want_mu: bool
    model: AttenuationModel | None
    clip: _ElementClip
    frames: _ElementFrames  # Newton reference frames of all elements
    grid: tuple  # the model box's grid range (J_lo, J_hi)


def _render_context(mesh, field, detector, settings, model, tree, brute_force, box, clip, grid):
    """Per-render state shared by all tiles; builds the tree if none is given.
    Brute force is the one-leaf case: the model ``box`` in the identity
    frame, holding every element.  ``box`` and ``clip`` are
    ``_box_and_clip``'s, ``grid`` the grid range of ``box``'s depth range."""
    if brute_force:
        identity = Obb(Basis(np.eye(3), np.zeros(3)), box)
        leaves = [ObbNode(identity, 0, np.arange(mesh.n_elements, dtype=np.int64))]
    else:
        leaves = (tree or build_obb_tree(mesh, settings.max_leaf_elements)).leaves
    return _RenderContext(
        mesh=mesh,
        values=field.values,
        leaves=_leaf_frames(leaves, detector),
        detector=detector,
        settings=settings,
        want_mu=model is not None and model.variant == "table",
        model=model,
        clip=clip,
        frames=_element_frames(mesh.nodes[mesh.elements]),
        grid=grid,
    )


_WORKER_CTX: _RenderContext | None = None


def _lane_origins(c, u, v, a, b):
    """Origins c + a * u + b * v of the rays at detector-frame (a, b), as a
    column-major (k, 3) view: each component is summed in that order into
    one contiguous row, so no numpy loop runs over the 3 components.  The
    bits are those of the row-major broadcast, and ``slab_intervals`` and
    ``membership_test`` take points of any layout, so the renderer passes
    the view on as it is."""
    o = np.empty((3, a.size))
    tmp = np.empty(a.size)
    for i in range(3):
        np.add(c[i], np.multiply(a, u[i], out=o[i]), out=o[i])
        np.add(o[i], np.multiply(b, v[i], out=tmp), out=o[i])
    return o.T


def _block_rays(ctx: _RenderContext, r_lo: int, r_hi: int):
    """Frame coordinates (a, b) of the rays r_lo <= r < r_hi, ray r at
    pixel (r % nu, r // nu)."""
    det = ctx.detector
    r = np.arange(r_lo, r_hi, dtype=np.int64)
    return (r % det.nu) * det.pitch, (r // det.nu) * det.pitch


def _tile_elements(ctx: _RenderContext, r_lo: int, r_hi: int) -> np.ndarray:
    """The candidate elements of the rays [r_lo, r_hi), leaf by leaf: those
    of the leaves whose pixel rectangle meets the tile's rows, so of every
    leaf ``_scan_leaves`` slab-tests.  A rectangle's padding holds its
    elements' clip footprints, so no other element has a pair in the tile."""
    det, lf = ctx.detector, ctx.leaves
    i0, i1, k0, k1 = lf.rect.T
    hit = (i0 <= i1) & (k0 <= (r_hi - 1) // det.nu) & (k1 >= r_lo // det.nu)
    return np.concatenate([lf.leaves[k].elements for k in np.flatnonzero(hit)] + [np.empty(0, np.int64)])


def _scan_leaves(ctx: _RenderContext, r_lo: int, r_hi: int, ray_a, ray_b):
    """Leaf records (elements, ray_ids, j_lo, j_hi) of the rays [r_lo, r_hi):
    the rays with samples inside each leaf box, tile-local ids, and their
    grid ranges, leaf by leaf in ``tree.leaves`` order.

    A leaf is tested on the tile's rays inside its pixel rectangle
    (``_leaf_frames``), whose local origins are linear in (a, b), with one
    ``slab_intervals`` call on the leaf's own box: those calls define the
    render's samples, and a tracer may count the samples from them alone.
    Every element lies in its leaf's box, so the leaves alone find every
    sample an element can claim; internal nodes keep no box.
    """
    det, lf, step = ctx.detector, ctx.leaves, ctx.settings.step
    i0, i1, k0, k1 = lf.rect.T
    row_lo, row_hi = r_lo // det.nu, (r_hi - 1) // det.nu
    records = []
    for k in np.flatnonzero((i0 <= i1) & (k0 <= row_hi) & (k1 >= row_lo)):
        rows = np.arange(max(k0[k], row_lo), min(k1[k], row_hi) + 1)
        ids = (rows[:, None] * det.nu + np.arange(i0[k], i1[k] + 1)).ravel()
        ids = ids[(ids >= r_lo) & (ids < r_hi)] - r_lo
        if not ids.size:
            continue
        box = lf.leaves[k].obb.box
        o_local = _lane_origins(lf.c[k], lf.u[k], lf.v[k], ray_a[ids], ray_b[ids])
        te, tx, _ = slab_intervals(o_local, lf.inv_d[k], lf.d[k], box.pmin, box.pmax)
        _add_record(records, lf.leaves[k].elements, ids, te, tx, step)
    return records


def _add_record(records, elems, ids, t_enter, t_exit, step: float):
    """Append (elems, ray_ids, j_lo, j_hi) for the rays whose slab interval
    holds grid points; a missed box has an empty range."""
    j_lo, j_hi = _grid_range(t_enter, t_exit, step)
    full = np.flatnonzero(j_hi >= j_lo)
    if full.size:
        records.append((elems, ids[full], j_lo[full], j_hi[full]))


def _count_samples(records, span: int) -> int:
    """Grid points in the per-ray union of the leaf records' ranges, every
    j_hi below ``span``.

    With the ranges sorted by (ray, j_lo), each adds the points past the
    farthest end of the ranges before it.  Ray-major keys ray * span + j
    sort by (ray, j) and keep the running maximum inside the ray.
    """
    ray, j_lo, j_hi = (np.concatenate(c) for c in list(zip(*records))[1:])
    lo = ray * span + j_lo
    order = np.argsort(lo)
    lo = lo[order]
    hi = (ray * span + j_hi)[order]
    reach = np.maximum.accumulate(np.concatenate(([lo[0] - 1], hi[:-1])))
    return int(np.maximum(hi - np.maximum(reach, lo - 1), 0).sum())


# pixel rows and (ray, element) candidates enumerated, box-tested and
# clipped at once, and (sample, element) lanes per Newton batch; the one cap
# keeps the transient arrays of a tile bounded, and a Newton batch's arrays
# (the residual check gathers the nodes of each accepted lane) set the
# render's peak memory
NEWTON_CHUNK = 8192
# samples per tile, counting every ray at the grid points on the longest
# model box chord along the rays; bounds the per-tile arrays that scale
# with the samples
TILE_SAMPLES = 1 << 17


def _split_runs(start, count, budget: int):
    """Cut the runs start .. start + count - 1 (count >= 1) into runs of at
    most ``budget``: (index of the cut run, start, count) per piece."""
    pieces = (count - 1) // budget + 1
    src = np.repeat(np.arange(count.size), pieces)
    off = _ragged_arange(np.zeros_like(pieces), pieces) * budget
    return src, start[src] + off, np.minimum(count[src] - off, budget)


def _footprint_runs(ctx: _RenderContext, e, r_lo: int, n: int, budget: int):
    """Yield (ray0, element, count) column runs of the candidate elements
    ``e``: the tile-local rays ray0 .. ray0 + count - 1 of the tile's
    ``n`` rays are the element's candidate rays.  Runs hold at most
    ``budget`` rays and come at most ``budget`` rows at a time.

    Each element's depth window is its box's depth range cut to the model's
    grid points [t(J_lo), t(J_hi)], t(j) = (j + 1/2) * step.  A pair can
    keep a sample only at a t of that window, and face f keeps it only where
    n_a * a + n_b * b + n_t * t <= offset: so only where
    n_a * a + n_b * b <= offset - min(n_t * t) over the window.  Each pixel
    row of the element box's footprint inside the tile gets one column
    interval, the box's cut by that half-plane of every face
    (``_row_runs``).  The runs are a superset of the pairs the box test and
    ``_depth_clip`` keep within [J_lo, J_hi], as ``_pairs_of_runs`` then
    applies both.
    """
    det, clip, step = ctx.detector, ctx.clip, ctx.settings.step
    nu, pitch = det.nu, det.pitch
    j_lo, j_hi = ctx.grid
    t0 = np.maximum(clip.t_lo[e], (j_lo + 0.5) * step)
    t1 = np.minimum(clip.t_hi[e], (j_hi + 0.5) * step)
    # the clip's plane values, depth bounds and grid indices round within
    # ~1e-14 of this scale; a slack far above that and far below a pixel
    # keeps every pair the clip keeps and adds few others
    slack = 1e-9 * (step + max(np.abs(clip.lo[e]).max(), np.abs(clip.hi[e]).max()))
    # the box rows inside the tile, the box grown by the slack for the
    # roundoff of k * pitch
    row_lo, row_hi = r_lo // nu, (r_lo + n - 1) // nu
    k_a = np.clip(np.ceil((clip.lo[e, 1] - slack) / pitch), row_lo, row_hi + 1).astype(np.int64)
    k_b = np.clip(np.floor((clip.hi[e, 1] + slack) / pitch), row_lo - 1, row_hi).astype(np.int64)
    live = np.flatnonzero((t0 <= t1 + slack) & (k_a <= k_b))
    e, t0, t1 = e[live], t0[live], t1[live]
    n_t = clip.n_t[:, e]
    entries = (e, clip.offset[:, e] - np.minimum(n_t * t0, n_t * t1) + slack)
    rows = _split_runs(k_a[live], k_b[live] - k_a[live] + 1, budget)
    for src, k0, n_rows in _regroup([rows], budget, weight=2):
        yield _row_runs(ctx, entries, src, k0, n_rows, r_lo, n, slack, budget)


def _row_runs(
    ctx: _RenderContext, entries, src, k0, n_rows, r_lo: int, n: int, slack: float, budget: int
):
    """The column runs (ray0, element, count) of the pixel rows
    k0 .. k0 + n_rows - 1 of the ``entries`` ``src``: (element, (4, entries)
    right-hand sides c0 of the faces' half-planes n_a * a + n_b * b <= c0).

    In a row, a face with n_a > 0 bounds a from above, one with n_a < 0 from
    below, and one with n_a == 0 keeps the row or drops it whole.  The sign
    is tested on n_a itself, as c / n_a at n_a == -0.0 has the flipped sign.
    The box grows by the slack for the roundoff of i * pitch, and the
    columns are cut to the detector and the tile.
    """
    clip, det = ctx.clip, ctx.detector
    nu, pitch = det.nu, det.pitch
    ent = np.repeat(src, n_rows)
    k = _ragged_arange(k0, n_rows)
    e, rhs = entries
    e = e[ent]
    b = k * pitch
    a_lo = clip.lo[e, 0] - slack
    a_hi = clip.hi[e, 0] + slack
    empty = np.zeros(e.size, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for f in range(len(TET_FACES)):
            n_a = clip.n_a[f][e]
            c = rhs[f][ent] - clip.n_b[f][e] * b
            q = c / n_a
            np.maximum(a_lo, np.where(n_a < 0.0, q, -np.inf), out=a_lo)
            np.minimum(a_hi, np.where(n_a > 0.0, q, np.inf), out=a_hi)
            empty |= (n_a == 0.0) & (c < 0.0)
    first = r_lo - k * nu  # the column of tile-local ray 0 in row k
    i_lo = np.maximum(np.ceil(a_lo / pitch), np.maximum(first, 0))
    i_hi = np.minimum(np.floor(a_hi / pitch), np.minimum(first + n - 1, nu - 1))
    run = np.flatnonzero((i_lo <= i_hi) & ~empty)
    i_lo = i_lo[run].astype(np.int64)
    count = i_hi[run].astype(np.int64) - i_lo + 1
    src, ray0, count = _split_runs(i_lo - first[run], count, budget)
    return ray0, e[run][src], count


def _pairs_of_runs(ctx: _RenderContext, ray_a, ray_b, ray0, elem, count):
    """The clipped pairs (ray, element, j1, counts) of a batch of column
    runs: each pair whose ray crosses the element box's (a, b) footprint is
    clipped by ``_depth_clip``, and its grid range is cut to [J_lo, J_hi]."""
    clip = ctx.clip
    ray = _ragged_arange(ray0, count)
    e = np.repeat(elem, count)
    a, b = ray_a[ray], ray_b[ray]
    keep = np.flatnonzero(
        (a >= clip.lo[e, 0]) & (a <= clip.hi[e, 0]) & (b >= clip.lo[e, 1]) & (b <= clip.hi[e, 1])
    )
    ray, e, a, b = ray[keep], e[keep], a[keep], b[keep]
    t_in, t_out = _depth_clip(clip, a, b, e)
    j1, j2 = _grid_range(t_in, t_out, ctx.settings.step)
    j1 = np.maximum(j1, ctx.grid[0])
    j2 = np.minimum(j2, ctx.grid[1])
    keep = np.flatnonzero(j2 >= j1)
    return ray[keep], e[keep], j1[keep], j2[keep] - j1[keep] + 1


def _clipped_pairs(ctx: _RenderContext, elems, ray_a, ray_b, r_lo: int):
    """Yield (ray, element, j1, counts) for the (ray, element) pairs of the
    candidate elements ``elems`` and the tile's rays, with candidate samples
    j1 .. j1 + counts - 1: the grid points inside the element clip and
    inside [J_lo, J_hi].

    The pairs are enumerated from each element's clip cross-section
    (``_footprint_runs``), so no (elements x rays) mask is built, and are
    box-tested and clipped at most ``NEWTON_CHUNK`` candidates at a time.
    Each element is a candidate once, so a pair arises once per tile.
    """
    budget = NEWTON_CHUNK
    runs = _footprint_runs(ctx, elems, r_lo, ray_a.size, budget)
    for ray0, elem, count in _regroup(runs, budget, weight=2):
        pairs = _pairs_of_runs(ctx, ray_a, ray_b, ray0, elem, count)
        if pairs[0].size:
            yield pairs


def _render_block(ctx: _RenderContext, r_lo: int, r_hi: int):
    """Projected density (and mu integral) of the rays [r_lo, r_hi), flat."""
    settings = ctx.settings
    step = settings.step
    n_rays = r_hi - r_lo
    pd = np.zeros(n_rays)
    mu = np.zeros(n_rays) if ctx.want_mu else None
    stats = RenderStats(rays=n_rays)

    elems = _tile_elements(ctx, r_lo, r_hi)
    if not elems.size:
        return pd, mu, stats
    ray_a, ray_b = _block_rays(ctx, r_lo, r_hi)
    records = _scan_leaves(ctx, r_lo, r_hi, ray_a, ray_b)
    if records:
        # an oriented leaf box can reach past the model's depth range, so
        # the count keys the leaf ranges by their own span
        stats.samples = _count_samples(records, max(int(rec[3].max()) for rec in records) + 1)
    del records

    # a lane's grid point (ray, j) has j <= J_hi; claims are keyed
    # ray * span + j, which sorts like (ray, j)
    span = int(ctx.grid[1]) + 1
    det = ctx.detector
    claims_k: list[np.ndarray] = []
    claims_e: list[np.ndarray] = []
    claims_rho: list[np.ndarray] = []
    # batches of whole pairs, weighted by their lane counts, share one
    # Newton workspace; it is dropped before the claims are resolved
    work = newton_workspace(NEWTON_CHUNK)
    pairs = _clipped_pairs(ctx, elems, ray_a, ray_b, r_lo)
    for ray, elem, j1, counts in _regroup(pairs, NEWTON_CHUNK, weight=3):
        lane_r = np.repeat(ray, counts)
        lane_j = _ragged_arange(j1, counts)
        lane_e = np.repeat(elem, counts)
        # the lane points origin + t * normal, built column by column
        pts = _lane_origins(det.origin, det.axis_u, det.axis_v, ray_a[lane_r], ray_b[lane_r])
        t = (lane_j + 0.5) * step
        tn = np.empty_like(t)
        for c in range(3):
            np.add(pts[:, c], np.multiply(t, det.normal[c], out=tn), out=pts[:, c])
        rho = np.empty(lane_e.size)
        inside, _, iters, converged = membership_test(
            ctx.mesh, lane_e, pts, settings.newton, settings.geom_tol, ctx.frames, ctx.values, rho,
            work,
        )
        stats.pairs_tested += lane_e.size
        stats.pairs_inside += int(np.count_nonzero(inside))
        stats.newton_iterations += int(iters.sum())
        stats.non_converged += int(np.count_nonzero(~converged))
        if not inside.any():
            continue
        claims_rho.append(rho[inside])
        claims_k.append(lane_r[inside] * span + lane_j[inside])
        claims_e.append(lane_e[inside])
    del work

    if claims_k:
        ck = np.concatenate(claims_k)
        ce = np.concatenate(claims_e)
        cr = np.concatenate(claims_rho)
        # winner per sample: the claim of the lowest element id
        perm = np.lexsort((ce, ck))
        ck, cr = ck[perm], cr[perm]
        win, first = np.unique(ck, return_index=True)
        stats.samples_multi_claimed = int(np.count_nonzero(np.diff(first, append=ck.size) > 1))
        win_ray, rho = win // span, cr[first]
        pd = np.bincount(win_ray, weights=step * rho, minlength=n_rays)
        if ctx.want_mu:
            mu = np.bincount(win_ray, weights=step * ctx.model.mu_of_rho(rho), minlength=n_rays)

    return pd, mu, stats


def _worker_block(tile):
    return _render_block(_WORKER_CTX, *tile)


def _init_worker(ctx):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _depth_points(box: Aabb, direction: np.ndarray, step: float) -> int:
    """Global grid points on the longest chord of ``box`` along the unit
    ``direction``: the samples a ray through the model box can hold."""
    d = np.abs(direction)
    along = d > 0.0
    chord = float(np.min(box.extents[along] / d[along]))
    return math.floor(chord / step) + 1


def _ray_tiles(n_rays: int, depth_points: int) -> list[tuple[int, int]]:
    """Contiguous ray ranges [lo, hi) of at most ``TILE_SAMPLES`` samples."""
    per_tile = max(1, TILE_SAMPLES // depth_points)
    return [(lo, min(lo + per_tile, n_rays)) for lo in range(0, n_rays, per_tile)]


def render(
    mesh: Mesh,
    field: NodalField,
    detector: Detector,
    settings: IntegrationSettings,
    model: AttenuationModel | None = None,
    tree: ObbTree | None = None,
    workers: int = 1,
    brute_force: bool = False,
) -> ProjectionImage:
    """Render the full detector grid.

    ``brute_force`` drops the OBB tree: every ray samples the model box
    interval and every element is a candidate (same claim rule); on any
    mesh this is bitwise-identical to the accelerated path.  The rays run
    in tiles of a fixed sample budget, serially or, for ``workers`` > 1, in
    an ordered pool of up to ``workers`` processes; images are
    bitwise-identical across worker counts.  A ``step`` that puts no depth
    grid point inside the model box's depth range (from t = 0 on) is
    rejected, as it would render a blank image.
    """
    check_field(mesh, field)
    if (field.values < 0.0).any():
        raise ValueError("density field must be non-negative for rendering")
    _check_count("workers", workers)
    t0 = time.perf_counter()
    box, clip = _box_and_clip(mesh, detector)
    if float(np.linalg.norm(box.extents)) / settings.step >= 2**31:
        raise ValueError("step too small for the model extent (sample index overflow)")
    # the model box's depth range along the rays, from t = 0 on: a step with
    # no grid point in it would render a blank image
    depth = (np.where(_BOX_CORNERS, box.pmax, box.pmin) - detector.origin) @ detector.normal
    grid = _grid_range(depth.min(), depth.max(), settings.step)
    if depth.max() >= 0.0 and grid[1] < grid[0]:
        raise ValueError(
            f"step {settings.step:g} puts no depth grid point (j + 1/2) * step inside "
            f"the model's depth range [{max(depth.min(), 0.0):g}, {depth.max():g}]"
        )
    if tree is not None and tree.mesh is not mesh and not (
        np.array_equal(tree.mesh.nodes, mesh.nodes)
        and np.array_equal(tree.mesh.elements, mesh.elements)
    ):
        raise ValueError("tree was built over another mesh (nodes or elements differ)")
    ctx = _render_context(mesh, field, detector, settings, model, tree, brute_force, box, clip, grid)

    tiles = _ray_tiles(detector.n_rays, _depth_points(box, detector.normal, settings.step))
    density = np.empty(detector.n_rays)
    mu = np.empty(detector.n_rays) if ctx.want_mu else None
    stats = RenderStats()
    with contextlib.ExitStack() as stack:
        if workers == 1:
            results = (_render_block(ctx, lo, hi) for lo, hi in tiles)
        else:
            import multiprocessing as mp

            pool = stack.enter_context(
                mp.get_context().Pool(
                    min(workers, len(tiles)), initializer=_init_worker, initargs=(ctx,)
                )
            )
            results = pool.imap(_worker_block, tiles)
        for (lo, hi), (tile_pd, tile_mu, tile_stats) in zip(tiles, results):
            density[lo:hi] = tile_pd
            if mu is not None:
                mu[lo:hi] = tile_mu
            stats.merge(tile_stats)
    density = density.reshape(detector.nv, detector.nu)
    stats.wall_time = time.perf_counter() - t0

    intensity = None
    if model is not None:
        if model.variant == "identity":
            integral = density
        elif model.variant == "linear":
            integral = model.kappa * density
        else:
            integral = mu.reshape(detector.nv, detector.nu)
        intensity = attenuate(integral, model)

    return ProjectionImage(density, detector.pitch, intensity, stats)


def image_mass(img: ProjectionImage) -> float:
    """Total mass in g: sum of pixels times pixel area."""
    return float(img.density.sum() * img.pitch**2)


def error_map(img: ProjectionImage, oracle: np.ndarray) -> ProjectionImage:
    """Per-pixel absolute difference against an analytic oracle grid."""
    oracle = np.asarray(oracle, dtype=np.float64)
    if oracle.shape != img.density.shape:
        raise ValueError(
            f"oracle grid {oracle.shape} does not match image {img.density.shape}"
        )
    return ProjectionImage(np.abs(img.density - oracle), img.pitch)
