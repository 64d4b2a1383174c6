"""Orthographic detector, ray integration, attenuation and render driver.

Sampling scheme: rays carry a global equidistant grid t_j = (j + 1/2) * step
anchored at the emission plane; a sample is evaluated iff t_j falls inside
the union of the leaf box intervals hit by the ray (clamped to t >= 0).
Restricting to the leaf intervals is result-identical to sampling the whole
depth because samples outside every leaf box lie outside every element and
contribute exactly zero; the global anchoring makes the tree-accelerated,
brute-force and multi-worker paths produce bitwise-identical images.

``render`` traverses the tree in detector-frame coordinates: all rays share
one direction, so a ray is origin + a * axis_u + b * axis_v + t * normal and
its origin in any box frame is linear in its pixel offsets (a, b).  Each
leaf record's depth interval becomes a grid range; the ranges are merged
per ray into the sample list, and each record entry keeps the offset that
maps its grid indices to sample indices.

Point location then runs as one pass over (ray, element) pairs, taken from
the leaf records in chunks of bounded size.  Each pair's ray is clipped
to the element's box (in the detector frame) intersected with the four face
half-spaces of its corner tetrahedron, each plane pushed out to the farthest
Bezier control point.  A quadratic element lies inside the convex hull of its control net,
hence inside that clip, so the clip drops only (sample, element) pairs
Newton would reject.  The surviving samples go to ``membership_test`` in
fixed-size lane batches, each lane carrying its own element id; the Newton
reference frames of all elements are built once per render.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .locate import NewtonSettings, _element_frames, _ElementFrames, membership_test
from .mesh import TET_FACES, Mesh, NodalField, interpolate_values
from .raycast import halfspace_intervals, slab_intervals, tet_entry
from .spatial import Aabb, ObbTree, build_obb_tree, element_bounding_points, model_aabb

FACE_SELECTORS = {
    "+x": (0, 1.0),
    "-x": (0, -1.0),
    "+y": (1, 1.0),
    "-y": (1, -1.0),
    "+z": (2, 1.0),
    "-z": (2, -1.0),
}

# the per-element clip (box and face planes) is pushed out by this fraction of
# the element box diagonal; covers the in-hull tolerance shell and the Newton
# residual bound with room to spare
ELEMENT_BOX_MARGIN = 1e-6


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
        if self.nu < 1 or self.nv < 1:
            raise ValueError("detector needs at least one pixel per axis")
        if not self.pitch > 0.0:
            raise ValueError("pixel pitch must be positive")
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
    max_leaf_elements: int = 10
    newton: NewtonSettings = dataclasses.field(default_factory=NewtonSettings)
    geom_tol: float = 1e-8

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.max_leaf_elements < 1:
            raise ValueError("max_leaf_elements must be >= 1")
        if not self.geom_tol >= 0.0:
            raise ValueError("geom_tol must be non-negative")


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
        if self.variant not in ("identity", "linear", "table"):
            raise ValueError(f"unknown attenuation variant {self.variant!r}")
        if self.variant == "linear" and not self.kappa >= 0.0:
            raise ValueError("kappa must be non-negative")
        if self.variant == "table":
            rho = np.asarray(self.table_rho, dtype=np.float64)
            mu = np.asarray(self.table_mu, dtype=np.float64)
            if rho.ndim != 1 or rho.shape != mu.shape or rho.size < 2:
                raise ValueError("lookup table needs >= 2 matching entries")
            if not (np.diff(rho) > 0.0).all():
                raise ValueError("lookup table densities must increase strictly")
            if not (np.isfinite(rho).all() and np.isfinite(mu).all()):
                raise ValueError("lookup table contains non-finite values")
            object.__setattr__(self, "table_rho", rho)
            object.__setattr__(self, "table_mu", mu)
        if not self.i_in > 0.0:
            raise ValueError("source intensity must be positive")

    def mu_of_rho(self, rho: np.ndarray) -> np.ndarray:
        return np.interp(rho, self.table_rho, self.table_mu)


def attenuate(projected_mu_integral: float, model: AttenuationModel):
    """Beer-Lambert transmitted intensity I_in * exp(-integral)."""
    return model.i_in * np.exp(-np.asarray(projected_mu_integral, dtype=np.float64))


@dataclass
class RenderStats:
    """Render counters; ``pairs_tested`` counts (sample, element) pairs sent
    to Newton, ``pairs_inside`` those accepted.  ``newton_iterations`` counts
    Newton kernel iterations: a lane of a straight element, solved in closed
    form, counts 1, and computing the corner-tetrahedron start is not
    counted."""

    rays: int = 0
    samples: int = 0
    pairs_tested: int = 0
    pairs_inside: int = 0
    newton_iterations: int = 0
    non_converged: int = 0
    wall_time: float = 0.0

    def merge(self, other: "RenderStats") -> None:
        self.rays += other.rays
        self.samples += other.samples
        self.pairs_tested += other.pairs_tested
        self.pairs_inside += other.pairs_inside
        self.newton_iterations += other.newton_iterations
        self.non_converged += other.non_converged

    def to_text(self) -> str:
        return (
            f"rays = {self.rays}\n"
            f"samples = {self.samples}\n"
            f"pairs_tested = {self.pairs_tested}\n"
            f"pairs_inside = {self.pairs_inside}\n"
            f"newton_iterations = {self.newton_iterations}\n"
            f"non_converged = {self.non_converged}\n"
            f"wall_time_s = {self.wall_time:.3f}\n"
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

    Either ``rays_per_cm2`` (pixel pitch 1/sqrt of it, pixel counts from the
    face extents) or an explicit ``pitch``/``nu``/``nv`` grid must be given.
    Ray direction is the inward face normal.
    """
    if face not in FACE_SELECTORS:
        raise ValueError(
            f"invalid face {face!r}; expected one of {sorted(FACE_SELECTORS)}"
        )
    axis, sign = FACE_SELECTORS[face]
    if rays_per_cm2 is not None:
        if not rays_per_cm2 > 0.0:
            raise ValueError("rays_per_cm2 must be positive")
        pitch = 1.0 / math.sqrt(rays_per_cm2)
    if pitch is None or not pitch > 0.0:
        raise ValueError("either rays_per_cm2 or a positive pitch is required")
    u_ax = (axis + 1) % 3
    v_ax = (axis + 2) % 3
    if nu is None or nv is None:
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
    return Detector(origin, axis_u, axis_v, normal, int(nu), int(nv), float(pitch))


def default_face(box: Aabb) -> str:
    """Emission face on the positive side of the longest box axis."""
    axis = int(np.argmax(box.extents))
    return ("+x", "+y", "+z")[axis]


def _grid_range(t_enter, t_exit, step: float):
    """Global-grid sample index range [j_lo, j_hi] inside an interval.

    Non-finite intervals (rays that miss a box via a zero-direction axis)
    yield an empty range.
    """
    a = np.maximum(t_enter, 0.0)
    with np.errstate(invalid="ignore"):
        lo = np.ceil(a / step - 0.5)
        hi = np.floor(t_exit / step - 0.5)
    bad = ~(np.isfinite(lo) & np.isfinite(hi))
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
    """Per-element clip volumes in detector-frame coordinates.

    A point origin + a * axis_u + b * axis_v + t * normal has frame
    coordinates (a, b, t).  It lies in element e's clip when it is inside
    the box [lo[e], hi[e]] and ``normals[e, f] . (a, b, t) <= offsets[e, f]``
    for each face f.
    """

    lo: np.ndarray  # (n_elements, 3)
    hi: np.ndarray
    normals: np.ndarray  # (n_elements, 4, 3) unit outward normals
    offsets: np.ndarray  # (n_elements, 4)


def _element_clip(mesh: Mesh, det: Detector) -> _ElementClip:
    """Box and face planes enclosing each element's Bezier control net.

    Each plane keeps its corner-face normal and moves out to the farthest
    control point; box and planes then grow by the margin.  Built in the
    detector frame, where every ray runs along t at fixed (a, b); for the
    axis-aligned detectors of ``make_detector`` the box is the world box.
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
    return _ElementClip(lo - margin, hi + margin, normals, offsets)


_FRAME_DIRECTION = np.array([0.0, 0.0, 1.0])


def _clip_pairs(clip: _ElementClip, a: np.ndarray, b: np.ndarray, e: np.ndarray):
    """Clip the rays at detector-frame (a, b) to the elements e, pair by pair.

    Returns (kept, t_in, t_out): the indices of the pairs whose ray crosses
    the element's box footprint, and their clipped depth range, empty when
    t_in > t_out.
    """
    lo, hi = clip.lo[e], clip.hi[e]
    kept = np.flatnonzero(
        (a >= lo[:, 0]) & (a <= hi[:, 0]) & (b >= lo[:, 1]) & (b <= hi[:, 1])
    )
    e = e[kept]
    o = np.stack([a[kept], b[kept], np.zeros(kept.size)], axis=-1)
    h1, h2 = halfspace_intervals(o, _FRAME_DIRECTION, clip.normals[e], clip.offsets[e])
    return kept, np.maximum(lo[kept, 2], h1), np.minimum(hi[kept, 2], h2)


@dataclass
class _RenderContext:
    mesh: Mesh
    values: np.ndarray
    tree: ObbTree | None
    brute_box: Aabb | None
    detector: Detector
    settings: IntegrationSettings
    want_mu: bool
    model: AttenuationModel | None
    clip: _ElementClip
    corners: np.ndarray  # (n_elements, 4, 3)
    frames: _ElementFrames  # Newton reference frames of all elements


def _render_context(mesh, field, detector, settings, model, tree, brute_force):
    """Per-render state shared by all row blocks; builds the tree if none is given."""
    if brute_force:
        tree = None
        brute_box = model_aabb(mesh)
    else:
        tree = tree or build_obb_tree(mesh, settings.max_leaf_elements)
        brute_box = None
    return _RenderContext(
        mesh=mesh,
        values=field.values,
        tree=tree,
        brute_box=brute_box,
        detector=detector,
        settings=settings,
        want_mu=model is not None and model.variant == "table",
        model=model,
        clip=_element_clip(mesh, detector),
        corners=mesh.corner_coords(),
        frames=_element_frames(mesh.nodes[mesh.elements]),
    )


_WORKER_CTX: _RenderContext | None = None


def _lane_origins(c, u, v, a, b):
    """Origins c + a * u + b * v of the rays at detector-frame (a, b)."""
    return c + a[:, None] * u + b[:, None] * v


def _block_rays(ctx: _RenderContext, v_lo: int, v_hi: int):
    """Ray origins of detector rows [v_lo, v_hi) and their frame coordinates (a, b)."""
    det = ctx.detector
    i_idx = np.tile(np.arange(det.nu, dtype=np.int64), v_hi - v_lo)
    j_idx = np.repeat(np.arange(v_lo, v_hi, dtype=np.int64), det.nu)
    a = i_idx * det.pitch
    b = j_idx * det.pitch
    return _lane_origins(det.origin, det.axis_u, det.axis_v, a, b), a, b


def _slab_hits(c, u, v, d, inv_d, box: Aabb, a, b):
    """``slab_intervals(...)[2]`` for the origins c + a * u + b * v, one axis
    at a time on the (a, b) lanes instead of on (n, 3) origins."""
    hit = t_enter = t_exit = None
    for k in range(3):
        o = c[k] + a * u[k] + b * v[k]
        if d[k] == 0.0:
            inside = (o >= box.pmin[k]) & (o <= box.pmax[k])
            hit = inside if hit is None else hit & inside
            continue
        t1 = (box.pmin[k] - o) * inv_d[k]
        t2 = (box.pmax[k] - o) * inv_d[k]
        lo, hi = (t1, t2) if inv_d[k] > 0.0 else (t2, t1)
        t_enter = lo if t_enter is None else np.maximum(t_enter, lo)
        t_exit = hi if t_exit is None else np.minimum(t_exit, hi)
    slab = (t_enter <= t_exit) & (t_exit >= 0.0)
    return slab if hit is None else hit & slab


def _traverse_block(ctx: _RenderContext, ray_a: np.ndarray, ray_b: np.ndarray):
    """Vectorized tree traversal of the rays at detector-frame (a, b).

    Returns leaf records (elements, ray_ids, j_lo, j_hi): the rays with
    samples inside the leaf box and their grid ranges.  In a node's frame a
    ray's origin is c + a * U + b * V, with c, U, V the detector origin and
    axes in that frame, so a node rotates four 3-vectors instead of every
    ray origin.  Internal nodes test the lanes with ``_slab_hits``.  Leaf
    nodes build the local origins and call ``slab_intervals`` on them: the
    leaf-box slab calls define the render's samples, and a tracer may count
    the samples from those calls alone.
    """
    det = ctx.detector
    step = ctx.settings.step
    records = []
    if ctx.tree is None:
        box = ctx.brute_box
        with np.errstate(divide="ignore"):
            inv_d = 1.0 / det.normal
        origins = _lane_origins(det.origin, det.axis_u, det.axis_v, ray_a, ray_b)
        te, tx, _ = slab_intervals(origins, inv_d, det.normal, box.pmin, box.pmax)
        all_elems = np.arange(ctx.mesh.n_elements, dtype=np.int64)
        _add_record(records, all_elems, np.arange(ray_a.size, dtype=np.int64), te, tx, step)
        return records
    det_axes = np.stack([det.axis_u, det.axis_v, det.normal])
    stack = [(ctx.tree.root, np.arange(ray_a.size, dtype=np.int64))]
    while stack:
        node, ids = stack.pop()
        basis, box = node.obb.basis, node.obb.box
        c = basis.to_local(det.origin)
        u, v, d = basis.rotate(det_axes)
        with np.errstate(divide="ignore"):
            inv_d = 1.0 / d
        a, b = ray_a[ids], ray_b[ids]
        if node.is_leaf:
            o_local = _lane_origins(c, u, v, a, b)
            te, tx, _ = slab_intervals(o_local, inv_d, d, box.pmin, box.pmax)
            _add_record(records, node.elements, ids, te, tx, step)
            continue
        keep = ids[_slab_hits(c, u, v, d, inv_d, box, a, b)]
        if keep.size:
            stack.append((node.right, keep))
            stack.append((node.left, keep))
    return records


def _add_record(records, elems, ids, t_enter, t_exit, step: float):
    """Append (elems, ray_ids, j_lo, j_hi) for the rays whose slab interval
    holds grid points; a missed box has an empty range."""
    j_lo, j_hi = _grid_range(t_enter, t_exit, step)
    full = np.flatnonzero(j_hi >= j_lo)
    if full.size:
        records.append((elems, ids[full], j_lo[full], j_hi[full]))


def _merge_ranges(ray: np.ndarray, j_lo: np.ndarray, j_hi: np.ndarray):
    """Per-ray union of at least one non-empty grid range [j_lo, j_hi].

    Returns (s_ray, s_j, base): the samples in (ray, j) order, and per range
    the offset that makes base + j the index of sample (ray, j) for every j
    in the range.  Ranges are sorted by (ray, j_lo) and a range that starts
    at most one past the running maximum of the ray's earlier ends joins
    their merged run.  Grid indices are non-negative.
    """
    # ray-major keys: sorting them sorts by (ray, j_lo), and their running
    # maximum restarts with every ray
    span = int(j_hi.max()) + 2
    key = ray * span
    key += j_lo
    order = np.argsort(key, kind="stable")
    key = key[order]
    r = ray[order]
    reach = r * span
    reach += j_hi[order]
    np.maximum.accumulate(reach, out=reach)
    start = np.empty(order.size, dtype=bool)
    start[0] = True
    np.greater(key[1:], reach[:-1] + 1, out=start[1:])
    del key
    first = np.flatnonzero(start)
    last = np.append(first[1:] - 1, order.size - 1)
    run_lo = j_lo[order[first]]
    counts = reach[last] - r[last] * span - run_lo + 1
    run_base = np.cumsum(counts) - counts - run_lo
    base = np.empty(ray.size, dtype=np.int64)
    base[order] = np.repeat(run_base, np.diff(np.append(first, order.size)))
    return np.repeat(r[first], counts), _ragged_arange(run_lo, counts), base


def _merge_records(records):
    """Samples of the leaf records and the records with their sample offsets.

    Returns (records, s_ray, s_j): each record gains a fifth column, base,
    with base + j the index of its ray's sample j.  The merge temporaries
    die with this call.
    """
    s_ray, s_j, base = _merge_ranges(*(np.concatenate(c) for c in list(zip(*records))[1:]))
    ends = np.cumsum([rec[1].size for rec in records])
    return [rec + (b,) for rec, b in zip(records, np.split(base, ends[:-1]))], s_ray, s_j


# (ray, element) pairs clipped at once, and (sample, element) lanes per
# membership_test call; both keep the transient arrays of a block bounded
PAIR_CHUNK = 16384
NEWTON_CHUNK = 32768


def _pair_chunks(records, budget: int):
    """Yield (ray, element, j_lo, j_hi, base) arrays, one entry per (ray, element) pair.

    Leaf records are packed whole up to ``budget`` pairs; a larger record is
    split by rays, so only a single ray meeting more than ``budget`` elements
    makes a larger chunk.  ``j_lo``/``j_hi``/``base`` are the record's.
    """
    parts, size = [], 0
    for elems, ids, *cols in records:
        rays_per_part = max(1, budget // elems.size)
        for lo in range(0, ids.size, rays_per_part):
            part = slice(lo, lo + rays_per_part)
            n = ids[part].size * elems.size
            if parts and size + n > budget:
                yield _expand_pairs(parts)
                parts, size = [], 0
            parts.append((elems, ids[part], *(col[part] for col in cols)))
            size += n
    if parts:
        yield _expand_pairs(parts)


def _expand_pairs(parts):
    cols = [
        (np.repeat(ids, elems.size), np.tile(elems, ids.size))
        + tuple(np.repeat(col, elems.size) for col in ray_cols)
        for elems, ids, *ray_cols in parts
    ]
    return tuple(np.concatenate(c) for c in zip(*cols))


def _render_block(ctx: _RenderContext, v_lo: int, v_hi: int):
    det = ctx.detector
    settings = ctx.settings
    step = settings.step
    n_rays = (v_hi - v_lo) * det.nu
    pd = np.zeros(n_rays)
    mu = np.zeros(n_rays) if ctx.want_mu else None
    stats = RenderStats(rays=n_rays)

    origins, ray_a, ray_b = _block_rays(ctx, v_lo, v_hi)
    records = _traverse_block(ctx, ray_a, ray_b)
    if not records:
        return pd.reshape(v_hi - v_lo, det.nu), (
            mu.reshape(v_hi - v_lo, det.nu) if mu is not None else None
        ), stats

    # global-grid samples, merged across overlapping leaf intervals
    records, s_ray, s_j = _merge_records(records)
    pts = origins[s_ray] + ((s_j + 0.5) * step)[:, None] * det.normal
    m = s_ray.shape[0]
    stats.samples = m
    del s_j

    d = det.normal
    # candidate samples per (ray, element) pair: those inside the element
    # clip, intersected with the record's own range so each (sample, element)
    # claim arises once
    claims_s: list[np.ndarray] = []
    claims_t: list[np.ndarray] = []
    claims_e: list[np.ndarray] = []
    claims_rho: list[np.ndarray] = []
    for ray, elem, rec_jlo, rec_jhi, base in _pair_chunks(records, PAIR_CHUNK):
        kept, t_in, t_out = _clip_pairs(ctx.clip, ray_a[ray], ray_b[ray], elem)
        j1, j2 = _grid_range(t_in, t_out, step)
        j1 = np.maximum(j1, rec_jlo[kept])
        j2 = np.minimum(j2, rec_jhi[kept])
        keep = j2 >= j1
        if not keep.any():
            continue
        kept = kept[keep]
        ray, elem, j1 = ray[kept], elem[kept], j1[keep]
        counts = j2[keep] - j1 + 1
        t_guess, _ = tet_entry(origins[ray], d, ctx.corners[elem])
        sidx = _ragged_arange(base[kept] + j1, counts)
        lane_e = np.repeat(elem, counts)
        lane_t = np.repeat(t_guess, counts)
        for lo in range(0, sidx.size, NEWTON_CHUNK):
            ch = slice(lo, lo + NEWTON_CHUNK)
            s_ch, e_ch = sidx[ch], lane_e[ch]
            inside, xi, iters, converged = membership_test(
                ctx.mesh, e_ch, pts[s_ch], settings.newton, settings.geom_tol, ctx.frames
            )
            stats.pairs_tested += s_ch.size
            stats.pairs_inside += int(np.count_nonzero(inside))
            stats.newton_iterations += int(iters.sum())
            stats.non_converged += int(np.count_nonzero(~converged))
            if not inside.any():
                continue
            e_in = e_ch[inside]
            claims_rho.append(
                interpolate_values(
                    ctx.values[ctx.mesh.elements[e_in]].T, xi[inside], ctx.mesh.order
                )
            )
            claims_s.append(s_ch[inside])
            claims_t.append(lane_t[ch][inside])
            claims_e.append(e_in)

    if claims_s:
        cs = np.concatenate(claims_s)
        ct = np.concatenate(claims_t)
        ce = np.concatenate(claims_e)
        cr = np.concatenate(claims_rho)
        # winner per sample: first candidate in (entry t, element id) order
        perm = np.lexsort((ce, ct, cs))
        cs, cr = cs[perm], cr[perm]
        win_s, first = np.unique(cs, return_index=True)
        rho_samples = np.zeros(m)
        rho_samples[win_s] = cr[first]
        pd = np.bincount(s_ray, weights=step * rho_samples, minlength=n_rays)
        if ctx.want_mu:
            mu_samples = np.zeros(m)
            mu_samples[win_s] = ctx.model.mu_of_rho(cr[first])
            mu = np.bincount(s_ray, weights=step * mu_samples, minlength=n_rays)

    return pd.reshape(v_hi - v_lo, det.nu), (
        mu.reshape(v_hi - v_lo, det.nu) if mu is not None else None
    ), stats


def _worker_block(args):
    v_lo, v_hi = args
    return _render_block(_WORKER_CTX, v_lo, v_hi)


def _init_worker(ctx):
    global _WORKER_CTX
    _WORKER_CTX = ctx


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
    interval and every element is a candidate (same ordering rule); on any
    mesh this is bitwise-identical to the accelerated path.  Images are also
    bitwise-identical across worker counts.
    """
    if len(field) != mesh.n_nodes:
        raise ValueError("field length does not match mesh node count")
    if (field.values < 0.0).any():
        raise ValueError("density field must be non-negative for rendering")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t0 = time.perf_counter()
    if float(np.linalg.norm(model_aabb(mesh).extents)) / settings.step >= 2**31:
        raise ValueError("step too small for the model extent (sample index overflow)")
    if tree is not None and tree.n_elements != mesh.n_elements:
        raise ValueError(
            f"tree built over {tree.n_elements} elements, mesh has {mesh.n_elements}"
        )
    ctx = _render_context(mesh, field, detector, settings, model, tree, brute_force)

    blocks = _split_rows(detector.nv, workers)
    if workers == 1:
        results = [_render_block(ctx, lo, hi) for lo, hi in blocks]
    else:
        import multiprocessing as mp

        with mp.get_context().Pool(workers, initializer=_init_worker, initargs=(ctx,)) as pool:
            results = pool.map(_worker_block, blocks)

    density = np.vstack([r[0] for r in results])
    stats = RenderStats()
    for r in results:
        stats.merge(r[2])
    stats.wall_time = time.perf_counter() - t0

    intensity = None
    if model is not None:
        if model.variant == "identity":
            integral = density
        elif model.variant == "linear":
            integral = model.kappa * density
        else:
            integral = np.vstack([r[1] for r in results])
        intensity = attenuate(integral, model)

    return ProjectionImage(density, detector.pitch, intensity, stats)


def _split_rows(nv: int, workers: int) -> list[tuple[int, int]]:
    n_blocks = min(workers, nv)
    edges = np.linspace(0, nv, n_blocks + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


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
