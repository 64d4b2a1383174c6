"""Literal per-ray render: the reference the batched ``fexray.xray.render``
is checked against, bit for bit.

One ray at a time: slab-test every leaf box, merge the hit intervals, sample
the global depth grid inside them, take the candidate elements in element
id order and give each sample to the first candidate that contains it, so a
sample two elements contain goes to the lower id.  It shares only the
numeric kernels with the renderer, not its batching, sorting or claim
resolution.
"""

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fexray.locate import membership_test
from fexray.mesh import interpolate_values
from fexray.raycast import slab_intervals
from fexray.xray import _grid_range
from tests.helpers import rotate, to_local


class HitInterval(NamedTuple):
    t_enter: float
    t_exit: float


@dataclass(frozen=True)
class Ray:
    """Origin, direction and precomputed reciprocal direction."""

    origin: np.ndarray
    direction: np.ndarray
    inv_direction: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        o = np.ascontiguousarray(np.asarray(self.origin, dtype=np.float64))
        d = np.ascontiguousarray(np.asarray(self.direction, dtype=np.float64))
        if o.shape != (3,) or d.shape != (3,):
            raise ValueError("ray origin and direction must be 3-vectors")
        if not (np.isfinite(o).all() and np.isfinite(d).all()):
            raise ValueError("ray contains non-finite components")
        if (d == 0.0).all():
            raise ValueError("ray direction must be nonzero")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "inv_direction", 1.0 / d)


def detector_ray(det, i: int, j: int) -> Ray:
    """The ray of detector pixel (i, j)."""
    return Ray(det.pixel_origin(i, j), det.normal)


def ray_obb(ray: Ray, obb) -> HitInterval | None:
    """Slab test against the basis-transformed ray; t is frame-invariant."""
    o = to_local(obb.basis, ray.origin)
    d = rotate(obb.basis, ray.direction)
    with np.errstate(divide="ignore"):
        inv_d = 1.0 / d
    t_enter, t_exit, hit = slab_intervals(o, inv_d, d, obb.box.pmin, obb.box.pmax)
    if not hit:
        return None
    return HitInterval(float(t_enter), float(t_exit))


def traverse(tree, ray: Ray) -> list:
    """Leaves whose OBB the ray hits, ordered by ascending entry parameter."""
    hits = [(leaf, ray_obb(ray, leaf.obb)) for leaf in tree.leaves]
    hits = [(leaf, interval) for leaf, interval in hits if interval is not None]
    hits.sort(key=lambda pair: pair[1].t_enter)
    return hits


@dataclass
class RayIntegral:
    projected_density: float
    mu_integral: float | None
    samples: int
    newton_iterations: int
    non_converged: int


def integrate_ray(ray: Ray, tree, mesh, field, settings, model=None) -> RayIntegral:
    """Projected density along one ray.

    Returns the discrete sum over located samples of step * rho; with a
    table attenuation model the per-sample mu(rho) sum is carried along.
    """
    if abs(float(np.linalg.norm(ray.direction)) - 1.0) > 1e-12:
        raise ValueError("integration expects a unit ray direction")
    want_mu = model is not None and model.variant == "table"
    hits = traverse(tree, ray)
    if not hits:
        return RayIntegral(0.0, 0.0 if want_mu else None, 0, 0, 0)

    # merge overlapping intervals (clamped to t >= 0); traverse orders by entry
    merged: list[list[float]] = []
    for node, interval in hits:
        a = max(interval.t_enter, 0.0)
        b = interval.t_exit
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])

    ts_parts = []
    for a, b in merged:
        j_lo, j_hi = _grid_range(np.float64(a), np.float64(b), settings.step)
        if j_hi >= j_lo:
            j = np.arange(int(j_lo), int(j_hi) + 1, dtype=np.int64)
            ts_parts.append((j + 0.5) * settings.step)
    if not ts_parts:
        return RayIntegral(0.0, 0.0 if want_mu else None, 0, 0, 0)
    ts = np.concatenate(ts_parts)
    points = ray.origin + ts[:, None] * ray.direction

    # sorted ids: the lowest id that contains a sample claims it
    candidates = np.unique(np.concatenate([node.elements for node, _ in hits]))

    n = ts.shape[0]
    rho = np.zeros(n)
    located = np.zeros(n, dtype=bool)
    newton_iters = 0
    non_conv = 0
    values = field.values
    for e in candidates:
        open_idx = np.flatnonzero(~located)
        if open_idx.size == 0:
            break
        inside, xi, iters, converged = membership_test(
            mesh, int(e), points[open_idx], settings.newton, settings.geom_tol
        )
        newton_iters += int(iters.sum())
        non_conv += int(np.count_nonzero(~converged))
        if inside.any():
            hit_idx = open_idx[inside]
            rho[hit_idx] = interpolate_values(
                values[mesh.elements[int(e)]], xi[inside], mesh.order
            )
            located[hit_idx] = True

    contrib = settings.step * rho
    pd = 0.0
    for k in np.flatnonzero(located):
        pd += contrib[k]
    mu_int = None
    if want_mu:
        mu_int = 0.0
        if located.any():
            mu_s = settings.step * model.mu_of_rho(rho[located])
            for v in mu_s:
                mu_int += v
        mu_int = float(mu_int)
    return RayIntegral(float(pd), mu_int, n, newton_iters, non_conv)
