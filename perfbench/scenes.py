"""Benchmark workloads: seeded scene inputs, analytic oracles and checks.

Every workload renders through the public fexray API with face ``+z``.  The
seed only sets a sub-pixel shift of the detector grid (|du|, |dv| < pitch/2),
so no change can tune itself to one set of sample positions while the work
per render stays the same size.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from fexray import bench, io_text, mesh, spatial, xray

FACE = "+z"

# acceptance criteria 1, 2 and 4, checked on every render
BALL_MASS_REL_TOL = 0.025
BALL_PEAK_RANGE = (1.95, 2.0)
# relative slack on the peak's upper end for summation roundoff at 2 rho r
BALL_PEAK_SLACK = 1e-12
CYLINDER_OFF_RIM_TOL = 1.5e-4
# pixels at least this many pitches inside the silhouette/rim are "interior"
INTERIOR_PITCHES = 2.0


@dataclass(frozen=True)
class Workload:
    scene: str  # "ball" | "cylinder"
    rays_per_cm2: float
    elements: int = 0  # ball template size (cylinder uses CylinderSpec())
    step: float | None = None  # None: one sample per ray (step = height)
    # an untimed render with this many workers must give the same image bytes
    check_workers: int | None = None


WORKLOADS = {
    "ball-fine-mesh": Workload("ball", 1000.0, elements=512, step=0.01, check_workers=2),
    "cylinder-single-sample": Workload("cylinder", 10000.0),
}


@dataclass
class Scene:
    """Generated model text plus what the render and the checks need."""

    workload: Workload
    mesh_text: str
    field_text: str
    spec: object
    settings: xray.IntegrationSettings
    window: tuple[float, float]
    shift: tuple[float, float]


@dataclass
class Model:
    """Result of set-up: the loaded, validated model and its OBB tree."""

    mesh: mesh.Mesh
    field: mesh.NodalField
    tree: spatial.ObbTree


def make_scene(workload: Workload, seed: int) -> Scene:
    if workload.scene == "ball":
        spec = bench.BallSpec(target_elements=workload.elements)
        m, f = bench.generate_ball(spec)
        step = workload.step
        window = (0.0, 2.0 * spec.density * spec.radius)
    else:
        spec = bench.CylinderSpec()
        m, f = bench.generate_cylinder(spec)
        step = spec.height if workload.step is None else workload.step
        window = (0.0, 2.0 * spec.height)
    rng = np.random.default_rng(seed)
    shift = tuple(float(s) for s in rng.uniform(-0.5, 0.5, size=2))
    return Scene(
        workload=workload,
        mesh_text=io_text.write_mesh(m),
        field_text=io_text.write_field(f),
        spec=spec,
        settings=xray.IntegrationSettings(step=step),
        window=window,
        shift=shift,
    )


def set_up(scene: Scene) -> Model:
    """The timed set-up: parse, validate and build the tree from text.

    Module attributes are looked up at call time so a tracer can rebind them.
    """
    m = io_text.parse_mesh(scene.mesh_text)
    f = io_text.parse_field(scene.field_text)
    mesh.validate_mesh(m)
    tree = spatial.build_obb_tree(m, scene.settings.max_leaf_elements)
    return Model(m, f, tree)


def make_detector(scene: Scene, model: Model) -> xray.Detector:
    det = xray.make_detector(
        spatial.model_aabb(model.mesh), FACE, rays_per_cm2=scene.workload.rays_per_cm2
    )
    du, dv = (s * det.pitch for s in scene.shift)
    return dataclasses.replace(det, origin=det.origin + du * det.axis_u + dv * det.axis_v)


def render_and_encode(scene: Scene, model: Model, det: xray.Detector, workers: int = 1):
    """One radiograph: render, then encode the .fgrid and .pgm bytes."""
    img = xray.render(model.mesh, model.field, det, scene.settings, tree=model.tree, workers=workers)
    fgrid = io_text.write_float_grid(io_text.FloatGrid(img.nu, img.nv, img.pitch, img.density))
    pgm = io_text.write_graymap(img.density, 8, scene.window)
    return img, fgrid, pgm


# ---------------------------------------------------------------------------
# analytic oracles on the shifted detector


def impact_parameters(det: xray.Detector) -> np.ndarray:
    """Distance of every pixel's ray from the model axis through the origin."""
    i = np.arange(det.nu) * det.pitch
    j = np.arange(det.nv) * det.pitch
    centers = det.origin + i[None, :, None] * det.axis_u + j[:, None, None] * det.axis_v
    perp = centers - (centers @ det.normal)[..., None] * det.normal
    return np.sqrt((perp**2).sum(axis=-1))


def ball_oracle(b: np.ndarray, spec: bench.BallSpec) -> np.ndarray:
    """Chord length times density: 2 rho sqrt(r^2 - b^2)."""
    r = spec.radius
    return np.where(b < r, 2.0 * spec.density * np.sqrt(np.maximum(r * r - b * b, 0.0)), 0.0)


def cylinder_oracle(b: np.ndarray, spec: bench.CylinderSpec) -> np.ndarray:
    """Height times the radial profile: h (-4 (b - 0.5)^2 + 2)."""
    return np.where(b <= spec.radius, spec.height * (-4.0 * (b - 0.5) ** 2 + 2.0), 0.0)


def analytic_mass(scene: Scene) -> float:
    spec = scene.spec
    r = spec.radius
    if scene.workload.scene == "ball":
        return spec.density * 4.0 / 3.0 * math.pi * r**3
    # integral of h (-4 r^2 + 4 r + 1) 2 pi r dr over [0, R]
    return 2.0 * math.pi * spec.height * (-(r**4) + 4.0 / 3.0 * r**3 + 0.5 * r**2)


@dataclass
class Accuracy:
    mass_rel_err: float  # |image mass - analytic mass| / analytic mass
    max_abs_err_interior: float  # g/cm^2
    mean_abs_err_interior: float  # g/cm^2
    l1_rel_err: float  # sum |image - oracle| / sum oracle, whole detector
    peak: float
    failures: list[str]


def check_image(scene: Scene, det: xray.Detector, density: np.ndarray) -> Accuracy:
    """Compare one image with its analytic oracle; failures name each miss."""
    spec = scene.spec
    b = impact_parameters(det)
    if scene.workload.scene == "ball":
        oracle = ball_oracle(b, spec)
    else:
        oracle = cylinder_oracle(b, spec)
    err = np.abs(density - oracle)
    interior = b <= spec.radius - INTERIOR_PITCHES * det.pitch
    max_err = float(err[interior].max())
    exact = analytic_mass(scene)
    mass_err = abs(float(density.sum()) * det.pitch**2 - exact) / exact
    peak = float(density.max())
    failures = []
    if scene.workload.scene == "ball":
        if mass_err > BALL_MASS_REL_TOL:
            failures.append(f"ball mass off by {mass_err:.4%} > {BALL_MASS_REL_TOL:.1%}")
        lo, hi = BALL_PEAK_RANGE
        if not lo <= peak <= hi * (1.0 + BALL_PEAK_SLACK):
            failures.append(f"ball peak {peak:.6f} outside [{lo}, {hi}]")
    elif max_err > CYLINDER_OFF_RIM_TOL:
        failures.append(f"cylinder off-rim error {max_err:.3e} > {CYLINDER_OFF_RIM_TOL:.1e}")
    return Accuracy(
        mass_rel_err=mass_err,
        max_abs_err_interior=max_err,
        mean_abs_err_interior=float(err[interior].mean()),
        l1_rel_err=float(err.sum() / oracle.sum()),
        peak=peak,
        failures=failures,
    )
