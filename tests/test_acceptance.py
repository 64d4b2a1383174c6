"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
timing summary.  Criteria 1-4 exercise the two benchmark scenes end to end;
criterion 6 runs the four vectorized kernel oracle suites at 1e5 random
cases each.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fexray.bench import BallSpec, CylinderSpec, generate_ball
from fexray.locate import NewtonSettings, newton_solve
from fexray.mesh import map_points
from fexray.raycast import moller_trumbore, slab_intervals
from fexray.spatial import covariance, model_aabb, triangles_centroid_area, weighted_center
from fexray.xray import (
    AttenuationModel,
    IntegrationSettings,
    attenuate,
    error_map,
    image_mass,
    make_detector,
    render,
)
from tests.conftest import random_simplex_points
from tests.test_spatial import cube_surface

BALL_EXACT_MASS = 4.18879  # g, (4/3) pi r^3 for r = 1 cm, rho = 1 g/cm^3


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num} {name}: PASS")


@pytest.fixture(scope="module")
def ball_scene():
    mesh, field = generate_ball(BallSpec())
    box = model_aabb(mesh)
    det = make_detector(box, "+z", rays_per_cm2=4000.0)
    t0 = time.perf_counter()
    img = render(mesh, field, det, IntegrationSettings(step=0.01), workers=1)
    wall = time.perf_counter() - t0
    return mesh, field, det, img, wall


def pixel_impact_parameters(det):
    i = np.arange(det.nu) - (det.nu - 1) / 2.0
    j = np.arange(det.nv) - (det.nv - 1) / 2.0
    du, dv = np.meshgrid(i * det.pitch, j * det.pitch)
    return np.hypot(du, dv)


def test_criterion_1_ball_mass(ball_scene):
    _, _, det, img, wall = ball_scene
    with criterion(1, "ball mass within 2.5% of 4.18879 g, < 60 s"):
        assert det.n_rays / (det.nu * det.pitch * det.nv * det.pitch) >= 3999.0
        mass = image_mass(img)
        assert abs(mass - BALL_EXACT_MASS) / BALL_EXACT_MASS <= 0.025, mass
        assert wall < 60.0, f"render took {wall:.1f} s"
        print(f"  mass = {mass:.4f} g ({abs(mass - BALL_EXACT_MASS) / BALL_EXACT_MASS * 100:.2f}% off), render {wall:.1f} s")


def test_criterion_2_ball_center_value(ball_scene):
    _, _, _, img, _ = ball_scene
    with criterion(2, "ball maximum projected density in [1.95, 2.0] g/cm^2"):
        peak = float(img.density.max())
        # 1e-12 relative slack absorbs float summation roundoff at the
        # analytic ceiling 2 * rho * r = 2.0
        assert 1.95 <= peak <= 2.0 * (1.0 + 1e-12), peak
        print(f"  max projected density = {peak:.6f} g/cm^2")


def test_criterion_3_ball_error_structure(ball_scene):
    mesh, field, det, img, _ = ball_scene
    with criterion(3, "ball error peaks within 2 pixels of the silhouette"):
        spec = BallSpec()
        rho = pixel_impact_parameters(det)
        oracle = np.where(
            rho < spec.radius,
            2.0 * spec.density * np.sqrt(np.maximum(spec.radius**2 - rho**2, 0.0)),
            0.0,
        )
        err = error_map(img, oracle)
        jm, im = np.unravel_index(int(np.argmax(err.density)), err.density.shape)
        dist = abs(rho[jm, im] - spec.radius)
        assert dist <= 2.0 * det.pitch, (rho[jm, im], err.density.max())
        print(
            f"  max error {err.density.max():.4f} g/cm^2 at impact parameter "
            f"{rho[jm, im]:.4f} cm (silhouette at 1.0)"
        )


def test_criterion_4_cylinder_exactness(cylinder_full):
    mesh, field = cylinder_full
    with criterion(4, "cylinder 1-sample render error <= 1.5e-4 g/cm^2 off-rim"):
        spec = CylinderSpec()
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=10000.0)
        settings = IntegrationSettings(step=spec.height)  # one sample per ray
        img = render(mesh, field, det, settings)
        rho = pixel_impact_parameters(det)
        # inside-model rays carry exactly one sample on the depth grid
        inside_rays = int((rho <= spec.radius - 2 * det.pitch).sum())
        assert img.stats.samples <= det.n_rays
        assert img.stats.samples >= inside_rays
        oracle = np.where(
            rho <= spec.radius, spec.height * (-4.0 * (rho - 0.5) ** 2 + 2.0), 0.0
        )
        err = error_map(img, oracle)
        away = rho <= spec.radius - 2.0 * det.pitch
        worst = float(err.density[away].max())
        assert worst <= 1.5e-4, worst
        print(f"  max off-rim error {worst:.3e} g/cm^2 over {int(away.sum())} pixels")


def test_criterion_5_acceleration_transparency(ball_mesh_field, cylinder_mesh_field):
    with criterion(5, "tree-accelerated render equals brute force bitwise"):
        for mesh, field in (ball_mesh_field, cylinder_mesh_field):
            assert mesh.n_elements <= 200
            box = model_aabb(mesh)
            det = make_detector(box, "+z", rays_per_cm2=100.0)
            settings = IntegrationSettings(step=0.02)
            fast = render(mesh, field, det, settings)
            brute = render(mesh, field, det, settings, brute_force=True)
            assert np.array_equal(fast.density, brute.density)
        print("  ball (64 elements) and cylinder (168 elements) grids identical")


def _suite_slab(n, seed):
    rng = np.random.default_rng(seed)
    pmin = rng.uniform(-2.0, 1.0, (n, 3))
    pmax = pmin + rng.uniform(0.1, 2.0, (n, 3))
    o = rng.uniform(-3.0, 3.0, (n, 3))
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    axis_aligned = rng.random(n) < 0.1  # exercise the zero-component path
    d[axis_aligned] = np.eye(3)[rng.integers(0, 3, int(axis_aligned.sum()))]
    with np.errstate(divide="ignore"):
        inv = 1.0 / d
    te, tx, hit = slab_intervals(o, inv, d, pmin, pmax)
    ts = np.linspace(0.0, 14.0, 700)
    false_neg = 0
    for lo in range(0, n, 5000):
        sl = slice(lo, min(lo + 5000, n))
        pts = o[sl, None, :] + ts[None, :, None] * d[sl, None, :]
        inside = ((pts >= pmin[sl, None, :]) & (pts <= pmax[sl, None, :])).all(-1).any(-1)
        false_neg += int((inside & ~hit[sl]).sum())
    # every reported hit interval must contain real box points
    h = np.flatnonzero(hit)
    mid = 0.5 * (np.maximum(te[h], 0.0) + tx[h])
    p_mid = o[h] + mid[:, None] * d[h]
    shell = 1e-9 * np.linalg.norm(pmax[h] - pmin[h], axis=1)
    ok = ((p_mid >= pmin[h] - shell[:, None]) & (p_mid <= pmax[h] + shell[:, None])).all(-1)
    bad_pos = int((~ok).sum())
    return false_neg, bad_pos, int(hit.sum())


def _suite_moller_trumbore(n, seed):
    rng = np.random.default_rng(seed)
    o = rng.uniform(-1.0, 1.0, (n, 3))
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    tri = rng.uniform(-1.0, 1.0, (n, 3, 3))
    t, u, v, hit = moller_trumbore(o, d, tri[:, 0], tri[:, 1], tri[:, 2])

    # independent oracle: plane intersection plus 2x2 barycentric solve
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    nrm = np.cross(e1, e2)
    dn = np.einsum("ij,ij->i", d, nrm)
    parallel = np.abs(dn) < 1e-14 * np.linalg.norm(nrm, axis=1)
    t_o = np.where(
        parallel, np.inf, np.einsum("ij,ij->i", tri[:, 0] - o, nrm) / np.where(parallel, 1.0, dn)
    )
    p = o + t_o[:, None] * d
    a11 = np.einsum("ij,ij->i", e1, e1)
    a12 = np.einsum("ij,ij->i", e1, e2)
    a22 = np.einsum("ij,ij->i", e2, e2)
    b1 = np.einsum("ij,ij->i", p - tri[:, 0], e1)
    b2 = np.einsum("ij,ij->i", p - tri[:, 0], e2)
    det2 = a11 * a22 - a12 * a12
    u_o = (a22 * b1 - a12 * b2) / det2
    v_o = (a11 * b2 - a12 * b1) / det2
    hit_o = ~parallel & (u_o > 0) & (v_o > 0) & (t_o > 0) & (u_o + v_o <= 1)

    # exclude numerically marginal cases near an acceptance boundary
    margin = np.minimum.reduce([np.abs(u_o), np.abs(v_o), np.abs(t_o), np.abs(1 - u_o - v_o)])
    clear = margin > 1e-10
    disagreements = int((hit[clear] != hit_o[clear]).sum())
    both = hit & hit_o & clear
    t_err = float(np.abs(t[both] - t_o[both]).max()) if both.any() else 0.0

    # residual invariant for reported hits
    s = (
        (1 - u[hit, None] - v[hit, None]) * tri[hit, 0]
        + u[hit, None] * tri[hit, 1]
        + v[hit, None] * tri[hit, 2]
    )
    res = np.linalg.norm(o[hit] + t[hit, None] * d[hit] - s, axis=1)
    res_max = float(res.max()) if hit.any() else 0.0
    return disagreements, t_err, res_max, int(both.sum())


def _suite_newton_round_trip(n, seed):
    mesh, _ = generate_ball(BallSpec())
    rng = np.random.default_rng(seed)
    settings = NewtonSettings()
    per_elem = n // mesh.n_elements + 1
    worst = 0.0
    failures = 0
    total = 0
    for e in range(mesh.n_elements):
        xi_true = random_simplex_points(rng, per_elem)
        nodes = mesh.element_nodes(e)
        x = map_points(nodes, xi_true, mesh.order)
        xi, converged, _ = newton_solve(nodes, x, settings)
        failures += int((~converged).sum())
        worst = max(worst, float(np.abs(xi[converged] - xi_true[converged]).max()))
        total += per_elem
    return failures, worst, total


def _suite_pca_equivariance(n, seed):
    rng = np.random.default_rng(seed)
    tris = cube_surface(sides=(5.0, 2.0, 1.0))
    mu0 = weighted_center(tris)
    ev0 = np.sort(np.linalg.eigvalsh(covariance(tris, mu0)))
    worst = 0.0
    done = 0
    chunk = 10000
    while done < n:
        c = min(chunk, n - done)
        q = rng.normal(size=(c, 3, 3))
        rot, _ = np.linalg.qr(q)
        neg = np.linalg.det(rot) < 0
        rot[neg, :, 0] = -rot[neg, :, 0]
        rtris = np.einsum("cab,tvb->ctva", rot, tris)
        t_flat = rtris.reshape(-1, 3, 3)
        centroids, areas = triangles_centroid_area(t_flat)
        centroids = centroids.reshape(c, -1, 3)
        areas = areas.reshape(c, -1)
        mu = (areas[..., None] * centroids).sum(1) / areas.sum(1)[:, None]
        cbar = np.sqrt(areas)[..., None] * (centroids - mu[:, None, :])
        cov = np.einsum("cti,ctj->cij", cbar, cbar) / (tris.shape[0] - 1)
        ev = np.sort(np.linalg.eigvalsh(cov), axis=1)
        worst = max(worst, float(np.abs(ev / ev0 - 1.0).max()))
        done += c
    return worst, done


def test_criterion_6_kernel_oracle_suites():
    with criterion(6, "kernel oracle suites, 1e5 cases each, < 120 s"):
        t0 = time.perf_counter()
        n = 100_000

        false_neg, bad_pos, slab_hits = _suite_slab(n, seed=101)
        assert false_neg == 0, f"{false_neg} slab false negatives"
        assert bad_pos == 0, f"{bad_pos} slab intervals without box points"

        disagreements, t_err, res_max, mt_hits = _suite_moller_trumbore(n, seed=202)
        assert disagreements == 0, f"{disagreements} hit/miss disagreements"
        assert t_err < 1e-9, t_err
        assert res_max < 1e-10 * 4.0, res_max  # scene diagonal ~ 4 cm

        nt_fail, nt_worst, nt_total = _suite_newton_round_trip(n, seed=303)
        assert nt_total >= n
        assert nt_fail == 0, f"{nt_fail} Newton non-convergences"
        assert nt_worst < 1e-9, nt_worst

        pca_worst, pca_total = _suite_pca_equivariance(n, seed=404)
        assert pca_total >= n
        assert pca_worst < 1e-9, pca_worst

        wall = time.perf_counter() - t0
        assert wall < 120.0, f"suites took {wall:.1f} s"
        print(
            f"  slab hits {slab_hits}, MT joint hits {mt_hits}, Newton worst "
            f"{nt_worst:.2e}, PCA worst {pca_worst:.2e}; total {wall:.1f} s"
        )


def test_criterion_7_determinism(ball_mesh_field):
    mesh, field = ball_mesh_field
    with criterion(7, "bitwise-identical grids across runs and worker counts"):
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=400.0)
        settings = IntegrationSettings(step=0.02)
        first = render(mesh, field, det, settings, workers=1)
        again = render(mesh, field, det, settings, workers=1)
        multi = render(mesh, field, det, settings, workers=3)
        assert first.density.tobytes() == again.density.tobytes()
        assert first.density.tobytes() == multi.density.tobytes()
        print(f"  {det.n_rays} rays, grids byte-identical (1 vs 3 workers, rerun)")


def test_criterion_8_attenuation_spot_values():
    with criterion(8, "bone-coefficient transmissions exact to 1e-12"):
        # 1 cm slabs of unit density: projected density 1 g/cm^2
        compact = AttenuationModel("linear", kappa=2.251)
        cancellous = AttenuationModel("linear", kappa=0.716)
        i_compact = attenuate(compact.kappa * 1.0, compact)
        i_cancellous = attenuate(cancellous.kappa * 1.0, cancellous)
        assert abs(i_compact - np.exp(-2.251)) < 1e-12
        assert abs(i_cancellous - np.exp(-0.716)) < 1e-12
        print(
            f"  exp(-2.251) = {i_compact:.12f}, exp(-0.716) = {i_cancellous:.12f}"
        )
