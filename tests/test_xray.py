import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from fexray import locate, xray
from fexray.io_text import parse_field, parse_mesh
from fexray.locate import NewtonSettings, membership_test
from fexray.mesh import EDGE_VERTICES, Mesh, MeshError, NodalField, map_points
from fexray.raycast import slab_intervals, tet_entry
from fexray.spatial import (
    Aabb,
    Basis,
    build_obb_tree,
    element_bounding_points,
    model_aabb,
)
from fexray.xray import (
    AttenuationModel,
    Detector,
    IntegrationSettings,
    ProjectionImage,
    attenuate,
    default_face,
    error_map,
    image_mass,
    make_detector,
    render,
)
from tests.conftest import single_tet_mesh
from tests.per_ray_reference import Ray, detector_ray, integrate_ray, traverse

MU_COMPACT_BONE = 2.251  # cm^-1, tabulated linear attenuation coefficient
MU_CANCELLOUS_BONE = 0.716


class TestMakeDetector:
    def test_unit_cube_grid(self):
        box = Aabb(np.zeros(3), np.ones(3))
        det = make_detector(box, "+z", rays_per_cm2=4.0)
        assert (det.nu, det.nv) == (2, 2)
        assert det.pitch == 0.5
        np.testing.assert_array_equal(det.normal, [0, 0, -1])
        # grid centered on the face
        centers_u = [det.pixel_origin(i, 0)[0] for i in range(det.nu)]
        assert abs(np.mean(centers_u) - 0.5) < 1e-15
        assert det.pixel_origin(0, 0)[2] == 1.0

    def test_paper_scale_ray_count(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        box = model_aabb(mesh)
        assert (box.extents >= 2.0).all()
        det = make_detector(box, "+z", rays_per_cm2=23668.0)
        assert det.n_rays >= 94864

    def test_zero_thickness_box(self):
        box = Aabb(np.zeros(3), np.array([1.0, 1.0, 0.0]))
        det = make_detector(box, "+z", rays_per_cm2=4.0)
        assert det.n_rays == 4

    def test_invalid_face(self):
        box = Aabb(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            make_detector(box, "up", rays_per_cm2=1.0)

    def test_explicit_grid(self):
        box = Aabb(np.zeros(3), np.ones(3))
        det = make_detector(box, "-y", pitch=0.25, nu=3, nv=5)
        assert (det.nu, det.nv) == (3, 5)
        np.testing.assert_array_equal(det.normal, [0, 1, 0])

    def test_default_face_longest_axis(self):
        box = Aabb(np.zeros(3), np.array([3.0, 1.0, 2.0]))
        assert default_face(box) == "+x"

    def test_axes_orthonormal_validation(self):
        with pytest.raises(ValueError):
            Detector(
                np.zeros(3),
                np.array([1.0, 0, 0]),
                np.array([1.0, 0, 0]),
                np.array([0.0, 0, 1]),
                1,
                1,
                0.1,
            )


class TestAttenuation:
    def test_zero_integral(self):
        model = AttenuationModel("identity", i_in=2.0)
        assert attenuate(0.0, model) == 2.0

    def test_compact_bone_slab(self):
        model = AttenuationModel("linear", kappa=MU_COMPACT_BONE)
        # 1 cm slab of unit density: projected density 1 g/cm^2
        assert abs(attenuate(model.kappa * 1.0, model) - np.exp(-2.251)) < 1e-12

    def test_cancellous_bone_slab(self):
        model = AttenuationModel("linear", kappa=MU_CANCELLOUS_BONE)
        assert abs(attenuate(model.kappa * 1.0, model) - np.exp(-0.716)) < 1e-12

    @given(a=st.floats(0, 50), b=st.floats(0, 50))
    def test_monotone_decreasing(self, a, b):
        model = AttenuationModel("identity")
        ia, ib = attenuate(a, model), attenuate(b, model)
        assert 0.0 < ia <= model.i_in
        if a < b:
            assert ia >= ib
        if a + 1e-12 < b:  # strict once the gap is representable in the exp
            assert ia > ib

    def test_table_validation(self):
        with pytest.raises(ValueError):
            AttenuationModel("table", table_rho=np.array([1.0]), table_mu=np.array([1.0]))
        with pytest.raises(ValueError):
            AttenuationModel(
                "table",
                table_rho=np.array([1.0, 0.5]),
                table_mu=np.array([1.0, 2.0]),
            )
        with pytest.raises(ValueError):
            AttenuationModel("exotic")


def unit_density_tet_scene():
    mesh = single_tet_mesh()  # reference tetrahedron
    field = NodalField(np.ones(mesh.n_nodes))
    tree = build_obb_tree(mesh, 10)
    return mesh, field, tree


class TestIntegrateRay:
    def test_miss_returns_zero(self):
        mesh, field, tree = unit_density_tet_scene()
        ray = Ray(np.array([5.0, 5.0, 5.0]), np.array([0.0, 0.0, -1.0]))
        ri = integrate_ray(ray, tree, mesh, field, IntegrationSettings(step=0.01))
        assert ri.projected_density == 0.0
        assert ri.samples == 0

    def test_chord_oracle_single_tet(self):
        # vertical chord through the unit tetrahedron at (x, y):
        # length = 1 - x - y for interior (x, y)
        mesh, field, tree = unit_density_tet_scene()
        settings = IntegrationSettings(step=0.005)
        for x, y in [(0.1, 0.1), (0.2, 0.3), (0.05, 0.6)]:
            ray = Ray(np.array([x, y, 2.0]), np.array([0.0, 0.0, -1.0]))
            ri = integrate_ray(ray, tree, mesh, field, settings)
            chord = 1.0 - x - y
            assert abs(ri.projected_density - chord) <= 2 * settings.step
            # cross-check the chord against the face-hit parameters
            t_in, _ = tet_entry(ray.origin, ray.direction, mesh.corner_coords()[0])
            assert abs((2.0 - t_in) - (1.0 - x - y)) < 1e-12

    def test_requires_unit_direction(self):
        mesh, field, tree = unit_density_tet_scene()
        ray = Ray(np.zeros(3), np.array([0.0, 0.0, -2.0]))
        with pytest.raises(ValueError):
            integrate_ray(ray, tree, mesh, field, IntegrationSettings())

    def test_ball_center_ray(self, ball_mesh_field):
        mesh, field = ball_mesh_field
        tree = build_obb_tree(mesh, 10)
        ray = Ray(np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, -1.0]))
        ri = integrate_ray(ray, tree, mesh, field, IntegrationSettings(step=0.01))
        assert 1.95 <= ri.projected_density <= 2.0 + 1e-12

    def test_table_model_mu_integral(self):
        mesh, field, tree = unit_density_tet_scene()
        model = AttenuationModel(
            "table", table_rho=np.array([0.0, 2.0]), table_mu=np.array([0.0, 4.0])
        )
        ray = Ray(np.array([0.1, 0.1, 2.0]), np.array([0.0, 0.0, -1.0]))
        ri = integrate_ray(ray, tree, mesh, field, IntegrationSettings(step=0.005), model)
        # mu(1.0) = 2.0 by linear interpolation, so the mu integral is twice
        # the projected density
        assert abs(ri.mu_integral - 2.0 * ri.projected_density) < 1e-12


class TestRender:
    def test_model_behind_plane(self, ball_mesh_field):
        mesh, field = ball_mesh_field
        det = Detector(
            np.array([-0.5, -0.5, 3.0]),
            np.array([1.0, 0, 0]),
            np.array([0.0, 1, 0]),
            np.array([0.0, 0, 1.0]),  # pointing away from the ball
            4,
            4,
            0.25,
        )
        model = AttenuationModel("identity", i_in=1.5)
        img = render(mesh, field, det, IntegrationSettings(step=0.05), model=model)
        assert (img.density == 0.0).all()
        np.testing.assert_array_equal(img.intensity, np.full((4, 4), 1.5))

    def test_reference_path_bitwise(self, ball_mesh_field):
        mesh, field = ball_mesh_field
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=25.0)
        settings = IntegrationSettings(step=0.05)
        img = render(mesh, field, det, settings)
        tree = build_obb_tree(mesh, settings.max_leaf_elements)
        ref = np.zeros((det.nv, det.nu))
        for j in range(det.nv):
            for i in range(det.nu):
                ref[j, i] = integrate_ray(
                    detector_ray(det, i, j), tree, mesh, field, settings
                ).projected_density
        np.testing.assert_array_equal(ref, img.density)

    def test_brute_force_bitwise(self, ball_mesh_field):
        mesh, field = ball_mesh_field
        box = model_aabb(mesh)
        det = make_detector(box, "-x", rays_per_cm2=25.0)
        settings = IntegrationSettings(step=0.05)
        a = render(mesh, field, det, settings)
        b = render(mesh, field, det, settings, brute_force=True)
        np.testing.assert_array_equal(a.density, b.density)
        # the tree prunes no accepted (sample, element) pair
        assert a.stats.pairs_inside == b.stats.pairs_inside > 0

    def test_worker_count_bitwise(self, ball_mesh_field):
        mesh, field = ball_mesh_field
        box = model_aabb(mesh)
        det = make_detector(box, "+y", rays_per_cm2=16.0)
        settings = IntegrationSettings(step=0.05)
        a = render(mesh, field, det, settings, workers=1)
        b = render(mesh, field, det, settings, workers=4)
        np.testing.assert_array_equal(a.density, b.density)
        assert a.stats.samples == b.stats.samples
        assert a.stats.newton_iterations == b.stats.newton_iterations
        assert a.stats.pairs_tested == b.stats.pairs_tested > 0
        assert a.stats.pairs_inside == b.stats.pairs_inside > 0

    def test_repeat_run_bitwise(self, ball_mesh_field):
        mesh, field = ball_mesh_field
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=16.0)
        settings = IntegrationSettings(step=0.05)
        a = render(mesh, field, det, settings)
        b = render(mesh, field, det, settings)
        np.testing.assert_array_equal(a.density, b.density)

    def test_outside_pixels_exactly_zero(self, ball_mesh_field):
        mesh, field = ball_mesh_field
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=100.0)
        img = render(mesh, field, det, IntegrationSettings(step=0.02))
        i = np.arange(det.nu) - (det.nu - 1) / 2.0
        j = np.arange(det.nv) - (det.nv - 1) / 2.0
        du, dv = np.meshgrid(i * det.pitch, j * det.pitch)
        rho = np.hypot(du, dv)
        assert (img.density[rho > 1.05] == 0.0).all()

    def test_linear_attenuation_grid(self, ball_mesh_field):
        mesh, field = ball_mesh_field
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=16.0)
        model = AttenuationModel("linear", kappa=2.0, i_in=3.0)
        img = render(mesh, field, det, IntegrationSettings(step=0.05), model=model)
        np.testing.assert_array_equal(
            img.intensity, 3.0 * np.exp(-2.0 * img.density)
        )
        assert (img.intensity > 0).all() and (img.intensity <= 3.0).all()

    def test_step_refinement_mass_convergence(self, ball_mesh_field):
        mesh, field = ball_mesh_field
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=64.0)
        masses = {}
        for step in (0.08, 0.04, 0.02, 0.01):
            img = render(mesh, field, det, IntegrationSettings(step=step))
            masses[step] = image_mass(img)
        # halving the step changes the mass by O(step) ...
        for step in (0.08, 0.04, 0.02):
            assert abs(masses[step] - masses[step / 2]) <= 1.2 * step
        # ... and the change shrinks as the grid refines
        assert (
            abs(masses[0.02] - masses[0.01])
            <= abs(masses[0.08] - masses[0.04]) + 0.005
        )

    def test_tree_of_other_mesh_rejected(self, ball_mesh_field):
        # the golden ball8 tree over the 64-element ball would render with
        # the wrong candidate elements
        mesh, field = ball_mesh_field
        tree = build_obb_tree(golden_scene("ball8")[0], 10)
        det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=4.0)
        with pytest.raises(ValueError, match="elements"):
            render(mesh, field, det, IntegrationSettings(), tree=tree)

    def test_spawn_pool_bitwise(self):
        # the worker pool must not depend on fork; a fork during the
        # render would run the at-fork hook
        code = textwrap.dedent(
            f"""
            import multiprocessing, os
            from pathlib import Path
            from fexray.io_text import parse_field, parse_mesh
            from fexray.spatial import model_aabb
            from fexray.xray import IntegrationSettings, make_detector, render

            multiprocessing.set_start_method("spawn")
            golden = Path({str(GOLDEN)!r})
            mesh = parse_mesh((golden / "ball8.mesh").read_text())
            field = parse_field((golden / "ball8.field").read_text())
            det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=36.0)
            settings = IntegrationSettings(step=0.05)
            one = render(mesh, field, det, settings, workers=1)
            forks = []
            os.register_at_fork(before=lambda: forks.append(1))
            two = render(mesh, field, det, settings, workers=2)
            assert not forks, "the pool forked"
            assert one.density.tobytes() == two.density.tobytes()
            assert one.stats.pairs_inside == two.stats.pairs_inside > 0
            """
        )
        src = str(Path(xray.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_negative_field_rejected(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        field = NodalField(np.full(mesh.n_nodes, -1.0))
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=4.0)
        with pytest.raises(ValueError):
            render(mesh, field, det, IntegrationSettings())


class TestImageOps:
    def test_image_mass_zero(self):
        img = ProjectionImage(np.zeros((4, 4)), 0.5)
        assert image_mass(img) == 0.0

    def test_image_mass_uniform(self):
        img = ProjectionImage(np.ones((10, 10)), 0.1)
        assert abs(image_mass(img) - 1.0) < 1e-12

    def test_error_map_zero(self):
        img = ProjectionImage(np.full((3, 3), 2.0), 1.0)
        err = error_map(img, np.full((3, 3), 2.0))
        assert (err.density == 0.0).all()

    def test_error_map_mismatch(self):
        img = ProjectionImage(np.zeros((3, 3)), 1.0)
        with pytest.raises(ValueError):
            error_map(img, np.zeros((4, 3)))

    def test_projection_image_invariants(self):
        with pytest.raises(ValueError):
            ProjectionImage(np.array([[np.nan]]), 1.0)
        with pytest.raises(ValueError):
            ProjectionImage(np.array([[-0.1]]), 1.0)


class TestTableModelRender:
    def test_batched_table_matches_reference(self, ball_mesh_field):
        # per-sample mu lookup must agree bitwise between the batched
        # renderer and the per-ray reference path
        mesh, field = ball_mesh_field
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=16.0)
        settings = IntegrationSettings(step=0.05)
        model = AttenuationModel(
            "table",
            table_rho=np.array([0.0, 0.5, 1.0, 2.0]),
            table_mu=np.array([0.0, 0.3, 0.716, 2.251]),
            i_in=2.0,
        )
        img = render(mesh, field, det, settings, model=model)
        tree = build_obb_tree(mesh, settings.max_leaf_elements)
        mu_ref = np.zeros((det.nv, det.nu))
        for j in range(det.nv):
            for i in range(det.nu):
                mu_ref[j, i] = integrate_ray(
                    detector_ray(det, i, j), tree, mesh, field, settings, model
                ).mu_integral
        np.testing.assert_array_equal(img.intensity, 2.0 * np.exp(-mu_ref))

    def test_outside_samples_contribute_no_attenuation(self, ball_mesh_field):
        # a table with mu(0) > 0 must not attenuate vacuum pixels
        mesh, field = ball_mesh_field
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=64.0)
        model = AttenuationModel(
            "table",
            table_rho=np.array([0.0, 2.0]),
            table_mu=np.array([5.0, 6.0]),
        )
        img = render(mesh, field, det, IntegrationSettings(step=0.05), model=model)
        corner = img.intensity[0, 0]  # outside the ball silhouette
        assert corner == model.i_in


class TestLinearElements:
    def test_linear_mesh_renders(self, rng):
        # 4-node meshes go through the same pipeline: affine Newton kernel,
        # node-only bounding points, identical acceleration guarantees
        verts = []
        tets = []
        base = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        for i in range(5):
            off = len(verts)
            verts.extend(base + [1.2 * i, 0, 0])
            tets.append((off, off + 1, off + 2, off + 3))
        from fexray.mesh import Mesh

        mesh = Mesh(np.array(verts), np.array(tets, dtype=np.int64))
        assert mesh.order == "linear"
        field = NodalField(np.ones(mesh.n_nodes))
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=400.0)
        settings = IntegrationSettings(step=0.01)
        fast = render(mesh, field, det, settings)
        brute = render(mesh, field, det, settings, brute_force=True)
        np.testing.assert_array_equal(fast.density, brute.density)
        # chord through the first tet at (x, y) has length 1 - x - y
        i = int(round((0.2 - det.pixel_origin(0, 0)[0]) / det.pitch))
        j = int(round((0.3 - det.pixel_origin(0, 0)[1]) / det.pitch))
        x, y, _ = det.pixel_origin(i, j)
        assert abs(fast.density[j, i] - (1.0 - x - y)) <= 2 * settings.step


class TestObliqueDetector:
    def test_tilted_frame_pipeline(self, ball_mesh_field):
        # a detector frame with no zero direction components exercises the
        # general slab and entry-ordering paths end to end
        mesh, field = ball_mesh_field
        n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        v = np.cross(n, u)
        det = Detector(3.0 * -n - 1.6 * u - 1.6 * v, u, v, n, 16, 16, 0.2)
        settings = IntegrationSettings(step=0.02)
        img = render(mesh, field, det, settings)
        brute = render(mesh, field, det, settings, brute_force=True)
        np.testing.assert_array_equal(img.density, brute.density)
        tree = build_obb_tree(mesh, settings.max_leaf_elements)
        for i, j in [(7, 7), (8, 8), (3, 12), (0, 0)]:
            ref = integrate_ray(detector_ray(det, i, j), tree, mesh, field, settings)
            assert ref.projected_density == img.density[j, i]
        # the central ray still crosses the full ball diameter
        assert abs(img.density[7:9, 7:9].max() - 2.0) < 0.15


GOLDEN = Path(__file__).parent / "data" / "golden"


def golden_scene(name):
    mesh = parse_mesh((GOLDEN / f"{name}.mesh").read_text())
    field = parse_field((GOLDEN / f"{name}.field").read_text())
    return mesh, field


def counters(stats):
    out = dataclasses.asdict(stats)
    del out["wall_time"]
    return out


class TestPairPass:
    @pytest.mark.parametrize("name", ["ball8", "cylinder100", "ball64"])
    def test_chunk_size_invariance(self, monkeypatch, name, ball_mesh_field):
        # cylinder100 under +z has corner faces parallel to the rays; ball64
        # mixes straight and curved elements in one Newton batch
        mesh, field = ball_mesh_field if name == "ball64" else golden_scene(name)
        det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=36.0)
        settings = IntegrationSettings(step=0.05)
        model = AttenuationModel(
            "table",
            table_rho=np.array([0.0, 0.5, 1.0, 2.0]),
            table_mu=np.array([0.0, 0.3, 0.716, 2.251]),
        )

        def renders():
            return [
                render(mesh, field, det, settings, model=model, brute_force=brute)
                for brute in (False, True)
            ]

        ref = renders()
        monkeypatch.setattr(xray, "PAIR_CHUNK", 7)
        monkeypatch.setattr(xray, "NEWTON_CHUNK", 11)
        monkeypatch.setattr(locate, "NEWTON_BLOCK", 4)
        for a, b in zip(ref, renders()):
            assert a.density.tobytes() == b.density.tobytes()
            assert a.intensity.tobytes() == b.intensity.tobytes()
            assert counters(a.stats) == counters(b.stats)
            assert a.stats.pairs_inside > 0

    def test_brute_force_memory_bounded(self):
        # all rays x all elements is one record; it must be split by rays, so
        # the brute-force peak stays near the tree render's peak
        mesh, field = golden_scene("cylinder100")
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=625.0)
        settings = IntegrationSettings(step=float(box.extents[2]))
        peaks = []
        for brute in (False, True):
            tracemalloc.start()
            try:
                render(mesh, field, det, settings, brute_force=brute)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks


def _frame_detector(origin, d):
    """One-pixel detector whose single ray is origin + t d."""
    d = d / np.linalg.norm(d)
    w = np.eye(3)[int(np.argmin(np.abs(d)))]
    u = np.cross(d, w)
    u /= np.linalg.norm(u)
    return Detector(origin, u, np.cross(d, u), d, 1, 1, 1.0)


def _assert_clip_conservative(mesh, det, t_max):
    """Every ray point membership_test accepts lies inside the clip."""
    clip = xray._element_clip(mesh, det)
    kept, t_in, t_out = xray._clip_pairs(
        clip, np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.int64)
    )
    lo, hi = (t_in[0], t_out[0]) if kept.size else (np.inf, -np.inf)

    def accepted(t):
        pts = det.origin + np.asarray(t)[:, None] * det.normal
        return membership_test(mesh, 0, pts, NewtonSettings(), 1e-8)[0]

    t = np.linspace(-t_max, t_max, 801)
    inside = accepted(t)
    if not inside.any():
        return lo, hi
    # bisect from the outermost accepted samples toward the surface
    idx = np.flatnonzero(inside)
    extremes = []
    for k, step in ((idx[0], -1), (idx[-1], 1)):
        a = t[k]
        b = t[k + step] if 0 <= k + step < t.size else a + step * t_max
        for _ in range(40):
            mid = 0.5 * (a + b)
            if accepted([mid])[0]:
                a = mid
            else:
                b = mid
        extremes.append(a)
    assert lo <= min(t[idx].min(), *extremes)
    assert max(t[idx].max(), *extremes) <= hi
    return lo, hi


def _curved_element(corners, disp, quadratic):
    """One element on ``corners``; mid-edge nodes moved by ``disp`` times
    just under the half edge length validate_mesh allows.  Elements that
    validate_mesh rejects as folded are skipped."""
    corners = np.asarray(corners, dtype=float)
    if not quadratic:
        return Mesh(corners, np.arange(4, dtype=np.int64)[None])
    nodes = list(corners)
    for m, (a, b) in enumerate(EDGE_VERTICES):
        edge = np.linalg.norm(corners[b] - corners[a])
        nodes.append(0.5 * (corners[a] + corners[b]) + 0.499 * edge * disp[m])
    try:
        return Mesh(np.array(nodes), np.arange(10, dtype=np.int64)[None])
    except MeshError:
        assume(False)


def _positive_corners(pts):
    pts = np.asarray(pts, dtype=float)
    vol6 = np.dot(pts[1] - pts[0], np.cross(pts[2] - pts[0], pts[3] - pts[0]))
    assume(abs(vol6) > 1e-2)
    if vol6 < 0.0:
        pts = pts[[0, 1, 3, 2]]
    return pts


coord = st.floats(-1.0, 1.0)
vec3 = st.tuples(coord, coord, coord)
# displacement directions of unit length or less
disp6 = st.lists(vec3, min_size=6, max_size=6).map(
    lambda v: [np.asarray(x) / max(1.0, float(np.linalg.norm(x))) for x in v]
)


class TestElementClip:
    @given(
        st.lists(vec3, min_size=4, max_size=4),
        disp6,
        st.tuples(st.floats(0.05, 0.9), st.floats(0.05, 0.9), st.floats(0.05, 0.9)),
        vec3,
        st.booleans(),
    )
    def test_clip_keeps_every_accepted_point(self, corners, disp, xi, d, quadratic):
        assume(np.linalg.norm(d) > 0.1)
        mesh = _curved_element(_positive_corners(corners), disp, quadratic)
        xi = np.asarray(xi) / max(1.0, 1.05 * sum(xi))  # inside the reference tet
        d = np.asarray(d) / np.linalg.norm(d)
        target = map_points(mesh.nodes, xi, mesh.order)
        det = _frame_detector(target - 8.0 * d, d)
        _assert_clip_conservative(mesh, det, 16.0)

    @given(
        st.lists(vec3, min_size=3, max_size=3),
        st.floats(0.3, 1.5),
        disp6,
        st.booleans(),
    )
    def test_face_parallel_to_ray(self, others, height, disp, quadratic):
        # corners 0 and 1 share (x, y), so faces (0, 2, 1) and (0, 1, 3)
        # contain the -z ray direction exactly
        c0, c2, c3 = (np.asarray(p) for p in others)
        corners = _positive_corners([c0, c0 + [0.0, 0.0, height], c2, c3])
        mesh = _curved_element(corners, disp, quadratic)
        d = np.array([0.0, 0.0, -1.0])
        bpts = element_bounding_points(mesh)[0]
        for a, b, c in ((0, 2, 1), (0, 1, 3)):
            n = np.cross(corners[b] - corners[a], corners[c] - corners[a])
            assert n[2] == 0.0
            n /= np.linalg.norm(n)
            lift = np.array([0.0, 0.0, 4.0])
            # just inside the corner face: a ray that may cross the element
            det = _frame_detector(corners[a] - 1e-3 * n + lift, d)
            _assert_clip_conservative(mesh, det, 8.0)
            # beyond the face plane pushed out to the farthest control point
            gap = float((bpts @ n).max() - corners[a] @ n)
            det = _frame_detector(corners[a] + (gap + 1e-3) * n + lift, d)
            lo, hi = _assert_clip_conservative(mesh, det, 8.0)
            assert lo > hi


# (ray, j_lo, length) rows of one leaf; length <= 0 gives an empty range
range_rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 20), st.integers(-1, 6)), min_size=1, max_size=8
)


class TestSampleMerge:
    @given(st.lists(range_rows, min_size=1, max_size=4), st.integers(1, 3))
    # overlapping, nested, adjacent, duplicate and empty ranges of one ray
    @example([[(0, 2, 4), (0, 3, 2), (1, 0, 4)], [(0, 6, 3), (0, 2, 4), (0, 10, 0), (1, 2, 6)]], 2)
    def test_merge_matches_unique_keys(self, leaves, n_elems):
        # with step 1 the interval [lo + 1/4, lo + n - 1/4] holds the grid
        # indices lo .. lo + n - 1
        records, rows = [], []
        for k, leaf in enumerate(leaves):
            ray, lo, n = (np.array(c, dtype=np.int64) for c in zip(*leaf))
            elems = np.arange(k, k + n_elems, dtype=np.int64)
            xray._add_record(records, elems, ray, lo + 0.25, lo + n - 0.25, 1.0)
            rows += [(k, r, j_lo, j_lo + m - 1) for r, j_lo, m in leaf if m > 0]
        # records keep the leaf order and exactly the non-empty ranges
        kept = [
            (int(elems[0]), int(r), int(lo), int(hi))
            for elems, ids, j_lo, j_hi in records
            for r, lo, hi in zip(ids, j_lo, j_hi)
        ]
        assert kept == rows
        if not records:
            return
        merged, s_ray, s_j = xray._merge_records(records)
        keys = np.unique([(r << 32) + j for _, r, lo, hi in rows for j in range(lo, hi + 1)])
        np.testing.assert_array_equal(s_ray, keys >> 32)
        np.testing.assert_array_equal(s_j, keys & ((1 << 32) - 1))
        assert len(merged) == len(records)
        for rec, (*cols, base) in zip(records, merged):
            for a, b in zip(rec, cols):
                np.testing.assert_array_equal(a, b)
            _, ids, j_lo, j_hi = rec
            for r, lo, hi, b in zip(ids, j_lo, j_hi, base):
                idx = b + np.arange(lo, hi + 1)
                assert (s_ray[idx] == r).all()
                np.testing.assert_array_equal(s_j[idx], np.arange(lo, hi + 1))


def _oblique_detector(mesh):
    box = model_aabb(mesh)
    center = 0.5 * (box.pmin + box.pmax)
    n = np.array([0.3, -0.5, 0.8])
    n /= np.linalg.norm(n)
    u = np.cross(n, [0.2, 0.9, 0.1])
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    half = 0.6 * float(np.linalg.norm(box.extents))
    return Detector(center - 3.0 * half * n - half * (u + v), u, v, n, 17, 13, 2.0 * half / 14)


def _leaf_ranges(ctx):
    """{(elements, ray, j_lo, j_hi)} of the non-empty leaf ranges, batched and per ray."""
    det, step = ctx.detector, ctx.settings.step
    _, a, b = xray._block_rays(ctx, 0, det.nv)
    batched = {
        (tuple(elems), int(r), int(lo), int(hi))
        for elems, ids, j_lo, j_hi in xray._traverse_block(ctx, a, b)
        for r, lo, hi in zip(ids, j_lo, j_hi)
    }
    per_ray = set()
    all_elems = tuple(range(ctx.mesh.n_elements))
    for j in range(det.nv):
        for i in range(det.nu):
            ray = detector_ray(det, i, j)
            if ctx.tree is None:
                box = ctx.brute_box
                te, tx, hit = slab_intervals(
                    ray.origin, ray.inv_direction, ray.direction, box.pmin, box.pmax
                )
                hits = [(all_elems, (te, tx))] if hit else []
            else:
                hits = [(tuple(node.elements), hit) for node, hit in traverse(ctx.tree, ray)]
            for elems, (t_enter, t_exit) in hits:
                lo, hi = xray._grid_range(np.float64(t_enter), np.float64(t_exit), step)
                if hi >= lo:
                    per_ray.add((elems, j * det.nu + i, int(lo), int(hi)))
    return batched, per_ray


def _random_rows(rng):
    rows = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(rows) < 0.0:
        rows[2] = -rows[2]
    return rows


class TestTraversal:
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_slab_hits_match_slab_intervals(self, seed, aligned, identity):
        # aligned detector axes in an identity basis give exactly zero
        # direction components; some lanes sit exactly on a box plane
        rng = np.random.default_rng(seed)
        if aligned:
            frame = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], 3)[:, None]
        else:
            frame = _random_rows(rng)
        basis = Basis(np.eye(3) if identity else _random_rows(rng), rng.normal(size=3))
        c = basis.to_local(rng.normal(size=3))
        u, v, d = basis.rotate(frame)
        with np.errstate(divide="ignore"):
            inv_d = 1.0 / d
        a, b = rng.uniform(-2.0, 2.0, (2, 64))
        o = xray._lane_origins(c, u, v, a, b)
        lo, hi = np.sort(1.5 * rng.normal(size=(2, 3)), axis=0)
        lo[0], hi[1], lo[2] = o[0, 0], o[1, 1], o[2, 2]
        box = Aabb(np.minimum(lo, hi), np.maximum(lo, hi))
        expected = slab_intervals(o, inv_d, d, box.pmin, box.pmax)[2]
        np.testing.assert_array_equal(xray._slab_hits(c, u, v, d, inv_d, box, a, b), expected)

    @pytest.mark.parametrize("name", ["ball8", "cylinder100"])
    @pytest.mark.parametrize("face", ["oblique", "+x", "-x", "+y", "-y", "+z", "-z"])
    @pytest.mark.parametrize("leaf_size", [None, 1, 3])
    def test_leaf_records_match_per_ray_traversal(self, name, face, leaf_size):
        # leaf_size None is brute force.  Under the axis-aligned faces, the
        # ball8 root (leaf sizes 1 and 3) and one cylinder100 leaf (leaf
        # size 1) see the rays with exactly zero local direction components
        mesh, field = golden_scene(name)
        if face == "oblique":
            det = _oblique_detector(mesh)
        else:
            det = make_detector(model_aabb(mesh), face, rays_per_cm2=100.0)
        settings = IntegrationSettings(step=0.02, max_leaf_elements=leaf_size or 1)
        ctx = xray._render_context(mesh, field, det, settings, None, None, leaf_size is None)
        batched, per_ray = _leaf_ranges(ctx)
        assert batched == per_ray
        assert batched
        if leaf_size is not None:
            assert len({elems for elems, *_ in batched}) > 1
