import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fexray import io_text, locate, spatial, xray
from fexray.locate import NewtonSettings, membership_test
from fexray.mesh import EDGE_VERTICES, TET_FACES, Mesh, MeshError, NodalField, map_points
from fexray.raycast import slab_intervals, tet_entry
from fexray.spatial import (
    MAX_LEAF_ELEMENTS,
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
    error_map,
    image_mass,
    make_detector,
    render,
)
from tests.conftest import (
    GOLDEN,
    default_face,
    golden_scene,
    single_tet_mesh,
    straight_quadratic_nodes,
)
from tests.helpers import control_net_clip, depth_clip_planes
from tests.per_ray_reference import Ray, detector_ray, integrate_ray, traverse

# leaf sizes the tree identities hold at: small multi-level trees, the
# default, and ONE_LEAF, more elements than any test mesh has, a tree whose
# root is its only leaf
ONE_LEAF = 1_000_000
LEAF_SIZES = (1, 3, 10, MAX_LEAF_ELEMENTS, ONE_LEAF)

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

    @pytest.mark.parametrize("counts", [{}, {"nu": 4, "nv": 4}], ids=["pitch", "pitch-nu-nv"])
    def test_rays_per_cm2_and_pitch_rejected(self, counts):
        box = Aabb(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="rays_per_cm2 and pitch"):
            make_detector(box, "+z", rays_per_cm2=100.0, pitch=0.5, **counts)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["rays_per_cm2", "pitch"])
    def test_spacing_must_be_positive_and_finite(self, name, value):
        # the message names the argument at fault
        box = Aabb(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            make_detector(box, "+z", **{name: value})

    def test_spacing_required(self):
        box = Aabb(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="^either rays_per_cm2 or pitch is required"):
            make_detector(box, "+z")

    @pytest.mark.parametrize("counts", [{"nu": 5}, {"nv": 5}])
    def test_one_pixel_count_rejected(self, counts):
        box = Aabb(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="nu and nv"):
            make_detector(box, "+z", pitch=0.1, **counts)

    @pytest.mark.parametrize(
        "nu, nv, name",
        [(2.5, 3.9, "nu"), (True, True, "nu"), (2, 3.9, "nv"), (2, np.float64(3.0), "nv")],
    )
    def test_pixel_counts_must_be_integers(self, nu, nv, name):
        # no silent truncation: a float or a bool is not a pixel count
        box = Aabb(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            make_detector(box, "+z", pitch=0.1, nu=nu, nv=nv)

    @pytest.mark.parametrize(
        "nu, nv, message",
        [
            (2.5, 3, "nu must be an integer"),
            (2, 3.0, "nv must be an integer"),
            (True, 1, "nu must be an integer"),
            (0, 1, "nu must be >= 1"),
            (1, -2, "nv must be >= 1"),
        ],
    )
    def test_detector_pixel_counts_are_counts(self, nu, nv, message):
        axes = np.eye(3)
        with pytest.raises(ValueError, match=f"^{message}"):
            Detector(np.zeros(3), axes[0], axes[1], axes[2], nu, nv, 0.1)
        det = Detector(np.zeros(3), axes[0], axes[1], axes[2], np.int64(2), np.int32(3), 0.1)
        assert det.n_rays == 6

    def test_non_finite_pitch_rejected(self):
        axes = np.eye(3)
        with pytest.raises(ValueError, match="pitch"):
            Detector(np.zeros(3), axes[0], axes[1], axes[2], 1, 1, math.inf)

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


class TestIntegrationSettings:
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("key", ["step", "geom_tol"])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            IntegrationSettings(**{key: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(3.0), "3"])
    def test_leaf_size_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="max_leaf_elements"):
            IntegrationSettings(max_leaf_elements=value)

    def test_numpy_integer_leaf_size_accepted(self):
        assert IntegrationSettings(max_leaf_elements=np.int64(3)).max_leaf_elements == 3


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

    @pytest.mark.parametrize("table", ["0:0, 1:inf", "0:0, nan:1", "-inf:0, 1:1"])
    def test_non_finite_table_rejected(self, table):
        rho, mu = np.array([entry.split(":") for entry in table.split(",")], dtype=float).T
        with pytest.raises(ValueError, match="non-finite"):
            AttenuationModel("table", table_rho=rho, table_mu=mu)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", ["kappa", "i_in"])
    def test_non_finite_rejected(self, key, value):
        # an infinite kappa times the zero density outside the silhouette
        # would give NaN pixels, an infinite i_in infinite ones
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            AttenuationModel("linear", **{key: value})


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
    def test_short_field_names_both_counts(self, ball_mesh_field):
        mesh, field = ball_mesh_field
        short = NodalField(field.values[:-3])
        det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=4.0)
        message = f"field has {mesh.n_nodes - 3} values for {mesh.n_nodes} mesh nodes"
        with pytest.raises(ValueError, match=message):
            render(mesh, short, det, IntegrationSettings(step=0.05))

    @pytest.mark.parametrize("step", [5.0, 4.1])
    def test_step_with_no_grid_point_in_the_model_rejected(self, step):
        # the 2 cm ball under +z spans depths 0 .. 2: t_0 = step / 2 is past it
        mesh, field = golden_scene("ball8")
        det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=25.0)
        with pytest.raises(ValueError, match="^step"):
            render(mesh, field, det, IntegrationSettings(step=step))

    @pytest.mark.parametrize("step", [3.0, 4.0])
    def test_one_grid_point_in_the_model_renders(self, step):
        mesh, field = golden_scene("ball8")
        det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=25.0)
        img = render(mesh, field, det, IntegrationSettings(step=step))
        assert img.stats.pairs_inside > 0 and img.density.max() > 0.0

    def test_far_detector_passes_int32_grid_indices(self):
        # one ray through the 2 cm ball from 2.2e4 cm away: its grid indices,
        # about 2.2e4 / 1e-5, pass 2**31 and must not wrap
        mesh, field = golden_scene("ball8")
        settings = IntegrationSettings(step=1e-5)
        chords = []
        for far in (0.0, 2.2e4):
            det = Detector(np.array([0.0, 0.0, 1.0 + far]), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0],
                           1, 1, 0.1)
            chords.append(render(mesh, field, det, settings).density[0, 0])
        assert chords[0] > 1.99 and abs(chords[1] - chords[0]) <= 2e-5

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
        # a tree of several leaves, whose hits each ray merges
        settings = IntegrationSettings(step=0.05, max_leaf_elements=10)
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
        settings = IntegrationSettings(step=0.05, max_leaf_elements=10)
        a = render(mesh, field, det, settings)
        b = render(mesh, field, det, settings, brute_force=True)
        np.testing.assert_array_equal(a.density, b.density)
        # the tree prunes no accepted (sample, element) pair
        assert a.stats.pairs_inside == b.stats.pairs_inside > 0

    @pytest.mark.parametrize(
        "name, face",
        [(n, f) for f in ("+y", "+z") for n in ("ball8", "cylinder100")]
        + [("ball-fine-mesh", None), ("cylinder-single-sample", None)],
        ids=["+y-ball8", "+y-cylinder100", "+z-ball8", "+z-cylinder100",
             "ball-fine-mesh", "cylinder-single-sample"],
    )
    def test_tree_matches_brute_force_on_golden_scenes(self, monkeypatch, name, face):
        # at every leaf size the tree makes the same pairs as brute force:
        # only ``samples`` counts the leaf boxes.  The benchmark scenes
        # render at seed 7
        if face is None:
            mesh, field, det, settings, _ = _benchmark_scene(monkeypatch, name)
        else:
            mesh, field = golden_scene(name)
            det = make_detector(model_aabb(mesh), face, rays_per_cm2=400.0)
            settings = IntegrationSettings(step=0.02)
        brute = render(mesh, field, det, settings, brute_force=True)
        want = counters(brute.stats)
        del want["samples"]
        for leaf_size in LEAF_SIZES:
            img = render(mesh, field, det, settings, tree=build_obb_tree(mesh, leaf_size))
            assert img.density.tobytes() == brute.density.tobytes()
            assert img.stats.pairs_inside == brute.stats.pairs_inside > 0
            got = counters(img.stats)
            del got["samples"]
            assert got == want, leaf_size

    def test_worker_count_bitwise(self, ball_mesh_field):
        mesh, field = ball_mesh_field
        box = model_aabb(mesh)
        det = make_detector(box, "+y", rays_per_cm2=16.0)
        settings = IntegrationSettings(step=0.05, max_leaf_elements=10)
        a = render(mesh, field, det, settings, workers=1)
        b = render(mesh, field, det, settings, workers=4)
        np.testing.assert_array_equal(a.density, b.density)
        assert a.stats.samples == b.stats.samples
        assert a.stats.newton_iterations == b.stats.newton_iterations
        assert a.stats.pairs_tested == b.stats.pairs_tested > 0
        assert a.stats.pairs_inside == b.stats.pairs_inside > 0

    @pytest.mark.parametrize("workers", [2.5, True, np.float64(2.0), 0])
    def test_worker_count_is_a_count(self, workers):
        mesh = single_tet_mesh()
        det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=16.0)
        field = NodalField(np.ones(mesh.n_nodes))
        with pytest.raises(ValueError, match="^workers must be"):
            render(mesh, field, det, IntegrationSettings(), workers=workers)

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
        with pytest.raises(ValueError, match="another mesh"):
            render(mesh, field, det, IntegrationSettings(), tree=tree)

    def test_tree_of_moved_mesh_rejected(self, ball_mesh_field):
        # a deformed state of the mesh has its element count but other
        # nodes, and the old leaf boxes would miss parts of its elements
        mesh, field = ball_mesh_field
        moved = Mesh(mesh.nodes * 1.3 + [0.2, 0.0, 0.0], mesh.elements)
        det = make_detector(model_aabb(moved), "+z", rays_per_cm2=4.0)
        with pytest.raises(ValueError, match="another mesh"):
            render(moved, field, det, IntegrationSettings(), tree=build_obb_tree(mesh, 10))

    def test_tree_of_equal_mesh_accepted(self):
        # a mesh parsed twice from one text renders with the other copy's
        # tree, byte for byte as with its own
        text = (GOLDEN / "ball8.mesh").read_text()
        mesh, copy = io_text.parse_mesh(text), io_text.parse_mesh(text)
        field = golden_scene("ball8")[1]
        det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=36.0)
        settings = IntegrationSettings(step=0.05)
        own = render(mesh, field, det, settings, tree=build_obb_tree(mesh, 3))
        other = render(mesh, field, det, settings, tree=build_obb_tree(copy, 3))
        assert own.stats.pairs_inside > 0
        assert own.density.tobytes() == other.density.tobytes()

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


def face_sharing_scene(swap: bool):
    """Two straight-sided quadratic tets of densities 1 and 2 that share the
    face y = 0 with corners (0, 0, 0), (1, 0, 0), (0, 0, 1), each with its
    own node ids; ``swap`` reverses the element order."""
    below = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 1], [0.0, -1, 0]])
    above = np.array([[0.0, 0, 0], [0.0, 0, 1], [1.0, 0, 0], [0.0, 1, 0]])
    nodes = np.vstack([straight_quadratic_nodes(below), straight_quadratic_nodes(above)])
    elements = np.arange(20, dtype=np.int64).reshape(2, 10)
    mesh = Mesh(nodes, elements[::-1].copy() if swap else elements)
    return mesh, NodalField(np.repeat([1.0, 2.0], 10))


class TestClaimRule:
    """A sample that two elements accept goes to the lower element id."""

    # rays along -z at x = 0.125, 0.375, 0.625 and y = -0.25, 0, 0.25; the
    # y = 0 row runs inside the shared face, and with step 1/64 no grid
    # point falls on a face the ray crosses
    DET = Detector(
        np.array([0.125, -0.25, 2.0]), np.array([1.0, 0, 0]), np.array([0.0, 1, 0]),
        np.array([0.0, 0, -1]), 3, 3, 0.25,
    )
    SETTINGS = IntegrationSettings(step=1.0 / 64.0)

    def _renders(self, swap):
        mesh, field = face_sharing_scene(swap)
        tree = build_obb_tree(mesh, 1)
        tree_img = render(mesh, field, self.DET, self.SETTINGS, tree=tree)
        brute_img = render(mesh, field, self.DET, self.SETTINGS, brute_force=True)
        ref = np.array([
            [integrate_ray(detector_ray(self.DET, i, j), tree, mesh, field, self.SETTINGS)
             .projected_density for i in range(3)]
            for j in range(3)
        ])
        assert tree_img.density.tobytes() == brute_img.density.tobytes() == ref.tobytes()
        # brute force samples the whole model box, so only the claims match
        for name in ("pairs_inside", "samples_multi_claimed"):
            assert getattr(tree_img.stats, name) == getattr(brute_img.stats, name), name
        return tree_img

    def test_lowest_element_id_wins_shared_face(self):
        chord = 1.0 - (0.125 + 0.25 * np.arange(3))
        img, swapped = self._renders(False), self._renders(True)
        np.testing.assert_allclose(img.density[1], 1.0 * chord, rtol=1e-13)
        np.testing.assert_allclose(swapped.density[1], 2.0 * chord, rtol=1e-13)
        # off the shared face one element holds each ray, whatever its id
        for row in (0, 2):
            assert img.density[row].tobytes() == swapped.density[row].tobytes()
        # every sample of the y = 0 row has both claims: 56 + 40 + 24
        assert img.stats.samples_multi_claimed == swapped.stats.samples_multi_claimed == 120

    def test_multi_claimed_counter_invariant(self, monkeypatch):
        # ball8's elements share faces that rays along +z graze; the count
        # is the same whatever the tree, worker count or tile budget
        mesh, field = golden_scene("ball8")
        box = model_aabb(mesh)
        det = make_detector(box, "+z", rays_per_cm2=400.0)
        settings = IntegrationSettings(step=0.02)
        imgs = [render(mesh, field, det, settings, tree=build_obb_tree(mesh, k)) for k in LEAF_SIZES]
        imgs.append(render(mesh, field, det, settings, brute_force=True))
        imgs.append(render(mesh, field, det, settings, workers=2))
        depth = xray._depth_points(box, det.normal, settings.step)
        monkeypatch.setattr(xray, "TILE_SAMPLES", (det.nu + 3) * depth)
        imgs.append(render(mesh, field, det, settings))
        for img in imgs:
            assert img.stats.samples_multi_claimed == 6092
            assert img.density.tobytes() == imgs[0].density.tobytes()

    @pytest.mark.parametrize("workload", ["ball-fine-mesh", "cylinder-single-sample"])
    def test_benchmark_scenes_have_no_multi_claims(self, monkeypatch, workload):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import scenes

        scene = scenes.make_scene(scenes.WORKLOADS[workload], 7)
        model = scenes.set_up(scene)
        img = render(
            model.mesh, model.field, scenes.make_detector(scene, model), scene.settings,
            tree=model.tree,
        )
        assert img.stats.pairs_inside > 0
        assert img.stats.samples_multi_claimed == 0


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
        settings = IntegrationSettings(step=0.05, max_leaf_elements=10)
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


def _tilted_detector():
    """16 x 16 rays along (1, 1, 1) through the 2 cm ball."""
    n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    v = np.cross(n, u)
    return Detector(3.0 * -n - 1.6 * u - 1.6 * v, u, v, n, 16, 16, 0.2)


class TestObliqueDetector:
    def test_tilted_frame_pipeline(self, ball_mesh_field):
        # a detector frame with no zero direction components exercises the
        # general slab and entry-ordering paths end to end
        mesh, field = ball_mesh_field
        det = _tilted_detector()
        settings = IntegrationSettings(step=0.02, max_leaf_elements=10)
        img = render(mesh, field, det, settings)
        brute = render(mesh, field, det, settings, brute_force=True)
        np.testing.assert_array_equal(img.density, brute.density)
        tree = build_obb_tree(mesh, settings.max_leaf_elements)
        for i, j in [(7, 7), (8, 8), (3, 12), (0, 0)]:
            ref = integrate_ray(detector_ray(det, i, j), tree, mesh, field, settings)
            assert ref.projected_density == img.density[j, i]
        # the central ray still crosses the full ball diameter
        assert abs(img.density[7:9, 7:9].max() - 2.0) < 0.15


def counters(stats):
    out = dataclasses.asdict(stats)
    del out["wall_time"]
    return out


TABLE_MODEL = AttenuationModel(
    "table",
    table_rho=np.array([0.0, 0.5, 1.0, 2.0]),
    table_mu=np.array([0.0, 0.3, 0.716, 2.251]),
)


class TestPairPass:
    @pytest.mark.parametrize("name", ["ball8", "cylinder100", "ball64"])
    def test_chunk_size_invariance(self, monkeypatch, name, ball_mesh_field):
        # cylinder100 under +z has corner faces parallel to the rays; ball64
        # mixes straight and curved elements in one Newton batch
        mesh, field = ball_mesh_field if name == "ball64" else golden_scene(name)
        det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=36.0)
        settings = IntegrationSettings(step=0.05)

        def renders():
            return [
                render(mesh, field, det, settings, model=TABLE_MODEL, brute_force=brute)
                for brute in (False, True)
            ]

        ref = renders()
        monkeypatch.setattr(xray, "NEWTON_CHUNK", 7)
        for a, b in zip(ref, renders()):
            assert a.density.tobytes() == b.density.tobytes()
            assert a.intensity.tobytes() == b.intensity.tobytes()
            assert counters(a.stats) == counters(b.stats)
            assert a.stats.pairs_inside > 0

    def test_brute_force_memory_bounded(self):
        # every element is a candidate of every tile; the pairs must be
        # split by rays, so the brute-force peak stays near the tree
        # render's peak
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


class TestPairStreamBounds:
    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "default"])
    @pytest.mark.parametrize("brute_force", [False, True], ids=["tree", "brute"])
    def test_enumeration_chunks_within_budget(self, monkeypatch, chunk, brute_force):
        # ball8 at pitch 0.05: an element's pixel row is up to ~20 rays wide,
        # wider than a budget of 7, and must be cut; tiles of 2.5 rows
        mesh, field = golden_scene("ball8")
        det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=400.0)
        settings = IntegrationSettings(step=0.05)
        depth = xray._depth_points(model_aabb(mesh), det.normal, settings.step)
        monkeypatch.setattr(xray, "TILE_SAMPLES", det.nu * 5 // 2 * depth)
        if chunk is not None:
            monkeypatch.setattr(xray, "NEWTON_CHUNK", chunk)
        runs, tiles = [], []
        pairs_of_runs = xray._pairs_of_runs

        def spy(ctx, ray_a, ray_b, ray0, elem, count):
            assert int(count.sum()) <= xray.NEWTON_CHUNK
            if not tiles or ray_a is not tiles[-1]:  # each tile has its own rays
                tiles.append(ray_a)
            runs.append(np.column_stack([np.full_like(elem, len(tiles)), elem, ray0, count]))
            return pairs_of_runs(ctx, ray_a, ray_b, ray0, elem, count)

        row_runs = xray._row_runs

        def row_spy(ctx, entries, src, k0, n_rows, r_lo, n, slack, budget):
            # the rows lie in the tile's rows, at most a budget of them
            assert r_lo // det.nu <= k0.min() and (k0 + n_rows).max() - 1 <= (r_lo + n - 1) // det.nu
            assert int(n_rows.sum()) <= budget
            return row_runs(ctx, entries, src, k0, n_rows, r_lo, n, slack, budget)

        monkeypatch.setattr(xray, "_pairs_of_runs", spy)
        monkeypatch.setattr(xray, "_row_runs", row_spy)
        ctx = _render_context(mesh, field, det, settings, brute_force=brute_force)
        _drain_pair_stream(ctx)
        # runs of one element in one tile that abut in ray order are the
        # pieces of one row; the widest row must pass the budget of 7
        tile, elem, ray0, count = _sorted_rows(np.concatenate(runs)).T
        cut = (tile[1:] == tile[:-1]) & (elem[1:] == elem[:-1]) & (ray0[:-1] + count[:-1] == ray0[1:])
        widest = np.add.reduceat(count, np.flatnonzero(np.r_[True, ~cut])).max()
        assert widest > 7

    @pytest.mark.parametrize(
        "workload, bound", [("ball-fine-mesh", 50_000), ("cylinder-single-sample", 40_000)]
    )
    def test_pairs_into_the_depth_clip(self, monkeypatch, workload, bound):
        # a count, not a time: the clip cross-sections hand the depth clip
        # 45 586 and 31 453 pairs at seed 7, where an (elements x rays) box
        # mask handed it 64 927 and 359 343
        ctx = _benchmark_context(monkeypatch, workload)
        assert sum(e.size for _, _, e in _clip_inputs(ctx)) <= bound


def _render_context(mesh, field, det, settings, tree=None, brute_force=False):
    """The render's per-render state, built as ``render`` builds it."""
    box, clip = xray._box_and_clip(mesh, det)
    depth = (np.where(xray._BOX_CORNERS, box.pmax, box.pmin) - det.origin) @ det.normal
    grid = xray._grid_range(depth.min(), depth.max(), settings.step)
    return xray._render_context(mesh, field, det, settings, None, tree, brute_force, box, clip, grid)


def _oracle_pairs(ctx, elems, ray_a, ray_b):
    """Lexsorted (ray, element, j1, count) rows of the clipped pairs of the
    elements ``elems`` and the rays at (ray_a, ray_b), from the full
    ray-major expansion: every (ray, element) pair is box-tested, those
    inside the element boxes are clipped by ``_depth_clip``, and their
    ranges are cut to the model's grid range ``ctx.grid``."""
    clip, cols = ctx.clip, []
    for first in range(0, elems.size, 64):  # an (elements, rays) mask of 64 rows at a time
        e = elems[first:first + 64]
        lo, hi = clip.lo[e, :2, None], clip.hi[e, :2, None]
        box = (ray_a >= lo[:, 0]) & (ray_a <= hi[:, 0]) & (ray_b >= lo[:, 1]) & (ray_b <= hi[:, 1])
        k, ray = np.nonzero(box)
        cols.append((ray, e[k]))
    ray, e = (np.concatenate(c) for c in zip(*cols))
    t_in, t_out = xray._depth_clip(clip, ray_a[ray], ray_b[ray], e)
    j1, j2 = xray._grid_range(t_in, t_out, ctx.settings.step)
    j1, j2 = np.maximum(j1, ctx.grid[0]), np.minimum(j2, ctx.grid[1])
    keep = j2 >= j1
    return _sorted_rows(np.column_stack([ray, e, j1, j2 - j1 + 1])[keep])


def _expanded_lanes(ctx):
    """(element, x, y, z) rows of the Newton lanes of the full (ray, element)
    expansion of the whole detector over every element, lexsorted: every
    pair is built, then clipped to the element box and face planes."""
    step, det = ctx.settings.step, ctx.detector
    ray_a, ray_b = xray._block_rays(ctx, 0, det.n_rays)
    origins = det.origin + ray_a[:, None] * det.axis_u + ray_b[:, None] * det.axis_v
    rows = []
    for r, el, first, count in _oracle_pairs(ctx, np.arange(ctx.mesh.n_elements), ray_a, ray_b):
        j = np.arange(first, first + count)
        pts = origins[r] + ((j + 0.5) * step)[:, None] * det.normal
        rows.append(np.column_stack([np.full(j.size, el, dtype=float), pts]))
    return _sorted_rows(np.concatenate(rows))


def _sorted_rows(rows):
    return rows[np.lexsort(rows.T[::-1])]


class TestPairStream:
    @pytest.mark.parametrize("name", ["ball8", "cylinder100"])
    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "default"])
    def test_newton_lanes_match_full_expansion(self, monkeypatch, name, chunk):
        mesh, field = golden_scene(name)
        det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=100.0)
        settings = IntegrationSettings(step=0.02)
        tree = build_obb_tree(mesh, 3)
        monkeypatch.setattr(xray, "TILE_SAMPLES", 1 << 40)  # one tile
        if chunk is not None:
            monkeypatch.setattr(xray, "NEWTON_CHUNK", chunk)
        lanes = []

        def member(mesh, e, pts, *args):
            lanes.append(np.column_stack([e.astype(float), pts]))
            return membership_test(mesh, e, pts, *args)

        monkeypatch.setattr(xray, "membership_test", member)
        img = render(mesh, field, det, settings, tree=tree)
        assert img.stats.pairs_inside > 0
        # one Newton call per batch; a batch passes the lane budget only as
        # one pair.  The rays run along -z, so a lane's (element, x, y)
        # names its (ray, element) pair
        for batch in lanes:
            n_pairs = len(np.unique(batch[:, :3], axis=0))
            assert len(batch) <= xray.NEWTON_CHUNK or n_pairs == 1
        ctx = _render_context(mesh, field, det, settings, tree)
        np.testing.assert_array_equal(_sorted_rows(np.concatenate(lanes)), _expanded_lanes(ctx))

    @given(
        st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=6), max_size=8),
        st.integers(1, 12),
        st.booleans(),
    )
    @example([[5, 5], [9], [1, 1, 1]], 6, True)
    @example([[1, 1, 1], [1, 1]], 2, False)
    def test_regroup_cuts_full_batches(self, parts, budget, weighted):
        # rows are numbered, so order and completeness show in the ids;
        # without the weight column every row weighs 1
        counts = np.cumsum([0] + [len(p) for p in parts])
        stream = [(np.arange(lo, lo + len(p)), np.array(p)) for lo, p in zip(counts, parts)]
        batches = list(xray._regroup(iter(stream), budget, 1 if weighted else None))
        ids = [int(i) for batch, _ in batches for i in batch]
        assert ids == list(range(counts[-1]))
        weights = [w if weighted else np.ones_like(w) for _, w in batches]
        for k, w in enumerate(weights):
            assert w.sum() <= budget or w.size == 1
            if k + 1 < len(weights):  # full: the next row would pass the budget
                assert w.sum() + weights[k + 1][0] > budget


def test_grid_range_of_huge_bounds_is_empty():
    # a missed leaf box nearly parallel to the rays gives slab bounds that
    # no int64 holds; like non-finite ones they make an empty range
    t_enter = np.array([1e300, np.inf, np.nan, 0.0, 0.0])
    t_exit = np.array([1.0, np.inf, 1.0, -1e300, 0.05])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = xray._grid_range(t_enter, t_exit, 0.01)
    assert (hi[:4] < lo[:4]).all()
    assert (lo[4], hi[4]) == (0, 4)


class TestTiles:
    @pytest.mark.parametrize("name", ["ball8", "cylinder100"])
    def test_tile_budget_invariance(self, monkeypatch, name):
        # each ray's samples, claims and sum stay inside one tile, so no
        # budget changes a byte or a counter, serially or in the pool
        mesh, field = golden_scene(name)
        det = make_detector(model_aabb(mesh), "+z", rays_per_cm2=36.0)
        settings = IntegrationSettings(step=0.05)
        depth = xray._depth_points(model_aabb(mesh), det.normal, settings.step)
        budgets = {
            "one ray": 1,
            "mid-row": (det.nu + 3) * depth,
            "default": xray.TILE_SAMPLES,
            "whole detector": det.n_rays * depth,
        }

        def render_both(workers):
            return [
                render(mesh, field, det, settings, model=TABLE_MODEL,
                       workers=workers, brute_force=brute)
                for brute in (False, True)
            ]

        ref = render_both(1)
        for label, budget in budgets.items():
            monkeypatch.setattr(xray, "TILE_SAMPLES", budget)
            tiles = xray._ray_tiles(det.n_rays, depth)
            if label == "one ray":
                assert len(tiles) == det.n_rays
            elif label == "mid-row":
                assert len(tiles) > 1 and (tiles[0][1] - tiles[0][0]) % det.nu != 0
            elif label == "whole detector":
                assert tiles == [(0, det.n_rays)]
            for workers in (1, 2):
                for a, b in zip(ref, render_both(workers)):
                    assert a.density.tobytes() == b.density.tobytes(), (label, workers)
                    assert a.intensity.tobytes() == b.intensity.tobytes(), (label, workers)
                    assert counters(a.stats) == counters(b.stats), (label, workers)
                    assert a.stats.pairs_inside > 0

    def test_memory_bounded_by_tile_budget(self, monkeypatch):
        # with 16 rays per tile, 16x the rays must not grow the traced peak
        # with the detector: only the output grids scale with it
        mesh, field = golden_scene("ball8")
        box = model_aabb(mesh)
        settings = IntegrationSettings(step=0.05)
        span = float(box.extents.max())
        peaks = []
        for n in (16, 64):
            det = make_detector(box, "+z", pitch=span / n, nu=n, nv=n)
            depth = xray._depth_points(box, det.normal, settings.step)
            monkeypatch.setattr(xray, "TILE_SAMPLES", 16 * depth)
            tracemalloc.start()
            try:
                img = render(mesh, field, det, settings)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert img.stats.pairs_inside > 0
        assert peaks[1] <= 1.5 * peaks[0], peaks


def _frame_detector(origin, d):
    """One-pixel detector whose single ray is origin + t d."""
    d = d / np.linalg.norm(d)
    w = np.eye(3)[int(np.argmin(np.abs(d)))]
    u = np.cross(d, w)
    u /= np.linalg.norm(u)
    return Detector(origin, u, np.cross(d, u), d, 1, 1, 1.0)


def _clip_ray(clip, a, b):
    """Depth range (t_in, t_out) of the ray at detector-frame (a, b) in the
    clip of element 0, through the pair stream's box test and depth clip;
    None when the ray misses the element box footprint."""
    lo, hi = clip.lo[0], clip.hi[0]
    if not (a >= lo[0] and a <= hi[0] and b >= lo[1] and b <= hi[1]):
        return None
    one = np.zeros(1, dtype=np.int64)
    t_in, t_out = xray._depth_clip(clip, np.array([a], dtype=float), np.array([b], dtype=float), one)
    return float(t_in[0]), float(t_out[0])


def _assert_clip_conservative(mesh, det, t_max):
    """Every ray point membership_test accepts lies inside the clip, and the
    clip lies inside the control-net clip (up to the roundoff of a plane
    value at the ray's depth)."""
    clip = xray._box_and_clip(mesh, det)[1]
    lo, hi = _clip_ray(clip, 0.0, 0.0) or (np.inf, -np.inf)
    net_lo, net_hi = _clip_ray(control_net_clip(mesh, det), 0.0, 0.0) or (np.inf, -np.inf)
    if lo <= hi:
        slack = 1e-12 * (t_max + np.linalg.norm(mesh.nodes, axis=1).max())
        assert net_lo - slack <= lo and hi <= net_hi + slack

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


# a regular corner tetrahedron with every mid-edge node moved outward from
# the centroid by 0.6 of what validate_mesh allows: its bulges sum to about
# 15, past WARM_BULGE
REGULAR_CORNERS = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
OUTWARD_DISP = [
    0.6 * (m - 0.25) / np.linalg.norm(m - 0.25)
    for m in (0.5 * (np.array(REGULAR_CORNERS[a]) + REGULAR_CORNERS[b]) for a, b in EDGE_VERTICES)
]
# mid-edge displacement scales: at full scale nearly every random element
# folds, at 0.6 about one in six validates
BULGE_SCALE = st.sampled_from([0.1, 0.3, 0.6])
# reference points on a 24-per-edge lattice of the reference tetrahedron
XI_LATTICE = np.array(
    [(i, j, k) for i in range(25) for j in range(25 - i) for k in range(25 - i - j)]
) / 24.0


def _bezier_values(mesh, n):
    """n . X at the corners and edge control points of element 0, (10, k)
    for directions n (k, 3)."""
    pts = element_bounding_points(mesh)[0][xray._BEZIER_POINTS]
    return pts @ n.T


class TestQuadraticMax:
    """``spatial._quadratic_max`` is the maximum of n . X over the element."""

    @given(
        st.lists(vec3, min_size=4, max_size=4),
        disp6,
        st.sampled_from([0.0, 0.1, 0.3, 0.6]),
        st.lists(vec3, min_size=1, max_size=3),
    )
    # a straight element, whose face and interior Bernstein matrices are
    # singular, and the bulged element past WARM_BULGE
    @example(REGULAR_CORNERS, OUTWARD_DISP, 0.0, [(0.0, 0.0, 1.0)])
    @example(REGULAR_CORNERS, OUTWARD_DISP, 1.0, [(1.0, 1.0, 1.0), (0.0, -1.0, 0.0)])
    def test_between_element_and_control_net(self, corners, disp, scale, directions):
        corners = _positive_corners(corners)
        mesh = _curved_element(corners, [scale * d for d in disp], True)
        faces = [
            np.cross(corners[j] - corners[i], corners[k] - corners[i])
            for i, j, k in TET_FACES
        ]
        n = np.array([np.asarray(d) for d in directions if np.linalg.norm(d) > 0.1] + faces)
        n /= np.linalg.norm(n, axis=1)[:, None]
        values = _bezier_values(mesh, n)
        bound = spatial._quadratic_max(values)
        assert (bound <= values.max(axis=0)).all()
        diam = float(np.linalg.norm(np.ptp(mesh.nodes, axis=0)))
        lattice = map_points(mesh.nodes, XI_LATTICE, mesh.order) @ n.T
        assert (lattice.max(axis=0) <= bound + 1e-12 * diam).all()
        # points membership_test accepts, around the lattice maxima and
        # across the element's box
        rng = np.random.default_rng(0)
        top = map_points(mesh.nodes, XI_LATTICE[lattice.argmax(axis=0)], mesh.order)
        probes = [top[:, None] + np.linspace(-0.05, 0.05, 41)[:, None] * diam * n[:, None]]
        lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
        probes.append(rng.uniform(lo - 0.2 * diam, hi + 0.2 * diam, size=(1, 2000, 3)))
        pts = np.concatenate([p.reshape(-1, 3) for p in probes])
        inside = membership_test(mesh, 0, pts, NewtonSettings(), 1e-8)[0]
        assert inside.any()
        margin = xray.ELEMENT_BOX_MARGIN * diam
        assert (pts[inside] @ n.T <= bound + margin).all()

    @pytest.mark.parametrize("edge", range(6))
    def test_parabolic_edge(self, edge):
        # q = 2 phi_a phi_b along one edge peaks at its midpoint
        values = np.zeros((10, 1))
        values[4 + edge] = 1.0
        assert spatial._quadratic_max(values)[0] == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize(
        "controls, peak",
        [
            # 2 (phi_a phi_b + phi_b phi_c + phi_a phi_c) on face (0, 1, 2),
            # at its centroid
            ((0, 1, 2), 2.0 / 3.0),
            # 1 - sum phi_i^2, at the centroid of the tetrahedron
            (range(6), 0.75),
        ],
    )
    def test_face_and_interior_peaks(self, controls, peak):
        values = np.zeros((10, 1))
        values[[4 + c for c in controls]] = 1.0
        assert spatial._quadratic_max(values)[0] == pytest.approx(peak, rel=1e-14)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.1),
        st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
        st.floats(-2.0, 2.0),
    )
    def test_peak_anywhere_is_exact(self, weights, entries, peak):
        # q = peak (1^T phi)^2 - |M^(1/2) P phi|^2 with P phi = phi - phi* (1^T phi)
        # is at most peak on the simplex and equals it at phi* alone, be phi*
        # a corner, on an edge or triangle (zero weights) or inside
        star = np.asarray(weights) / sum(weights)
        m = np.reshape(entries, (4, 4))
        p = np.eye(4) - np.outer(star, np.ones(4))
        q = peak * np.ones((4, 4)) - p.T @ (m.T @ m + 0.1 * np.eye(4)) @ p
        values = np.array([q[i, i] for i in range(4)] + [q[a, b] for a, b in EDGE_VERTICES])
        assert spatial._quadratic_max(values[:, None])[0] == pytest.approx(peak, abs=1e-12)

    def test_stationary_point_off_the_simplex_is_skipped(self):
        # corner 1 holds the maximum 1; edge (0, 1) with control 0.9 peaks at
        # 1.0125 past corner 1 (phi_0 = -1/8), and edge (2, 3) with control
        # 1.2 above every corner only reaches 0.6
        values = np.array([[0.0, 1.0, 0.0, 0.0, 0.9, 0.0, 0.0, 0.0, 0.0, 1.2]]).T
        assert spatial._quadratic_max(values)[0] == pytest.approx(1.0, abs=1e-15)

    def test_corner_maximum_keeps_the_net_bound(self):
        # a control value at or below the largest corner value leaves it
        values = np.array([[1.0, 0.0, -1.0, 2.0, 2.0, 1.5, 0.0, 2.0, -3.0, 1.0]]).T
        assert spatial._quadratic_max(values).tobytes() == np.array([2.0]).tobytes()


class TestElementClip:
    @given(
        st.lists(vec3, min_size=4, max_size=4),
        disp6,
        BULGE_SCALE,
        st.tuples(st.floats(0.05, 0.9), st.floats(0.05, 0.9), st.floats(0.05, 0.9)),
        vec3,
        st.booleans(),
    )
    def test_clip_keeps_every_accepted_point(self, corners, disp, scale, xi, d, quadratic):
        assume(np.linalg.norm(d) > 0.1)
        mesh = _curved_element(_positive_corners(corners), [scale * v for v in disp], quadratic)
        xi = np.asarray(xi) / max(1.0, 1.05 * sum(xi))  # inside the reference tet
        d = np.asarray(d) / np.linalg.norm(d)
        target = map_points(mesh.nodes, xi, mesh.order)
        det = _frame_detector(target - 8.0 * d, d)
        _assert_clip_conservative(mesh, det, 16.0)

    @given(
        st.lists(vec3, min_size=4, max_size=4),
        disp6,
        BULGE_SCALE,
        st.integers(0, 3),
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 1.0)),
        vec3,
    )
    # the bulged element past WARM_BULGE, a ray through the middle of face 0
    @example(REGULAR_CORNERS, OUTWARD_DISP, 1.0, 0, (1.0, 1.0, 1.0), (0.3, -0.2, 1.0))
    @settings(max_examples=50)  # each example bisects the ray's accepted range
    def test_clip_keeps_curved_surface_points(self, corners, disp, scale, face, weights, d):
        # rays through a point of a curved face graze the bulge beyond the
        # corner face plane, where the clip is tightest
        assume(np.linalg.norm(d) > 0.1)
        mesh = _curved_element(_positive_corners(corners), [scale * v for v in disp], True)
        phi = np.insert(np.asarray(weights) / sum(weights), face, 0.0)
        d = np.asarray(d) / np.linalg.norm(d)
        target = map_points(mesh.nodes, phi[1:], mesh.order)
        det = _frame_detector(target - 8.0 * d, d)
        _assert_clip_conservative(mesh, det, 16.0)

    @given(
        st.lists(vec3, min_size=3, max_size=3),
        st.floats(0.3, 1.5),
        disp6,
        BULGE_SCALE,
        st.booleans(),
    )
    def test_face_parallel_to_ray(self, others, height, disp, scale, quadratic):
        # corners 0 and 1 share (x, y), so faces (0, 2, 1) and (0, 1, 3)
        # contain the -z ray direction exactly
        c0, c2, c3 = (np.asarray(p) for p in others)
        corners = _positive_corners([c0, c0 + [0.0, 0.0, height], c2, c3])
        mesh = _curved_element(corners, [scale * v for v in disp], quadratic)
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


class TestControlNetOracle:
    """Rendered with the control-net clip swapped in, the golden scenes give
    the same images and accepted pairs; the exact clip tests no more."""

    @pytest.mark.parametrize("face", ["+y", "+z"])
    @pytest.mark.parametrize("name", ["ball8", "cylinder100"])
    def test_same_image_fewer_lanes(self, monkeypatch, name, face):
        mesh, field = golden_scene(name)
        det = make_detector(model_aabb(mesh), face, rays_per_cm2=400.0)
        settings = IntegrationSettings(step=0.02)
        exact = render(mesh, field, det, settings)
        monkeypatch.setattr(xray, "_element_clip", control_net_clip)
        net = render(mesh, field, det, settings)
        assert exact.density.tobytes() == net.density.tobytes()
        assert exact.stats.pairs_inside == net.stats.pairs_inside > 0
        assert exact.stats.samples_multi_claimed == net.stats.samples_multi_claimed
        assert exact.stats.pairs_tested <= net.stats.pairs_tested
        if name == "ball8":  # curved elements: the exact clip drops lanes
            assert exact.stats.pairs_tested < net.stats.pairs_tested


# a face normal's t component: exactly 0 (a face parallel to the rays) or
# at least 0.2 in size, so a step of 1e-9 in t moves the plane value by
# far more than its roundoff
normal_t = st.one_of(st.just(0.0), st.floats(0.2, 1.0), st.floats(-1.0, -0.2))
clip_face = st.tuples(coord, coord, normal_t, st.floats(-2.0, 2.0))


class TestClipPairs:
    @given(
        st.lists(clip_face, min_size=3, max_size=3),
        st.tuples(coord, coord),
        st.floats(-0.5, 0.5),
        vec3,
        vec3,
        st.floats(-1.5, 1.5),
        st.floats(-1.5, 1.5),
    )
    # a face with n_t == 0 on either side of the ray, and a ray beside the box
    @example([(0.3, -0.2, 0.5, 1.0)] * 3, (1.0, 0.0), 0.5, (-1, -1, -1), (1, 1, 1), 0.0, 0.0)
    @example([(0.3, -0.2, 0.5, 1.0)] * 3, (1.0, 0.0), -0.5, (-1, -1, -1), (1, 1, 1), 0.0, 0.0)
    @example([(0.3, -0.2, 0.5, 1.0)] * 3, (1.0, 0.0), 0.5, (-1, -1, -1), (1, 1, 1), 1.2, 0.0)
    def test_range_matches_planes_and_box(self, faces, parallel, side, c1, c2, a, b):
        # face 0 is parallel to the rays, its plane ``side`` past the ray
        n_a, n_b = parallel
        faces = [(n_a, n_b, 0.0, n_a * a + n_b * b + side)] + faces
        normals = np.array([f[:3] for f in faces])
        offsets = np.array([f[3] for f in faces])
        lo, hi = np.minimum(c1, c2), np.maximum(c1, c2)
        clip = xray._ElementClip.from_planes(lo[None], hi[None], normals[None], offsets[None])
        clipped = _clip_ray(clip, a, b)

        def inside(t):
            # the clip's own fixed-order plane values; n_t * t is exact zero
            # on a parallel face
            p = np.array([a, b, t])
            if not ((lo <= p).all() and (p <= hi).all()):
                return False
            planes = normals[:, 0] * a + normals[:, 1] * b + normals[:, 2] * t
            return bool((planes <= offsets).all())

        if clipped is None:
            assert not (lo[0] <= a <= hi[0] and lo[1] <= b <= hi[1])
            return
        t_in, t_out = clipped
        for t in np.linspace(lo[2] - 1.0, hi[2] + 1.0, 41):
            if not t_in - 1e-9 <= t <= t_out + 1e-9:
                assert not inside(t), (t, t_in, t_out)
        assert not inside(t_in - 1e-9)
        assert not inside(t_out + 1e-9)
        if t_out - t_in > 2e-9:
            for t in (t_in + 1e-9, 0.5 * (t_in + t_out), t_out - 1e-9):
                assert inside(t), (t, t_in, t_out)


def _tile_candidates(ctx):
    """(candidate elements, ray_a, ray_b, r_lo) of a render's tiles that have
    candidates, as ``_render_block`` takes them."""
    det = ctx.detector
    depth = xray._depth_points(model_aabb(ctx.mesh), det.normal, ctx.settings.step)
    for lo, hi in xray._ray_tiles(det.n_rays, depth):
        elems = xray._tile_elements(ctx, lo, hi)
        if elems.size:
            yield elems, *xray._block_rays(ctx, lo, hi), lo


def _drain_pair_stream(ctx):
    """Run the pair stream over a render's tiles, as ``_render_block`` does."""
    for elems, ray_a, ray_b, r_lo in _tile_candidates(ctx):
        for _ in xray._clipped_pairs(ctx, elems, ray_a, ray_b, r_lo):
            pass


def _clip_inputs(ctx):
    """(a, b, element) of the pairs a render hands to the depth clip, tile by
    tile and chunk by chunk, as the pair stream hands them over."""
    seen = []
    clip = xray._depth_clip

    def spy(clip_, a, b, e):
        seen.append((a, b, e))
        return clip(clip_, a, b, e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xray, "_depth_clip", spy)
        _drain_pair_stream(ctx)
    return seen


def _assert_clip_bytes(clip, a, b, e):
    """``_depth_clip`` gives the plane-gather form's bytes; returns the
    number of pairs with a non-empty range."""
    got = xray._depth_clip(clip, a, b, e)
    want = depth_clip_planes(clip, a, b, e)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    return int(np.count_nonzero(got[0] <= got[1]))


def _assert_render_clip_bytes(ctx):
    pairs = kept = 0
    for a, b, e in _clip_inputs(ctx):
        kept += _assert_clip_bytes(ctx.clip, a, b, e)
        pairs += e.size
    # the stream cuts the pairs to the clip cross-sections first, so on some
    # scenes the clip keeps them all; the Hypothesis case drops pairs
    assert 0 < kept <= pairs


signed_zero = st.sampled_from([0.0, -0.0])
# a face normal's t component, exactly 0 of either sign among them
face_t = st.one_of(signed_zero, st.floats(-1.0, 1.0))
clip_value = st.one_of(signed_zero, st.floats(-2.0, 2.0))
# (n_a, n_b, n_t, offset, through); ``through`` puts the plane through the
# first ray, so its gap there is exactly 0
face_row = st.tuples(coord, coord, face_t, clip_value, st.booleans())
clip_element = st.tuples(vec3, vec3, st.lists(face_row, min_size=4, max_size=4))


class TestDepthClipBytes:
    """The face-row clip equals the (pairs, 4, 3) plane gather bit for bit."""

    @pytest.mark.parametrize("face", ["+x", "-y", "+z"])
    @pytest.mark.parametrize("name", ["ball8", "cylinder100"])
    def test_golden_box_pairs(self, name, face):
        mesh, field = golden_scene(name)
        box = model_aabb(mesh)
        det = make_detector(box, face, rays_per_cm2=400.0)
        settings = IntegrationSettings(step=0.02)
        ctx = _render_context(mesh, field, det, settings)
        _assert_render_clip_bytes(ctx)

    @pytest.mark.parametrize("workload", ["ball-fine-mesh", "cylinder-single-sample"])
    def test_benchmark_box_pairs(self, monkeypatch, workload):
        _assert_render_clip_bytes(_benchmark_context(monkeypatch, workload))

    @given(
        st.lists(clip_element, min_size=1, max_size=3),
        st.lists(st.tuples(clip_value, clip_value), min_size=1, max_size=4),
    )
    # at the first ray (0, 0), faces 1 and 2 of each element have gaps -0.0
    # and +0.0, so the lower bounds of element 0 and the upper bounds of
    # element 1 tie at +0.0 and -0.0; element 0's flat face 0 keeps that ray
    # (gap -0.0) and drops the ray at a = 1, beside the box
    @example(
        [((-0.5, -0.5, -1.0), (0.5, 0.5, 1.0), [
            (0.5, 0.0, -0.0, -0.0, False),
            (0.0, 0.0, -1.0, -0.0, False),
            (0.0, 0.0, -1.0, 0.0, False),
            (0.0, 0.0, 1.0, 0.0, True),
        ]), ((-0.5, -0.5, -1.0), (0.5, 0.5, 1.0), [
            (0.0, 0.0, -1.0, 0.5, False),
            (0.0, 0.0, 1.0, -0.0, False),
            (0.0, 0.0, 1.0, 0.0, False),
            (0.0, 0.0, -1.0, 0.0, True),
        ])],
        [(0.0, 0.0), (1.0, 0.0), (-0.0, 1.5)],
    )
    def test_face_rows_match_plane_gather(self, elements, rays):
        a0, b0 = rays[0]
        lo = np.array([np.minimum(c1, c2) for c1, c2, _ in elements])
        hi = np.array([np.maximum(c1, c2) for c1, c2, _ in elements])
        normals = np.array([[f[:3] for f in faces] for _, _, faces in elements])
        offsets = np.array(
            [[f[0] * a0 + f[1] * b0 if f[4] else f[3] for f in faces] for _, _, faces in elements]
        )
        clip = xray._ElementClip.from_planes(lo, hi, normals, offsets)
        a, b = (np.array(c, dtype=float) for c in zip(*rays))
        ray = np.repeat(np.arange(a.size), len(elements))
        e = np.tile(np.arange(len(elements)), a.size)
        with np.errstate(over="ignore"):  # gap / n_t on a tiny n_t
            _assert_clip_bytes(clip, a[ray], b[ray], e)


def _benchmark_scene(monkeypatch, workload):
    """(mesh, field, detector, settings, tree) of a benchmark workload at
    seed 7."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import scenes

    scene = scenes.make_scene(scenes.WORKLOADS[workload], 7)
    model = scenes.set_up(scene)
    return model.mesh, model.field, scenes.make_detector(scene, model), scene.settings, model.tree


def _benchmark_context(monkeypatch, workload):
    """The render state of a benchmark workload at seed 7."""
    return _render_context(*_benchmark_scene(monkeypatch, workload))


@st.composite
def _pair_scenes(draw):
    """(ctx, elems, ray_a, ray_b, r_lo) of one tile of a detector of at
    most 5 x 5 rays over up to 4 random element clips: box sides and face
    planes through pixel centres and depth grid points, signed-zero normal
    components, candidates ``elems`` of any subset and order, and any model
    grid range, empty ones too."""
    nu, nv = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pitch = draw(st.sampled_from([0.5, 0.1, 0.3]))
    step = draw(st.sampled_from([0.25, 0.1, 0.7]))
    r_lo = draw(st.integers(0, nu * nv - 1))
    r_hi = draw(st.integers(r_lo + 1, nu * nv))
    centre_a = st.integers(0, nu - 1).map(lambda i: i * pitch)
    centre_b = st.integers(0, nv - 1).map(lambda k: k * pitch)
    grid_t = st.integers(0, 6).map(lambda j: (j + 0.5) * step)
    sides = [st.one_of(centre_a, st.floats(-0.5, 2.5)), st.one_of(centre_b, st.floats(-0.5, 2.5)),
             st.one_of(grid_t, st.floats(-0.5, 5.0))]
    normal = st.one_of(signed_zero, coord)
    n_el = draw(st.integers(1, 4))
    boxes, normals, offsets = [], [], []
    for _ in range(n_el):
        boxes.append([[draw(side) for side in sides] for _ in range(2)])
        faces = [(draw(normal), draw(normal), draw(face_t)) for _ in range(4)]
        normals.append(faces)
        # a plane through a pixel centre at a grid point, or anywhere
        offsets.append([
            n_a * draw(centre_a) + n_b * draw(centre_b) + n_t * draw(grid_t)
            if draw(st.booleans()) else draw(st.floats(-3.0, 3.0))
            for n_a, n_b, n_t in faces
        ])
    boxes = np.array(boxes)
    clip = xray._ElementClip.from_planes(
        boxes.min(axis=1), boxes.max(axis=1), np.array(normals), np.array(offsets)
    )
    elems = np.array(draw(st.permutations(range(n_el))))[: draw(st.integers(1, n_el))]
    j_lo = draw(st.integers(0, 5))
    grid = (j_lo, j_lo + draw(st.integers(-1, 6)))
    r = np.arange(r_lo, r_hi)
    ctx = SimpleNamespace(
        detector=SimpleNamespace(nu=nu, pitch=pitch), clip=clip, settings=SimpleNamespace(step=step),
        grid=grid,
    )
    return ctx, elems, (r % nu) * pitch, (r // nu) * pitch, r_lo


def _one_tile_scene(elements, n, pitch, step):
    """(ctx, elems, ray_a, ray_b) of an n x n detector in one tile, every
    element a candidate and the model grid range 0 .. 3, over element clips
    given as (box lo, box hi, four (n_a, n_b, n_t, offset) faces)."""
    lo, hi, faces = zip(*elements)
    faces = np.array(faces)
    clip = xray._ElementClip.from_planes(np.array(lo), np.array(hi), faces[..., :3], faces[..., 3])
    r = np.arange(n * n)
    ctx = SimpleNamespace(
        detector=SimpleNamespace(nu=n, pitch=pitch), clip=clip, settings=SimpleNamespace(step=step),
        grid=(0, 3),
    )
    return ctx, np.arange(len(elements)), (r % n) * pitch, (r // n) * pitch


def _stage_pairs(ctx, elems, ray_a, ray_b, r_lo):
    """Lexsorted (ray, element, j1, count) rows of the pair stream's clipped
    pairs of one tile."""
    parts = [np.column_stack(p) for p in xray._clipped_pairs(ctx, elems, ray_a, ray_b, r_lo)]
    return _sorted_rows(np.concatenate(parts) if parts else np.empty((0, 4), dtype=np.int64))


class TestBoxPairOrder:
    """The pair stream builds the pairs of a tile's candidate elements row by
    row from the element clip cross-sections; its clipped pairs (ray,
    element, j1, count) are exactly those of the ray-major mask over every
    (ray, element) pair of the tile, of every element of the mesh, clipped
    and cut to the model's grid range, whatever the budget.  As lanes are
    independent of their batch and claims go to the lowest element id, the
    order they come in changes no image."""

    @staticmethod
    def _assert_ray_major_pairs(ctx, budgets=(None,)):
        n_pairs = 0
        every = np.arange(ctx.mesh.n_elements)
        with pytest.MonkeyPatch.context() as mp:
            for elems, ray_a, ray_b, r_lo in _tile_candidates(ctx):
                # no element outside the candidates has a pair in the tile
                want = _oracle_pairs(ctx, every, ray_a, ray_b)
                for budget in budgets:
                    if budget is not None:
                        mp.setattr(xray, "NEWTON_CHUNK", budget)
                    got = _stage_pairs(ctx, elems, ray_a, ray_b, r_lo)
                    np.testing.assert_array_equal(got, want, err_msg=str(budget))
                n_pairs += len(want)
        assert n_pairs > 0

    @pytest.mark.parametrize("face", ["+x", "-y", "+z"])
    @pytest.mark.parametrize("name", ["ball8", "cylinder100"])
    def test_golden_pairs_match_ray_major_mask(self, name, face):
        # every leaf size and brute force; the budgets at the default size
        mesh, field = golden_scene(name)
        det = make_detector(model_aabb(mesh), face, rays_per_cm2=400.0)
        settings = IntegrationSettings(step=0.02)
        for leaf_size in LEAF_SIZES:
            budgets = (1, 7, None) if leaf_size == MAX_LEAF_ELEMENTS else (None,)
            ctx = _render_context(mesh, field, det, settings, build_obb_tree(mesh, leaf_size))
            self._assert_ray_major_pairs(ctx, budgets)
        self._assert_ray_major_pairs(_render_context(mesh, field, det, settings, brute_force=True))

    @pytest.mark.parametrize("workload", ["ball-fine-mesh", "cylinder-single-sample"])
    def test_benchmark_pairs_match_ray_major_mask(self, monkeypatch, workload):
        self._assert_ray_major_pairs(_benchmark_context(monkeypatch, workload))

    @pytest.mark.parametrize("brute_force", [False, True], ids=["tree", "brute"])
    def test_oblique_pairs_match_ray_major_mask(self, ball_mesh_field, brute_force):
        mesh, field = ball_mesh_field
        settings = IntegrationSettings(step=0.02, max_leaf_elements=10)
        ctx = _render_context(mesh, field, _tilted_detector(), settings, brute_force=brute_force)
        self._assert_ray_major_pairs(ctx, (1, 7, None))

    @pytest.mark.parametrize("pitch", [0.1, 0.3])
    def test_sides_and_planes_through_pixel_centres(self, pitch):
        # fl(3 * 0.1) / 0.1 rounds up past 3 and fl(3 * 0.3) / 0.3 down
        # below it, yet the ray at pixel (3, 3) lies on element 0's box
        # sides and on element 1's planes a = b = 3 * pitch: the stream must
        # not lose its row or column
        c = 3 * pitch
        loose = [(0.0, 0.0, 1.0, 10.0), (0.0, 0.0, -1.0, 10.0)]
        elements = [
            ([c, c, 0.0], [c, c, 1.0], loose + loose),
            ([-1.0, -1.0, 0.0], [2.0, 2.0, 1.0],
             [(-1.0, 0.0, -0.0, -c), (0.0, -1.0, 0.0, -c), (1.0, -0.0, 0.0, c), (-0.0, 1.0, -0.0, c)]),
        ]
        ctx, elems, ray_a, ray_b = _one_tile_scene(elements, 5, pitch, 0.25)
        want = _oracle_pairs(ctx, elems, ray_a, ray_b)
        assert want[:, :2].tolist() == [[18, 0], [18, 1]]
        np.testing.assert_array_equal(_stage_pairs(ctx, elems, ray_a, ray_b, 0), want)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_clips_match_ray_major_mask(self, data):
        ctx, elems, ray_a, ray_b, r_lo = data.draw(_pair_scenes())
        budget = data.draw(st.sampled_from([1, 3, 8192]))
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):  # gap / n_t on a tiny n_t
            want = _oracle_pairs(ctx, elems, ray_a, ray_b)
            mp.setattr(xray, "NEWTON_CHUNK", budget)
            got = _stage_pairs(ctx, elems, ray_a, ray_b, r_lo)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("face", ["+x", "-y", "+z"])
    @pytest.mark.parametrize("name", ["ball8", "cylinder100"])
    def test_reversed_records_give_the_same_image(self, monkeypatch, name, face):
        # each tile takes its candidate elements in reverse order
        mesh, field = golden_scene(name)
        det = make_detector(model_aabb(mesh), face, rays_per_cm2=400.0)
        settings = IntegrationSettings(step=0.02)
        ref = render(mesh, field, det, settings, model=TABLE_MODEL)
        tile_elements = xray._tile_elements

        def reversed_candidates(*args):
            return tile_elements(*args)[::-1]

        monkeypatch.setattr(xray, "_tile_elements", reversed_candidates)
        rev = render(mesh, field, det, settings, model=TABLE_MODEL)
        assert ref.density.tobytes() == rev.density.tobytes()
        assert ref.intensity.tobytes() == rev.intensity.tobytes()
        assert counters(ref.stats) == counters(rev.stats)
        assert ref.stats.pairs_inside > 0


# a vector component as make_detector's axes have them, or any
axis_component = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))
axis_vec = st.tuples(axis_component, axis_component, axis_component)
lane_offset = st.one_of(signed_zero, st.floats(-1e3, 1e3))
offset_vec = st.tuples(lane_offset, lane_offset, lane_offset)


class TestLaneLayout:
    """The render's column-major lane arrays give the bytes of row-major
    ones: every kernel on them is elementwise in a fixed order."""

    @given(offset_vec, axis_vec, axis_vec, st.lists(st.tuples(lane_offset, lane_offset), min_size=1, max_size=12))
    # a detector of make_detector: axis vectors with +0.0 components, rays
    # at signed-zero offsets
    @example((0.0, -0.0, 1.5), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), [(-0.0, 0.0), (0.0, -0.0), (0.5, -0.0)])
    def test_lane_origins_are_the_broadcast(self, c, u, v, ab):
        c, u, v = np.array(c), np.array(u), np.array(v)
        a, b = (np.array(x) for x in zip(*ab))
        o = xray._lane_origins(c, u, v, a, b)
        assert o.shape == (a.size, 3)
        assert o.flags.f_contiguous
        assert o.tobytes() == (c + a[:, None] * u + b[:, None] * v).tobytes()

    @given(
        st.lists(offset_vec, min_size=1, max_size=12),
        axis_vec,
        st.tuples(offset_vec, offset_vec),
    )
    # origins on the box planes, a direction with zero components
    @example([(0.0, -1.0, 2.0), (-0.0, 1.0, -2.0), (1.0, 0.0, 0.0)], (0.0, -0.0, 1.0), ((-0.0, -1.0, -2.0), (1.0, 1.0, 2.0)))
    def test_slab_intervals_any_layout(self, origins, d, corners):
        o, d = np.array(origins), np.array(d)
        pmin, pmax = np.minimum(*corners), np.maximum(*corners)
        with np.errstate(divide="ignore", over="ignore"):  # subnormal components
            inv_d = 1.0 / d
            rows = slab_intervals(np.ascontiguousarray(o), inv_d, d, pmin, pmax)
            cols = slab_intervals(np.asfortranarray(o), inv_d, d, pmin, pmax)
        for x, y in zip(rows, cols):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("face", ["-y", "+z"])
    @pytest.mark.parametrize("name", ["ball8", "cylinder100"])
    def test_render_lanes_any_layout(self, monkeypatch, name, face):
        # the slab calls and Newton batches of a render take column-major
        # lanes and give the bytes of their row-major copies
        mesh, field = golden_scene(name)
        det = make_detector(model_aabb(mesh), face, rays_per_cm2=400.0)
        slabs, batches = [], []

        def slab(o, *args):
            slabs.append((o, *args))
            return slab_intervals(o, *args)

        def member(mesh, e, pts, newton, geom_tol, frames, values, out, work):
            batches.append((e, pts, newton, geom_tol, frames, values))
            return membership_test(mesh, e, pts, newton, geom_tol, frames, values, out, work)

        monkeypatch.setattr(xray, "slab_intervals", slab)
        monkeypatch.setattr(xray, "membership_test", member)
        render(mesh, field, det, IntegrationSettings(step=0.02))
        assert slabs and batches
        for o, *args in slabs:
            assert o.flags.f_contiguous
            for x, y in zip(slab_intervals(o, *args), slab_intervals(np.ascontiguousarray(o), *args)):
                assert x.tobytes() == y.tobytes()
        inside = 0
        for e, pts, *args in batches:
            assert pts.flags.f_contiguous
            runs = []
            for p in (pts, np.ascontiguousarray(pts)):
                rho = np.full(e.size, np.nan)
                runs.append((*membership_test(mesh, e, p, *args, rho), rho))
            for x, y in zip(*runs):
                assert x.tobytes() == y.tobytes()
            inside += int(np.count_nonzero(runs[0][0]))
        assert inside > 0


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
        keys = np.unique([(r << 32) + j for _, r, lo, hi in rows for j in range(lo, hi + 1)])
        span = max(int(j_hi.max()) for *_, j_hi in records) + 1
        assert xray._count_samples(records, span) == keys.size


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


def _scan_records(ctx, tile_rays):
    """{(elements, ray, j_lo, j_hi)} of the flat leaf scan over tiles of
    ``tile_rays`` rays, ray ids global."""
    n_rays = ctx.detector.n_rays
    out = set()
    for r_lo in range(0, n_rays, tile_rays):
        r_hi = min(r_lo + tile_rays, n_rays)
        a, b = xray._block_rays(ctx, r_lo, r_hi)
        for elems, ids, j_lo, j_hi in xray._scan_leaves(ctx, r_lo, r_hi, a, b):
            out |= {
                (tuple(elems), r_lo + int(r), int(lo), int(hi))
                for r, lo, hi in zip(ids, j_lo, j_hi)
            }
    return out


def _per_ray_records(ctx, tree):
    """The same set from the per-ray reference walk down the tree; no tree
    is brute force."""
    det, step = ctx.detector, ctx.settings.step
    per_ray = set()
    all_elems = tuple(range(ctx.mesh.n_elements))
    for j in range(det.nv):
        for i in range(det.nu):
            ray = detector_ray(det, i, j)
            if tree is None:
                box = model_aabb(ctx.mesh)
                te, tx, hit = slab_intervals(
                    ray.origin, ray.inv_direction, ray.direction, box.pmin, box.pmax
                )
                hits = [(all_elems, (te, tx))] if hit else []
            else:
                hits = [(tuple(node.elements), hit) for node, hit in traverse(tree, ray)]
            for elems, (t_enter, t_exit) in hits:
                lo, hi = xray._grid_range(np.float64(t_enter), np.float64(t_exit), step)
                if hi >= lo:
                    per_ray.add((elems, j * det.nu + i, int(lo), int(hi)))
    return per_ray


def _random_rows(rng):
    rows = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(rows) < 0.0:
        rows[2] = -rows[2]
    return rows


def _signed_permutation(rng):
    rows = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], 3)[:, None]
    if np.linalg.det(rows) < 0.0:
        rows[2] = -rows[2]
    return rows


class TestTraversal:
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_pixel_rectangle_holds_every_slab_hit(self, seed, aligned, axis_basis):
        # an aligned detector seen from a basis along the world axes gives
        # exactly zero local direction components; three box planes pass
        # exactly through pixel rays
        rng = np.random.default_rng(seed)
        frame = _signed_permutation(rng) if aligned else _random_rows(rng)
        nu, nv = (int(n) for n in rng.integers(1, 13, 2))
        pitch = float(rng.uniform(0.05, 0.5))
        det = Detector(rng.normal(size=3), *frame, nu, nv, pitch)
        size = pitch * max(nu, nv)
        center = (
            det.pixel_origin(nu / 2, nv / 2)
            + rng.uniform(0.0, 3.0) * det.normal
            + rng.normal(scale=size / 2, size=3)
        )
        basis = Basis(_signed_permutation(rng) if axis_basis else _random_rows(rng), center)

        def leaf_frames(box):
            leaf = spatial.ObbNode(spatial.Obb(basis, box), 0, np.zeros(1, dtype=np.int64))
            return xray._leaf_frames([leaf], det)

        lf = leaf_frames(Aabb(-np.ones(3), np.ones(3)))  # the frame, whatever the box
        r = np.arange(det.n_rays)
        o = xray._lane_origins(lf.c[0], lf.u[0], lf.v[0], (r % nu) * pitch, (r // nu) * pitch)
        lo, hi = size * rng.uniform(0.05, 1.0, (2, 3)) * [[-1.0], [1.0]]
        on_plane = rng.integers(0, det.n_rays, 3)
        lo[0], hi[1], lo[2] = o[on_plane[0], 0], o[on_plane[1], 1], o[on_plane[2], 2]
        box = Aabb(np.minimum(lo, hi), np.maximum(lo, hi))
        i0, i1, k0, k1 = leaf_frames(box).rect[0]
        hit = slab_intervals(o, lf.inv_d[0], lf.d[0], box.pmin, box.pmax)[2]
        i, k = r[hit] % nu, r[hit] // nu
        assert ((i0 <= i) & (i <= i1) & (k0 <= k) & (k <= k1)).all()
        # no wider than the box's shadow plus the padding
        for axis, first, last in ((lf.u[0], i0, i1), (lf.v[0], k0, k1)):
            shadow = float(np.abs(axis) @ box.extents) / pitch
            assert last - first <= shadow + 4

    @pytest.mark.parametrize("name", ["ball8", "cylinder100"])
    @pytest.mark.parametrize("face", ["oblique", "+x", "-x", "+y", "-y", "+z", "-z"])
    @pytest.mark.parametrize("leaf_size", [None, 1, 3, MAX_LEAF_ELEMENTS, ONE_LEAF])
    def test_leaf_records_match_per_ray_traversal(self, name, face, leaf_size):
        # leaf_size None is brute force.  Under the axis-aligned faces, the
        # ball8 root (leaf sizes 1 and 3) and one cylinder100 leaf (leaf
        # size 1) see the rays with exactly zero local direction components;
        # from the default on, ball8 is one leaf
        mesh, field = golden_scene(name)
        if face == "oblique":
            det = _oblique_detector(mesh)
        else:
            det = make_detector(model_aabb(mesh), face, rays_per_cm2=100.0)
        settings = IntegrationSettings(step=0.02)
        tree = None if leaf_size is None else build_obb_tree(mesh, leaf_size)
        ctx = _render_context(mesh, field, det, settings, tree, leaf_size is None)
        per_ray = _per_ray_records(ctx, tree)
        # one tile, then tiles that split rows mid-way
        for tile_rays in (det.n_rays, det.nu + 3):
            assert _scan_records(ctx, tile_rays) == per_ray, tile_rays
        assert per_ray
        if tree is not None and len(tree.leaves) > 1:
            assert len({elems for elems, *_ in per_ray}) > 1


PERFBENCH = Path(__file__).parent.parent / "perfbench"


class TestTraceContract:
    """The benchmark's tracer must see every call it counts: its leaf-box
    sample count and its membership_test counts equal ``RenderStats``."""

    # the tracer targets a render is expected not to call: file I/O and
    # set-up, and the kernels the renderer no longer reaches.  Every other
    # target must record a span, so a kernel that silently drops out of the
    # render fails here until it is listed
    NOT_CALLED_BY_RENDER = {
        "io_text.parse_mesh",
        "io_text.parse_field",
        "io_text.write_float_grid",
        "io_text.write_graymap",
        "mesh.validate_mesh",
        "spatial.build_obb_tree",
        "raycast.tet_entry",
        "locate.newton_solve",
        # membership_test interpolates the density with the residual check
        "mesh.interpolate_values",
        # membership_test sums the map coordinate by coordinate itself
        "mesh.map_points",
    }

    @pytest.fixture()
    def tracing(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import tracing

        return tracing

    def test_setup_metrics_walk_the_tree(self, tracing):
        # the tracer counts the nodes and depth through root/left/right
        text = {ext: (GOLDEN / f"cylinder100.{ext}").read_text() for ext in ("mesh", "field")}
        tracer = tracing.Tracer()
        with tracer.installed(), tracer.span("setup"):
            mesh = io_text.parse_mesh(text["mesh"])
            io_text.parse_field(text["field"])
            tree = spatial.build_obb_tree(mesh, 3)
        totals = tracing.subtree_totals(tracer.spans, tracer.spans[-1].id)
        nodes = [tree.root]
        for node in nodes:
            if not node.is_leaf:
                nodes += [node.left, node.right]
        metrics = tracing.setup_metrics([totals], SimpleNamespace(tree=tree), 0)
        assert metrics["spatial.tree_nodes"] == len(nodes) > len(tree.leaves)
        assert metrics["spatial.tree_leaves"] == len(tree.leaves)
        assert metrics["spatial.tree_depth"] == max(n.depth for n in nodes) > 0
        assert metrics["spatial.build_obb_tree_s"] > 0.0

    def test_targets_resolve(self, tracing):
        for module, attr, _, _ in tracing.TARGETS:
            assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"

    # +z is the benchmark's face; under it the cylinder100 corner faces
    # parallel to the rays keep or drop whole rays in the clip.  The
    # benchmark scenes render at seed 7 with their own trees, at the scale
    # of the benchmark's own cross-check
    @pytest.mark.parametrize(
        "name, face",
        [("ball8", "+y"), ("cylinder100", "+y"), ("ball8", "+z"), ("cylinder100", "+z"),
         ("ball-fine-mesh", None), ("cylinder-single-sample", None)],
        ids=["ball8", "cylinder100", "ball8-+z", "cylinder100-+z", "ball-fine-mesh", "cylinder-single-sample"],
    )
    def test_traced_counts_match_render_stats(self, monkeypatch, tracing, name, face):
        if face is None:
            mesh, field, det, settings, tree = _benchmark_scene(monkeypatch, name)
            trees = [tree]
        else:
            mesh, field = golden_scene(name)
            det = make_detector(model_aabb(mesh), face, rays_per_cm2=400.0)
            settings = IntegrationSettings(step=0.02)
            trees = [build_obb_tree(mesh, leaf_size) for leaf_size in (3, MAX_LEAF_ELEMENTS, ONE_LEAF)]
        for tree in trees:
            tracer = tracing.Tracer()
            counter = tracing.LeafSampleCounter(tree, det, settings.step)
            tracer.slab_observer = counter
            with tracer.installed():
                img = xray.render(mesh, field, det, settings, tree=tree)
            root = next(s.id for s in tracer.spans if s.name == "xray.render")
            totals = tracing.subtree_totals(tracer.spans, root)
            stats = img.stats
            assert counter.take() == stats.samples > 0, len(tree.leaves)
            assert totals.count("locate.membership_test", "lanes") == stats.pairs_tested
            assert totals.count("locate.membership_test", "iterations") == stats.newton_iterations
            assert totals.count("locate.membership_test", "non_converged") == stats.non_converged
            assert totals.call_count("raycast.slab_intervals") > 0
            # the model box and the element clip share one set of points
            assert totals.call_count("spatial.element_bounding_points") == 1
            targets = {name for _, _, name, _ in tracing.TARGETS}
            assert self.NOT_CALLED_BY_RENDER <= targets
            recorded = {s.name for s in tracer.spans}
            assert recorded == targets - self.NOT_CALLED_BY_RENDER
