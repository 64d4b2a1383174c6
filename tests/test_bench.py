import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fexray.bench import (
    BallSpec,
    CylinderSpec,
    generate_ball,
    generate_cylinder,
    projection_oracle,
    radial_density,
)
from fexray.mesh import boundary_faces
from tests.conftest import random_simplex_points
from tests.helpers import interpolate, jacobian, local_to_global


def duffy_rule(n):
    """Gauss-Legendre cube rule collapsed onto the reference tetrahedron."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    pts, wts = [], []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                u, v, t = x[i], x[j], x[k]
                pts.append((u, v * (1 - u), t * (1 - u) * (1 - v)))
                wts.append(w[i] * w[j] * w[k] * (1 - u) ** 2 * (1 - v))
    return np.array(pts), np.array(wts)


QPTS, QWTS = duffy_rule(4)


def quadrature_volume(mesh):
    total = 0.0
    for e in range(mesh.n_elements):
        det = np.linalg.det(jacobian(mesh.element_nodes(e), QPTS, mesh.order))
        total += float((QWTS * det).sum())
    return total


def test_duffy_rule_integrates_reference_tet():
    assert abs(QWTS.sum() - 1 / 6) < 1e-12
    assert abs((QWTS * QPTS[:, 0]).sum() - 1 / 24) < 1e-12


class TestGenerateBall:
    def test_default_element_count_near_target(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        assert mesh.n_elements == 64  # template ladder point closest to 50

    def test_volume_within_2_percent(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        exact = 4.0 / 3.0 * np.pi
        assert abs(quadrature_volume(mesh) - exact) / exact < 0.02

    def test_refined_volume_within_02_percent(self):
        mesh, _ = generate_ball(BallSpec(target_elements=500))
        assert mesh.n_elements >= 400
        exact = 4.0 / 3.0 * np.pi
        assert abs(quadrature_volume(mesh) - exact) / exact < 0.002

    def test_boundary_nodes_on_sphere(self, ball_mesh_field):
        # boundary corners, and the midnodes of the boundary-face edges,
        # must sit exactly on the sphere
        from fexray.mesh import EDGE_VERTICES

        mesh, _ = ball_mesh_field
        faces = boundary_faces(mesh)
        bverts = np.unique(faces.ravel())
        np.testing.assert_allclose(
            np.linalg.norm(mesh.nodes[bverts], axis=1), 1.0, atol=1e-10
        )
        bedges = set()
        for f in faces:
            a, b, c = (int(f[0]), int(f[1]), int(f[2]))
            bedges |= {
                (min(a, b), max(a, b)),
                (min(b, c), max(b, c)),
                (min(a, c), max(a, c)),
            }
        mid_ids = set()
        for conn in mesh.elements:
            for m, (a, b) in enumerate(EDGE_VERTICES):
                key = (min(int(conn[a]), int(conn[b])), max(int(conn[a]), int(conn[b])))
                if key in bedges:
                    mid_ids.add(int(conn[4 + m]))
        assert mid_ids
        np.testing.assert_allclose(
            np.linalg.norm(mesh.nodes[sorted(mid_ids)], axis=1), 1.0, atol=1e-10
        )

    def test_constant_field(self, ball_mesh_field):
        _, field = ball_mesh_field
        assert (field.values == 1.0).all()

    def test_radius_and_density_scaling(self):
        mesh, field = generate_ball(BallSpec(radius=2.5, density=3.0, target_elements=8))
        assert abs(np.linalg.norm(mesh.nodes, axis=1).max() - 2.5) < 1e-9
        assert (field.values == 3.0).all()

    def test_curved_elements_present(self, ball_mesh_field):
        # at least one mid-edge node is off the straight midpoint
        from fexray.mesh import EDGE_VERTICES

        mesh, _ = ball_mesh_field
        off = 0.0
        for m, (a, b) in enumerate(EDGE_VERTICES):
            pa = mesh.nodes[mesh.elements[:, a]]
            pb = mesh.nodes[mesh.elements[:, b]]
            mid = mesh.nodes[mesh.elements[:, 4 + m]]
            off = max(off, np.linalg.norm(mid - 0.5 * (pa + pb), axis=1).max())
        assert off > 1e-3

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BallSpec(radius=-1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1.0, 0.0])
@pytest.mark.parametrize(
    "spec, key",
    [(BallSpec, "radius"), (BallSpec, "density"), (CylinderSpec, "radius"), (CylinderSpec, "height")],
    ids=["ball-radius", "ball-density", "cylinder-radius", "cylinder-height"],
)
def test_spec_rejects_non_finite_or_non_positive(spec, key, value):
    # an infinite radius or height gives an infinite oracle, a nan density a
    # nan one, and a negative density a field that render rejects
    with pytest.raises(ValueError, match=f"{key} must be finite and positive"):
        spec(**{key: value})


class TestGenerateCylinder:
    def test_element_count_near_target(self):
        mesh, _ = generate_cylinder(CylinderSpec())
        assert abs(mesh.n_elements - 2143) / 2143 < 0.1

    def test_nodal_values_closed_form(self):
        mesh, field = generate_cylinder(CylinderSpec(target_elements=200))
        r = np.linalg.norm(mesh.nodes[:, :2], axis=1)
        axis_nodes = r < 1e-12
        assert axis_nodes.any()
        np.testing.assert_allclose(field.values[axis_nodes], 1.0, atol=1e-12)
        rim_nodes = np.abs(r - 1.0) < 1e-12
        assert rim_nodes.any()
        np.testing.assert_allclose(field.values[rim_nodes], 1.0, atol=1e-12)
        mid = np.abs(r - 0.5) < 1e-9
        if mid.any():
            np.testing.assert_allclose(field.values[mid], 2.0, atol=1e-9)

    def test_field_matches_profile_at_interior_points(self, cylinder_full, rng):
        # the 4r term of the profile is not polynomial in x, so nodal
        # interpolation is not exact between nodes; the graded mesh keeps the
        # deviation bounded (acceptance bounds the projected error instead)
        mesh, field = cylinder_full
        worst = 0.0
        for e in rng.integers(0, mesh.n_elements, size=60):
            for xi in random_simplex_points(rng, 6):
                v = interpolate(field, mesh, int(e), xi)
                x = local_to_global(mesh, int(e), xi)
                worst = max(worst, abs(v - radial_density(np.hypot(x[0], x[1]))))
        assert worst < 5e-3

    def test_volume_within_half_percent(self):
        mesh, _ = generate_cylinder(CylinderSpec(target_elements=500))
        exact = np.pi * 0.1
        assert abs(quadrature_volume(mesh) - exact) / exact < 0.005

    def test_lateral_nodes_on_surface(self):
        mesh, _ = generate_cylinder(CylinderSpec(target_elements=200))
        r = np.linalg.norm(mesh.nodes[:, :2], axis=1)
        assert np.abs(r - 1.0).min() < 1e-12
        assert r.max() <= 1.0 + 1e-12

    def test_watertight(self, cylinder_mesh_field):
        mesh, _ = cylinder_mesh_field
        faces = boundary_faces(mesh)  # raises on non-manifold connectivity
        p = mesh.nodes[faces[:, 0]]
        q = mesh.nodes[faces[:, 1]]
        r = mesh.nodes[faces[:, 2]]
        v_surf = np.einsum("ij,ij->", p, np.cross(q, r)) / 6.0
        corners = mesh.corner_coords()
        a = corners[:, 1] - corners[:, 0]
        b = corners[:, 2] - corners[:, 0]
        c = corners[:, 3] - corners[:, 0]
        v_elem = np.einsum("ij,ij->", a, np.cross(b, c)) / 6.0
        assert abs(v_surf - v_elem) < 1e-9 * abs(v_elem)


def oracle_at(spec, b):
    """projection_oracle of the pixel at impact parameter b on a 3 x 1 grid."""
    impact, density = projection_oracle(spec, 3, 1, b)
    assert impact[0, 0] == impact[0, 2] == b and impact[0, 1] == 0.0
    return density[0, 0]


grids = st.tuples(st.integers(1, 40), st.integers(1, 40), st.floats(0.01, 0.5))


def assert_quarter_turn_symmetric(spec, nu, nv, pitch):
    """The oracle depends on the impact parameter alone: the grid is
    symmetric under flips and a quarter turn swaps its axes."""
    b, density = projection_oracle(spec, nu, nv, pitch)
    for grid in (b, density):
        np.testing.assert_array_equal(grid, grid[::-1, :])
        np.testing.assert_array_equal(grid, grid[:, ::-1])
    np.testing.assert_array_equal(projection_oracle(spec, nv, nu, pitch)[1], density.T)
    return b, density


class TestBallOracle:
    def test_center_ray(self):
        b, density = projection_oracle(BallSpec(), 5, 7, 0.1)
        assert b[3, 2] == 0.0
        assert abs(density[3, 2] - 2.0) < 1e-15

    def test_tangent(self):
        assert oracle_at(BallSpec(), 1.0) == 0.0

    def test_closed_form_at_rho_06(self):
        assert abs(oracle_at(BallSpec(), 0.6) - 1.6) < 1e-12

    @given(grids)
    def test_rotation_symmetry(self, grid):
        spec = BallSpec(radius=0.8, density=1.5)
        b, density = assert_quarter_turn_symmetric(spec, *grid)
        chord = 2.0 * np.sqrt(np.maximum(spec.radius**2 - b**2, 0.0))
        np.testing.assert_allclose(density, spec.density * chord, rtol=0, atol=1e-12)


class TestCylinderOracle:
    def test_peak_value(self):
        assert abs(oracle_at(CylinderSpec(), 0.5) - 0.2) < 1e-15

    def test_rim_value(self):
        assert abs(oracle_at(CylinderSpec(), 1.0) - 0.1) < 1e-12

    def test_outside(self):
        assert oracle_at(CylinderSpec(), 1.1) == 0.0

    @given(grids)
    def test_rotation_symmetry(self, grid):
        spec = CylinderSpec()
        b, density = assert_quarter_turn_symmetric(spec, *grid)
        inside = b <= spec.radius
        np.testing.assert_allclose(
            density[inside], spec.height * radial_density(b[inside]), rtol=0, atol=1e-12
        )
        assert (density[~inside] == 0.0).all()


class TestGoldenFiles:
    # generators must reproduce the stored text byte for byte
    def test_ball_golden(self):
        from pathlib import Path

        from fexray.io_text import write_field, write_mesh

        root = Path(__file__).parent / "data" / "golden"
        mesh, field = generate_ball(BallSpec(target_elements=8))
        assert write_mesh(mesh) == (root / "ball8.mesh").read_text()
        assert write_field(field) == (root / "ball8.field").read_text()

    def test_cylinder_golden(self):
        from pathlib import Path

        from fexray.io_text import write_field, write_mesh

        root = Path(__file__).parent / "data" / "golden"
        mesh, field = generate_cylinder(CylinderSpec(target_elements=100))
        assert write_mesh(mesh) == (root / "cylinder100.mesh").read_text()
        assert write_field(field) == (root / "cylinder100.field").read_text()

    def test_golden_files_parse(self):
        from pathlib import Path

        from fexray.io_text import parse_field, parse_mesh

        root = Path(__file__).parent / "data" / "golden"
        mesh = parse_mesh((root / "cylinder100.mesh").read_text())
        field = parse_field((root / "cylinder100.field").read_text())
        assert len(field) == mesh.n_nodes
