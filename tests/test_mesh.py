import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fexray.mesh import (
    _FOLD_LATTICE,
    REFERENCE_NODES,
    Mesh,
    MeshError,
    NodalField,
    _lattice_jacobian_dets,
    boundary_faces,
    shape_gradients,
    shape_values,
)
from tests.conftest import (
    REFERENCE_TET,
    folded_quadratic_nodes,
    mesh_from_corner_tets,
    random_simplex_points,
    single_tet_mesh,
    straight_quadratic_nodes,
    two_tet_mesh,
)
from tests.helpers import interpolate, jacobian, local_to_global

coord = st.floats(-0.5, 1.5, allow_nan=False)


class TestShapeValues:
    def test_corner_node_kronecker(self):
        n = shape_values(np.array([0.0, 0.0, 0.0]), "quadratic")
        expect = np.zeros(10)
        expect[0] = 1.0
        np.testing.assert_allclose(n, expect, atol=1e-15)

    def test_midedge_node_kronecker(self):
        n = shape_values(np.array([0.5, 0.0, 0.0]), "quadratic")
        expect = np.zeros(10)
        expect[4] = 1.0
        np.testing.assert_allclose(n, expect, atol=1e-15)

    def test_all_reference_nodes_kronecker(self):
        n = shape_values(REFERENCE_NODES, "quadratic")
        np.testing.assert_allclose(n, np.eye(10), atol=1e-15)

    def test_linear_barycenter(self):
        n = shape_values(np.array([0.25, 0.25, 0.25]), "linear")
        np.testing.assert_allclose(n, [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    @given(x=coord, y=coord, z=coord)
    def test_partition_of_unity(self, x, y, z):
        xi = np.array([x, y, z])
        assert abs(shape_values(xi, "quadratic").sum() - 1.0) < 1e-12
        assert abs(shape_values(xi, "linear").sum() - 1.0) < 1e-12

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            shape_values(np.zeros(3), "cubic")


class TestShapeGradients:
    def test_linear_constant(self):
        g = shape_gradients(np.array([0.3, 0.1, 0.2]), "linear")
        expect = np.array(
            [[-1, -1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
        )
        np.testing.assert_array_equal(g, expect)

    def test_finite_difference_oracle(self):
        # central differences of shape_values, step 1e-6
        xi = np.array([0.25, 0.25, 0.25])
        h = 1e-6
        g = shape_gradients(xi, "quadratic")
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (shape_values(xi + e) - shape_values(xi - e)) / (2 * h)
            np.testing.assert_allclose(g[:, j], fd, atol=1e-8)

    def test_finite_difference_random(self, rng):
        for xi in rng.uniform(-0.2, 1.0, size=(20, 3)):
            g = shape_gradients(xi, "quadratic")
            for j in range(3):
                e = np.zeros(3)
                e[j] = 1e-6
                fd = (shape_values(xi + e) - shape_values(xi - e)) / 2e-6
                np.testing.assert_allclose(g[:, j], fd, atol=1e-8)

    def test_column_sums_vanish(self, rng):
        xi = rng.uniform(-0.5, 1.5, size=(100, 3))
        g = shape_gradients(xi, "quadratic")
        assert np.abs(g.sum(axis=-2)).max() < 1e-12
        g = shape_gradients(xi, "linear")
        assert np.abs(g.sum(axis=-2)).max() < 1e-12


class TestLocalToGlobal:
    def test_corners_recovered(self):
        mesh = single_tet_mesh()
        for j, xi in enumerate(REFERENCE_NODES[:4]):
            np.testing.assert_allclose(
                local_to_global(mesh, 0, xi), mesh.nodes[j], atol=1e-15
            )

    def test_straight_sided_barycenter_is_corner_mean(self):
        corners = np.array(
            [[0.1, 0.2, 0.0], [1.3, -0.1, 0.2], [0.0, 1.1, 0.3], [0.2, 0.1, 1.4]]
        )
        mesh = single_tet_mesh(corners)
        got = local_to_global(mesh, 0, np.array([0.25, 0.25, 0.25]))
        np.testing.assert_allclose(got, corners.mean(axis=0), atol=1e-14)

    def test_affine_reproduction_matches_linear(self, rng):
        corners = REFERENCE_TET + rng.normal(0, 0.1, (4, 3))
        quad = single_tet_mesh(corners, quadratic=True)
        lin = single_tet_mesh(corners, quadratic=False)
        for xi in random_simplex_points(rng, 25):
            a = local_to_global(quad, 0, xi)
            b = local_to_global(lin, 0, xi)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_curved_element_sympy_oracle(self, ball_mesh_field, rng):
        # independent symbolic expansion of the same Lagrange polynomials
        sympy = pytest.importorskip("sympy")
        mesh, _ = ball_mesh_field
        x, y, z = sympy.symbols("x y z")
        w = 1 - x - y - z
        basis = [
            w * (2 * w - 1),
            x * (2 * x - 1),
            y * (2 * y - 1),
            z * (2 * z - 1),
            4 * x * w,
            4 * x * y,
            4 * y * w,
            4 * z * w,
            4 * x * z,
            4 * y * z,
        ]
        basis = [sympy.expand(b) for b in basis]
        e = int(rng.integers(mesh.n_elements))
        nodes = mesh.element_nodes(e)
        for xi in random_simplex_points(rng, 5):
            subs = {x: sympy.Float(xi[0], 30), y: sympy.Float(xi[1], 30), z: sympy.Float(xi[2], 30)}
            expect = np.array(
                [
                    float(sum(sympy.Float(nodes[i, a], 30) * basis[i].evalf(30, subs=subs) for i in range(10)))
                    for a in range(3)
                ]
            )
            got = local_to_global(mesh, e, xi)
            np.testing.assert_allclose(got, expect, atol=1e-13)

    def test_invalid_element_id(self):
        mesh = single_tet_mesh()
        with pytest.raises(MeshError):
            local_to_global(mesh, 5, np.zeros(3))


class TestInterpolate:
    def test_constant_field(self, rng):
        mesh = single_tet_mesh()
        field = NodalField(np.full(10, 3.75))
        for xi in random_simplex_points(rng, 10):
            assert abs(interpolate(field, mesh, 0, xi) - 3.75) < 1e-12

    def test_isoparametric_consistency(self, rng):
        # field equal to the x-coordinate reproduces x of the mapped point
        mesh = single_tet_mesh()
        field = NodalField(mesh.nodes[:, 0].copy())
        for xi in random_simplex_points(rng, 10):
            v = interpolate(field, mesh, 0, xi)
            p = local_to_global(mesh, 0, xi)
            assert abs(v - p[0]) < 1e-13

    def test_cartesian_quadratic_exact(self, rng):
        # any quadratic polynomial in x is reproduced exactly on straight elements
        corners = REFERENCE_TET * 1.7 + np.array([0.2, -0.1, 0.4])
        mesh = single_tet_mesh(corners)

        def f(p):
            return p[..., 0] ** 2 + 2 * p[..., 0] * p[..., 1] - p[..., 2] + 1.0

        field = NodalField(f(mesh.nodes))
        for xi in random_simplex_points(rng, 20):
            v = interpolate(field, mesh, 0, xi)
            assert abs(v - f(local_to_global(mesh, 0, xi))) < 1e-12

    def test_size_mismatch(self):
        mesh = single_tet_mesh()
        with pytest.raises(ValueError):
            interpolate(NodalField(np.ones(3)), mesh, 0, np.zeros(3))


class TestBoundaryFaces:
    def test_single_tet(self):
        faces = boundary_faces(single_tet_mesh())
        assert faces.shape == (4, 3)

    def test_two_tets_share_face(self):
        faces = boundary_faces(two_tet_mesh())
        assert faces.shape == (6, 3)
        # the shared face (0,1,2) must not appear
        keys = {tuple(sorted(f)) for f in faces.tolist()}
        assert (0, 1, 2) not in keys

    def test_non_manifold_rejected(self):
        vertices = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.3, 0.3, -1.0],
                [1.0, 1.0, 0.5],
            ]
        )
        mesh = mesh_from_corner_tets(
            vertices, [(0, 1, 2, 3), (0, 2, 1, 4), (0, 1, 2, 5)]
        )
        with pytest.raises(MeshError):
            boundary_faces(mesh)

    def test_divergence_theorem_volume(self, ball_mesh_field):
        # surface sum of signed volume contributions vs element quadrature,
        # both on the linearized (corner) mesh
        mesh, _ = ball_mesh_field
        faces = boundary_faces(mesh)
        p = mesh.nodes[faces[:, 0]]
        q = mesh.nodes[faces[:, 1]]
        r = mesh.nodes[faces[:, 2]]
        v_surf = np.einsum("ij,ij->", p, np.cross(q, r)) / 6.0
        corners = mesh.corner_coords()
        a = corners[:, 1] - corners[:, 0]
        b = corners[:, 2] - corners[:, 0]
        c = corners[:, 3] - corners[:, 0]
        v_elem = np.einsum("ij,ij->", a, np.cross(b, c)) / 6.0
        assert abs(v_surf - v_elem) < 1e-6 * abs(v_elem)


class TestMeshValidation:
    def test_negative_volume_rejected(self):
        corners = REFERENCE_TET[[0, 2, 1, 3]]  # inverted
        with pytest.raises(MeshError):
            single_tet_mesh(corners)

    def test_midnode_bound_rejected(self):
        nodes = straight_quadratic_nodes(REFERENCE_TET)
        nodes[4] = [0.5, 1.2, 0.0]  # way off the (0,1) edge midpoint
        with pytest.raises(MeshError):
            Mesh(nodes, np.arange(10).reshape(1, 10))

    def test_folded_element_rejected(self):
        nodes = folded_quadratic_nodes()
        with pytest.raises(MeshError, match="folded"):
            Mesh(nodes, np.arange(10).reshape(1, 10))

    def test_curved_element_accepted(self):
        nodes = straight_quadratic_nodes(REFERENCE_TET)
        nodes[4] = [0.5, -0.2, -0.2]  # bulged outward, not folded
        Mesh(nodes, np.arange(10).reshape(1, 10))

    def test_lattice_det_matches_jacobian(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        pts = mesh.nodes[mesh.elements]
        ref = np.array([np.linalg.det(jacobian(p, _FOLD_LATTICE)) for p in pts])
        np.testing.assert_allclose(_lattice_jacobian_dets(pts), ref, rtol=1e-12)

    def test_duplicate_nodes_rejected(self):
        nodes = straight_quadratic_nodes(REFERENCE_TET)
        nodes[5] = nodes[4]
        with pytest.raises(MeshError):
            Mesh(nodes, np.arange(10).reshape(1, 10))

    def test_field_requires_finite(self):
        with pytest.raises(ValueError):
            NodalField(np.array([1.0, np.nan]))
