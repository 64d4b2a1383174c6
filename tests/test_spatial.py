import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fexray.spatial import (
    BOX_INFLATION,
    Aabb,
    Basis,
    DegenerateGeometryError,
    build_obb_tree,
    convex_hull,
    covariance,
    element_bounding_points,
    fit_obb,
    model_aabb,
    pca_basis,
    triangles_centroid_area,
    weighted_center,
)
from tests.conftest import mesh_from_corner_tets


def cube_surface(center=(0.0, 0.0, 0.0), sides=(1.0, 1.0, 1.0), rotation=None):
    """Symmetrically triangulated box surface (4 triangles per face).

    The symmetric fan keeps the triangle-centroid distribution aligned with
    the box axes, so the PCA axes are exactly the box axes.
    """
    c = np.asarray(center, float)
    h = 0.5 * np.asarray(sides, float)
    corners = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
        float,
    ) * h
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
        (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3),
    ]
    tris = []
    for a, b, cc, d in quads:
        quad = corners[[a, b, cc, d]]
        mid = quad.mean(axis=0)
        for k in range(4):
            tris.append(np.array([quad[k], quad[(k + 1) % 4], mid]))
    tris = np.array(tris)
    if rotation is not None:
        tris = tris @ np.asarray(rotation).T
    return tris + c


def rotation_matrix(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def icosphere(subdiv=1, radius=1.0):
    phi = (1 + np.sqrt(5)) / 2
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = list(verts)
    for _ in range(subdiv):
        new_faces = []
        cache = {}

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = 0.5 * (verts[a] + verts[b])
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.array(verts) * radius
    return np.array([v[list(f)] for f in faces])


class TestTriangleCentroidArea:
    def test_unit_right_triangle(self):
        tri = np.array([[[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]])
        c, a = triangles_centroid_area(tri)
        np.testing.assert_allclose(c[0], [1 / 3, 1 / 3, 0], atol=1e-15)
        assert abs(a[0] - 0.5) < 1e-15

    def test_collinear_is_zero(self):
        tri = np.array([[[0.0, 0, 0], [1, 1, 1], [2, 2, 2]]])
        _, a = triangles_centroid_area(tri)
        assert a[0] == 0.0

    def test_cross_product_oracle(self, rng):
        tris = rng.normal(size=(500, 3, 3))
        _, areas = triangles_centroid_area(tris)
        oracle = 0.5 * np.linalg.norm(
            np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]), axis=1
        )
        np.testing.assert_allclose(areas, oracle, rtol=1e-12)

    @given(
        scale=st.floats(1e-8, 1e6),
        sliver=st.floats(1e-2, 0.5),
    )
    def test_needle_triangles_match_cross_product(self, scale, sliver):
        # thinner slivers than ~1e-8 lose their area inside the rounded side
        # lengths, so no Heron variant can track the cross product there
        tri = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, sliver, 0]]) * scale
        _, a = triangles_centroid_area(tri[None])
        oracle = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
        assert abs(a[0] - oracle) <= 1e-12 * max(oracle, 1e-300)


class TestWeightedCenter:
    def test_single_triangle_is_centroid(self):
        tri = np.array([[[0.0, 0, 0], [2, 0, 0], [0, 2, 0]]])
        np.testing.assert_allclose(weighted_center(tri), [2 / 3, 2 / 3, 0], atol=1e-15)

    def test_cube_surface_centered(self):
        mu = weighted_center(cube_surface(center=(0, 0, 0)))
        np.testing.assert_allclose(mu, [0, 0, 0], atol=1e-12)

    def test_retriangulation_invariance(self):
        # the same surface triangulated differently gives the same center
        quad = np.array([[0.0, 0, 0], [2, 0, 0], [2, 1, 0], [0, 1, 0]])
        t1 = np.array([quad[[0, 1, 2]], quad[[0, 2, 3]]])
        t2 = np.array([quad[[0, 1, 3]], quad[[1, 2, 3]]])
        np.testing.assert_allclose(weighted_center(t1), weighted_center(t2), atol=1e-12)

    def test_sphere_refinement_stability(self):
        center = np.array([0.3, -0.2, 0.5])
        coarse = icosphere(1) + center
        fine = icosphere(2) + center
        mu1 = weighted_center(coarse)
        mu2 = weighted_center(fine)
        assert np.linalg.norm(mu1 - mu2) < 1e-3

    def test_zero_area_rejected(self):
        tri = np.zeros((2, 3, 3))
        with pytest.raises(DegenerateGeometryError):
            weighted_center(tri)


class TestCovariance:
    def test_coincident_centroids_give_zero(self):
        # two triangles arranged so both centroids sit at the origin
        t1 = np.array([[-1.0, -1, 0], [1, 0, 0], [0, 1, 0]])
        t2 = t1[[1, 0, 2]] * 1.0
        tris = np.array([t1, t2])
        mu = np.zeros(3)
        cov = covariance(tris, mu)
        np.testing.assert_allclose(cov, 0.0, atol=1e-15)

    def test_x_axis_spread(self):
        base = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        tris = np.array([base + [dx, 0, 0] for dx in (-3.0, 0.0, 3.0)])
        mu = weighted_center(tris)
        cov = covariance(tris, mu)
        assert cov[0, 0] > 1e-12
        off = np.abs(cov).sum() - abs(cov[0, 0])
        assert off < 1e-12

    def test_brute_force_oracle(self, rng):
        tris = rng.normal(size=(40, 3, 3))
        mu = weighted_center(tris)
        cov = covariance(tris, mu)
        centroids, areas = triangles_centroid_area(tris)
        n = len(tris)
        expect = np.zeros((3, 3))
        for k in range(n):
            cbar = np.sqrt(areas[k]) * (centroids[k] - mu)
            for i in range(3):
                for j in range(3):
                    expect[i, j] += cbar[i] * cbar[j]
        expect /= n - 1
        np.testing.assert_allclose(cov, expect, atol=1e-12 * max(1.0, np.abs(expect).max()))

    def test_needs_two_triangles(self):
        tri = np.array([[[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]])
        with pytest.raises(DegenerateGeometryError):
            covariance(tri, np.zeros(3))


class TestPcaBasis:
    def test_elongated_box_long_axis(self):
        direction = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        rot = np.array(
            [
                [direction[0], -direction[1], 0],
                [direction[1], direction[0], 0],
                [0, 0, 1],
            ]
        )
        tris = cube_surface(sides=(8.0, 1.0, 0.5), rotation=rot)
        basis = pca_basis(tris)
        cos = abs(float(np.dot(basis.rows[0], direction)))
        assert cos > np.cos(np.radians(1.0))

    def test_orthonormal_invariants_on_sphere(self):
        basis = pca_basis(icosphere(1))
        np.testing.assert_allclose(basis.rows @ basis.rows.T, np.eye(3), atol=1e-10)
        assert np.linalg.det(basis.rows) > 0

    def test_rotation_equivariance(self, rng):
        tris = cube_surface(sides=(5.0, 2.0, 1.0))
        mu0 = weighted_center(tris)
        ev0 = np.sort(np.linalg.eigvalsh(covariance(tris, mu0)))
        b0 = pca_basis(tris)
        for _ in range(10):
            rot = rotation_matrix(rng)
            rtris = tris @ rot.T
            mu = weighted_center(rtris)
            ev = np.sort(np.linalg.eigvalsh(covariance(rtris, mu)))
            np.testing.assert_allclose(ev, ev0, rtol=1e-9, atol=1e-12)
            b = pca_basis(rtris)
            # eigenvectors match the rotated originals up to per-axis sign
            dots = np.abs(b.rows @ (b0.rows @ rot.T).T)
            np.testing.assert_allclose(np.diag(dots), 1.0, atol=1e-7)


class TestConvexHull:
    def test_four_points(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        hull = convex_hull(pts)
        assert hull.faces.shape == (4, 3)

    def test_cube_with_interior_points(self, rng):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        interior = rng.uniform(0.2, 0.8, size=(5, 3))
        pts = np.vstack([corners, interior])
        hull = convex_hull(pts)
        assert hull.faces.shape == (12, 3)
        assert set(hull.vertex_indices) == set(range(8))

    def test_cube_hull_volume(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        hull = convex_hull(corners)
        tri = corners[hull.faces]
        vol = np.einsum("ij,ij->", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])) / 6.0
        assert abs(vol - 1.0) < 1e-12

    def test_outward_orientation(self, rng):
        pts = rng.normal(size=(30, 3))
        hull = convex_hull(pts)
        tri = pts[hull.faces]
        center = pts[hull.vertex_indices].mean(axis=0)
        n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        outward = np.einsum("ij,ij->i", n, tri.mean(axis=1) - center)
        assert (outward > 0).all()

    def test_containment(self, rng):
        pts = rng.normal(size=(50, 3))
        hull = convex_hull(pts)
        tri = pts[hull.faces]
        n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        n /= np.linalg.norm(n, axis=1)[:, None]
        # signed distance of every point to every face plane
        d = np.einsum("fj,pfj->pf", n, pts[:, None, :] - tri[None, :, 0, :])
        assert d.max() < 1e-10

    def test_coplanar_rejected(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]])
        with pytest.raises(DegenerateGeometryError):
            convex_hull(pts)


class TestFitObb:
    def test_identity_basis_cube(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        basis = Basis(np.eye(3), np.zeros(3))
        obb = fit_obb(corners, basis)
        pad = BOX_INFLATION * np.sqrt(3.0)
        np.testing.assert_allclose(obb.box.pmin, [0, 0, 0], rtol=0, atol=pad)
        np.testing.assert_allclose(obb.box.pmax, [1, 1, 1], rtol=0, atol=pad)
        assert (obb.box.pmin < 0.0).all() and (obb.box.pmax > 1.0).all()

    def test_rotated_square(self):
        s = 1 / np.sqrt(2)
        rows = np.array([[s, s, 0], [-s, s, 0], [0, 0, 1]])
        square = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        obb = fit_obb(square, Basis(rows, np.zeros(3)))
        ext = np.sort(obb.box.extents)
        pad = 2.0 * BOX_INFLATION * 2.0
        np.testing.assert_allclose(ext, [0.0, np.sqrt(2), np.sqrt(2)], atol=1e-12 + pad)

    def test_single_point(self):
        p = np.array([[0.3, -0.4, 2.0]])
        obb = fit_obb(p, Basis(np.eye(3), np.zeros(3)))
        # a zero diagonal inflates by nothing
        np.testing.assert_array_equal(obb.box.pmin, obb.box.pmax)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            fit_obb(np.empty((0, 3)), Basis(np.eye(3), np.zeros(3)))


def line_of_tets(n, spacing=1.5):
    """n disjoint unit tets along the x axis (quadratic, straight-sided)."""
    verts = []
    tets = []
    base = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for i in range(n):
        off = len(verts)
        verts.extend(base + [i * spacing, 0, 0])
        tets.append((off, off + 1, off + 2, off + 3))
    return mesh_from_corner_tets(verts, tets)


class TestObbTree:
    def test_single_element_is_leaf(self):
        mesh = line_of_tets(1)
        tree = build_obb_tree(mesh, 10)
        assert tree.root.is_leaf
        assert len(tree.leaves) == 1

    def test_line_mesh_depth_and_leaves(self):
        mesh = line_of_tets(64)
        tree = build_obb_tree(mesh, 1)
        assert max(leaf.depth for leaf in tree.leaves) >= 6
        assert all(len(leaf.elements) == 1 for leaf in tree.leaves)

    def test_partition(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        tree = build_obb_tree(mesh, 10)
        seen = np.concatenate([leaf.elements for leaf in tree.leaves])
        assert len(seen) == mesh.n_elements
        assert len(np.unique(seen)) == mesh.n_elements
        assert all(len(leaf.elements) <= 10 for leaf in tree.leaves)

    def test_containment(self, ball_mesh_field):
        # every bounding point of every element fits its leaf's inflated OBB
        mesh, _ = ball_mesh_field
        tree = build_obb_tree(mesh, 10)
        bpts = element_bounding_points(mesh)

        def check(node, elems):
            pts = bpts[elems].reshape(-1, 3)
            local = node.obb.basis.to_local(pts)
            assert (local >= node.obb.box.pmin - 1e-12).all()
            assert (local <= node.obb.box.pmax + 1e-12).all()

        stack = [(tree.root, None)]
        while stack:
            node, _ = stack.pop()
            elems = (
                node.elements
                if node.is_leaf
                else np.concatenate(list(_collect(node)))
            )
            check(node, elems)
            if not node.is_leaf:
                stack.append((node.left, None))
                stack.append((node.right, None))

    def test_obb_tighter_than_aabb_for_elongated_body(self, rng):
        # prosthesis-like body: a slanted elongated block
        direction = np.array([1.0, 1.0, 0.3])
        direction /= np.linalg.norm(direction)
        verts = []
        tets = []
        base = np.array([[0.0, 0, 0], [0.4, 0, 0], [0, 0.4, 0], [0, 0, 0.4]])
        for i in range(12):
            off = 3.0 * i / 11.0
            for v in base + off * direction:
                verts.append(v)
            k = 4 * i
            tets.append((k, k + 1, k + 2, k + 3))
        mesh = mesh_from_corner_tets(verts, tets)
        tree = build_obb_tree(mesh, 100)
        aabb = model_aabb(mesh)
        assert tree.root.obb.volume <= aabb.volume

    def test_dump_tree_structure(self, ball_mesh_field):
        # a depth-first walk reaches exactly tree.leaves, in order, through
        # children one level deeper than their parent with valid boxes
        mesh, _ = ball_mesh_field
        tree = build_obb_tree(mesh, 10)
        assert tree.root.depth == 0
        reached = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert (node.obb.box.pmin <= node.obb.box.pmax).all()
            if node.is_leaf:
                reached.append(node)
                continue
            for child in (node.right, node.left):
                assert child.depth == node.depth + 1
                stack.append(child)
        assert [id(n) for n in reached] == [id(n) for n in tree.leaves]
        ids = np.concatenate([leaf.elements for leaf in reached])
        assert sorted(ids.tolist()) == list(range(mesh.n_elements))


def _collect(node):
    if node.is_leaf:
        yield node.elements
    else:
        yield from _collect(node.left)
        yield from _collect(node.right)


class TestModelAabb:
    def test_contains_all_bounding_points(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        box = model_aabb(mesh)
        pts = element_bounding_points(mesh).reshape(-1, 3)
        assert (pts >= box.pmin).all() and (pts <= box.pmax).all()

    def test_aabb_validation(self):
        with pytest.raises(ValueError):
            Aabb(np.array([1.0, 0, 0]), np.array([0.0, 1, 1]))
