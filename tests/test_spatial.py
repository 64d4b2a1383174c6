import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fexray import spatial
from fexray.bench import BallSpec, CylinderSpec, generate_ball, generate_cylinder
from fexray.mesh import EDGE_VERTICES, Mesh, NodalField, _lattice_jacobian_dets
from fexray.spatial import (
    BOX_INFLATION,
    MAX_LEAF_ELEMENTS,
    Aabb,
    Basis,
    DegenerateGeometryError,
    build_obb_tree,
    covariance,
    element_bounding_points,
    model_aabb,
    triangles_centroid_area,
    weighted_center,
)
from fexray.xray import IntegrationSettings, make_detector, render
from tests.conftest import golden_scene, mesh_from_corner_tets
from tests.helpers import convex_hull, fit_obb, pca_basis, to_local


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


coord = st.floats(-1.0, 1.0)
vec3 = st.tuples(coord, coord, coord)


def _node_elements(node):
    """The node's element ids in ascending order, the order the build keeps."""
    return np.sort(np.concatenate(list(_collect(node))))


def _tree_nodes(tree):
    """All nodes, breadth first."""
    nodes = [tree.root]
    for node in nodes:
        if not node.is_leaf:
            nodes += [node.left, node.right]
    return nodes


def _assert_inside(obb, points):
    local = to_local(obb.basis, points)
    assert (local >= obb.box.pmin).all() and (local <= obb.box.pmax).all()


def _assert_boxes_contain(mesh, tree):
    bpts = element_bounding_points(mesh)
    for leaf in tree.leaves:
        _assert_inside(leaf.obb, bpts[leaf.elements].reshape(-1, 3))


def _kuhn_row(n_cubes):
    """Corners of a row of unit cubes, each cut into the six tetrahedra
    around its main diagonal; neighbouring tets share edges."""
    verts = [(x, y, z) for x in range(n_cubes + 1) for y in (0, 1) for z in (0, 1)]
    index = {v: k for k, v in enumerate(verts)}
    tets = []
    for cx in range(n_cubes):
        for perm in itertools.permutations(range(3)):
            p = [cx, 0, 0]
            path = [index[tuple(p)]]
            for ax in perm:
                p[ax] += 1
                path.append(index[tuple(p)])
            a, b, c, d = (np.array(verts[k], float) for k in path)
            if np.dot(b - a, np.cross(c - a, d - a)) < 0.0:
                path[2], path[3] = path[3], path[2]
            tets.append(tuple(path))
    return [np.array(v, float) for v in verts], tets


PATCH = mesh_from_corner_tets(*_kuhn_row(2))
N_PATCH_MIDNODES = PATCH.n_nodes - 12


def _curved_mesh(patch_disp, loose, scale):
    """PATCH plus ``loose`` tets (corners, six midnode moves) that share no
    node, with every midnode moved by its displacement (length <= 1) times
    ``scale`` times just under the half edge length ``validate_mesh``
    allows; the moves of a folded element's midnodes halve until no element
    folds.  Nearly flat loose tets are dropped."""
    nodes, elements = list(PATCH.nodes), list(PATCH.elements)
    disp = list(patch_disp)
    for corners, moves in loose:
        c = np.asarray(corners, dtype=float)
        vol6 = np.dot(c[1] - c[0], np.cross(c[2] - c[0], c[3] - c[0]))
        if abs(vol6) < 1e-2:
            continue
        if vol6 < 0.0:
            c = c[[0, 1, 3, 2]]
        first = len(nodes)
        nodes += list(c) + [0.5 * (c[a] + c[b]) for a, b in EDGE_VERTICES]
        elements.append(np.arange(first, first + 10))
        disp += moves
    nodes, elements = np.array(nodes), np.array(elements, dtype=np.int64)
    move = np.zeros_like(nodes)
    # midnode ids ascend in the order their displacements are listed
    ends = {
        conn[4 + m]: (conn[a], conn[b])
        for conn in elements
        for m, (a, b) in enumerate(EDGE_VERTICES)
    }
    for d, (mid, (a, b)) in zip(disp, sorted(ends.items())):
        d = np.asarray(d) / max(1.0, float(np.linalg.norm(d)))
        move[mid] = 0.499 * np.linalg.norm(nodes[b] - nodes[a]) * scale * d
    while True:
        folded = (_lattice_jacobian_dets((nodes + move)[elements]) <= 0.0).any(axis=1)
        if not folded.any():
            return Mesh(nodes + move, elements)
        move[elements[folded, 4:]] *= 0.5


def _distinct_corners_and_edges(mesh, elems):
    conn = mesh.elements[elems]
    corners = np.unique(conn[:, :4]).size
    if mesh.order == "linear":
        return corners
    edges = {
        (min(e[a], e[b]), max(e[a], e[b]), e[4 + m])
        for e in conn.tolist()
        for m, (a, b) in enumerate(EDGE_VERTICES)
    }
    return corners + len(edges)


def _hull_test_mesh(name):
    if name == "ball8-linear":
        mesh = golden_scene("ball8")[0]
        return Mesh(mesh.nodes, mesh.elements[:, :4])
    return golden_scene(name)[0]


def _benchmark_mesh(name, cylinder_full):
    """The mesh of a benchmark workload: ``ball512`` or ``cylinder2058``."""
    if name == "ball512":
        return generate_ball(BallSpec(target_elements=512))[0]
    return cylinder_full[0]


class TestObbTree:
    def test_single_element_is_leaf(self):
        mesh = line_of_tets(1)
        tree = build_obb_tree(mesh, 10)
        assert tree.root.is_leaf
        assert len(tree.leaves) == 1

    @pytest.mark.parametrize("value", [2.5, True, 0])
    def test_leaf_size_is_a_count(self, value):
        with pytest.raises(ValueError, match="^max_leaf_elements must be"):
            build_obb_tree(line_of_tets(3), value)

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
        # every leaf box holds all bounding points of its elements, midnodes
        # included although the point table leaves them out
        meshes = [ball_mesh_field[0], golden_scene("ball8")[0], golden_scene("cylinder100")[0]]
        for mesh in meshes:
            for leaf_size in (1, 3, 10):
                _assert_boxes_contain(mesh, build_obb_tree(mesh, leaf_size))

    @given(
        st.lists(vec3, min_size=N_PATCH_MIDNODES, max_size=N_PATCH_MIDNODES),
        st.lists(
            st.tuples(
                st.lists(vec3, min_size=4, max_size=4),
                st.lists(vec3, min_size=6, max_size=6),
            ),
            max_size=4,
        ),
        st.sampled_from([0.05, 0.25, 1.0]),
    )
    def test_containment_random_curved(self, patch_disp, loose, scale):
        mesh = _curved_mesh(patch_disp, loose, scale)
        for leaf_size in (1, 3, 10):
            _assert_boxes_contain(mesh, build_obb_tree(mesh, leaf_size))

    def test_every_basis_is_orthonormal_and_right_handed(self, cylinder_full):
        # Basis takes its rows as given; the tree's come from _eigen_rows.
        # Golden trees at several leaf sizes, and the trees of the two
        # benchmark meshes (ball 512 el, cylinder 2058 el)
        trees = [
            build_obb_tree(golden_scene(name)[0], leaf_size)
            for name in ("ball8", "cylinder100")
            for leaf_size in (1, 3, 10)
        ]
        ball512 = generate_ball(BallSpec(target_elements=512))[0]
        trees += [build_obb_tree(ball512, 10), build_obb_tree(cylinder_full[0], 10)]
        for tree in trees:
            rows = np.stack([leaf.obb.basis.rows for leaf in tree.leaves])
            assert np.abs(rows @ np.swapaxes(rows, 1, 2) - np.eye(3)).max() <= 1e-10
            np.testing.assert_allclose(np.linalg.det(rows), 1.0, atol=1e-10)

    def test_flat_slivers_get_the_point_fit(self):
        # slivers 1e-15 thick, too flat for a convex hull: a leaf is fitted
        # like any node, by the PCA of its points, and its box still holds
        # every bounding point
        verts = [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, 1e-15]]
        one = mesh_from_corner_tets(verts, [(0, 1, 2, 3)])
        _assert_leaves_are_point_fits(one, build_obb_tree(one, 1))
        shifted = [[x + 2.0, y, z] for x, y, z in verts]
        two = mesh_from_corner_tets(verts + shifted, [(0, 1, 2, 3), (4, 5, 6, 7)])
        # at leaf size 1 the root is split by its point fit
        tree = build_obb_tree(two, 1)
        assert not tree.root.is_leaf
        assert [leaf.elements.tolist() for leaf in tree.leaves] == [[0], [1]]
        _assert_leaves_are_point_fits(two, tree)
        # at leaf size 2 both slivers make one leaf
        tree = build_obb_tree(two, 2)
        assert tree.root.is_leaf and len(tree.root.elements) == 2
        _assert_leaves_are_point_fits(two, tree)

    def test_sliver_line_is_split_into_small_leaves(self):
        # 200 slivers 1e-14 thick, too flat for a convex hull: every large
        # node is still split by its point fit, no leaf exceeds the leaf
        # size, and the images equal brute force.  Under +z the line is a
        # sheet 6e-7 deep: a step of 0.01 puts no grid point in it and is
        # rejected, so that face is rendered at half the sheet's depth
        mesh = _line_of_thin_tets(200, 1e-14)
        tree = build_obb_tree(mesh, 10)
        assert max(len(leaf.elements) for leaf in tree.leaves) <= 10
        _assert_boxes_contain(mesh, tree)
        field = NodalField(np.ones(mesh.n_nodes))
        box = model_aabb(mesh)
        for face in ("+x", "+y", "+z"):
            det = make_detector(box, face, rays_per_cm2=100.0)
            settings = IntegrationSettings(step=0.01)
            if face == "+z":
                with pytest.raises(ValueError, match="^step"):
                    render(mesh, field, det, settings, tree=tree)
                settings = IntegrationSettings(step=float(box.extents[2]) / 2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                image = render(mesh, field, det, settings, tree=tree)
            brute = render(mesh, field, det, settings, brute_force=True)
            assert image.density.tobytes() == brute.density.tobytes()

    @pytest.mark.parametrize(
        "name, shape", [("ball512", (47, 24, 5)), ("cylinder2058", (185, 93, 7))]
    )
    def test_benchmark_tree_shapes(self, cylinder_full, name, shape):
        # nodes, leaves and depth of the benchmark meshes' default-size trees
        nodes = _tree_nodes(build_obb_tree(_benchmark_mesh(name, cylinder_full)))
        leaves = [node for node in nodes if node.is_leaf]
        assert (len(nodes), len(leaves), max(n.depth for n in nodes)) == shape

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
        assert np.prod(tree.root.obb.box.extents) <= np.prod(aabb.extents)

    def test_dump_tree_structure(self, ball_mesh_field):
        # a depth-first walk reaches exactly tree.leaves, in order, through
        # children one level deeper than their parent; leaf boxes are valid
        mesh, _ = ball_mesh_field
        tree = build_obb_tree(mesh, 10)
        assert tree.root.depth == 0
        reached = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert (node.obb.box.pmin <= node.obb.box.pmax).all()
                reached.append(node)
                continue
            for child in (node.right, node.left):
                assert child.depth == node.depth + 1
                stack.append(child)
        assert [id(n) for n in reached] == [id(n) for n in tree.leaves]
        ids = np.concatenate([leaf.elements for leaf in reached])
        assert sorted(ids.tolist()) == list(range(mesh.n_elements))

    @pytest.mark.parametrize("leaf_size", [1, 3, 10])
    def test_internal_nodes_keep_only_their_children(self, ball_mesh_field, leaf_size):
        # rays meet only leaf boxes, so a split node has no box, no elements
        # and two children one level deeper
        tree = build_obb_tree(ball_mesh_field[0], leaf_size)
        internal = [node for node in _tree_nodes(tree) if not node.is_leaf]
        assert internal
        for node in internal:
            assert node.obb is None and node.elements is None
            assert node.left.depth == node.right.depth == node.depth + 1
        assert all(leaf.obb is not None for leaf in tree.leaves)


def _collect(node):
    if node.is_leaf:
        yield node.elements
    else:
        yield from _collect(node.left)
        yield from _collect(node.right)


def _leaf_inputs(mesh, tree):
    """Each leaf's distinct table rows in ascending order: its corners and
    edge control points, each once."""
    table, elem_rows = spatial._point_table(mesh)
    return [table[np.unique(elem_rows[leaf.elements])] for leaf in tree.leaves]


def _assert_fitted_on_inputs(mesh, tree):
    """Each leaf is fitted on exactly its distinct corners and edge control
    points: its origin is their mean (a midnode or a repeated point would
    move it) and its box is their extent in its frame.  A split node keeps
    no box."""
    for leaf, points in zip(tree.leaves, _leaf_inputs(mesh, tree)):
        assert len(points) == _distinct_corners_and_edges(mesh, leaf.elements)
        origin = leaf.obb.basis.origin
        np.testing.assert_allclose(origin, points.mean(axis=0), rtol=1e-13, atol=1e-15)
        box = fit_obb(points, leaf.obb.basis).box
        assert box.pmin.tobytes() == leaf.obb.box.pmin.tobytes()
        assert box.pmax.tobytes() == leaf.obb.box.pmax.tobytes()
    assert all(node.obb is None for node in _tree_nodes(tree) if not node.is_leaf)


def _line_of_thin_tets(n, height):
    """n disjoint tets along x, ``height`` thick in z."""
    verts, tets = [], []
    for i in range(n):
        base = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, height]])
        verts.extend(base + [1.5 * i, 0, 0])
        tets.append(tuple(range(4 * i, 4 * i + 4)))
    return mesh_from_corner_tets(verts, tets)


class TestHullInput:
    # the golden scenes, and the two benchmark meshes at the default leaf size
    @pytest.mark.parametrize(
        "name", ["ball8", "cylinder100", "ball8-linear", "ball512", "cylinder2058"]
    )
    def test_one_qhull_call_per_leaf_on_its_points(self, name, cylinder_full):
        # each leaf is fitted on exactly its distinct corners and edge
        # control points (never 16 points per element), with no hull; a
        # split node keeps no box
        if name in ("ball512", "cylinder2058"):
            mesh, leaf_sizes = _benchmark_mesh(name, cylinder_full), (MAX_LEAF_ELEMENTS,)
        else:
            mesh, leaf_sizes = _hull_test_mesh(name), (1, 3, 10, MAX_LEAF_ELEMENTS)
        for leaf_size in leaf_sizes:
            tree = build_obb_tree(mesh, leaf_size)
            assert len(tree.leaves) > 1 or leaf_size > 1  # leaf size 1 splits
            _assert_fitted_on_inputs(mesh, tree)

    def test_flat_and_thick_lines_fit_each_leaf_once(self):
        # however thin the line, each leaf is fitted on its points and a
        # split node keeps no box
        for height in (1e-7, 1e-3):
            mesh = _line_of_thin_tets(4, height)
            tree = build_obb_tree(mesh, 1)
            internal = [n for n in _tree_nodes(tree) if not n.is_leaf]
            assert len(tree.leaves) == 4 and len(internal) == 3
            _assert_fitted_on_inputs(mesh, tree)
            _assert_leaves_are_point_fits(mesh, tree)

    @pytest.mark.parametrize("name", ["ball8", "cylinder100", "ball8-linear"])
    def test_point_table_rows_are_bounding_points(self, name):
        # corners and control points keep the bits of element_bounding_points
        mesh = _hull_test_mesh(name)
        table, rows = spatial._point_table(mesh)
        keep = [0, 1, 2, 3] + ([] if mesh.order == "linear" else list(range(10, 16)))
        assert table[rows].tobytes() == element_bounding_points(mesh)[:, keep].tobytes()
        all_elems = np.arange(mesh.n_elements)
        assert len(table) == _distinct_corners_and_edges(mesh, all_elems)

    # the golden scenes and the two benchmark meshes
    @pytest.mark.parametrize("name", ["ball8", "cylinder100", "ball512", "cylinder2058"])
    def test_point_table_edges_match_unique_rows(self, name):
        if name == "ball512":
            mesh = generate_ball(BallSpec(target_elements=512))[0]
        elif name == "cylinder2058":
            mesh = generate_cylinder(CylinderSpec())[0]
            assert mesh.n_elements == 2058
        else:
            mesh = golden_scene(name)[0]
        table, rows = spatial._point_table(mesh)
        ends = np.sort(mesh.elements[:, EDGE_VERTICES], axis=2)
        keys = np.concatenate([ends, mesh.elements[:, 4:, None]], axis=2).reshape(-1, 3)
        edges, edge_rows = np.unique(keys, axis=0, return_inverse=True)
        n_corners = len(np.unique(mesh.elements[:, :4]))
        a, b, mid = mesh.nodes[edges.T]
        assert table[n_corners:].tobytes() == spatial._control_points(mid, a, b).tobytes()
        assert (rows[:, 4:] == n_corners + edge_rows.reshape(-1, 6)).all()


def _bits(leaf):
    obb = leaf.obb
    arrays = [obb.basis.rows, obb.basis.origin, obb.box.pmin, obb.box.pmax, leaf.elements]
    return b"".join(a.tobytes() for a in arrays)


def _topology(tree):
    return [(node.depth, node.is_leaf) for node in _tree_nodes(tree)]


class TestTreeDeterminism:
    def test_rebuild_is_bitwise_identical(self, ball_mesh_field):
        ball64 = ball_mesh_field[0]
        first, second = build_obb_tree(ball64, 10), build_obb_tree(ball64, 10)
        assert [_bits(n) for n in first.leaves] == [_bits(n) for n in second.leaves]
        assert _topology(first) == _topology(second)
        assert len(list(_collect(first.root.left))) == len(list(_collect(second.root.left)))

    def test_level_fit_does_not_depend_on_batching(self, ball_mesh_field):
        # a level fitted as one batch, in reverse order, or node by node
        # gives every node the same bits
        ball64 = ball_mesh_field[0]
        nodes = _tree_nodes(build_obb_tree(ball64, 3))
        for depth in (1, 2, 3):
            groups = [_node_elements(n) for n in nodes if n.depth == depth]
            assert len(groups) >= 2
            joint = _fit(ball64, groups)
            backwards = _fit(ball64, groups[::-1])
            for i, group in enumerate(groups):
                alone = _fit(ball64, [group])
                for k in range(4):
                    bits = alone[k][0].tobytes()
                    assert joint[k][i].tobytes() == bits
                    assert backwards[k][len(groups) - 1 - i].tobytes() == bits

    # the golden scenes, and the two benchmark meshes at the default leaf size
    @pytest.mark.parametrize(
        "name, leaf_size",
        [
            ("ball64", 3),
            ("ball8", 1),
            ("cylinder100", 1),
            ("cylinder100", 3),
            ("cylinder100", 10),
            ("ball512", MAX_LEAF_ELEMENTS),
            ("cylinder2058", MAX_LEAF_ELEMENTS),
        ],
    )
    def test_leaves_are_hull_fits(self, ball_mesh_field, cylinder_full, name, leaf_size):
        # every leaf box has the bits of the point fit of its elements alone
        if name == "ball64":
            mesh = ball_mesh_field[0]
        elif name in ("ball512", "cylinder2058"):
            mesh = _benchmark_mesh(name, cylinder_full)
        else:
            mesh = golden_scene(name)[0]
        _assert_leaves_are_point_fits(mesh, build_obb_tree(mesh, leaf_size))

    def test_inseparable_large_node_keeps_its_point_fit(self):
        # three copies of one element have one centroid, so no axis
        # separates them: the node is a leaf and keeps the point fit it got
        # as a large node
        corners = [[0.0, 0, 0], [2, 0, 0], [0, 1, 0], [0.2, 0.3, 0.5]]
        mesh = mesh_from_corner_tets(corners, [(0, 1, 2, 3)] * 3)
        tree = build_obb_tree(mesh, 1)
        assert tree.root.is_leaf and len(tree.root.elements) == 3
        _assert_leaves_are_point_fits(mesh, tree)


def _fit(mesh, groups):
    """``spatial._fit_level`` of one level whose nodes hold ``groups``."""
    table, elem_rows = spatial._point_table(mesh)
    elems = np.concatenate(groups)
    seg = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return spatial._fit_level(table, elem_rows, elems, seg, len(groups))


def _assert_leaves_are_point_fits(mesh, tree):
    """Every leaf box holds its bounding points and has the bits of the
    level fit of its elements alone."""
    _assert_boxes_contain(mesh, tree)
    for leaf in tree.leaves:
        rows, origins, pmin, pmax = _fit(mesh, [_node_elements(leaf)])
        assert leaf.obb.basis.rows.tobytes() == rows[0].tobytes()
        assert leaf.obb.basis.origin.tobytes() == origins[0].tobytes()
        assert leaf.obb.box.pmin.tobytes() == pmin[0].tobytes()
        assert leaf.obb.box.pmax.tobytes() == pmax[0].tobytes()


class TestModelAabb:
    def test_contains_all_bounding_points(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        box = model_aabb(mesh)
        pts = element_bounding_points(mesh).reshape(-1, 3)
        assert (pts >= box.pmin).all() and (pts <= box.pmax).all()

    @pytest.mark.parametrize("name", ["ball8", "cylinder100", "signed_zeros"])
    def test_bytes_of_the_axis_reduction(self, name):
        # the box is reduced column by column; min and max are exact, and
        # the inflation turns a -0.0/+0.0 tie into the same bits
        if name == "signed_zeros":
            verts = [[-0.0, 0.0, -0.0], [1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 0.0, 1.0]]
            mesh = mesh_from_corner_tets(verts, [(0, 1, 2, 3)])
        else:
            mesh, _ = golden_scene(name)
        pts = element_bounding_points(mesh).reshape(-1, 3)
        pmin, pmax = pts.min(axis=0), pts.max(axis=0)
        eps = BOX_INFLATION * float(np.linalg.norm(pmax - pmin))
        box = model_aabb(mesh)
        assert box.pmin.tobytes() == (pmin - eps).tobytes()
        assert box.pmax.tobytes() == (pmax + eps).tobytes()

    def test_aabb_validation(self):
        with pytest.raises(ValueError):
            Aabb(np.array([1.0, 0, 0]), np.array([0.0, 1, 1]))
