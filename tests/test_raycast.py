import numpy as np
import pytest

from fexray.locate import NewtonSettings, membership_test
from fexray.raycast import moller_trumbore, slab_intervals, tet_entry
from fexray.spatial import Aabb, Basis, Obb, build_obb_tree
from tests.helpers import to_local
from tests.per_ray_reference import Ray, ray_obb, traverse
from tests.test_spatial import line_of_tets, rotation_matrix

UNIT_BOX = Aabb(np.zeros(3), np.ones(3))


def unit_box_slab(o, d):
    """slab_intervals of the ray o + t d against the unit box."""
    o, d = np.asarray(o, dtype=float), np.asarray(d, dtype=float)
    with np.errstate(divide="ignore"):
        inv = 1.0 / d
    return slab_intervals(o, inv, d, UNIT_BOX.pmin, UNIT_BOX.pmax)


def plane_barycentric_oracle(o, d, tri):
    """Independent ray/triangle test: plane intersection + barycentric signs."""
    e1 = tri[1] - tri[0]
    e2 = tri[2] - tri[0]
    n = np.cross(e1, e2)
    dn = float(np.dot(d, n))
    if abs(dn) < 1e-14 * np.linalg.norm(d) * np.linalg.norm(n):
        return None
    t = float(np.dot(tri[0] - o, n) / dn)
    p = o + t * d
    # solve for barycentric coordinates in the triangle plane
    m = np.array([[np.dot(e1, e1), np.dot(e1, e2)], [np.dot(e1, e2), np.dot(e2, e2)]])
    rhs = np.array([np.dot(p - tri[0], e1), np.dot(p - tri[0], e2)])
    u, v = np.linalg.solve(m, rhs)
    if u > 0 and v > 0 and t > 0 and u + v <= 1:
        return t, float(u), float(v)
    return None


class TestRay:
    def test_inv_direction(self):
        r = Ray(np.zeros(3), np.array([2.0, -4.0, 1.0]))
        np.testing.assert_array_equal(r.inv_direction, [0.5, -0.25, 1.0])

    def test_zero_component_gives_inf(self):
        r = Ray(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert np.isinf(r.inv_direction[1])

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Ray(np.zeros(3), np.zeros(3))


class TestRayAabb:
    def test_axis_aligned_center_ray(self):
        t_enter, t_exit, hit = unit_box_slab([-1.0, 0.5, 0.5], [1.0, 0.0, 0.0])
        assert hit and (t_enter, t_exit) == (1.0, 2.0)

    def test_corner_miss(self):
        # passes above the box corner: per-axis intervals do not overlap
        assert not unit_box_slab([0.5, 2.5, 0.5], [1.0, -1.0, 0.0])[2]

    def test_origin_inside(self):
        t_enter, t_exit, hit = unit_box_slab([0.5, 0.5, 0.5], [0.0, 1.0, 0.0])
        assert hit and t_enter < 0.0 < t_exit

    def test_box_behind_ray(self):
        assert not unit_box_slab([5.0, 0.5, 0.5], [1.0, 0.0, 0.0])[2]

    def test_origin_on_slab_plane_parallel(self):
        # 0 * inf would give NaN without the containment guard
        assert unit_box_slab([0.0, 0.5, 0.5], [0.0, 1.0, 0.0])[2]

    def test_parallel_outside_slab(self):
        assert not unit_box_slab([-0.5, 0.5, 0.5], [0.0, 1.0, 0.0])[2]

    def test_dense_sampling_oracle(self, rng):
        # no false negatives against a point-in-box sampling oracle
        n = 3000
        o = rng.uniform(-2, 2, (n, 3))
        d = rng.normal(size=(n, 3))
        te, tx, hit = unit_box_slab(o, d)
        ts = np.linspace(0.0, 8.0, 400)
        pts = o[:, None, :] + ts[None, :, None] * d[:, None, :]
        inside = ((pts >= 0.0) & (pts <= 1.0)).all(axis=2).any(axis=1)
        assert not (inside & ~hit).any()


class TestRayObb:
    def test_identity_basis_matches_aabb(self, rng):
        obb = Obb(Basis(np.eye(3), np.zeros(3)), UNIT_BOX)
        for _ in range(50):
            r = Ray(rng.uniform(-2, 2, 3), rng.normal(size=3))
            t_enter, t_exit, hit = unit_box_slab(r.origin, r.direction)
            b = ray_obb(r, obb)
            assert hit == (b is not None)
            if hit:
                assert (t_enter, t_exit) == b

    def test_rotation_invariance(self, rng):
        box = Aabb(np.array([-0.5, -0.2, -0.1]), np.array([0.5, 0.2, 0.1]))
        for _ in range(30):
            rot = rotation_matrix(rng)
            o = rng.uniform(-2, 2, 3)
            d = rng.normal(size=3)
            base = ray_obb(Ray(o, d), Obb(Basis(np.eye(3), np.zeros(3)), box))
            rotated = ray_obb(
                Ray(rot @ o, rot @ d), Obb(Basis(rot.T.copy(), np.zeros(3)), box)
            )
            assert (base is None) == (rotated is None)
            if base is not None:
                np.testing.assert_allclose(
                    [base.t_enter, base.t_exit],
                    [rotated.t_enter, rotated.t_exit],
                    atol=1e-12,
                )

    def test_dense_sampling_agreement(self, rng):
        rot = rotation_matrix(rng)
        mu = np.array([0.3, -0.1, 0.2])
        box = Aabb(np.array([-0.4, -0.3, -0.2]), np.array([0.4, 0.3, 0.2]))
        obb = Obb(Basis(rot, mu), box)
        misses = 0
        for _ in range(300):
            o = rng.uniform(-1.5, 1.5, 3)
            d = rng.normal(size=3)
            hit = ray_obb(Ray(o, d), obb)
            ts = np.linspace(0, 4, 2000)
            local = to_local(obb.basis, o + ts[:, None] * d)
            inside = ((local >= box.pmin) & (local <= box.pmax)).all(axis=1).any()
            if inside:
                assert hit is not None
            else:
                misses += 1
        assert misses > 0  # the oracle exercised both branches


def triangle_hit(o, d, tri, inclusive=False):
    """moller_trumbore on one triangle: (t, u, v) of a hit, or None."""
    t, u, v, hit = moller_trumbore(o, d, *np.asarray(tri, dtype=float), inclusive=inclusive)
    return (float(t), float(u), float(v)) if hit else None


class TestRayTriangle:
    def test_perpendicular_through_centroid(self):
        tri = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        t, u, v = triangle_hit(np.array([1 / 3, 1 / 3, 1.0]), np.array([0.0, 0.0, -1.0]), tri)
        assert abs(t - 1.0) < 1e-14
        assert abs(u - 1 / 3) < 1e-14 and abs(v - 1 / 3) < 1e-14

    def test_in_plane_ray_parallel(self):
        tri = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert triangle_hit(np.array([-1.0, 0.2, 0.0]), np.array([1.0, 0.0, 0.0]), tri) is None

    def test_strict_rejects_edge_hit(self):
        tri = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        o, d = np.array([0.5, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
        assert triangle_hit(o, d, tri) is None  # v == 0 fails the strict u,v > 0
        assert triangle_hit(o, d, tri, inclusive=True) is not None

    def test_plane_barycentric_oracle(self, rng):
        n = 4000
        agree = 0
        for _ in range(n):
            o = rng.uniform(-1, 1, 3)
            d = rng.normal(size=3)
            tri = rng.normal(size=(3, 3))
            got = triangle_hit(o, d, tri)
            want = plane_barycentric_oracle(o, d, tri)
            # skip numerically marginal cases (within 1e-10 of an acceptance
            # boundary) where the two formulations may legitimately disagree
            if want is not None:
                t, u, v = want
                if min(u, v, t, 1 - u - v) < 1e-10:
                    continue
            if got is not None:
                t, u, v = got
                if min(u, v, t, 1 - u - v) < 1e-10:
                    continue
            assert (got is None) == (want is None)
            if got is not None:
                assert abs(got[0] - want[0]) < 1e-9
                agree += 1
        assert agree > 100

    def test_residual_invariant(self, rng):
        # reported hits reproduce the intersection point
        for _ in range(500):
            o = rng.uniform(-1, 1, 3)
            d = rng.normal(size=3)
            tri = rng.normal(size=(3, 3))
            got = triangle_hit(o, d, tri)
            if got is None:
                continue
            t, u, v = got
            s = (1 - u - v) * tri[0] + u * tri[1] + v * tri[2]
            scale = np.abs(tri).max() + np.abs(o).max()
            assert np.linalg.norm(o + t * d - s) < 1e-10 * scale


REF_TET = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestRayTetEntry:
    def test_enter_exit(self):
        t, hit = tet_entry(np.array([-1.0, 0.2, 0.2]), np.array([1.0, 0.0, 0.0]), REF_TET)
        assert hit and abs(t - 1.0) < 1e-12

    def test_origin_inside(self):
        t, hit = tet_entry(np.array([0.2, 0.2, 0.2]), np.array([0.0, 0.0, -1.0]), REF_TET)
        assert hit and abs(t - 0.2) < 1e-12  # exit face z=0 is the only hit

    def test_miss(self):
        t, hit = tet_entry(np.array([-1.0, 2.0, 2.0]), np.array([1.0, 0.0, 0.0]), REF_TET)
        assert not hit and t == np.inf

    def test_entry_is_min_face_hit(self, rng):
        for _ in range(200):
            o = rng.uniform(-2, 2, 3)
            if (o >= 0).all() and o.sum() <= 1:
                continue  # origin-inside semantics covered separately
            d = rng.normal(size=3)
            t, hit = tet_entry(o, d, REF_TET)
            ts = np.linspace(0, 6, 4000)
            pts = o + ts[:, None] * d
            bary_ok = (pts >= -1e-12).all(axis=1) & (pts.sum(axis=1) <= 1 + 1e-12)
            if not hit:
                assert not bary_ok.any()
            elif bary_ok.any():
                t_first = ts[np.argmax(bary_ok)]
                assert t <= t_first + 6 / 4000 + 1e-9


class TestTraverse:
    def test_miss_root(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        tree = build_obb_tree(mesh, 10)
        r = Ray(np.array([10.0, 10.0, 0.0]), np.array([0.0, 0.0, -1.0]))
        assert traverse(tree, r) == []

    def test_single_leaf_tree(self):
        mesh = line_of_tets(3)
        tree = build_obb_tree(mesh, 10)
        assert tree.root.is_leaf
        r = Ray(np.array([0.2, 0.2, 5.0]), np.array([0.0, 0.0, -1.0]))
        hits = traverse(tree, r)
        assert len(hits) == 1 and hits[0][0] is tree.root

    def test_ordered_by_entry(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        tree = build_obb_tree(mesh, 4)
        r = Ray(np.array([0.01, 0.02, 3.0]), np.array([0.0, 0.0, -1.0]))
        hits = traverse(tree, r)
        ts = [h[1].t_enter for h in hits]
        assert ts == sorted(ts)

    def test_superset_of_touched_elements(self, ball_mesh_field, rng):
        # every element the ray actually touches lies in some returned leaf
        mesh, _ = ball_mesh_field
        tree = build_obb_tree(mesh, 6)
        o = np.array([0.05, -0.03, 2.0])
        d = np.array([0.0, 0.0, -1.0])
        leaf_elems = np.concatenate([n.elements for n, _ in traverse(tree, Ray(o, d))])
        pts = o + np.linspace(1.0, 3.0, 400)[:, None] * d
        elems = np.repeat(np.arange(mesh.n_elements), pts.shape[0])
        lanes = np.tile(pts, (mesh.n_elements, 1))
        inside = membership_test(mesh, elems, lanes, NewtonSettings(), 1e-8)[0]
        touched = set(elems[inside].tolist())
        assert touched and touched <= set(leaf_elems.tolist())


class TestDeterminism:
    def test_bitwise_repeatability(self, rng):
        o = rng.uniform(-2, 2, (100, 3))
        d = rng.normal(size=(100, 3))
        with np.errstate(divide="ignore"):
            inv = 1.0 / d
        a1 = slab_intervals(o, inv, d, UNIT_BOX.pmin, UNIT_BOX.pmax)
        a2 = slab_intervals(o, inv, d, UNIT_BOX.pmin, UNIT_BOX.pmax)
        for x, y in zip(a1, a2):
            np.testing.assert_array_equal(x, y)
