import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fexray.locate import (
    NewtonSettings,
    _element_frames,
    _reference_newton,
    _solve,
    in_hull,
    membership_test,
    newton_solve,
)
from fexray.mesh import (
    EDGE_VERTICES,
    Mesh,
    MeshError,
    NodalField,
    map_points,
)
from fexray.raycast import tet_entry
from tests.conftest import (
    REFERENCE_TET,
    random_simplex_points,
    single_tet_mesh,
    straight_quadratic_nodes,
    two_tet_mesh,
)
from tests.helpers import interpolate, jacobian, local_to_global
from tests.newton_reference import inside_physical

tol = st.floats(1e-12, 1e-4)


class TestInHull:
    def test_barycenter_inside(self):
        assert in_hull(np.array([0.25, 0.25, 0.25]))

    def test_outside(self):
        assert not in_hull(np.array([1.0, 1.0, 1.0]))

    def test_face_point_within_tolerance(self):
        g = 1e-8
        assert in_hull(np.array([-g / 2, 0.0, 0.0]), geom_tol=g)
        assert not in_hull(np.array([-2 * g, 0.0, 0.0]), geom_tol=g)

    @given(x=st.floats(0, 1), y=st.floats(0, 1), z=st.floats(0, 1), g=tol)
    def test_interior_always_accepted(self, x, y, z, g):
        xi = np.array([x, y, z])
        if xi.sum() <= 1.0:
            assert in_hull(xi, geom_tol=g)


class TestNewtonSettings:
    def test_defaults(self):
        s = NewtonSettings()
        assert s.eps_tol == 1e-10 and s.max_iter == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            NewtonSettings(eps_tol=0.0)
        with pytest.raises(ValueError):
            NewtonSettings(max_iter=0)

    @pytest.mark.parametrize("eps_tol", [math.inf, math.nan])
    def test_non_finite_tolerance(self, eps_tol):
        with pytest.raises(ValueError, match="eps_tol"):
            NewtonSettings(eps_tol=eps_tol)


def located(mesh, e, points, settings=None):
    """membership_test of points against element e: (inside, xi)."""
    inside, xi, _, _ = membership_test(mesh, e, points, settings or NewtonSettings(), 1e-8)
    return inside, xi


class TestGlobalToLocal:
    def test_affine_inverse(self, rng):
        corners = REFERENCE_TET * 1.5 + np.array([0.2, -0.3, 0.1])
        mesh = single_tet_mesh(corners)
        xi_true = random_simplex_points(rng, 20)
        pts = map_points(mesh.nodes, xi_true)
        xi, converged, _ = newton_solve(mesh.nodes, "quadratic", pts, NewtonSettings())
        assert converged.all()
        np.testing.assert_allclose(xi, xi_true, atol=1e-12)

    def test_affine_first_update_is_exact(self):
        # one Newton update already satisfies the residual bound
        corners = REFERENCE_TET * 2.0
        mesh = single_tet_mesh(corners)
        x = local_to_global(mesh, 0, np.array([0.3, 0.2, 0.1]))
        inside, xi = located(mesh, 0, x[None], NewtonSettings(max_iter=2))
        assert inside[0]
        res = np.linalg.norm(local_to_global(mesh, 0, xi[0]) - x)
        assert res <= 1e-8 * 2.0 * np.sqrt(3)

    def test_curved_round_trip(self, ball_mesh_field, rng):
        mesh, _ = ball_mesh_field
        for e in rng.integers(0, mesh.n_elements, size=12):
            xi_true = random_simplex_points(rng, 8)
            inside, xi = located(mesh, int(e), map_points(mesh.element_nodes(int(e)), xi_true))
            assert inside.all()
            np.testing.assert_allclose(xi, xi_true, atol=1e-9)

    def test_far_point_returns_none_or_outside(self):
        mesh = single_tet_mesh()
        far = np.full((1, 3), 50.0)
        xi, converged, _ = newton_solve(mesh.nodes, "quadratic", far, NewtonSettings())
        assert not converged[0] or not in_hull(xi[0])
        assert not located(mesh, 0, far)[0][0]

    def test_iteration_budget_respected(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        settings = NewtonSettings(max_iter=3, eps_tol=1e-15)
        # must return without looping forever, within the budget
        x = np.full((1, 3), 0.1)
        _, _, iters = newton_solve(mesh.element_nodes(0), "quadratic", x, settings)
        assert iters[0] <= 3


class TestMembershipBatch:
    def test_matches_scalar_path(self, ball_mesh_field, rng):
        mesh, _ = ball_mesh_field
        settings = NewtonSettings()
        pts = rng.uniform(-1, 1, size=(60, 3))
        e = 7
        inside_b, xi_b, iters_b, _ = membership_test(mesh, e, pts, settings, 1e-8)
        for k in range(pts.shape[0]):
            inside_s, xi_s, iters_s, _ = membership_test(
                mesh, e, pts[k : k + 1], settings, 1e-8
            )
            assert inside_s[0] == inside_b[k]
            np.testing.assert_array_equal(xi_s[0], xi_b[k])
            assert iters_s[0] == iters_b[k]


def containing(mesh, x):
    """Ids and reference coordinates of every element that contains x."""
    elems = np.arange(mesh.n_elements)
    inside, xi = located(mesh, elems, np.tile(x, (mesh.n_elements, 1)))
    return elems[inside], xi[inside]


class TestLocatePoint:
    def test_shared_face_first_candidate_wins(self):
        # a point on the shared face lies in both elements, so the claim
        # order decides; either side interpolates a conforming field alike
        mesh = two_tet_mesh()
        x = np.array([0.25, 0.25, 0.0])
        elems, xi = containing(mesh, x)
        assert elems.tolist() == [0, 1]
        field = NodalField(np.linspace(0.5, 2.0, mesh.n_nodes) ** 2)
        v0 = interpolate(field, mesh, 0, xi[0])
        v1 = interpolate(field, mesh, 1, xi[1])
        assert abs(v0 - v1) < 1e-9

    def test_outside_all_candidates(self):
        mesh = two_tet_mesh()
        assert containing(mesh, np.array([5.0, 5.0, 5.0]))[0].size == 0

    def test_interior_point_order_invariant(self, rng):
        mesh = two_tet_mesh()
        x = local_to_global(mesh, 1, np.array([0.2, 0.3, 0.25]))
        assert containing(mesh, x)[0].tolist() == [1]

    def test_membership_consistency(self, ball_mesh_field, rng):
        # interior image points are always found and reproduce x
        mesh, _ = ball_mesh_field
        for e in rng.integers(0, mesh.n_elements, size=10):
            xi_true = random_simplex_points(rng, 1)[0] * 0.8 + 0.05
            if xi_true.sum() > 0.95:
                continue
            x = local_to_global(mesh, int(e), xi_true)
            elems, xi = containing(mesh, x)
            assert int(e) in elems
            for k, xi_k in zip(elems, xi):
                np.testing.assert_allclose(local_to_global(mesh, int(k), xi_k), x, atol=1e-9)

    def test_entry_ordering_by_linear_guess(self, ball_mesh_field):
        # ordered by corner-tetrahedron entry t, then element id, every
        # miss (t = inf) comes after every hit
        mesh, _ = ball_mesh_field
        o, d = np.array([0.05, 0.02, 2.0]), np.array([0.0, 0.0, -1.0])
        elems = np.arange(mesh.n_elements)
        t, hit = tet_entry(o, d, mesh.corner_coords())
        ordered = elems[np.lexsort((elems, t))]
        entries = t[ordered]
        assert hit.any() and not hit.all()
        hit_part = entries[hit[ordered]]
        assert (np.diff(hit_part) >= 0.0).all()
        first_miss = int(np.argmax(~hit[ordered]))
        assert not hit[ordered][first_miss:].any() and np.isinf(entries[first_miss:]).all()


class TestConformity:
    def test_continuous_field_across_faces(self, cylinder_mesh_field, rng):
        # boundary points shared by adjacent elements interpolate identically
        mesh, field = cylinder_mesh_field
        settings = NewtonSettings()
        checked = 0
        for e in rng.integers(0, mesh.n_elements, size=30):
            # a point on a face of element e: zero out one barycentric coord
            xi = random_simplex_points(rng, 1)[0]
            xi[int(rng.integers(3))] = 0.0
            x = local_to_global(mesh, int(e), xi)
            vals = []
            for cand in range(mesh.n_elements):
                inside, xi_c, _, _ = membership_test(
                    mesh, cand, x[None, :], settings, 1e-8
                )
                if inside[0]:
                    vals.append(float(interpolate(field, mesh, cand, xi_c[0])))
            if len(vals) >= 2:
                checked += 1
                assert max(vals) - min(vals) < 1e-9
        assert checked >= 5


class TestLinearOrder:
    def test_global_to_local_linear_mesh(self, rng):
        mesh = single_tet_mesh(REFERENCE_TET * 1.3 + [0.1, 0.2, -0.1], quadratic=False)
        xi_true = random_simplex_points(rng, 10)
        pts = map_points(mesh.nodes, xi_true, "linear")
        xi, converged, _ = newton_solve(mesh.nodes, "linear", pts, NewtonSettings())
        assert converged.all()
        np.testing.assert_allclose(xi, xi_true, atol=1e-12)

    def test_locate_point_linear_mesh(self):
        mesh = single_tet_mesh(quadratic=False)
        assert located(mesh, 0, np.array([[0.2, 0.2, 0.2]]))[0][0]


def _lanes_near_elements(mesh, rng, n):
    """Per-lane element ids and points near (inside and just outside) them."""
    ids = rng.integers(0, mesh.n_elements, size=n)
    xi = random_simplex_points(rng, n) * 1.3 - 0.1
    pts = np.array([local_to_global(mesh, int(e), x) for e, x in zip(ids, xi)])
    return ids, pts


def _element_zoo(rng, n=24):
    """Disjoint random elements: straight ones, and curved ones of growing
    bulge, which validate_mesh accepts."""
    nodes, elements = [], []
    while len(elements) < n:
        corners = rng.uniform(-1.0, 1.0, size=(4, 3)) + [3.0 * len(elements), 0.0, 0.0]
        disp = rng.uniform(-1.0, 1.0, size=(6, 3)) * [0.0, 0.05, 0.25][len(elements) % 3]
        cand = straight_quadratic_nodes(corners)
        cand[4:] += disp * np.linalg.norm(cand[1] - cand[0])
        try:
            Mesh(cand, np.arange(10)[None])
        except MeshError:
            continue
        elements.append(np.arange(10) + 10 * len(elements))
        nodes.append(cand)
    return Mesh(np.concatenate(nodes), np.array(elements))


class TestReferenceFrame:
    def test_ball64_mixes_straight_and_curved(self, ball_mesh_field):
        frames = _element_frames(ball_mesh_field[0].nodes[ball_mesh_field[0].elements])
        assert frames.curved.sum() == 48 and not frames.singular.any()

    def test_per_lane_ids_match_one_lane_calls(self, rng):
        mesh = _element_zoo(rng)
        settings = NewtonSettings()
        frames = _element_frames(mesh.nodes[mesh.elements])
        ids, pts = _lanes_near_elements(mesh, rng, 300)
        # straight, warm-started and centroid-started lanes share the batch
        assert (~frames.curved[ids]).any()
        assert (frames.curved & frames.warm)[ids].any()
        assert (~frames.warm[ids]).any()
        batch = membership_test(mesh, ids, pts, settings, 1e-8, frames)
        unframed = membership_test(mesh, ids, pts, settings, 1e-8)
        for k in range(ids.size):
            single = membership_test(mesh, int(ids[k]), pts[k : k + 1], settings, 1e-8)
            for b, u, s in zip(batch, unframed, single):
                assert b[k : k + 1].tobytes() == s.tobytes() == u[k : k + 1].tobytes()
        assert batch[0].any() and not batch[0].all()

    def test_straight_shortcut_equals_kernel(self, ball_mesh_field, rng):
        mesh, _ = ball_mesh_field
        frames = _element_frames(mesh.nodes[mesh.elements])
        straight = np.flatnonzero(~frames.curved)
        ids = rng.choice(straight, 200)
        pts = rng.uniform(-1.2, 1.2, size=(200, 3))
        xi, converged, iters = _solve(frames, ids, pts, NewtonSettings())
        lam = np.ascontiguousarray(xi.T)
        kxi, kconv, kiters = _reference_newton(
            frames.bulges.take(ids, axis=1), lam, lam, NewtonSettings()
        )
        np.testing.assert_array_equal(kxi.T, xi)
        assert (iters == 1).all() and (kiters == 1).all()
        assert converged.all() and kconv.all()

    def test_linear_element_takes_shortcut(self):
        mesh = single_tet_mesh(REFERENCE_TET * 1.3 + [0.1, 0.2, -0.1], quadratic=False)
        x = local_to_global(mesh, 0, np.array([0.2, 0.3, 0.1]))
        _, xi, iters, converged = membership_test(mesh, 0, x[None], NewtonSettings(), 1e-8)
        assert iters[0] == 1 and converged[0]
        np.testing.assert_allclose(xi[0], [0.2, 0.3, 0.1], atol=1e-14)

    def test_singular_corner_fails_as_singular(self):
        nodes = straight_quadratic_nodes(REFERENCE_TET)
        nodes[3] = [0.5, 0.5, 0.0]  # corner 3 in the plane of the others
        nodes[7:] = [0.5 * (nodes[a] + nodes[3]) for a in range(3)]
        xi, converged, iters = newton_solve(nodes, "quadratic", np.ones((2, 3)), NewtonSettings())
        assert not converged.any() and (iters == 1).all()


def _valid_element(corners, disp, quadratic):
    """Element on ``corners`` with mid-edge nodes moved by ``disp`` times just
    under the half edge length validate_mesh allows.

    validate_mesh rejects elements folded at the cubic lattice; those that
    fold between its points show det J <= 0 on a finer lattice, and are
    skipped too: their inverse map is not unique.
    """
    if not quadratic:
        return Mesh(corners, np.arange(4, dtype=np.int64)[None])
    nodes = list(corners)
    for m, (a, b) in enumerate(EDGE_VERTICES):
        edge = np.linalg.norm(corners[b] - corners[a])
        nodes.append(0.5 * (corners[a] + corners[b]) + 0.499 * edge * disp[m])
    try:
        mesh = Mesh(np.array(nodes), np.arange(10, dtype=np.int64)[None])
    except MeshError:
        assume(False)
    fine = np.array(
        [(i, j, k) for i in range(13) for j in range(13 - i) for k in range(13 - i - j)]
    ) / 12.0
    assume((np.linalg.det(jacobian(mesh.nodes, fine)) > 0.0).all())
    return mesh


coord = st.floats(-1.0, 1.0)
vec3 = st.tuples(coord, coord, coord)
disp6 = st.lists(vec3, min_size=6, max_size=6).map(
    lambda v: [np.asarray(x) / max(1.0, float(np.linalg.norm(x))) for x in v]
)


class TestRoundTrip:
    @given(
        st.lists(vec3, min_size=4, max_size=4),
        disp6,
        st.sampled_from([0.0, 0.05, 0.25, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip_and_old_kernel_membership(self, corners, disp, scale, seed):
        corners = np.asarray(corners, dtype=float)
        vol6 = np.dot(corners[1] - corners[0], np.cross(corners[2] - corners[0], corners[3] - corners[0]))
        assume(abs(vol6) > 1e-2)
        if vol6 < 0.0:
            corners = corners[[0, 1, 3, 2]]
        mesh = _valid_element(corners, [scale * d for d in disp], True)
        xi_true = random_simplex_points(np.random.default_rng(seed), 40) * 1.2 - 0.05
        pts = map_points(mesh.nodes, xi_true)
        inside, xi, iters, _ = membership_test(mesh, 0, pts, NewtonSettings(), 1e-8)
        bary = np.column_stack([1.0 - xi_true.sum(axis=1), xi_true])
        interior = bary.min(axis=1) > 1e-9
        found = inside & interior
        np.testing.assert_allclose(xi[found], xi_true[found], rtol=0, atol=1e-12)
        clear = np.abs(bary).min(axis=1) > 1e-9
        np.testing.assert_array_equal(
            inside[clear], inside_physical(mesh.nodes, "quadratic", pts)[clear]
        )
        if scale == 0.0:
            assert (inside == interior)[clear].all() and (iters == 1).all()
