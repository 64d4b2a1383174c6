import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fexray import locate
from fexray.locate import (
    NewtonSettings,
    _element_frames,
    _reference_newton,
    _solve,
    in_hull,
    membership_test,
    newton_solve,
    newton_workspace,
)
from fexray.mesh import (
    EDGE_VERTICES,
    Mesh,
    MeshError,
    NodalField,
    interpolate_values,
    map_points,
)
from fexray.raycast import tet_entry
from tests.conftest import (
    REFERENCE_TET,
    golden_scene,
    random_simplex_points,
    single_tet_mesh,
    straight_quadratic_nodes,
    two_tet_mesh,
)
from tests.helpers import interpolate, jacobian, local_to_global
from tests.newton_reference import inside_physical, plain_membership, plain_newton

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

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, np.float64(3.0), "3"])
    def test_iteration_cap_must_be_an_integer(self, max_iter):
        # 2.5 used to fail later inside range(); True rendered one iteration
        with pytest.raises(ValueError, match="max_iter"):
            NewtonSettings(max_iter=max_iter)

    def test_numpy_integer_cap_accepted(self, ball_mesh_field):
        settings = NewtonSettings(max_iter=np.int64(3))
        mesh, _ = ball_mesh_field
        _, _, iters, _ = membership_test(mesh, 7, np.full((4, 3), 0.1), settings, 1e-8)
        assert (iters <= 3).all()


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
        xi, converged, _ = newton_solve(mesh.nodes, pts, NewtonSettings())
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
        xi, converged, _ = newton_solve(mesh.nodes, far, NewtonSettings())
        assert not converged[0] or not in_hull(xi[0])
        assert not located(mesh, 0, far)[0][0]

    def test_iteration_budget_respected(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        settings = NewtonSettings(max_iter=3, eps_tol=1e-15)
        # must return without looping forever, within the budget
        x = np.full((1, 3), 0.1)
        _, _, iters = newton_solve(mesh.element_nodes(0), x, settings)
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

    def test_values_interpolated_with_interpolate_values_bits(self, ball_mesh_field, rng):
        # the density of an accepted lane has the bits of interpolate_values
        # at its xi, and passing values changes no other result
        mesh, field = ball_mesh_field
        settings = NewtonSettings()
        e = rng.integers(0, mesh.n_elements, size=4000)
        pts = rng.uniform(-1, 1, size=(e.size, 3))
        plain = membership_test(mesh, e, pts, settings, 1e-8)
        out = np.full(e.size, np.nan)
        with_values = membership_test(mesh, e, pts, settings, 1e-8, None, field.values, out)
        for a, b in zip(plain, with_values):
            assert a.tobytes() == b.tobytes()
        inside, xi = plain[0], plain[1]
        assert 0 < np.count_nonzero(inside) < e.size
        ref = interpolate_values(field.values[mesh.elements[e[inside]]].T, xi[inside], mesh.order)
        assert out[inside].tobytes() == ref.tobytes()


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
        xi, converged, _ = newton_solve(mesh.nodes, pts, NewtonSettings())
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
        xi, converged, iters = newton_solve(nodes, np.ones((2, 3)), NewtonSettings())
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


def _kernel_inputs(frames, cols, pts):
    """(bulges, lam, start) of the lanes ``cols`` as ``_solve`` builds them."""
    n0, inv = frames.corner[:3, cols], frames.corner[3:, cols]
    d = pts.T - n0
    lam = np.array(
        [(inv[3 * r] * d[0] + inv[3 * r + 1] * d[1]) + inv[3 * r + 2] * d[2] for r in range(3)]
    )
    return frames.bulges[:, cols], lam, np.where(frames.warm[cols], lam, 0.25)


def _assert_matches_plain(bulges, lam, start, settings=NewtonSettings()):
    """The kernel gives the bytes of ``plain_newton``; returns the
    iterations."""
    ours = _reference_newton(bulges, lam, start, settings)
    oracle = plain_newton(bulges, lam, start, settings)
    for a, b in zip(ours, oracle):
        assert a.tobytes() == b.tobytes()
    return ours[2]


class TestPlainKernelOracle:
    """The workspace kernel against the kernel it replaced, kept verbatim."""

    @given(
        st.lists(vec3, min_size=4, max_size=4),
        disp6,
        st.sampled_from([0.0, 0.05, 0.25, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_random_elements(self, corners, disp, scale, seed):
        corners = np.asarray(corners, dtype=float)
        edges = corners[1:] - corners[0]
        vol6 = np.dot(edges[0], np.cross(edges[1], edges[2]))
        assume(abs(vol6) > 1e-2)
        if vol6 < 0.0:
            corners = corners[[0, 1, 3, 2]]
        mesh = _valid_element(corners, [scale * d for d in disp], True)
        frames = _element_frames(mesh.nodes[None])
        rng = np.random.default_rng(seed)
        xi_true = random_simplex_points(rng, 40) * 1.4 - 0.1
        pts = np.vstack([map_points(mesh.nodes, xi_true), rng.uniform(-1.5, 1.5, (8, 3))])
        _assert_matches_plain(*_kernel_inputs(frames, np.zeros(48, dtype=np.int64), pts))

    def test_each_element_kind(self, rng):
        # straight, curved started from lam, and past WARM_BULGE, started
        # from the centroid
        found = {}
        for tries in range(3000):
            nodes = straight_quadratic_nodes(REFERENCE_TET + rng.uniform(-0.2, 0.2, (4, 3)))
            nodes[4:] += rng.uniform(-1, 1, (6, 3)) * 0.4 * [0.0, 0.25, 1.0][tries % 3]
            try:
                mesh = Mesh(nodes, np.arange(10)[None])
            except MeshError:
                continue
            frames = _element_frames(mesh.nodes[None])
            found.setdefault((bool(frames.curved[0]), bool(frames.warm[0])), (mesh, frames))
        assert set(found) == {(False, True), (True, True), (True, False)}
        for mesh, frames in found.values():
            xi_true = random_simplex_points(rng, 500) * 1.4 - 0.1
            pts = map_points(mesh.nodes, xi_true)
            cols = np.zeros(500, dtype=np.int64)
            iters = _assert_matches_plain(*_kernel_inputs(frames, cols, pts))
            assert (iters > 1).any() == bool(frames.curved[0])

    @pytest.mark.parametrize("name", ["ball8", "cylinder100"])
    def test_golden_lanes(self, name, rng):
        mesh, field = golden_scene(name)
        frames = _element_frames(mesh.nodes[mesh.elements])
        ids = rng.choice(np.flatnonzero(frames.curved), 3000)
        xi_true = random_simplex_points(rng, ids.size) * 1.3 - 0.1
        pts = map_points(mesh.nodes[mesh.elements[ids]].transpose(1, 0, 2), xi_true, mesh.order)
        assert (_assert_matches_plain(*_kernel_inputs(frames, ids, pts)) >= 3).any()
        # the whole membership test, straight lanes and the residual check too
        ids = np.concatenate([ids, rng.integers(0, mesh.n_elements, 3000)])
        pts = np.vstack([pts, rng.uniform(-1.0, 1.0, (3000, 3)) * mesh.nodes.max(axis=0)])
        rho = np.full(ids.size, np.nan)
        ours = membership_test(mesh, ids, pts, NewtonSettings(), 1e-8, frames, field.values, rho)
        plain = plain_membership(mesh, ids, pts, NewtonSettings(), 1e-8, frames, field.values)
        for a, b in zip((*ours, rho), plain):
            assert a.tobytes() == b.tobytes()
        assert ours[0].any() and not ours[0].all()

    def test_linear_convergence(self):
        # a double root: the bulge M_0 = (m, 0, 0) folds the x axis at
        # x* = (1 + m) / 2m, where det J = 0, and lam_x = (1 + m)^2 / 4m puts
        # the point there.  Newton only halves the error at each step, the
        # case a stop that extrapolates quadratic convergence must leave alone
        m = 2.0
        bulges = np.zeros((18, 1))
        bulges[0] = m
        lam = np.array([[(1 + m) ** 2 / (4 * m)], [0.0], [0.0]])
        for eps_tol in (1e-10, 1e-20):
            settings = NewtonSettings(eps_tol=eps_tol, max_iter=60)
            assert _assert_matches_plain(bulges, lam, lam.copy(), settings)[0] > 20


class TestNewtonWorkspace:
    def _lanes(self, mesh, rng, n):
        ids = rng.integers(0, mesh.n_elements, size=n)
        return ids, rng.uniform(-1.0, 1.0, size=(n, 3))

    def test_one_workspace_gives_the_bytes_of_fresh_calls(self, ball_mesh_field, rng):
        mesh, field = ball_mesh_field
        frames = _element_frames(mesh.nodes[mesh.elements])
        work = newton_workspace(8192)
        for max_iter in (1, 2, 20):
            settings = NewtonSettings(max_iter=max_iter)
            for n in (8192, 3, 8192):
                ids, pts = self._lanes(mesh, rng, n)
                shared_rho, fresh_rho = np.full(n, np.nan), np.full(n, np.nan)
                args = (mesh, ids, pts, settings, 1e-8, frames, field.values)
                shared = membership_test(*args, shared_rho, work)
                fresh = membership_test(*args, fresh_rho)
                for a, b in zip(shared, fresh):
                    assert a.tobytes() == b.tobytes()
                assert shared_rho.tobytes() == fresh_rho.tobytes()
                # a workspace holding stale lanes changes nothing
                work[:] = np.nan

    def test_workspace_rows_start_on_cache_lines(self):
        # wherever malloc puts the block, after allocations of any size
        held = []
        for lanes in (8192, 10, 8192, 7, 20_000):
            for pad in range(1, 9):
                held.append(np.empty(pad * 3))
                work = newton_workspace(lanes)
                assert work.shape == (locate.WORK_ROWS, lanes) and work.flags.c_contiguous
                starts = work.ctypes.data + np.arange(locate.WORK_ROWS) * work.strides[0]
                assert starts[0] % 64 == 0
                if lanes % 8 == 0:
                    assert (starts % 64 == 0).all()

    def test_too_small_workspace_is_replaced(self, ball_mesh_field, rng):
        mesh, _ = ball_mesh_field
        ids, pts = self._lanes(mesh, rng, 100)
        work = newton_workspace(10)
        small = membership_test(mesh, ids, pts, NewtonSettings(), 1e-8, None, None, None, work)
        fresh = membership_test(mesh, ids, pts, NewtonSettings(), 1e-8)
        for a, b in zip(small, fresh):
            assert a.tobytes() == b.tobytes()

    def test_warm_kernel_call_allocates_few_lane_rows(self, ball_mesh_field, rng):
        mesh, _ = ball_mesh_field
        frames = _element_frames(mesh.nodes[mesh.elements])
        ids = rng.choice(np.flatnonzero(frames.curved), 6000)
        xi_true = random_simplex_points(rng, ids.size) * 1.3 - 0.1
        pts = map_points(mesh.nodes[mesh.elements[ids]].transpose(1, 0, 2), xi_true)
        bulges, lam, start = (np.ascontiguousarray(a) for a in _kernel_inputs(frames, ids, pts))
        settings = NewtonSettings()
        work = newton_workspace(8192)
        _reference_newton(bulges, lam, start, settings, work)
        tracemalloc.start()
        try:
            _, _, iters = _reference_newton(bulges, lam, start, settings, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iters.max() >= 3
        # xi (3 rows), the iterations, the flags and a few index arrays
        assert peak < 16 * 8 * ids.size


class TestStoppedLanes:
    """A stopped lane is recorded once and masked until the stopped lanes are
    worth compacting away; when the kernel compacts changes no byte."""

    # 1: compact only once every lane stopped; 2**40: on every stop
    @pytest.mark.parametrize("share", [1, locate.COMPACT_SHARE, 2**40])
    @pytest.mark.parametrize("max_iter", [1, 3, 20])
    def test_compaction_share_keeps_the_plain_bytes(
        self, monkeypatch, ball_mesh_field, rng, share, max_iter
    ):
        monkeypatch.setattr(locate, "COMPACT_SHARE", share)
        mesh, _ = ball_mesh_field
        frames = _element_frames(mesh.nodes[mesh.elements])
        ids = rng.choice(np.flatnonzero(frames.curved), 3000)
        xi_true = random_simplex_points(rng, ids.size) * 1.6 - 0.3
        nodes = mesh.nodes[mesh.elements[ids]].transpose(1, 0, 2)
        pts = map_points(nodes, xi_true, mesh.order)
        # far points diverge at once, too few to compact, and run on masked,
        # so their arithmetic overflows: that must stay silent
        far = np.arange(ids.size) % 50 == 0
        pts[far] *= 1e6
        settings = NewtonSettings(max_iter=max_iter)
        inputs = _kernel_inputs(frames, ids, pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = _reference_newton(*inputs, settings)
        for a, b in zip(ours, plain_newton(*inputs, settings)):
            assert a.tobytes() == b.tobytes()
        iters = ours[2]
        assert (iters[far] == 1).all()
        # lanes stop over several iterations, and a capped run ends with
        # lanes still running
        assert iters.max() == max_iter if max_iter < 20 else iters.max() >= 4

