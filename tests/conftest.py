from pathlib import Path

import hypothesis
import numpy as np
import pytest

from fexray.io_text import parse_field, parse_mesh
from fexray.mesh import Mesh

hypothesis.settings.register_profile(
    "ci", derandomize=True, max_examples=150, deadline=None
)
hypothesis.settings.load_profile("ci")


REFERENCE_TET = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


def straight_quadratic_nodes(corners: np.ndarray) -> np.ndarray:
    """10-node coordinates with mid-edge nodes at true edge midpoints."""
    from fexray.mesh import EDGE_VERTICES

    mids = [0.5 * (corners[a] + corners[b]) for a, b in EDGE_VERTICES]
    return np.vstack([corners, mids])


def folded_quadratic_nodes() -> np.ndarray:
    """Reference tetrahedron whose (0, 1) mid-edge node sits at x = 0.05:
    within half the edge of its midpoint, but the edge then runs backwards
    at corner 0, so det J < 0 there."""
    nodes = straight_quadratic_nodes(REFERENCE_TET)
    nodes[4] = [0.05, 0.0, 0.0]
    return nodes


def single_tet_mesh(corners=None, quadratic=True) -> Mesh:
    corners = REFERENCE_TET if corners is None else np.asarray(corners, float)
    if quadratic:
        nodes = straight_quadratic_nodes(corners)
        return Mesh(nodes, np.arange(10, dtype=np.int64).reshape(1, 10))
    return Mesh(corners, np.arange(4, dtype=np.int64).reshape(1, 4))


def two_tet_mesh() -> Mesh:
    """Two straight-sided quadratic tets sharing the face (0, 1, 2)."""
    corners = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.3, 0.3, -1.0],
        ]
    )
    elem_corners = [(0, 1, 2, 3), (0, 2, 1, 4)]
    return mesh_from_corner_tets(corners, elem_corners)


def mesh_from_corner_tets(vertices, tets) -> Mesh:
    """Build a straight-sided quadratic mesh from shared corner connectivity."""
    from fexray.mesh import EDGE_VERTICES

    vertices = [np.asarray(v, float) for v in vertices]
    nodes = list(vertices)
    edge_mid: dict[tuple[int, int], int] = {}
    elements = []
    for tet in tets:
        conn = list(tet)
        for a, b in EDGE_VERTICES:
            key = (min(conn[a], conn[b]), max(conn[a], conn[b]))
            if key not in edge_mid:
                edge_mid[key] = len(nodes)
                nodes.append(0.5 * (nodes[key[0]] + nodes[key[1]]))
            conn.append(edge_mid[key])
        elements.append(conn)
    return Mesh(np.array(nodes), np.array(elements, dtype=np.int64))


GOLDEN = Path(__file__).parent / "data" / "golden"


def golden_scene(name):
    """Mesh and field of a golden scene (``ball8`` or ``cylinder100``)."""
    mesh = parse_mesh((GOLDEN / f"{name}.mesh").read_text())
    field = parse_field((GOLDEN / f"{name}.field").read_text())
    return mesh, field


def default_face(box) -> str:
    """Emission face on the positive side of the longest box axis."""
    axis = int(np.argmax(box.extents))
    return ("+x", "+y", "+z")[axis]


def random_simplex_points(rng, n) -> np.ndarray:
    """Uniform samples from the reference tetrahedron, shape (n, 3)."""
    out = np.empty((n, 3))
    have = 0
    while have < n:
        cand = rng.random((2 * (n - have) + 16, 3))
        keep = cand.sum(axis=1) <= 1.0
        take = cand[keep][: n - have]
        out[have : have + take.shape[0]] = take
        have += take.shape[0]
    return out


@pytest.fixture()
def rng():
    # fresh generator per test keeps cases order-independent
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def ball_mesh_field():
    from fexray.bench import BallSpec, generate_ball

    return generate_ball(BallSpec())


@pytest.fixture(scope="session")
def cylinder_mesh_field():
    from fexray.bench import CylinderSpec, generate_cylinder

    return generate_cylinder(CylinderSpec(target_elements=200))


@pytest.fixture(scope="session")
def cylinder_full():
    from fexray.bench import CylinderSpec, generate_cylinder

    return generate_cylinder(CylinderSpec())
