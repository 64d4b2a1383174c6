"""Benchmark mesh generators and their analytic projection oracle.

Both generators build structured templates (no external mesher) and curve the
quadratic elements by projecting boundary corner and mid-edge nodes onto the
exact surface, so the curved Newton path is genuinely exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import EDGE_VERTICES, Mesh, NodalField, boundary_faces

# cylinder disk template: sector count and radial grading exponent.  The
# grading concentrates rings near the axis where the radial density profile
# has a conical kink; exponent 2 equalizes the interpolation error across
# rings and a slightly larger value biases it away from the axis.
DISK_SECTORS = 14
DISK_GRADING = 2.1


@dataclass(frozen=True)
class BallSpec:
    radius: float = 1.0
    target_elements: int = 50
    density: float = 1.0

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if self.target_elements < 1:
            raise ValueError("target_elements must be >= 1")


@dataclass(frozen=True)
class CylinderSpec:
    radius: float = 1.0
    height: float = 0.1
    target_elements: int = 2143

    def __post_init__(self):
        if not (self.radius > 0.0 and self.height > 0.0):
            raise ValueError("radius and height must be positive")
        if self.target_elements < 1:
            raise ValueError("target_elements must be >= 1")


def radial_density(r):
    """Quadratic radial density profile of the cylinder benchmark."""
    return -4.0 * (np.asarray(r) - 0.5) ** 2 + 2.0


def _orient_tets(vertices: np.ndarray, tets: list[list[int]]) -> list[list[int]]:
    out = []
    for t in tets:
        a = vertices[t[1]] - vertices[t[0]]
        b = vertices[t[2]] - vertices[t[0]]
        c = vertices[t[3]] - vertices[t[0]]
        if np.dot(a, np.cross(b, c)) < 0.0:
            t = [t[0], t[1], t[3], t[2]]
        out.append(t)
    return out


def _quadratic_from_linear(
    vertices: np.ndarray, tets: list[list[int]]
) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, int], int]]:
    """Insert shared mid-edge nodes; returns (nodes, elements, edge->node)."""
    nodes = [np.asarray(v, dtype=np.float64) for v in vertices]
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
    return np.array(nodes), np.array(elements, dtype=np.int64), edge_mid


def _red_refine(vertices: list[np.ndarray], tets: list[list[int]]):
    """One level of red refinement (8 children per tetrahedron)."""
    vertices = list(vertices)
    mid: dict[tuple[int, int], int] = {}

    def midpoint(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        if key not in mid:
            mid[key] = len(vertices)
            vertices.append(0.5 * (vertices[a] + vertices[b]))
        return mid[key]

    # octahedron diagonals and their equatorial cycles, as local midpoint ids
    diagonals = (
        ((0, 1), (2, 3), ((0, 2), (0, 3), (1, 3), (1, 2))),
        ((0, 2), (1, 3), ((0, 1), (0, 3), (2, 3), (1, 2))),
        ((0, 3), (1, 2), ((0, 1), (0, 2), (2, 3), (1, 3))),
    )
    out = []
    for t in tets:
        m = {
            (a, b): midpoint(t[a], t[b])
            for a in range(4)
            for b in range(a + 1, 4)
        }
        out.append([t[0], m[(0, 1)], m[(0, 2)], m[(0, 3)]])
        out.append([m[(0, 1)], t[1], m[(1, 2)], m[(1, 3)]])
        out.append([m[(0, 2)], m[(1, 2)], t[2], m[(2, 3)]])
        out.append([m[(0, 3)], m[(1, 3)], m[(2, 3)], t[3]])
        # split the inner octahedron along its shortest diagonal
        lengths = [
            np.linalg.norm(vertices[m[d1]] - vertices[m[d2]])
            for d1, d2, _ in diagonals
        ]
        d1, d2, cycle = diagonals[int(np.argmin(lengths))]
        a, b = m[d1], m[d2]
        q = [m[c] for c in cycle]
        for i in range(4):
            out.append([a, b, q[i], q[(i + 1) % 4]])
    return vertices, out


def _boundary_sets(nodes: np.ndarray, elements: np.ndarray):
    """Vertex ids and edge keys lying on the mesh boundary (corner topology)."""
    mesh = Mesh(nodes, elements)
    faces = boundary_faces(mesh)
    verts = set(int(v) for v in faces.ravel())
    edges = set()
    for f in faces:
        a, b, c = (int(f[0]), int(f[1]), int(f[2]))
        edges.add((min(a, b), max(a, b)))
        edges.add((min(b, c), max(b, c)))
        edges.add((min(a, c), max(a, c)))
    return verts, edges


def generate_ball(spec: BallSpec) -> tuple[Mesh, NodalField]:
    """Ball mesh from red-refined octants with spherical boundary projection.

    The template ladder yields 8 * 8**level elements; the level closest to
    ``target_elements`` is used.  All boundary corners and the midnodes of
    boundary-face edges are projected radially onto the sphere.
    """
    levels = np.array([8 * 8**lv for lv in range(5)])
    level = int(np.argmin(np.abs(levels - spec.target_elements)))

    vertices = [np.zeros(3)]
    for axis in range(3):
        for sign in (1.0, -1.0):
            v = np.zeros(3)
            v[axis] = sign
            vertices.append(v)
    pole = lambda axis, sign: 1 + 2 * axis + (0 if sign > 0 else 1)
    tets = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                tets.append([0, pole(0, sx), pole(1, sy), pole(2, sz)])
    vertices_arr = np.array(vertices)
    tets = _orient_tets(vertices_arr, tets)
    vlist = [v for v in vertices_arr]
    for _ in range(level):
        vlist, tets = _red_refine(vlist, tets)
    vertices_arr = np.array(vlist)
    tets = _orient_tets(vertices_arr, tets)

    linear_elements = np.array(tets, dtype=np.int64)
    bverts, bedges = _boundary_sets(vertices_arr, linear_elements)
    for v in bverts:
        n = np.linalg.norm(vertices_arr[v])
        vertices_arr[v] = vertices_arr[v] / n

    nodes, elements, edge_mid = _quadratic_from_linear(vertices_arr, tets)
    for key, nid in edge_mid.items():
        if key in bedges:
            nodes[nid] = nodes[nid] / np.linalg.norm(nodes[nid])

    nodes *= spec.radius
    mesh = Mesh(nodes, elements)
    field = NodalField(np.full(mesh.n_nodes, spec.density))
    return mesh, field


def _disk_triangulation(sectors: int, rings: int, grading: float):
    """Graded polar triangulation of the unit disk.

    Ring k of ``rings`` sits at radius (k / rings)**grading and carries
    sectors * k vertices; each sector band between rings k-1 and k holds
    2k - 1 triangles.
    """
    verts = [(0.0, 0.0)]
    ring_start = [0] * (rings + 1)
    for k in range(1, rings + 1):
        ring_start[k] = len(verts)
        rk = (k / rings) ** grading
        n = sectors * k
        for j in range(n):
            th = 2.0 * np.pi * j / n
            verts.append((rk * np.cos(th), rk * np.sin(th)))
    tris = []
    for j in range(sectors):
        tris.append((0, ring_start[1] + j, ring_start[1] + (j + 1) % sectors))
    for k in range(2, rings + 1):
        nin, nout = sectors * (k - 1), sectors * k
        si, so = ring_start[k - 1], ring_start[k]
        for sec in range(sectors):
            # zigzag band: outer edge i pairs with inner vertex i (wrapping
            # into the next sector), inner edge i with outer vertex i+1
            for i in range(k):
                a = so + (sec * k + i) % nout
                b = so + (sec * k + i + 1) % nout
                c = si + (sec * (k - 1) + i) % nin
                tris.append((a, b, c))
            for i in range(k - 1):
                a = si + (sec * (k - 1) + i) % nin
                b = so + (sec * k + i + 1) % nout
                c = si + (sec * (k - 1) + i + 1) % nin
                tris.append((a, b, c))
    return np.array(verts), tris


def _split_prism(ids: list[int]) -> list[list[int]]:
    """Split a triangular prism into three conforming tetrahedra.

    Quad-face diagonals always pass through the face's smallest vertex id,
    so neighbouring prisms agree on shared faces.
    """
    rots = []
    for r in range(3):
        b = [(0 + r) % 3, (1 + r) % 3, (2 + r) % 3]
        rots.append(b + [x + 3 for x in b])
    for r in range(3):
        b = [(0 + r) % 3, (2 + r) % 3, (1 + r) % 3]
        rots.append([x + 3 for x in b] + b)
    lo = min(ids)
    perm = next(p for p in rots if ids[p[0]] == lo)
    I = [ids[i] for i in perm]
    if min(I[1], I[5]) < min(I[2], I[4]):
        local = [(0, 1, 2, 5), (0, 1, 5, 4), (0, 4, 5, 3)]
    else:
        local = [(0, 1, 2, 4), (0, 4, 2, 5), (0, 4, 5, 3)]
    return [[I[i] for i in t] for t in local]


def generate_cylinder(spec: CylinderSpec) -> tuple[Mesh, NodalField]:
    """Cylinder (disk) mesh with the radial density profile sampled at nodes.

    One prism layer through the thickness; 3 * sectors * rings**2 elements
    with ``rings`` chosen to approximate ``target_elements``.  Lateral
    boundary nodes (corners and midnodes) lie exactly on the cylinder
    surface.
    """
    rings = max(1, round(np.sqrt(spec.target_elements / (3.0 * DISK_SECTORS))))
    verts2d, tris = _disk_triangulation(DISK_SECTORS, rings, DISK_GRADING)
    n2d = verts2d.shape[0]
    bottom = np.column_stack([verts2d * spec.radius, np.zeros(n2d)])
    top = np.column_stack([verts2d * spec.radius, np.full(n2d, spec.height)])
    vertices = np.vstack([bottom, top])
    tets: list[list[int]] = []
    for tri in tris:
        prism = [tri[0], tri[1], tri[2], tri[0] + n2d, tri[1] + n2d, tri[2] + n2d]
        tets.extend(_split_prism(prism))
    tets = _orient_tets(vertices, tets)

    nodes, elements, edge_mid = _quadratic_from_linear(vertices, tets)
    # curve the lateral surface: project midnodes of rim edges radially in-plane
    rim = np.linalg.norm(nodes[:, :2], axis=1) > spec.radius * (1.0 - 1e-9)
    for (a, b), nid in edge_mid.items():
        if rim[a] and rim[b]:
            xy = nodes[nid, :2]
            nodes[nid, :2] = xy * (spec.radius / np.linalg.norm(xy))

    mesh = Mesh(nodes, elements)
    r = np.linalg.norm(mesh.nodes[:, :2], axis=1)
    field = NodalField(radial_density(r))
    return mesh, field


def projection_oracle(spec: BallSpec | CylinderSpec, nu: int, nv: int, pitch: float):
    """Analytic projected density on an orthographic detector grid.

    The grid is centred on the ray through the ball centre, or on the
    cylinder axis with the rays parallel to it.  Returns (b, density), both
    (nv, nu): each pixel ray's distance b from that centre line, and the
    ball's chord length times its density or the cylinder's height times
    its radial profile.
    """
    i = np.arange(nu) - (nu - 1) / 2.0
    j = np.arange(nv) - (nv - 1) / 2.0
    du, dv = np.meshgrid(i * pitch, j * pitch)
    b = np.hypot(du, dv)
    r = spec.radius
    if isinstance(spec, BallSpec):
        ball = 2.0 * spec.density * np.sqrt(np.maximum(r**2 - b**2, 0.0))
        return b, np.where(b < r, ball, 0.0)
    return b, np.where(b <= r, spec.height * radial_density(b), 0.0)
