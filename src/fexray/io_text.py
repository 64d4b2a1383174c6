"""Text mesh/field formats, the binary float grid, PGM output and configs.

Mesh file grammar (whitespace separated, '#' starts a comment line):

    <n_nodes> <n_elements> <nodes_per_element>
    <node_id> <x> <y> <z>                   (n_nodes lines, ids 0..n-1 in order)
    <element_id> <node_id> * nodes_per_element   (n_elements lines, in order)

Field file grammar:

    <n_nodes>
    <node_id> <value>                        (n_nodes lines, ids in order)

Float grid: little-endian binary, magic ``FGRD``, u32 version, u32 nu,
u32 nv, f64 pitch, then nu*nv f64 values in row-major order (row = v index).
"""

from __future__ import annotations

import io
import math
import struct
from array import array
from dataclasses import dataclass, field, fields

import numpy as np

from .mesh import Mesh, NodalField
from .xray import ATTENUATION_VARIANTS, FACE_SELECTORS

FGRID_MAGIC = b"FGRD"
FGRID_VERSION = 1


class ParseError(ValueError):
    """Malformed input file; message carries line or key context."""


class ValidationError(ValueError):
    """Structurally valid input with out-of-range or inconsistent values."""


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_mesh(text: str) -> Mesh:
    lines = _data_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError("mesh file is empty") from None
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(f"line {lineno}: expected '<n_nodes> <n_elements> <nodes_per_element>'")
    try:
        n_nodes, n_elements, npe = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"line {lineno}: header counts must be integers") from None
    if npe not in (4, 10):
        raise ParseError(f"line {lineno}: nodes_per_element must be 4 or 10, got {npe}")
    if n_nodes < 1 or n_elements < 1:
        raise ParseError(f"line {lineno}: counts must be positive")

    # values are appended as read, so a header count no line backs is never
    # allocated
    nodes = array("d")
    for i in range(n_nodes):
        try:
            lineno, line = next(lines)
        except StopIteration:
            raise ParseError(f"unexpected end of file: expected node line {i}") from None
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected '<id> <x> <y> <z>'")
        try:
            nid = int(parts[0])
            xyz = [float(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"line {lineno}: malformed node line") from None
        if nid != i:
            raise ParseError(f"line {lineno}: expected node id {i}, got {nid}")
        nodes.extend(xyz)

    elements = array("q")
    for i in range(n_elements):
        try:
            lineno, line = next(lines)
        except StopIteration:
            raise ParseError(f"unexpected end of file: expected element line {i}") from None
        parts = line.split()
        if len(parts) != 1 + npe:
            raise ParseError(f"line {lineno}: expected '<id>' plus {npe} node ids")
        try:
            eid = int(parts[0])
            conn = [int(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"line {lineno}: malformed element line") from None
        if eid != i:
            raise ParseError(f"line {lineno}: expected element id {i}, got {eid}")
        if any(c < 0 or c >= n_nodes for c in conn):
            raise ParseError(f"line {lineno}: node id out of range")
        elements.extend(conn)

    for lineno, _ in lines:
        raise ParseError(f"line {lineno}: trailing content after last element")
    return Mesh(
        np.array(nodes, dtype=np.float64).reshape(-1, 3),
        np.array(elements, dtype=np.int64).reshape(-1, npe),
    )


def write_mesh(mesh: Mesh) -> str:
    out = io.StringIO()
    npe = mesh.elements.shape[1]
    out.write(f"{mesh.n_nodes} {mesh.n_elements} {npe}\n")
    for i, p in enumerate(mesh.nodes):
        out.write(f"{i} {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
    for i, conn in enumerate(mesh.elements):
        out.write(str(i) + " " + " ".join(str(int(c)) for c in conn) + "\n")
    return out.getvalue()


def parse_field(text: str) -> NodalField:
    lines = _data_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError("field file is empty") from None
    try:
        n = int(header.strip())
    except ValueError:
        raise ParseError(f"line {lineno}: expected '<n_nodes>' header") from None
    if n < 1:
        raise ParseError(f"line {lineno}: node count must be positive")
    values = array("d")  # as in parse_mesh, only the lines read are stored
    for i in range(n):
        try:
            lineno, line = next(lines)
        except StopIteration:
            raise ParseError(f"unexpected end of file: expected value line {i}") from None
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<id> <value>'")
        try:
            nid = int(parts[0])
            val = float(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed value line") from None
        if nid != i:
            raise ParseError(f"line {lineno}: expected node id {i}, got {nid}")
        values.append(val)
    for lineno, _ in lines:
        raise ParseError(f"line {lineno}: trailing content after last value")
    return NodalField(np.array(values, dtype=np.float64))


def write_field(field_: NodalField) -> str:
    out = io.StringIO()
    out.write(f"{len(field_)}\n")
    for i, v in enumerate(field_.values):
        out.write(f"{i} {v:.17g}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# float grid


@dataclass(frozen=True)
class FloatGrid:
    nu: int
    nv: int
    pitch: float
    values: np.ndarray  # (nv, nu)

    def __post_init__(self):
        if self.nu < 1 or self.nv < 1:
            raise ValidationError(f"float grid nu and nv must be >= 1, got {self.nu} x {self.nv}")
        if not (math.isfinite(self.pitch) and self.pitch > 0.0):
            raise ValidationError(f"float grid pitch must be finite and positive, got {self.pitch}")
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.shape != (self.nv, self.nu):
            raise ValidationError("float grid payload does not match dimensions")
        object.__setattr__(self, "values", values)


def write_float_grid(grid: FloatGrid) -> bytes:
    header = FGRID_MAGIC + struct.pack(
        "<IIId", FGRID_VERSION, grid.nu, grid.nv, grid.pitch
    )
    payload = grid.values.astype("<f8").tobytes()
    return header + payload


def read_float_grid(data: bytes) -> FloatGrid:
    if data[:4] != FGRID_MAGIC:
        raise ParseError("not a float grid file (bad magic)")
    try:
        version, nu, nv, pitch = struct.unpack("<IIId", data[4:24])
    except struct.error:
        raise ParseError("truncated float grid header") from None
    if version != FGRID_VERSION:
        raise ParseError(f"unsupported float grid version {version}")
    expected = nu * nv * 8
    payload = data[24:]
    if len(payload) != expected:
        raise ParseError(
            f"float grid payload has {len(payload)} bytes, expected {expected}"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(nv, nu)
    return FloatGrid(nu, nv, pitch, values)


# ---------------------------------------------------------------------------
# graymap


def write_graymap(values: np.ndarray, bit_depth: int = 8, window=None) -> bytes:
    """P5 graymap with linear windowing and round-half-to-even quantization.

    ``window`` is (min, max); None uses [0, max value] (all-zero images fall
    back to [0, 1]).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError("graymap input must be a 2-d grid")
    if bit_depth not in (8, 16):
        raise ValidationError("bit depth must be 8 or 16")
    if window is None:
        top = float(values.max()) if values.size and values.max() > 0 else 1.0
        window = (0.0, top)
    wmin, wmax = float(window[0]), float(window[1])
    if not wmin < wmax:
        raise ValidationError("window min must be below window max")
    maxval = 255 if bit_depth == 8 else 65535
    scaled = (values - wmin) / (wmax - wmin)
    quantized = np.rint(np.clip(scaled, 0.0, 1.0) * maxval)
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n{maxval}\n".encode()
    if bit_depth == 8:
        return header + quantized.astype(np.uint8).tobytes()
    return header + quantized.astype(">u2").tobytes()


# ---------------------------------------------------------------------------
# render configuration


@dataclass
class RenderConfig:
    mesh: str = ""
    field: str = ""
    face: str = ""
    rays_per_cm2: float | None = None
    pitch: float | None = None
    nu: int | None = None
    nv: int | None = None
    step: float = 0.01
    max_leaf_elements: int = 10
    eps_tol: float = 1e-10
    max_iter: int = 20
    geom_tol: float = 1e-8
    attenuation: str = "identity"
    kappa: float = 1.0
    table: tuple[tuple[float, float], ...] = ()
    i_in: float = 1.0
    workers: int = 1
    out_density: str = ""
    out_pgm: str = ""
    pgm_bits: int = 8
    window_min: float = 0.0
    window_max: float | None = None
    out_error: str = ""
    oracle: str = ""  # ball | cylinder, for the error-map output
    oracle_radius: float = 1.0
    oracle_density: float = 1.0
    oracle_height: float = 0.1
    out_stats: str = ""


_INT_KEYS = {"nu", "nv", "max_leaf_elements", "max_iter", "workers", "pgm_bits"}
_FLOAT_KEYS = {
    "rays_per_cm2",
    "pitch",
    "step",
    "eps_tol",
    "geom_tol",
    "kappa",
    "i_in",
    "window_min",
    "window_max",
    "oracle_radius",
    "oracle_density",
    "oracle_height",
}


def parse_config(text: str) -> RenderConfig:
    """Parse and validate a key = value render configuration.

    Unknown keys are rejected; every range violation is collected and
    reported in one error.
    """
    cfg = RenderConfig()
    known = {f.name for f in fields(RenderConfig)}
    seen = set()
    for lineno, line in _data_lines(text):
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in known:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            if key in _INT_KEYS:
                setattr(cfg, key, int(raw))
            elif key in _FLOAT_KEYS:
                setattr(cfg, key, float(raw))
            elif key == "table":
                entries = []
                for item in raw.split(","):
                    rho_s, _, mu_s = item.partition(":")
                    entries.append((float(rho_s), float(mu_s)))
                cfg.table = tuple(entries)
            else:
                setattr(cfg, key, raw)
        except ValueError:
            raise ParseError(f"line {lineno}: malformed value for {key!r}") from None

    problems = []
    if not cfg.mesh:
        problems.append("mesh: path is required")
    if not cfg.field:
        problems.append("field: path is required")
    if cfg.face not in FACE_SELECTORS:
        problems.append(f"face: must be one of {', '.join(FACE_SELECTORS)}")
    explicit = cfg.pitch is not None or cfg.nu is not None or cfg.nv is not None
    if cfg.rays_per_cm2 is None and not explicit:
        problems.append("rays_per_cm2: required unless pitch/nu/nv are given")
    if cfg.rays_per_cm2 is not None and not cfg.rays_per_cm2 > 0:
        problems.append("rays_per_cm2: must be positive")
    if explicit:
        if cfg.pitch is None or not cfg.pitch > 0:
            problems.append("pitch: must be positive in explicit grid mode")
        if cfg.nu is None or cfg.nu < 1 or cfg.nv is None or cfg.nv < 1:
            problems.append("nu/nv: must be >= 1 in explicit grid mode")
    if not cfg.step > 0:
        problems.append("step: must be positive")
    if cfg.max_leaf_elements < 1:
        problems.append("max_leaf_elements: must be >= 1")
    if not cfg.eps_tol > 0:
        problems.append("eps_tol: must be positive")
    if cfg.max_iter < 1:
        problems.append("max_iter: must be >= 1")
    if cfg.geom_tol < 0:
        problems.append("geom_tol: must be non-negative")
    if cfg.attenuation not in ATTENUATION_VARIANTS:
        problems.append(f"attenuation: must be one of {', '.join(ATTENUATION_VARIANTS)}")
    if cfg.attenuation == "linear" and cfg.kappa < 0:
        problems.append("kappa: must be non-negative")
    if cfg.attenuation == "table":
        if len(cfg.table) < 2:
            problems.append("table: needs at least 2 'rho:mu' entries")
        elif any(b[0] <= a[0] for a, b in zip(cfg.table, cfg.table[1:])):
            problems.append("table: densities must increase strictly")
    if not cfg.i_in > 0:
        problems.append("i_in: must be positive")
    if cfg.workers < 1:
        problems.append("workers: must be >= 1")
    if cfg.pgm_bits not in (8, 16):
        problems.append("pgm_bits: must be 8 or 16")
    if cfg.window_max is not None and not cfg.window_min < cfg.window_max:
        problems.append("window_min/window_max: min must be below max")
    if cfg.oracle not in ("", "ball", "cylinder"):
        problems.append("oracle: must be ball or cylinder")
    if cfg.out_error and not cfg.oracle:
        problems.append("out_error: requires an oracle")
    if not (cfg.oracle_radius > 0 and cfg.oracle_density > 0 and cfg.oracle_height > 0):
        problems.append("oracle_radius/oracle_density/oracle_height: must be positive")
    if problems:
        raise ValidationError("invalid configuration:\n  " + "\n  ".join(problems))
    return cfg
