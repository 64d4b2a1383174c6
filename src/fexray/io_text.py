"""Text mesh/field formats, the binary float grid, PGM output and configs.

Mesh file grammar (whitespace separated, '#' starts a comment line):

    <n_nodes> <n_elements> <nodes_per_element>
    <node_id> <x> <y> <z>                   (n_nodes lines, ids 0..n-1 in order)
    <element_id> <node_id> * nodes_per_element   (n_elements lines, in order)

Field file grammar:

    <n_nodes>
    <node_id> <value>                        (n_nodes lines, ids in order)

Float grid: little-endian binary, magic ``FGRD``, u32 version, u32 nu,
u32 nv, f64 pitch, then nu*nv finite f64 values in row-major order
(row = v index).
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, fields
from itertools import islice, repeat
from operator import itemgetter

import numpy as np

from .mesh import Mesh, NodalField
from .xray import FACE_SELECTORS, IntegrationSettings

FGRID_MAGIC = b"FGRD"
FGRID_VERSION = 1


class ParseError(ValueError):
    """Malformed input file; message carries line or key context."""


class ValidationError(ValueError):
    """Structurally valid input with out-of-range or inconsistent values."""


def _data_lines(text: str):
    """(line number, line) of each line, numbered from 1, that has text
    left once its comment ('#' to the end of the line) and outer whitespace
    are stripped.  Built from iterators alone, so no Python code runs per
    line."""
    heads = map(itemgetter(0), map(str.partition, text.splitlines(), repeat("#")))
    return filter(itemgetter(1), enumerate(map(str.strip, heads), start=1))


def _row_fault(row: list, i: int, kind: str, width: int, usage: str, conv, n_nodes) -> str | None:
    """The message for the first fault of row ``i`` in the order token count,
    tokens, row id, node ids, or None.  Python's ``int`` reads the tokens
    here, so a node id beyond int64 is out of range, not malformed."""
    if len(row) != width:
        return f"expected {usage}"
    try:
        rid = int(row[0])
        values = list(map(conv, row[1:]))
    except ValueError:
        return f"malformed {kind} line"
    if rid != i:
        return f"expected {'element' if kind == 'element' else 'node'} id {i}, got {rid}"
    if n_nodes is not None and not all(0 <= v < n_nodes for v in values):
        return "node id out of range"
    return None


# a table is read in blocks of about this many tokens, which exist as Python
# strings until they are converted: a whole cylinder 2058 table at once
# leaves the peak memory of repeated set-ups 0.8 MB higher
BLOCK_TOKENS = 1 << 13


def _read_rows(lines, n: int, kind: str, width: int, usage: str, conv, n_nodes=None) -> np.ndarray:
    """The values of the next ``n`` data lines of a ``kind`` table, shape
    (n, width - 1).

    A line holds its row id 0..n-1 and ``width - 1`` values that ``conv``
    (float or int) reads; with ``n_nodes`` the values are node ids below it.
    The first faulty line is reported, or else a table cut short by the end
    of the file.  Lines are read block by block, so a count no line backs
    is never allocated.
    """
    blocks, done = [], 0
    while done < n:
        want = min(n - done, max(1, BLOCK_TOKENS // width))
        numbered = list(islice(lines, want))
        blocks.append(_read_block(numbered, done, kind, width, usage, conv, n_nodes))
        done += len(numbered)
        if len(numbered) < want:
            raise ParseError(f"unexpected end of file: expected {kind} line {done}")
    return np.concatenate(blocks)


def _read_block(numbered, first: int, kind, width, usage, conv, n_nodes) -> np.ndarray:
    """The values of the table lines ``numbered``, (line number, line)
    pairs whose row ids start at ``first``.  Each line's token count is
    checked, then the joined ids and values are converted in one numpy call
    each and checked on the arrays.  numpy reads a token as ``int``/``float``
    do, so a block that fails has a line that ``_row_fault`` rejects: the
    first is reported.  Counts are checked per line, since a line a token
    short and a later one a token long leave the joined total sound."""
    texts = list(map(itemgetter(1), numbered))
    if all(map(width.__eq__, map(len, map(str.split, texts)))):
        tokens = " ".join(texts).split()
        try:
            ids = np.array(tokens[::width], dtype=np.int64)
            del tokens[::width]
            values = np.array(tokens, dtype=np.float64 if conv is float else np.int64)
        except (ValueError, OverflowError):
            pass
        else:
            values = values.reshape(-1, width - 1)
            sound = ids == first + np.arange(len(ids))
            if n_nodes is not None:
                sound &= ((values >= 0) & (values < n_nodes)).all(axis=1)
            if sound.all():
                return values
    for i, (lineno, text) in enumerate(numbered):
        message = _row_fault(text.split(), first + i, kind, width, usage, conv, n_nodes)
        if message is not None:
            raise ParseError(f"line {lineno}: {message}")


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
    nodes = _read_rows(lines, n_nodes, "node", 4, "'<id> <x> <y> <z>'", float)
    elements = _read_rows(
        lines, n_elements, "element", 1 + npe, f"'<id>' plus {npe} node ids", int, n_nodes
    )
    for lineno, _ in lines:
        raise ParseError(f"line {lineno}: trailing content after last element")
    return Mesh(nodes, elements)


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
    values = _read_rows(lines, n, "value", 2, "'<id> <value>'", float)
    for lineno, _ in lines:
        raise ParseError(f"line {lineno}: trailing content after last value")
    return NodalField(values[:, 0])


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
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            raise ValidationError(f"float grid has {bad} of {values.size} values non-finite")
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

    ``window`` is a finite (min, max); None uses [0, max value] (all-zero
    images fall back to [0, 1]).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError("graymap input must be a 2-d grid")
    if not np.isfinite(values).all():
        raise ValidationError("graymap input must be finite")
    if bit_depth not in (8, 16):
        raise ValidationError("bit depth must be 8 or 16")
    if window is None:
        top = float(values.max()) if values.size and values.max() > 0 else 1.0
        window = (0.0, top)
    wmin, wmax = float(window[0]), float(window[1])
    if not -math.inf < wmin < wmax < math.inf:
        raise ValidationError("window must be finite with min below max")
    maxval = 255 if bit_depth == 8 else 65535
    scaled = (values - wmin) / (wmax - wmin)
    quantized = np.rint(np.clip(scaled, 0.0, 1.0) * maxval)
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n{maxval}\n".encode()
    if bit_depth == 8:
        return header + quantized.astype(np.uint8).tobytes()
    return header + quantized.astype(">u2").tobytes()


# ---------------------------------------------------------------------------
# render configuration


_DEFAULTS = IntegrationSettings()


@dataclass
class RenderConfig:
    mesh: str = ""
    field: str = ""
    face: str = ""
    rays_per_cm2: float | None = None
    pitch: float | None = None
    nu: int | None = None
    nv: int | None = None
    step: float = _DEFAULTS.step
    max_leaf_elements: int = _DEFAULTS.max_leaf_elements
    eps_tol: float = _DEFAULTS.newton.eps_tol
    max_iter: int = _DEFAULTS.newton.max_iter
    geom_tol: float = _DEFAULTS.geom_tol
    workers: int = 1
    out_density: str = ""
    out_pgm: str = ""
    pgm_bits: int = 8
    window_min: float = 0.0
    window_max: float | None = None
    out_stats: str = ""


# values are read by the type their field is annotated with
_INT_KEYS = {f.name for f in fields(RenderConfig) if f.type.startswith("int")}
_FLOAT_KEYS = {f.name for f in fields(RenderConfig) if f.type.startswith("float")}


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
            else:
                setattr(cfg, key, raw)
        except ValueError:
            raise ParseError(f"line {lineno}: malformed value for {key!r}") from None

    # inf passes the range checks below, and nan some of them
    problems = [
        f"{key}: non-finite value"
        for key in sorted(seen & _FLOAT_KEYS)
        if not math.isfinite(getattr(cfg, key))
    ]
    if not cfg.mesh:
        problems.append("mesh: path is required")
    if not cfg.field:
        problems.append("field: path is required")
    if cfg.face not in FACE_SELECTORS:
        problems.append(f"face: must be one of {', '.join(FACE_SELECTORS)}")
    explicit = cfg.pitch is not None or cfg.nu is not None or cfg.nv is not None
    if cfg.rays_per_cm2 is None and not explicit:
        problems.append("rays_per_cm2: required unless pitch/nu/nv are given")
    if cfg.rays_per_cm2 is not None and explicit:
        problems.append("rays_per_cm2: cannot be combined with pitch/nu/nv")
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
    if cfg.workers < 1:
        problems.append("workers: must be >= 1")
    if cfg.pgm_bits not in (8, 16):
        problems.append("pgm_bits: must be 8 or 16")
    if cfg.window_max is not None and not cfg.window_min < cfg.window_max:
        problems.append("window_min/window_max: min must be below max")
    if problems:
        raise ValidationError("invalid configuration:\n  " + "\n  ".join(problems))
    return cfg
