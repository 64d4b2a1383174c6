"""Span tracing of fexray from outside the package.

The tracer rebinds public functions in the ``fexray`` module namespaces that
the renderer looks them up in (``fexray.xray``, ``fexray.locate``,
``fexray.spatial``, ...) to wrappers that record a span per call: name, id,
parent id, start and end, plus per-call counts taken from the result.  Spans stay in memory until the run writes them out.

Counting happens after a span's end time is taken; that bookkeeping time is
recorded on the span and subtracted from every ancestor, so inclusive and
self times exclude it.  Calls made in forked worker processes are recorded
in those processes and are lost with them.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from fexray import io_text, locate, mesh, spatial, xray


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    start: float
    end: float
    counts: dict | None = None
    bookkeeping: float = 0.0  # seconds spent counting after ``end``

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _lanes(result) -> dict:
    return {"lanes": int(np.size(result[0]))}


def _membership_counts(result) -> dict:
    inside, _, iters, converged = result
    return {
        "lanes": int(inside.size),
        "inside": int(np.count_nonzero(inside)),
        "iterations": int(iters.sum()),
        "non_converged": int(np.count_nonzero(~converged)),
    }


def _newton_counts(result) -> dict:
    _, converged, iters = result
    return {"lanes": int(converged.size), "iterations": int(iters.sum())}


def _bytes(result) -> dict:
    return {"bytes": len(result)}


# (module, attribute, span name, counter of the result).  A function is
# wrapped in every namespace the renderer calls it from.
TARGETS = (
    (io_text, "parse_mesh", "io_text.parse_mesh", None),
    (io_text, "parse_field", "io_text.parse_field", None),
    (io_text, "write_float_grid", "io_text.write_float_grid", _bytes),
    (io_text, "write_graymap", "io_text.write_graymap", _bytes),
    (mesh, "validate_mesh", "mesh.validate_mesh", None),
    (spatial, "build_obb_tree", "spatial.build_obb_tree", None),
    (spatial, "element_bounding_points", "spatial.element_bounding_points", None),
    (xray, "element_bounding_points", "spatial.element_bounding_points", None),
    (xray, "render", "xray.render", None),
    (xray, "slab_intervals", "raycast.slab_intervals", _lanes),
    (xray, "tet_entry", "raycast.tet_entry", _lanes),
    (xray, "membership_test", "locate.membership_test", _membership_counts),
    (xray, "interpolate_values", "mesh.interpolate_values", lambda r: {"lanes": int(np.size(r))}),
    (locate, "newton_solve", "locate.newton_solve", _newton_counts),
    (locate, "map_points", "mesh.map_points", lambda r: {"lanes": int(np.size(r)) // 3}),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # callable(args, result) run after every raycast.slab_intervals call;
        # taken when the wrappers are installed
        self.slab_observer = None
        self.t0 = time.perf_counter()

    def _begin(self) -> tuple[int, int | None]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    @contextmanager
    def span(self, name: str):
        sid, parent = self._begin()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(name, sid, parent, start, end))

    def _wrap(self, original, name: str, counter):
        tracer = self
        observer = self.slab_observer if name == "raycast.slab_intervals" else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid, parent = tracer._begin()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            span = Span(name, sid, parent, start, end)
            if counter is not None:
                span.counts = counter(result)
            if observer is not None:
                observer(args, result)
            span.bookkeeping = time.perf_counter() - end
            tracer.spans.append(span)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target to its traced wrapper; restore on exit."""
        for module, attr, name, counter in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "name": s.name, "id": s.id, "parent": s.parent,
                    "start": s.start - self.t0, "end": s.end - self.t0,
                    "counts": s.counts, "bookkeeping": s.bookkeeping,
                }) + "\n")


# ---------------------------------------------------------------------------
# span trees -> per-layer numbers


@dataclass
class Totals:
    """Per-name and per-layer sums over one root span's subtree."""

    bookkeeping_s: float  # counting done inside the root
    n_spans: int
    calls: dict[str, int]
    inclusive: dict[str, float]
    layer_self: dict[str, float]
    counts: dict[str, dict[str, int]]

    def call_count(self, name):
        return self.calls.get(name, 0)

    def time(self, name):
        return self.inclusive.get(name, 0.0)

    def count(self, name, key):
        return self.counts.get(name, {}).get(key, 0)


def subtree_totals(spans: list[Span], root_id: int) -> Totals:
    """Inclusive time per name and self time per layer under ``root_id``.

    Spans are stored in completion order, so every child precedes its parent.
    A span's inclusive time is its duration minus the bookkeeping done inside
    it; its self time is that minus its children's inclusive times, where a
    nested call of the same name (none occur in fexray) would be counted
    twice in the inclusive sum.
    """
    # the root's descendants completed while it was open: they are the run of
    # spans just before it whose ids, handed out at start, exceed its own
    end = next(i for i, s in enumerate(spans) if s.id == root_id)
    first = end
    while first > 0 and spans[first - 1].id > root_id:
        first -= 1
    inner_book: dict[int, float] = {}
    child_incl: dict[int, float] = {}
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    total_book = 0.0
    for s in spans[first:end + 1]:  # children before parents
        book = inner_book.get(s.id, 0.0)
        incl = (s.end - s.start) - book
        if s.parent is not None:
            inner_book[s.parent] = inner_book.get(s.parent, 0.0) + book + s.bookkeeping
            child_incl[s.parent] = child_incl.get(s.parent, 0.0) + incl
        if s.id == root_id:
            total_book = book
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        inclusive[s.name] = inclusive.get(s.name, 0.0) + incl
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + incl - child_incl.get(s.id, 0.0)
        if s.counts:
            acc = counts.setdefault(s.name, {})
            for k, v in s.counts.items():
                acc[k] = acc.get(k, 0) + v
    return Totals(total_book, end - first, calls, inclusive, layer_self, counts)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def setup_metrics(runs: list[Totals], model, input_bytes: int) -> dict:
    """Per-layer set-up numbers: medians over the traced set-ups."""
    tree = model.tree
    nodes, depth = 0, 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes += 1
        depth = max(depth, node.depth)
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    med = lambda f: statistics.median(f(t) for t in runs)
    return {
        "io_text.parse_mesh_s": med(lambda t: t.time("io_text.parse_mesh")),
        "io_text.parse_field_s": med(lambda t: t.time("io_text.parse_field")),
        "io_text.input_bytes": input_bytes,
        "mesh.validate_mesh_s": med(lambda t: t.time("mesh.validate_mesh")),
        "spatial.build_obb_tree_s": med(lambda t: t.time("spatial.build_obb_tree")),
        "spatial.tree_nodes": nodes,
        "spatial.tree_leaves": len(tree.leaves),
        "spatial.tree_depth": depth,
    }


def render_metrics(t: Totals, stats) -> dict:
    """Per-layer numbers of one traced render (render plus encoding).

    Newton iterations, non-converged lanes and samples come from the public
    ``RenderStats``; the caller checks the wrapper counts against them.
    """
    tested = t.count("locate.membership_test", "lanes")
    inside = t.count("locate.membership_test", "inside")
    m = {
        "locate.membership_test_calls": t.call_count("locate.membership_test"),
        "locate.membership_test_s": t.time("locate.membership_test"),
        "locate.newton_solve_s": t.time("locate.newton_solve"),
        "locate.pairs_tested": tested,
        "locate.pairs_inside": inside,
        "locate.inside_ratio": _ratio(inside, tested),
        "locate.newton_iterations": stats.newton_iterations,
        "locate.iters_per_pair": _ratio(t.count("locate.membership_test", "iterations"), tested),
        "locate.non_converged": stats.non_converged,
        "xray.samples": stats.samples,
        "xray.samples_per_ray": _ratio(stats.samples, stats.rays),
        "xray.pairs_per_sample": _ratio(tested, stats.samples),
        "spatial.element_bounding_points_s": t.time("spatial.element_bounding_points"),
        "mesh.interpolate_values_calls": t.call_count("mesh.interpolate_values"),
        "mesh.interpolate_values_s": t.time("mesh.interpolate_values"),
        "mesh.map_points_calls": t.call_count("mesh.map_points"),
        "mesh.map_points_s": t.time("mesh.map_points"),
        "io_text.write_float_grid_s": t.time("io_text.write_float_grid"),
        "io_text.write_graymap_s": t.time("io_text.write_graymap"),
        "io_text.output_bytes": t.count("io_text.write_float_grid", "bytes")
        + t.count("io_text.write_graymap", "bytes"),
    }
    for fn in ("slab_intervals", "tet_entry"):
        name = f"raycast.{fn}"
        m[f"{name}_calls"] = t.call_count(name)
        m[f"{name}_lanes"] = t.count(name, "lanes")
        m[f"{name}_s"] = t.time(name)
    for layer in ("xray", "locate", "raycast", "spatial", "mesh", "io_text"):
        m[f"{layer}.self_s"] = t.layer_self.get(layer, 0.0)
    return m


class LeafSampleCounter:
    """Counts render samples from the leaf-box slab calls the tracer sees.

    A sample is a global depth-grid point t_j = (j + 1/2) * step inside the
    union of the leaf box intervals a ray hits (clamped to t >= 0), so the
    distinct (ray, j) pairs over all leaf calls of one render must equal
    ``RenderStats.samples``.  Ray ids are recovered from the local-frame ray
    origins the traversal passes in.
    """

    def __init__(self, tree, det, step: float):
        self.leaf_of = {id(leaf.obb.box.pmin): leaf for leaf in tree.leaves}
        self.det = det
        self.step = step
        self.keys: list[np.ndarray] = []

    def __call__(self, args, result):
        o, _, _, pmin, _ = args
        leaf = self.leaf_of.get(id(pmin))  # the leaf boxes stay alive, so ids are theirs
        if leaf is None:
            return
        t_enter, t_exit, hit = result
        if not hit.any():
            return
        det = self.det
        rel = leaf.obb.basis.to_world(o[hit]) - det.origin
        iu = np.rint(rel @ det.axis_u / det.pitch).astype(np.int64)
        iv = np.rint(rel @ det.axis_v / det.pitch).astype(np.int64)
        lo = np.ceil(np.maximum(t_enter[hit], 0.0) / self.step - 0.5).astype(np.int64)
        hi = np.floor(t_exit[hit] / self.step - 0.5).astype(np.int64)
        n = np.maximum(hi - lo + 1, 0)
        rays = np.repeat(iv * det.nu + iu, n)
        first = np.repeat(lo - np.concatenate([[0], np.cumsum(n)[:-1]]), n)
        self.keys.append(rays * (1 << 32) + first + np.arange(int(n.sum())))

    def take(self) -> int:
        """Distinct samples seen since the last call."""
        keys = np.concatenate(self.keys) if self.keys else np.empty(0, np.int64)
        self.keys = []
        return int(np.unique(keys).size)
