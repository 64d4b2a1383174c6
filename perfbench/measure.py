"""One workload's set-ups and renders, run in a fresh process by run.py.

Prints one JSON object with the raw samples; run.py turns them into metrics.
Being its own process, its peak RSS belongs to this workload alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "fexray").is_dir():
    sys.exit(f"no fexray source under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import scenes  # noqa: E402
import tracing  # noqa: E402

# set-up is repeated at least this often and for at least this long
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 10.0
SETUP_MAX_REPS = 200
# calibration kernel runs between renders
CAL_REPS = 3

_CAL_LARGE = np.linspace(0.0, 0.3, 3 * 65536).reshape(-1, 3)
_CAL_SMALL = np.linspace(0.0, 0.3, 3 * 18).reshape(-1, 3)


def _cal_kernel(p, reps):
    acc = 0.0
    for _ in range(reps):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        w = 1.0 - x - y - z
        f = np.stack([x * (2.0 * x - 1.0) + w * y, y * w - z, 4.0 * x * z + w], axis=-1)
        acc += float(np.sqrt((f * f).sum(axis=-1)).sum())
    return acc


def calibrate_once() -> float:
    """Wall time of one run of a fixed numpy kernel that does not use fexray.

    The kernel mixes Newton-sized lane batches with many tiny arrays, like
    the renders do.  Timed next to the measured work, it tracks how fast
    this shared machine runs at the moment; run.py divides by it.
    """
    t0 = time.perf_counter()
    _cal_kernel(_CAL_LARGE, 40)
    _cal_kernel(_CAL_SMALL, 3000)
    return time.perf_counter() - t0


def calibrate() -> list[float]:
    return [calibrate_once() for _ in range(CAL_REPS)]


def _set_up_repeatedly(scene, tracer):
    """Repeat the set-up, with one calibration kernel run between set-ups.

    Each set-up's ``cal_s`` is the mean of the kernel runs on either side of
    it, so drift during the loop is cancelled set-up by set-up.
    """
    times, cals, roots = [], [], []
    cal_prev = calibrate_once()
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or (
        time.perf_counter() - start < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        if tracer is None:
            model = scenes.set_up(scene)
        else:
            with tracer.span("setup"):
                model = scenes.set_up(scene)
            roots.append(tracer.spans[-1].id)
        times.append(time.perf_counter() - t0)
        cal_next = calibrate_once()
        cals.append((cal_prev + cal_next) / 2.0)
        cal_prev = cal_next
    return model, times, cals, roots


def _render_once(scene, model, det, tracer, counter, cal_before):
    """Time one render plus encoding, then check the image.

    ``cal_before`` holds the calibration timings taken right before the
    render; the kernel is timed again right after it, and those timings are
    returned to serve as the next render's ``cal_before``.  The record's
    ``cal_s`` is the median of both sets.  Returns (record, cal_after).
    """
    record = {"traced": tracer is not None, "failures": []}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            img, fgrid, _ = scenes.render_and_encode(scene, model, det)
        else:
            with tracer.span("render"):
                img, fgrid, _ = scenes.render_and_encode(scene, model, det)
    except Exception:
        img = None
        traceback.print_exc()
        record["failures"].append(traceback.format_exc(limit=1).strip().splitlines()[-1])
    record["render_s"] = time.perf_counter() - t0
    cal_after = calibrate()
    record["cal_s"] = statistics.median(cal_before + cal_after)
    if img is None:
        if counter is not None:
            counter.take()  # drop a failed render's partial leaf samples
        return record, cal_after
    try:
        record["digest"] = hashlib.sha256(fgrid).hexdigest()
        acc = scenes.check_image(scene, det, img.density)
        record.update(
            mass_rel_err=acc.mass_rel_err,
            max_abs_err_interior=acc.max_abs_err_interior,
            mean_abs_err_interior=acc.mean_abs_err_interior,
            l1_rel_err=acc.l1_rel_err,
            peak=acc.peak,
        )
        record["failures"] += acc.failures
        if img.stats.rays != det.n_rays:
            record["failures"].append(f"RenderStats.rays {img.stats.rays} != {det.n_rays}")
        if tracer is not None:
            totals = tracing.subtree_totals(tracer.spans, tracer.spans[-1].id)
            record["per_layer"] = tracing.render_metrics(totals, img.stats)
            record["bookkeeping_s"] = totals.bookkeeping_s
            record["spans"] = totals.n_spans
            record["failures"] += _cross_check(totals, counter.take(), img.stats)
    except Exception:
        traceback.print_exc()
        record["failures"].append(traceback.format_exc(limit=1).strip().splitlines()[-1])
    return record, cal_after


def _cross_check(totals, leaf_samples, stats) -> list[str]:
    """Wrapper counts must equal RenderStats, proving no call went unseen."""
    seen = {
        "newton_iterations": totals.count("locate.membership_test", "iterations"),
        "non_converged": totals.count("locate.membership_test", "non_converged"),
        "samples": leaf_samples,
    }
    return [
        f"traced {k} {v} != RenderStats.{k} {getattr(stats, k)}"
        for k, v in seen.items()
        if v != getattr(stats, k)
    ]


def run(workload_name: str, seed: int, seconds: float, trace: bool, spans_path) -> dict:
    scene = scenes.make_scene(scenes.WORKLOADS[workload_name], seed)
    tracer = tracing.Tracer() if trace else None
    if tracer is None:
        model, setup_times, setup_cal, _ = _set_up_repeatedly(scene, None)
    else:
        with tracer.installed():
            model, setup_times, setup_cal, setup_roots = _set_up_repeatedly(scene, tracer)
    det = scenes.make_detector(scene, model)
    counter = None
    if tracer is not None:
        counter = tracing.LeafSampleCounter(model.tree, det, scene.settings.step)
        tracer.slab_observer = counter

    renders = []
    cal = calibrate()
    start = time.perf_counter()
    # start a render only if a typical one still ends within ``seconds``;
    # traced runs alternate untraced and traced renders and need one of each
    while (
        not renders
        or time.perf_counter() - start + statistics.median(r["render_s"] for r in renders) <= seconds
        or (trace and len(renders) < 2)
    ):
        if trace and len(renders) % 2 == 1:
            with tracer.installed():
                record, cal = _render_once(scene, model, det, tracer, counter, cal)
        else:
            record, cal = _render_once(scene, model, det, None, None, cal)
        renders.append(record)

    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    out = {
        "workload": workload_name,
        "seed": seed,
        "shift_pitches": list(scene.shift),
        "rays": det.n_rays,
        "pitch_cm": det.pitch,
        "setup_s": setup_times,
        "setup_cal_s": setup_cal,
        "renders": renders,
        "peak_rss_mb": rss_kb / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if scene.workload.check_workers:
        out["worker_check"] = _worker_check(scene, model, det)
    if tracer is not None:
        setup_totals = [tracing.subtree_totals(tracer.spans, r) for r in setup_roots]
        out["setup_per_layer"] = tracing.setup_metrics(
            setup_totals, model, len(scene.mesh_text.encode()) + len(scene.field_text.encode())
        )
        if spans_path:
            tracer.write(spans_path)
    return out


def _worker_check(scene, model, det) -> dict:
    """Untimed render through the worker pool; its image must be byte-identical.

    Run after the peak RSS is read, so the pool's workers do not count in it.
    """
    workers = scene.workload.check_workers
    record = {"workers": workers, "failures": []}
    try:
        _, fgrid, _ = scenes.render_and_encode(scene, model, det, workers)
        record["digest"] = hashlib.sha256(fgrid).hexdigest()
    except Exception:
        traceback.print_exc()
        record["failures"].append(traceback.format_exc(limit=1).strip().splitlines()[-1])
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced spans here (JSON lines)")
    args = ap.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
