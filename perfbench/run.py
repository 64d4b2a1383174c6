#!/usr/bin/env python3
"""fexray render benchmark: one seeded workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload ball-fine-mesh --seed 1 --seconds 15 --trace 0

The measured set-ups and renders run in a fresh child process
(``measure.py``).  Every image of a run must be byte-identical, including
that of an untimed render through the worker pool where the workload asks
for one.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run; both lists, with units, come from
``BENCHMARK.json``.  A readable report goes to stdout first; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
record (raw samples, image digests, environment) and the traced spans are
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# every invocation must end within 180 s
TIME_LIMIT_S = 170.0
# Wall time of one measure.calibrate_once() kernel run on a quiet 2-vCPU Intel Xeon
# virtual machine.  Each render's and each set-up's wall time is divided by the
# kernel time measured next to it and multiplied by this, which cancels most
# of the drift in speed that a machine shared with other tenants shows.
CAL_REF_S = 0.16


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_child(args: list[str], deadline: float) -> dict:
    """Run measure.py in a fresh process group and parse its JSON line."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *args],
        stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"measure.py {' '.join(args)} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"measure.py {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit():
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(versions: dict) -> dict:
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_max": cpu_max,
        **versions,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def _median(records, key, default=0.0):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else default


def scaled_render_s(render: dict) -> float:
    """Render time on a machine on which the calibration takes CAL_REF_S."""
    return render["render_s"] * CAL_REF_S / render["cal_s"]


def end_to_end(res: dict, renders: list[dict]) -> dict:
    render_s = statistics.median(scaled_render_s(r) for r in renders)
    return {
        "render_s": render_s,
        "rays_per_s": res["rays"] / render_s,
        "setup_s": statistics.median(
            t * CAL_REF_S / c for t, c in zip(res["setup_s"], res["setup_cal_s"])
        ),
        "peak_rss_mb": res["peak_rss_mb"],
        "l1_rel_err": _median(renders, "l1_rel_err"),
        "mean_abs_err_interior": _median(renders, "mean_abs_err_interior"),
    }


def per_layer(res: dict, renders: list[dict]) -> dict:
    traced = [r for r in renders if r["traced"] and "per_layer" in r]
    plain = [r for r in renders if not r["traced"]]
    m = dict(res["setup_per_layer"])
    for key in traced[0]["per_layer"] if traced else ():
        m[key] = statistics.median(r["per_layer"][key] for r in traced)
    untraced_s = statistics.median(scaled_render_s(r) for r in plain)
    traced_s = statistics.median(scaled_render_s(r) for r in traced) if traced else 0.0
    m.update({
        "trace.render_untraced_s": untraced_s,
        "trace.render_traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s if untraced_s else 0.0,
        "trace.bookkeeping_s": _median(traced, "bookkeeping_s"),
        "trace.spans": _median(traced, "spans"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the renders are measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        child_args += ["--spans", f"{stem}.spans.jsonl"]
    res = run_child(child_args, deadline)
    renders = res["renders"]
    notes = []
    # every render counts as attempted, the untimed worker-pool one too
    attempts = list(renders)
    if "worker_check" in res:
        attempts.append(res["worker_check"])
        notes.append(f"untimed render with workers={res['worker_check']['workers']} "
                     "must give the same image bytes")
    ref_digest = next((r["digest"] for r in renders if "digest" in r), None)
    for r in attempts:
        if "digest" in r and r["digest"] != ref_digest:
            r["failures"].append(f"image digest {r['digest']} != {ref_digest}")

    failed = sum(1 for r in attempts if r["failures"])
    values = per_layer(res, renders) if args.trace else end_to_end(res, renders)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not failed:
        raise BenchError(f"metrics not computed: {missing}")
    # a failed traced render leaves its per-layer metrics at 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    times = [r["render_s"] for r in renders if not r["traced"]]
    # the highest percentile with >= 10 samples beyond it is below the median
    # until a run holds 20 renders, so it would not describe a tail
    tail_note = f"n/a: a tail with >= 10 renders beyond it needs far more than {len(times)}"
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rays": res["rays"], "shift_pitches": res["shift_pitches"],
        "attempted": len(attempts), "failed": failed, "failed_frac": failed / len(attempts),
        "render_s_tail": tail_note,
        "render_s_samples": len(times),
        "render_wall_s": statistics.median(times),
        "setup_wall_s": statistics.median(res["setup_s"]),
        "mass_rel_err": _median(renders, "mass_rel_err"),
        "max_abs_err_interior": _median(renders, "max_abs_err_interior"),
        "digests": sorted({r["digest"] for r in attempts if "digest" in r}),
        "notes": notes,
        "metrics": metrics,
        "environment": environment(res["versions"]),
        "renders": [{k: v for k, v in r.items() if k != "per_layer"} for r in attempts],
        "setup_samples_s": res["setup_s"],
    }
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {res['rays']} rays, "
          f"detector shift {res['shift_pitches'][0]:+.3f}, {res['shift_pitches'][1]:+.3f} pitch")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  unscaled wall time: render {report['render_wall_s']:.6g} s, set-up "
          f"{report['setup_wall_s']:.6g} s; render_s_tail {tail_note}")
    print(f"  mass_rel_err {report['mass_rel_err']:.6g}, max_abs_err_interior "
          f"{report['max_abs_err_interior']:.6g} g/cm2 (reported, not gated: they vary with the shift)")
    print(f"  failed_frac {report['failed_frac']:.6g} ({failed} of {len(attempts)} renders)")
    for r in attempts:
        for f in r["failures"]:
            print(f"  FAIL: {f}")
    print(f"  sha256 {', '.join(report['digests'])}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  environment: {json.dumps(report['environment'])}")
    print(f"  record: {stem.relative_to(ROOT)}.json")
    print(json.dumps({"correct": failed == 0, "attempted": len(attempts), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
