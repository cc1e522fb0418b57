#!/usr/bin/env python3
"""Benchmark of the lsknet package: three workloads, one process each.

Run from the repository root:

    python3 perfbench/run.py --workload infer-T512 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with spans recorded around the library's public functions and
reports the per-layer metrics instead.  ``--workload all`` runs every
workload in its own child process.  ``--tiny`` shrinks every workload for the
smoke test (its reference values are then computed in-process).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it,
starting with ``#``, record the environment and the metrics under their
workload-specific names.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOADS = ("infer-T512", "train-S128", "analyze-masks")
SETUP_REPS = 3
MAX_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "fraction"),
    ("throughput_per_cal", "1/cal"),
    ("latency_p50_cal", "cal"),
)
# workload-specific names of the throughput and the median latency in seconds
NAMES = {
    "infer-T512": ("infer.images_per_s", "infer.latency_p50_s", "images"),
    "train-S128": ("train.steps_per_s", "train.step_p50_s", "steps"),
    "analyze-masks": ("analyze.images_per_s", "export.latency_p50_s", "images"),
}

clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return "unknown"
    target, best, kind = str(path.resolve()), "", "unknown"
    for line in lines:
        left, _, right = line.partition(" - ")
        mount = left.split()[4].replace("\\040", " ")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best) and right:
            best, kind = mount, right.split()[0]
    return kind


def environment(np, args, threads: int) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', '?')}-{blas.get('version', '?')}"
    except (AttributeError, KeyError, TypeError):
        blas_text = "unknown"
    return (
        f"# env nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas_text} threads={threads} "
        f"({'/'.join(THREAD_VARS)}) seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} tiny={int(args.tiny)} work_fs={fs_type(RUN_DIR)}"
    )


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_workload(args) -> dict:
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(threads)
    start = clock()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads

    import_s = clock() - start
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"work-{os.getpid()}"
    print(environment(np, args, threads))
    try:
        return _measure(args, workloads, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, workloads, import_s: float, work: Path) -> dict:
    name = args.workload
    wl = workloads.make(name, args.seed, args.tiny, work)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()

    def traced():
        return tracer.active() if tracer else contextlib.nullcontext()

    # one set-up is prepare() plus the warm-up operation; SETUP_REPS of them
    # give setup_s as a median rather than a single first operation
    prep, setups, results = [], [], []
    with traced():
        for _ in range(SETUP_REPS):
            t = clock()
            wl.prepare()
            prep.append(clock() - t)
            results.append(wl.warm_up())
            setups.append(clock() - t)
    warm_count = len(results)
    traced_results = list(results)
    overhead_s = 0.0
    i = 1
    loop_start = clock()
    while clock() - loop_start < args.seconds:
        if tracer:
            plain = wl.operate(i)
            with tracer.active():
                seen = wl.operate(i)
            overhead_s += seen.timed_s - plain.timed_s
            results += [plain, seen]
            traced_results.append(seen)
        else:
            results.append(wl.operate(i))
        i += 1

    attempted = sum(r.items for r in results)
    failed = sum(r.failed for r in results)
    tag = f"# {name}"
    print(f"{tag} failed_share={failed / attempted:.6g} ({failed} of {attempted} "
          f"{NAMES[name][2]} failed their check)")

    if tracer:
        wall_s = sum(prep) + sum(r.timed_s for r in traced_results)
        state_mib = traced_results[-1].state_bytes / 2**20
        layer = tracer.per_layer(wall_s, overhead_s, state_mib, wl.model_macs)
        macs_ok = layer["trace.forward_macs"] == layer["trace.forward_macs_model"]
        spans_path = RUN_DIR / f"spans-{name}.jsonl"
        tracer.write(spans_path)
        for rule in tracing.MODEL_RULES:
            print(f"# model: {rule}")
        print(f"{tag} MACs of one traced forward {layer['trace.forward_macs']:,} vs "
              f"cost_backbone {layer['trace.forward_macs_model']:,}: {'equal' if macs_ok else 'MISMATCH'}")
        print(f"{tag} {len(tracer.spans)} spans over {wall_s:.3f} s traced -> {spans_path.relative_to(ROOT)}")
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        metrics = {n: {"value": layer[n], "unit": units[n]} for n, _, _ in tracing.PER_LAYER}
        return {"correct": failed == 0 and macs_ok, "attempted": attempted, "failed": failed, "metrics": metrics}

    measured = results[warm_count:]
    latencies = [x for r in measured for x in r.latencies]
    relative = [x / c for r in measured for x, c in zip(r.latencies, r.latency_cals)]
    rates = [sample for r in measured for sample in r.rates]
    items = sum(n for n, _, _ in rates)
    rate_s = sum(t for _, t, _ in rates)
    rate_cal = sum(t / c for _, t, c in rates)
    throughput = items / rate_s if rate_s > 0 else 0.0
    p50 = _median(latencies)
    values = {
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1.0 - failed / attempted,
        "throughput_per_cal": items / rate_cal if rate_cal > 0 else 0.0,
        "latency_p50_cal": _median(relative),
    }
    rate_name, lat_name, unit = NAMES[name]
    print(f"{tag} setup_s={values['setup_s']:.6g} s (import {import_s:.3f} s + median of {SETUP_REPS} "
          f"set-ups, each inputs and weights {statistics.median(prep):.3f} s + a warm-up operation; "
          f"set-ups {', '.join(f'{x:.3f}' for x in setups)} s)")
    print(f"{tag} peak_rss_mib={values['peak_rss_mib']:.6g} MiB")
    print(f"{tag} {rate_name}={throughput:.6g} 1/s ({items} {unit} over {rate_s:.3f} timed s); "
          f"throughput_per_cal={values['throughput_per_cal']:.6g} 1/cal (median calibration "
          f"{_median(c for _, _, c in rates):.6g} s)")
    print(f"{tag} {lat_name}={p50:.6g} s (median of {len(latencies)}); latency_p50_cal="
          f"{values['latency_p50_cal']:.6g} cal (median calibration "
          f"{_median(c for r in measured for c in r.latency_cals):.6g} s)")
    if name == "analyze-masks" and len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        print(f"{tag} export.latency_p90_s={p90:.6g} s (of {len(latencies)}, "
              f"{sum(x > p90 for x in latencies)} beyond it)")
    metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own child process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lsknet" / "__init__.py").is_file():
        print(f"error: no lsknet sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
