"""curvecross benchmark: one workload per process, one closed-loop client.

Usage, from the repository root:

    python3 perfbench/run.py --workload spectra|probe|crosscheck \
        --seed N --seconds S --trace 0|1

With --trace 0 the run measures set-up time and the workload's operations
untraced and prints the end-to-end metrics.  With --trace 1 it alternates
untraced and traced operations and prints the per-layer metrics, taken
from the traced ones, and the tracing overhead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run's environment
record.  Spans and the record are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60.0
READY = "setup-ready"


def cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > ncpu:
            os.environ[var] = str(ncpu)
    return ncpu


def import_program():
    """Import curvecross from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "curvecross")):
        raise SystemExit(f"error: no curvecross sources under {SRC}")
    sys.path.insert(0, SRC)
    import curvecross

    if not os.path.abspath(curvecross.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported curvecross from {curvecross.__file__}")


def setup_samples(workload, seed, count):
    """Set-up times of `count` fresh processes, each timed from just before
    it is started to the line it prints once its set-up is done, unscaled
    and scaled by the host-speed gauge sampled before and after each."""
    gauge = harness.Gauge(active=False)
    gauge.sample(harness.GAUGE_WINDOW)
    times, spans = [], []
    for _ in range(count):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != READY or proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed (exit {proc.returncode})")
        times.append(t1 - t0)
        spans.append((t0, t1))
        gauge.sample(harness.GAUGE_WINDOW)
    return times, [gauge.scaled(w, t0, t1) for w, (t0, t1) in zip(times, spans)]


def source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "curvecross")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, ncpu):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": ncpu,
        "cpu_model": cpu_model(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


def units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def timing_summary(walls):
    value, percentile, beyond = harness.tail(walls)
    return {
        "samples": len(walls),
        "walls_ms": [w * 1e3 for w in walls],
        "p50_ms": statistics.median(walls) * 1e3,
        "tail_ms": value * 1e3,
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("spectra", "probe", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    ncpu = cap_threads()
    import_program()
    setup_times = ([], [])
    if not args.setup_only and not args.trace:
        setup_times = setup_samples(args.workload, args.seed, SETUP_SAMPLES)

    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](workdir)
        if args.setup_only:
            workload.setup()
            print(READY, flush=True)
            return 0
        return measure_and_report(args, ncpu, workload, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_and_report(args, ncpu, workload, setup_times):
    """Set up the workload, measure it and print the metrics, the record
    and the result line."""
    import numpy as np

    rng = np.random.default_rng(args.seed)
    record = environment(args, ncpu)
    spans = []
    if args.trace:
        tracer = harness.Tracer()
        tracer.install()
        try:
            with tracer.span("setup", "setup"):
                workload.setup()
            run = harness.measure(workload, rng, args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans
        plain, traced = run.walls_where(False), run.walls_where(True)
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics = harness.layer_metrics(spans, run.accuracy, overhead)
        kind = "per_layer"
        record["untraced"] = timing_summary(plain)
        record["traced"] = timing_summary(traced)
    else:
        workload.setup()
        run = harness.measure(workload, rng, args.seconds)
        summary = timing_summary(run.scaled_walls())
        metrics = {
            "setup_s": statistics.median(setup_times[1]),
            "op_p50_ms": summary["p50_ms"],
            "op_tail_ms": summary["tail_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        kind = "end_to_end"
        record["timing"] = summary
        record["wall_timing"] = timing_summary(run.walls)
        record["gauge"] = {"kernels": len(run.gauge.samples),
                           "mean_ms": statistics.fmean(run.gauge.samples),
                           "nominal_ms": harness.GAUGE_NOMINAL_MS}
        record["setup_samples_s"] = {"wall": setup_times[0], "scaled": setup_times[1]}
        record["max_rel_err"] = max(run.accuracy) if run.accuracy else None

    attempted, failed = run.attempted, run.failed
    record["operations"] = attempted
    record["fail_frac"] = failed / attempted
    record["errors"] = run.errors[:20]
    record["facts"] = summarize_facts(run.facts)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".record.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if spans:
        with open(stem + ".spans.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "op", "parent", "start", "end", "error", "attrs"],
                       "spans": spans}, handle)

    unit = units(kind)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {unit[name]}")
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def summarize_facts(facts):
    """Range of each numeric per-operation fact (D_A, D_R, drift, ...)."""
    out = {}
    for key in sorted({k for f in facts for k in f}):
        values = [f[key] for f in facts if key in f]
        out[key] = [min(values), max(values)]
    return out


if __name__ == "__main__":
    sys.exit(main())
