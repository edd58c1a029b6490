"""The isopedal benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a checkout: isopedal is imported from ./src and
nothing else.  BLAS threads are pinned to 1 and all load comes from this
one process; each op starts only when the previous one has returned.

With --trace 0 the run measures, for S seconds (at least the workload's
minimum number of rounds), the end-to-end metrics: op_s, the median wall
time of one op (verify_s on the verify workloads, export_s on
export_fine, the CLI pedal time on spec_sweep), setup_s, peak_rss_mb and
completed_share.  With --trace 1 it runs the jet kernel microbenchmark,
then alternates untraced rounds and rounds with every layer wrapped in
spans for S seconds, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object;
`--workload all` runs every workload in its own process and prints a
table.  Spans of a traced run go to perfbench/out/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 11
OP_NAMES = {"verify_default": "verify_s", "verify_large": "verify_s",
            "export_fine": "export_s", "spec_sweep": "pedal_s"}


def tail_percentile(samples, beyond=10):
    """(percent, value) of the highest percentile with at least `beyond`
    samples above it, or None when there are too few samples."""
    n = len(samples)
    if n <= beyond:
        return None
    k = n - beyond  # the k-th smallest sample leaves `beyond` above it
    return 100.0 * k / n, sorted(samples)[k - 1]


def setup_seconds(src, argvs):
    """Median over SETUP_PROBES fresh interpreters (after one warm-up) of
    the time to import isopedal and build the RunConfig."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for k in range(SETUP_PROBES + 1):
        argv = argvs[k % len(argvs)]
        done = subprocess.run([sys.executable, probe, src, *argv], capture_output=True,
                              text=True, timeout=120, check=True)
        if k:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_rounds(workload, stats, seconds, tracer=None, min_rounds=None):
    """Closed loop: rounds until `seconds` have passed and at least
    `min_rounds` (default: the workload's minimum) ran; returns the wall
    time of each round."""
    walls = []
    if min_rounds is None:
        min_rounds = workload.min_rounds
    t_start = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - t_start < seconds:
        if tracer is not None:
            tracer.begin_round()
        t0 = time.perf_counter()
        workload.round(stats, tracer)
        walls.append(time.perf_counter() - t0)
    return walls


def end_to_end(workload, stats, args, src):
    walls = run_rounds(workload, stats, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = setup_seconds(src, workload.setup_argv)
    samples = stats.samples
    tail = tail_percentile(samples)
    print(f"{args.workload}: {len(walls)} rounds, {stats.attempted} ops, "
          f"{stats.failed} failed")
    print(f"  op_s ({OP_NAMES[args.workload]}): median {statistics.median(samples):.4f} s "
          f"over {len(samples)} samples; "
          + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
             "no percentile has 10 samples above it"))
    return {
        "op_s": (statistics.median(samples), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "completed_share": ((stats.attempted - stats.failed) / stats.attempted, "ratio"),
    }


def per_layer(workload, stats, args):
    import kernels
    from tracing import Tracer, describe, self_times

    # before any spans exist, so their memory cannot slow the kernels
    kernel_us = kernels.measure()
    plain, traced = [], []
    tracer = Tracer()
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < args.seconds:
        plain += run_rounds(workload, stats, 0.0, min_rounds=1)
        tracer.install()
        try:
            traced += run_rounds(workload, stats, 0.0, tracer, min_rounds=1)
        finally:
            tracer.uninstall()
    selfs = self_times(tracer.spans)
    rounds = [tracer.round_totals(r, selfs) for r in range(len(traced))]
    metrics = {}
    for key, first in rounds[0].items():
        if key.endswith("_s"):
            metrics[key] = statistics.median(r[key] for r in rounds)
        else:
            metrics[key] = first
            if any(r[key] != first for r in rounds[1:]):
                print(f"  note: {key} differs between traced rounds", file=sys.stderr)
    metrics.update(kernel_us)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
    tracer.write(path)
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced rounds, "
          f"{len(tracer.spans)} spans written to {os.path.relpath(path)}")
    return {k: (v, describe(k)[0]) for k, v in metrics.items()}


def per_layer_names():
    """Every per-layer metric a traced run reports, in report order."""
    import kernels
    from tracing import Tracer

    kernel_names = [kernels.metric_name(k, o, b) for o in kernels.ORDERS
                    for b in kernels.BATCHES for k in kernels.KERNELS]
    return [*Tracer().round_totals(0), *kernel_names, "trace.overhead_ratio"]


def run_one(args):
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "isopedal", "__init__.py")):
        print("error: no isopedal sources in ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import isopedal
    if not os.path.abspath(isopedal.__file__).startswith(src + os.sep):
        print(f"error: isopedal imported from {isopedal.__file__}, not {src}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.make(args.workload, args.seed, work_dir)
        stats = workloads.Stats()
        if args.trace:
            metrics = per_layer(workload, stats, args)
        else:
            metrics = end_to_end(workload, stats, args, src)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for p in stats.problems[:20]:
        print("  WRONG OUTPUT: " + p)
    result = {
        "correct": not stats.problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all_workloads(args):
    """Every workload in a fresh process; prints one table."""
    rows, ok = [], True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout[: done.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        metrics = dict(result["metrics"])
        if not args.trace:
            op = metrics.pop("op_s")
            metrics[OP_NAMES[name]] = op
            metrics["failed_share"] = {"value": result["failed"] / result["attempted"],
                                       "unit": "ratio"}
        for metric, m in metrics.items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "correct", result["correct"], ""))
    print(f"{'workload':<16} {'metric':<44} {'value':>14} unit")
    for name, metric, value, unit in rows:
        vtxt = str(value) if isinstance(value, bool) else f"{value:.6g}"
        print(f"{name:<16} {metric:<44} {vtxt:>14} {unit}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description="isopedal benchmark")
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all_workloads(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
