"""womplab benchmark: one workload per run.

    python3 perfbench/run.py --workload certified --seed 0 --seconds 33 --trace 0

Run from the repository root; the library is imported from ./src, never
from an installed copy.  Inputs come from --seed.  Passes over the same
inputs repeat until --seconds have elapsed (at least MIN_PASSES), and every
item of every pass goes through the output check in checks.py.

--trace 0 reports the end-to-end metrics.  Each timed pass is followed by
the fixed kernel of calibration.py, and passes are timed in host-speed
units: norm_pass_s is the run's pass seconds over its kernel seconds, times
the kernel's reference seconds.  Each set-up is followed by the kernel too,
and setup_s is the median of the set-up seconds over the kernel seconds,
times the same reference.  Host load on a shared 2-vCPU VM slowed
all code by 1.2 to 1.7 times for stretches of minutes, which spread even
the fastest pass of a 35 s run by up to 0.25 (interquartile range over
median) across runs; see calibration.py.
--trace 1 spends half the time on untraced passes and half on passes
traced by tracer.py, and reports the per-layer metrics of the fastest
traced pass.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds provenance and
pass times.  Both are also written, with the spans of the reported traced
pass, under .perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 3
SETUP_SUBPROCESSES = 2  # plus the run's own set-up: median of three
# BLAS runs single-threaded.  On a 2-vCPU x86-64 VM the default OpenBLAS
# pool spun on the second core, doubling the CPU a run competes for, and made
# certified passes slower (2.6 s against 2.0 s).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUBPROCESS_TIMEOUT_S = 60
# Largest share of the untraced pass time that the top-level spans may fail
# to account for beyond the tracing overhead; the norm_pass_s bound.
SPAN_COVER_SLACK = 0.25

# (metric prefix, span name, fields); see README.md for what each moves.
LAYER_METRICS = (
    ("discretization.check_usd", "discretization.check_usd",
     ("calls", "self_s", "supports", "supports_per_s", "holds_frac")),
    ("greedy.womp", "greedy.womp",
     ("calls", "busy_s", "self_s", "steps", "rank_deficient")),
    ("greedy.project", "greedy.project", ("calls", "self_s")),
    ("greedy.best_vterm", "greedy.best_vterm", ("calls", "self_s", "supports")),
    ("recovery.best_vterm_l2_muxi", "recovery.best_vterm_l2_muxi",
     ("calls", "self_s", "supports")),
    ("trig.evaluate_at", "trig.TrigSystem.evaluate_at",
     ("calls", "self_s", "entries")),
    ("trig.TrigPolynomial.eval", "trig.TrigPolynomial.eval",
     ("calls", "self_s", "entries")),
    ("trig.lp_norm", "trig.lp_norm", ("calls", "busy_s", "self_s", "grid_points")),
    ("trig.multiply", "trig.multiply", ("calls", "self_s", "term_pairs")),
    ("recovery.make_fooling", "recovery.make_fooling",
     ("calls", "busy_s", "self_s", "svd_entries")),
    ("recovery.adversary_gap", "recovery.adversary_gap", ("calls", "busy_s")),
    ("recovery.recover", "recovery.recover", ("calls", "busy_s", "self_s")),
    ("experiments.rate_sweep_compute", "experiments.rate_sweep_compute",
     ("calls", "busy_s", "self_s")),
    ("classes.sample_class_function", "classes.sample_class_function",
     ("calls", "self_s")),
    ("discretization.build_sampled", "discretization.build_sampled",
     ("calls", "busy_s")),
)
FIELD_UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "supports": "count",
    "supports_per_s": "1/s", "holds_frac": "frac", "steps": "count",
    "rank_deficient": "count", "entries": "count", "grid_points": "count",
    "term_pairs": "count", "svd_entries": "count",
}
TRACE_METRICS = {
    "trace.overhead_frac": "frac",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.top_span_s": "s",
    "trace.span_cover_frac": "frac",
}
END_TO_END_UNITS = {"norm_pass_s": "s", "norm_items_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict:
    units = {f"{prefix}.{field}": FIELD_UNITS[field]
             for prefix, _, fields in LAYER_METRICS for field in fields}
    units.update(TRACE_METRICS)
    return units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("certified", "sweep", "adversary"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=33.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up and kernel times and exit")
    return ap.parse_args(argv)


def import_library() -> float:
    """Import womplab from ./src with single-threaded BLAS; return the
    seconds the import took."""
    if not os.path.isfile(os.path.join(SRC, "womplab", "__init__.py")):
        sys.exit(f"perfbench: no womplab sources under {SRC}; "
                 "run from the root of a womplab checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import womplab
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(womplab.__file__))) != SRC:
        sys.exit(f"perfbench: womplab was imported from {womplab.__file__}, not {SRC}")
    return elapsed


def set_up(workload, seed, import_s):
    """Inputs plus a warm-up of one item per input size; returns (inputs,
    set-up seconds including the import)."""
    start = time.perf_counter()
    inputs = workload.make_inputs(seed)
    workload.warm_up(inputs)
    return inputs, import_s + time.perf_counter() - start


def kernel_after_setup() -> float:
    """Kernel seconds right after a set-up: the second of two runs, so that
    the first takes the one-time costs."""
    import calibration

    calibration.run()
    return calibration.run()


def setup_in_subprocess(args) -> tuple:
    """(set-up seconds, kernel seconds) of a set-up in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=SUBPROCESS_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: set-up subprocess failed:\n{done.stderr}")
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["kernel_s"]


def timed_passes(workload, inputs, seconds, recorder=None, kernel=None):
    """Run passes until `seconds` have elapsed and at least MIN_PASSES ran.

    Returns (pass seconds, output summaries, spans of each traced pass,
    seconds of `kernel()`, if given, run after each pass).
    Outputs are summarized outside the timed region.
    """
    import tracer

    times, summaries, spans, kernel_times = [], [], [], []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        if recorder is None:
            t0 = time.perf_counter()
            outcome = workload.run_pass(inputs)
            times.append(time.perf_counter() - t0)
        else:
            recorder.clear()
            with tracer.instrument(recorder):
                t0 = time.perf_counter()
                outcome = workload.run_pass(inputs)
                times.append(time.perf_counter() - t0)
            spans.append(recorder.spans)
        if kernel is not None:
            kernel_times.append(kernel())
        summaries.append(workload.summarize(outcome))
    return times, summaries, spans, kernel_times


def norm_pass_seconds(times, kernel_times) -> float:
    """Mean pass time in host-speed units: the run's pass seconds over its
    kernel seconds, times the kernel's reference seconds."""
    import calibration

    return sum(times) / sum(kernel_times) * calibration.REFERENCE_S


def check_passes(workload_name, summaries, with_reference):
    """(attempted, failed, first problems) over every item of every pass."""
    import checks

    ref = checks.load_reference().get(workload_name) if with_reference else None
    attempted = failed = 0
    shown = []
    for summary in summaries:
        for problems in checks.check_pass(workload_name, summary, ref):
            attempted += 1
            if problems:
                failed += 1
                if len(shown) < 5:
                    shown.append(problems)
    return attempted, failed, shown


def layer_metrics(spans, untraced_s, traced_s) -> dict:
    """Per-layer metrics of one traced pass that took `traced_s`, against
    the untraced pass time `untraced_s`."""
    import tracer

    totals = tracer.layer_totals(spans)
    values = {}
    for prefix, span, fields in LAYER_METRICS:
        row = totals.get(span, {})
        for field in fields:
            if field == "supports_per_s":
                value = row["supports"] / row["busy_s"] if row.get("busy_s") else 0.0
            elif field == "holds_frac":
                value = row["holds"] / row["calls"] if row.get("calls") else 0.0
            else:
                value = row.get(field, 0)
            values[f"{prefix}.{field}"] = value
    top = tracer.top_level_seconds(spans)
    values.update({
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced_s,
        "trace.top_span_s": top,
        "trace.span_cover_frac": top / untraced_s,
    })
    return values


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _source_digest():
    """SHA-256 over the library's sources, which names the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "womplab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if the
    checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    args = parse_args(argv)
    import_s = import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        _, setup_s = set_up(workload, args.seed, import_s)
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_after_setup()}))
        return 0

    setup_samples = [setup_in_subprocess(args) for _ in range(SETUP_SUBPROCESSES)]
    inputs, own_setup_s = set_up(workload, args.seed, import_s)
    setup_samples.append((own_setup_s, kernel_after_setup()))

    spans = []
    if args.trace:
        import tracer

        untraced_s, summaries, _, _ = timed_passes(workload, inputs, args.seconds / 2)
        traced_s, traced_summaries, pass_spans, _ = timed_passes(
            workload, inputs, args.seconds / 2, recorder=tracer.Recorder())
        summaries += traced_summaries
        fastest = traced_s.index(min(traced_s))
        spans = pass_spans[fastest]
        metrics = layer_metrics(spans, min(untraced_s), traced_s[fastest])
        units = per_layer_units()
        pass_times = {"untraced": untraced_s, "traced": traced_s}
    else:
        import calibration

        times, summaries, _, kernel_times = timed_passes(
            workload, inputs, args.seconds, kernel=calibration.run)
        norm_pass_s = norm_pass_seconds(times, kernel_times)
        metrics = {
            "norm_pass_s": norm_pass_s,
            "norm_items_per_s": workload.items_per_pass / norm_pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(s / k for s, k in setup_samples)
            * calibration.REFERENCE_S,
        }
        units = END_TO_END_UNITS
        pass_times = {"untraced": times, "kernel": kernel_times}

    attempted, failed, problems = check_passes(
        args.workload, summaries, args.seed == workloads.DEFAULT_SEED)
    correct = failed == 0
    for item_problems in problems:
        print(f"perfbench: failed item: {'; '.join(item_problems)}", file=sys.stderr)
    if args.trace:
        # The top-level spans must account for the untraced pass time.
        gap = abs(metrics["trace.span_cover_frac"] - 1.0)
        if gap > abs(metrics["trace.overhead_frac"]) + SPAN_COVER_SLACK:
            correct = False
            print(f"perfbench: top-level spans cover {metrics['trace.span_cover_frac']:.3f} "
                  "of the untraced pass time", file=sys.stderr)

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "items_per_pass": workload.items_per_pass,
        "passes": {k: len(v) for k, v in pass_times.items()},
        "median_pass_s": {k: statistics.median(v) for k, v in pass_times.items()},
        "fastest_pass_s": {k: min(v) for k, v in pass_times.items()},
        "pass_times_s": pass_times, "setup_and_kernel_s": setup_samples,
        "failed_frac": failed / attempted, "provenance": provenance(),
    }
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    write_outputs(args, detail, result, spans)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def write_outputs(args, detail, result, spans):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**detail, "result": result}, fh, indent=1)
    if args.trace:
        origin = spans[0][1] if spans else 0.0
        with open(stem + "-spans.jsonl", "w") as fh:
            for name, start, end, parent, counters in spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "counters": counters}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
