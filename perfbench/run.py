"""splitnoise benchmark: one workload in one process, checked, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/`.  The workload repeats as a closed loop (one caller, the next
pass starts when the previous one has its checked verdicts) until S
seconds have passed, and every pass is timed.  With --trace 0 the last
line of stdout carries the end-to-end metrics; with --trace 1 passes
alternate untraced and traced and it carries the per-layer metrics.
Earlier lines give a stamp and every metric with its unit.  A record
of the run (stamp, metrics, checks, per-function span summary; with
--trace 1 also the raw spans) goes to perfbench/out/.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools to one thread before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (benchmark-local; imports no splitnoise code)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
# a fresh interpreter up to the point where it can make its first package call
SETUP_PROBE = ("import sys, time\n"
               f"sys.path.insert(0, {str(SRC)!r})\n"
               "import numpy, scipy.special\n"
               "import splitnoise.cli\n"
               "print(repr(time.monotonic()))\n")

END_TO_END = [  # (metric, unit); bounds live in BENCHMARK.json
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("stderr", "1"),
    ("wnv", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes, not for measurement")
    return ap.parse_args(argv)


def setup_samples() -> list[float]:
    """Seconds from launching a fresh interpreter to package-ready, per launch."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        samples.append(float(done.stdout.strip()) - start)
    return samples


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def stamp(args) -> dict:
    import numpy
    import scipy

    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top.strip()).resolve() == ROOT
    sha = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(workloads, args):
    """Closed loop for args.seconds; with --trace 1 odd passes are traced."""
    passes = []
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(passes)
        traced = args.trace == 1 and index % 2 == 1
        checks = workloads.Checks()
        tracer.run = index
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if traced:
            with tracing.instrumented(tracer):
                outcome = workloads.run(args.workload, args.seed, args.size, checks)
        else:
            outcome = workloads.run(args.workload, args.seed, args.size, checks)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if passes:
            checks.add("identical outputs for identical inputs",
                       outcome.fingerprint() == passes[0]["outcome"].fingerprint())
        passes.append({"traced": traced, "wall": wall, "cpu": cpu,
                       "outcome": outcome, "checks": checks})
        enough = args.trace == 0 or len(passes) >= 2
        if enough and time.perf_counter() >= deadline:
            return passes, tracer


def end_to_end(passes, setup_s) -> dict:
    wall = statistics.median(p["wall"] for p in passes)
    stderr = statistics.median(p["outcome"].stderr for p in passes)
    attempted = sum(len(p["checks"].results) for p in passes)
    failed = sum(len(p["checks"].failed) for p in passes)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "stderr": stderr,
        "wnv": stderr**2 * wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
    }


def per_layer(passes, tracer):
    plain = [p for p in passes if not p["traced"]]
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    summaries = {i: tracing.span_summary(tracer.spans, i) for i in traced}
    rows = [tracing.layer_metrics(summaries[i]) for i in traced]
    rows[0]["process.cpu_s"] = statistics.median(p["cpu"] for p in plain)
    rows[0]["process.trace_overhead"] = (statistics.median(passes[i]["wall"] for i in traced)
                                         / statistics.median(p["wall"] for p in plain))
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        values = [row[name] for row in rows if name in row]
        metrics[name] = statistics.median_low(values) if unit == "count" else statistics.median(values)
    return metrics, summaries[traced[-1]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "splitnoise" / "__init__.py").is_file():
        print(f"error: no splitnoise package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import splitnoise

    if Path(splitnoise.__file__).resolve().parent != SRC / "splitnoise":
        print(f"error: imported splitnoise from {splitnoise.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    info = stamp(args)
    setup = setup_samples() if args.trace == 0 else []
    passes, tracer = measure(workloads, args)
    attempted = sum(len(p["checks"].results) for p in passes)
    failed_names = [name for p in passes for name in p["checks"].failed]
    if args.trace == 0:
        metrics = end_to_end(passes, statistics.median(setup))
        units = dict(END_TO_END)
        spans = {}
    else:
        metrics, spans = per_layer(passes, tracer)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}

    record = {
        "stamp": info,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "setup_samples_s": setup,
        "passes": [{"traced": p["traced"], "wall_s": p["wall"], "cpu_s": p["cpu"]}
                   for p in passes],
        "checks": {"attempted": attempted, "failed": failed_names,
                   "names": [name for name, _ in passes[0]["checks"].results]},
        "estimates": passes[0]["outcome"].estimates,
        "spans_by_function": spans,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace == 1:
        with open(OUT / f"spans_{stem}.jsonl", "w") as fh:
            for span in tracer.records():
                fh.write(json.dumps(span) + "\n")

    for name in failed_names:
        print(f"check failed: {name}", file=sys.stderr)
    print("stamp " + json.dumps(info, sort_keys=True))
    print(f"passes {len(passes)}, checks {attempted}, failed {len(failed_names)}")
    for name, value in metrics.items():
        label = " (computed from call arguments)" if units[name] == "count" else ""
        print(f"{name} {value!r} {units[name]}{label}")
    print(json.dumps({
        "correct": not failed_names,
        "attempted": attempted,
        "failed": len(failed_names),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
