"""fm3q benchmark command.

    python3 benchmarks/run.py --workload saddle_train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the run sets up the workload's inputs several times, then
runs whole jobs until `--seconds` have passed, and prints the end-to-end
metrics. With `--trace 1` it runs jobs untraced for half the time, runs the
same jobs again with every public function of the package wrapped in a
span, checks that both runs produced identical outputs, and prints the
per-layer metrics. The last line of standard output is one JSON object;
lines before it starting with `#` describe the machine and give the
workload's figures under its own metric names.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("saddle_train", "grid_cli", "oracle_exact")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when there is one."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
    }


def run_jobs(workload, inputs, seconds: float, min_jobs: int) -> list:
    deadline = time.perf_counter() + seconds
    jobs = []
    while len(jobs) < min_jobs or time.perf_counter() < deadline:
        jobs.append(workload.job(inputs, len(jobs)))
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "fm3q"
    if not (package / "__init__.py").is_file():
        print(f"error: no fm3q package at {package}; run from a repository checkout", file=sys.stderr)
        return 2
    # one process with one BLAS thread: the load never exceeds nproc
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import fm3q
    from fm3q import baselines, cli, evaluation, games, learner, numerics, oracle

    import_s = time.perf_counter() - start
    if Path(fm3q.__file__).resolve().parent != package.resolve():
        print(f"error: fm3q imported from {fm3q.__file__}, not {package}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracing import Tracer

    modules = dict(
        games=games, learner=learner, numerics=numerics, oracle=oracle,
        evaluation=evaluation, baselines=baselines, cli=cli,
    )
    workload = workloads.WORKLOADS[args.workload]
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        setup_times = []
        inputs = None
        for _ in range(SETUP_REPEATS):
            inputs = None
            gc.collect()
            t = time.perf_counter()
            inputs = workload.setup(args.seed, str(work_dir))
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)

        if not args.trace:
            jobs = run_jobs(workload, inputs, args.seconds, workload.min_jobs)
            summary = workload.summarize(inputs, jobs)
            checks = summary.checks + [c for job in jobs for c in job.checks]
            metrics = {
                "setup_s": (setup_s, "s"),
                "job_s": (summary.job_s, "s"),
                "learn_per_s": (summary.learn_per_s, "1/s"),
                "judge_per_s": (summary.judge_per_s, "1/s"),
                "reference_per_s": (summary.reference_per_s, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            figures = summary.figures + [("jobs", len(jobs), "count")]
        else:
            plain = run_jobs(workload, inputs, args.seconds / 2.0, 1)
            with Tracer(modules) as tracer:
                traced = [workload.job(inputs, job.index) for job in plain]
            overhead_s = sum(j.wall for j in traced) - sum(j.wall for j in plain)
            summary = workload.summarize(inputs, plain)
            checks = summary.checks + [c for job in plain + traced for c in job.checks]
            checks += [
                (f"job{a.index}.traced_output_identical", a.digest == b.digest)
                for a, b in zip(plain, traced)
            ]
            totals = tracer.totals()
            checks += [
                (f"{name}.called", totals.get(name, (0, 0.0))[0] > 0)
                for name in layers.COVERAGE[args.workload]
            ]
            checks += workload.trace_checks(inputs, traced, tracer)
            values = layers.layer_metrics(tracer, overhead_s)
            metrics = {name: (values[name], unit) for name, unit in layers.LAYER_METRICS}
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz")
            figures = [("jobs", len(plain), "count"), ("spans", len(tracer.span_name), "count")]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [name for name, passed in checks if not passed]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    for name, value, unit in figures:
        print(f"# {args.workload} {name} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
