"""skelcap benchmark: one workload, one seed, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload caption --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` repeats the run
with spans at each layer boundary and prints every per-layer metric instead.

End-to-end timings are scaled to a nominal host: the run times fixed
reference slices of numpy and interpreter work every fraction of a second
(see ``workloads.Reference``), and each timing is multiplied (a rate divided)
by the speed measured around it, relative to ``workloads.REFERENCE_RATE``. On
a shared host whose speed drifts by tens of percent within seconds this
keeps seeded runs comparable; the raw timings and the reference samples are
in the results file. Per-layer timings are as measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record (the
environment, sample counts, output digests, each layer's self time) goes to
``perfbench/out/<workload>-trace<0|1>.json``, and a traced run's spans to
``perfbench/out/<workload>-spans.json.gz``.

``--write-benchmark-json`` rewrites BENCHMARK.json from ``catalogue.py``.

The benchmark imports skelcap from the checkout's ``src/`` and nowhere else;
without it the run exits with code 2 and prints no result.
"""

import ctypes
import os

# One BLAS thread, pinned before numpy loads: on two cores a second BLAS
# thread competes with the Python thread and makes these small matrix
# products slower and their timings noisier. The thread count also changes
# summation order, so it is part of the seeded outputs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# glibc's malloc moves its mmap threshold as blocks are freed, so whether
# numpy's larger temporaries get fresh (page-faulting) mappings or reused
# heap depends on the process's allocation history. Identical training jobs
# took from 60k to 210k page faults and moved by a quarter between
# processes. Fixed thresholds make the allocator's policy the same in every
# run; None where the C library has no mallopt.
MALLOC_THRESHOLD = 32 << 20


def pin_allocator():
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return None
    if mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLD) and mallopt(M_TRIM_THRESHOLD,
                                                               MALLOC_THRESHOLD):
        return MALLOC_THRESHOLD
    return None


MALLOC_PINNED = pin_allocator()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import catalogue  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = [name for name, _ in catalogue.WORKLOADS]


def import_program():
    """Import skelcap from ``<checkout>/src``; exit 2 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import skelcap
    except ImportError as exc:
        print(f"perfbench: cannot import skelcap from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src not in Path(skelcap.__file__).resolve().parents:
        print(f"perfbench: skelcap was imported from {skelcap.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(2)
    return skelcap


def blas_threads_reported():
    """OpenBLAS's own thread count, read through ctypes; None if unavailable."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": blas_threads_reported(),
        "malloc_threshold": MALLOC_PINNED,
        "minor_page_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
        "platform": platform.platform(),
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="rewrite BENCHMARK.json from catalogue.py and exit")
    args = p.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(catalogue.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0

    t_import = perf_counter()
    import_program()
    import tracing
    import workloads
    import_s = perf_counter() - t_import

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    run = workloads.RunState(args.seed, tracer)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workloads.run_workload(args.workload, run, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    end_to_end = {n: {"value": run.values[n], "unit": u} for n, u, _, _ in catalogue.END_TO_END}
    if args.trace:
        printed = tracing.per_layer_metrics(tracer, [(n, u) for n, u, _ in catalogue.PER_LAYER])
    else:
        printed = end_to_end
    correct = run.failed == 0 and not run.problems
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "import_s": import_s,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "problems": run.problems,
        "digests": run.digests,
        "metrics": printed,
        # the end-to-end figures, also for a traced run: their difference
        # from an untraced run is the tracing overhead
        "end_to_end": {n: m["value"] for n, m in end_to_end.items()},
        "end_to_end_raw": {**run.values, **run.raw},
        "reference": {"times": run.reference.times, "rates": run.reference.rates},
        "details": run.details,
    }
    if args.trace:
        record["layers"] = tracer.layer_totals()
        tracer.write(OUT / f"{args.workload}-spans.json.gz")
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for problem in run.problems + run.errors:
        print(f"perfbench: {problem}", file=sys.stderr)
    width = max(len(n) for n in printed)
    for name, m in printed.items():
        print(f"{name:<{width}}  {m['value']:>14.6g} {m['unit']}")
    print(f"digests: {json.dumps(run.digests, sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
