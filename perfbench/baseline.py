"""Run every workload over several seeds and write one results file.

    python3 perfbench/baseline.py --out perfbench/results/baseline.json

Each run is a fresh ``run.py`` process: every workload with seeds 1 to 10,
then one traced run with seed 1. For every workload and end-to-end
metric the file holds the values per seed, their median and quartiles, and
the spread (quartile distance over median) next to the metric's bound. Traced
runs add the per-layer metrics, each layer's self time, and the tracing
overhead: the traced over the untraced ``caption_images_per_s`` and
``train_skel_records_per_s`` of the same seed, minus one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import catalogue

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OVERHEAD_METRICS = ("caption_images_per_s", "train_skel_records_per_s")
SEEDS = range(1, 11)
TRACE_SEEDS = (1,)


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(catalogue.RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / f"{workload}-trace{trace}.json", encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


def summarize(values, bound=None):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / q2 if q2 else float("inf")
    out = {"median": q2, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out.update(bound=bound, within_third_of_bound=spread < bound / 3)
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()

    results = {"seconds": catalogue.RUN_SECONDS, "seeds": list(SEEDS),
               "trace_seeds": list(TRACE_SEEDS), "workloads": {}}
    for workload, _ in catalogue.WORKLOADS:
        runs = []
        for seed in SEEDS:
            result, record = run_once(workload, seed, 0)
            results.setdefault("environment", record["environment"])
            details = dict(record["details"])
            details["samples"] = {k: len(v) for k, v in details["samples"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "raw": record["end_to_end_raw"],
                         "digests": record["digests"], "details": details})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}", file=sys.stderr, flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs], bound)
                   for name, _, _, bound in catalogue.END_TO_END}
        traced = []
        for seed in TRACE_SEEDS:
            result, record = run_once(workload, seed, 1)
            untraced = next((r for r in runs if r["seed"] == seed), None)
            overhead = {}
            if untraced is not None:
                overhead = {m: record["end_to_end"][m] / untraced["metrics"][m] - 1.0
                            for m in OVERHEAD_METRICS}
            traced.append({"seed": seed, "correct": result["correct"],
                           "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                           "digests": record["digests"],
                           "digests_match_untraced": (untraced is not None and
                                                      record["digests"] == untraced["digests"]),
                           "tracing_overhead": overhead,
                           "self_ms": {n: t["self_ns"] / 1e6 for n, t in record["layers"].items()},
                           "calls": {n: t["count"] for n, t in record["layers"].items()}})
        results["workloads"][workload] = {"runs": runs, "summary": summary, "traced": traced}
        for name, s in summary.items():
            flag = "" if s["within_third_of_bound"] else "  <-- spread above bound/3"
            print(f"{workload:<13} {name:<26} median {s['median']:>12.5g}  spread "
                  f"{s['spread']:.3f}  bound {s['bound']}{flag}", file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
