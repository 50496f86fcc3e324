#!/usr/bin/env python3
"""Summarises repeated runs of bench/e2e/run.sh.

Reads one JSON record per run ({"workload", "seed", "trace", "result"}),
and prints, per workload and end-to-end metric, the median and quartiles
over the runs, the spread (quartile distance over median) and the bound
from BENCHMARK.json. A metric whose spread exceeds its bound is marked
UNRESOLVED: a change to it smaller than the spread cannot be told from
noise. With --sets K the runs of each workload are split into K
consecutive sets whose medians are compared: every pair of sets must
differ by no more than the bound, taking either as the base. With
--baseline FILE the summary, plus the per-layer values of the traced
runs, is written to FILE. Exits non-zero when a run failed its checks or
a set comparison failed.
"""
import argparse
import collections
import json
import statistics
import sys


def disagreement(medians):
    """The largest change between any two of `medians`, as a share of the
    smaller one: the same whichever of the pair is taken as the base."""
    low, high = min(medians), max(medians)
    return (high - low) / abs(low) if low else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--results", required=True)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--baseline")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--git-sha")
    parser.add_argument("--nproc", type=int)
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    runs = collections.defaultdict(list)
    traced = {}
    ok = True
    with open(args.results) as f:
        for line in f:
            record = json.loads(line)
            result = record["result"]
            ok = ok and result["correct"]
            if record["trace"]:
                traced[record["workload"]] = result
            else:
                runs[record["workload"]].append(result)

    summary = {}
    print(f"{'workload':15} {'metric':18} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  set medians")
    for workload, results in runs.items():
        rows = {}
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) >= 2 else (median, median, median))
            spread = (q3 - q1) / median if median else 0.0
            resolved = spread <= metric["bound"]
            size = max(1, len(values) // args.sets)
            set_medians = [statistics.median(values[k * size:(k + 1) * size])
                           for k in range(args.sets) if values[k * size:]]
            apart = disagreement(set_medians)
            sets_ok = apart <= metric["bound"]
            ok = ok and sets_ok
            print(f"{workload:15} {name:18} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {metric['bound']:6.2f}  "
                  + " ".join(f"{m:.6g}" for m in set_medians)
                  + ("" if resolved else "  UNRESOLVED")
                  + ("" if sets_ok else f"  SETS DISAGREE ({apart:.3f})"))
            rows[name] = {"value": median, "unit": metric["unit"],
                          "bound": metric["bound"], "q1": q1, "q3": q3,
                          "spread": spread, "resolved": resolved,
                          "set_medians": set_medians,
                          "set_disagreement": apart}
        summary[workload] = {"runs": len(results), "end_to_end": rows}

    for workload, result in traced.items():
        summary.setdefault(workload, {})["per_layer"] = result["metrics"]

    if args.baseline:
        baseline = {
            "git_sha": args.git_sha,
            "nproc": args.nproc,
            "run_seconds": args.seconds,
            "sets": args.sets,
            "checks_passed": ok,
            "workloads": summary,
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=False)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
