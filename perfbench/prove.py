"""Steadiness proof and baseline record for the benchmark.

    python3 perfbench/prove.py [--seeds 10] [--seconds 20] [--out FILE] [workload ...]

For each workload it makes one untraced run per seed (0, 1, ...), then one
traced run with seed 0.  It prints, for every end-to-end metric, the median
of the runs and the spread: the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the median,
next to the metric's bound from BENCHMARK.json.  With `--out` it writes the
runs, the per-layer metrics and the CSV digests per seed as JSON; run.py
compares later runs against the digests in results/seed-commit.json.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import invoke  # noqa: E402


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"seconds": args.seconds, "workloads": {}, "digests": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds):
            info, res = invoke(workload, seed, args.seconds, 0)
            record["machine"] = info["machine"]
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"],
                         "samples": info["samples"],
                         "metrics": {k: v["value"]
                                     for k, v in res["metrics"].items()}})
            record["digests"].setdefault(workload, {})[str(seed)] = \
                info["csv_sha256"]
            print(workload, seed, res["correct"], runs[-1]["metrics"],
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            summary[name] = {"median": statistics.median(values),
                             "spread": spread(values), "bound": bound}
            print(f"{workload} {name}: median {summary[name]['median']:.6g}"
                  f"  spread {summary[name]['spread']:.4f}  bound {bound}",
                  flush=True)
        info, res = invoke(workload, 0, args.seconds, 1)
        record["workloads"][workload] = {
            "runs": runs, "summary": summary,
            "traced_seed0": {k: v["value"] for k, v in res["metrics"].items()},
            "traced_correct": res["correct"]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
