"""taxisim benchmark: one run of one workload.

    python3 perfbench/run.py --workload run-1d --seed 0 --seconds 18 --trace 0

Run it from the root of a source checkout; it measures the taxisim under
`src/` there and writes only under `.perfbench-out/`.  It starts
PROCESSES[workload] fresh interpreters one after another; each is timed to
ready and then measures the workload's call for its share of `--seconds`,
so a timing pools several processes.  Every call's outputs are checked.  The
last line of standard output is the result: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics.  The line before it records
the machine, the sample counts, failures and a digest of every CSV written.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters per run, each giving one set-up time to the median;
# refine-mms has fewer because each one builds the MMS sources (about 5 s).
PROCESSES = {"run-1d": 4, "run-2d": 4, "refine-mms": 3, "ineq-lab": 4}
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BASELINE = os.path.join(HERE, "results", "seed-commit.json")


def _parse():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.CLASSES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args()


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "sympy": metadata.version("sympy"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def _child(args, rundir, config, index):
    """Run worker `index` to completion; return its result with `setup_s`
    normalised by the speed reference taken around its set-up."""
    result = os.path.join(rundir, f"proc{index}.json")
    seconds = args.seconds / PROCESSES[args.workload]
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--config", config,
            "--out", os.path.join(rundir, "call"), "--result", result,
            "--seconds", repr(seconds), "--trace", str(args.trace)]
    ref_s = speed.reference_s()
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    with open(result) as fh:
        res = json.load(fh)
    res["raw_setup_s"] = res["setup_s"]
    res["setup_s"] /= speed.factor(ref_s, res["ready_ref_s"])
    return res


def invoke(workload: str, seed: int, seconds: int, trace: int):
    """Run this command in a fresh process; return its info line and result
    as dicts."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit "
                           f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _baseline_digests(workload: str, seed: int, digests: dict) -> str:
    """Whether the CSVs match those recorded for the seed commit."""
    try:
        with open(BASELINE) as fh:
            recorded = json.load(fh)["digests"][workload].get(str(seed))
    except (OSError, KeyError):
        recorded = None
    if recorded is None:
        return "unrecorded"
    return "match" if recorded == digests else "differ"


def main() -> int:
    args = _parse()
    if not os.path.isfile(os.path.join(ROOT, "src", "taxisim", "__init__.py")):
        sys.stderr.write(f"no taxisim sources under {ROOT}/src\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    rundir = os.path.join(ROOT, ".perfbench-out",
                          f"{args.workload}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    config = os.path.join(rundir, "run.cfg")
    with open(config, "w") as fh:
        fh.write(workloads.config_text(args.workload, args.seed))

    procs = [_child(args, rundir, config, i)
             for i in range(PROCESSES[args.workload])]
    walls = [w for p in procs for w in p["wall_s"]]
    raw_walls = [w for p in procs for w in p["raw_wall_s"]]
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    errors = [e for p in procs for e in p["errors"]]
    if not walls or (args.trace and not any(p["traced_calls"] for p in procs)):
        sys.stderr.write("\n".join(errors) + "\n")
        raise SystemExit("no measured call succeeded")
    digests = procs[0]["digests"]
    if any(p["digests"] != digests for p in procs):
        failed += 1
        errors.append("CSV outputs differ between processes")

    def median_of(key, layer=False):
        return statistics.median((p["setup_layers"].get(key, 0.0) if layer
                                  else p[key]) for p in procs)

    if args.trace:
        calls = [c for p in procs for c in p["traced_calls"]]
        if not tracer.counts_repeat(calls):
            failed += 1
            errors.append("layer counts differ between identical calls")
        layers = tracer.layer_metrics(calls)
        for key in ("taxisim.import_s", "config.load_config_ms",
                    "mms.build_sources_s"):
            layers[key] = median_of(key, layer=True)
        layers["mms.err_l2"] = procs[0]["mms_err_l2"]
        layers["trace.overhead_s"] = (
            statistics.median(w for p in procs for w in p["traced_wall_s"])
            - statistics.median(walls))
    else:
        layers = {"wall_s": statistics.median(walls),
                  "setup_s": median_of("setup_s"),
                  "peak_rss_mb": median_of("peak_rss_mb")}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
               for m in spec}

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": _machine(),
        "samples": {"processes": len(procs), "wall_s": len(walls),
                    "traced_wall_s": sum(len(p["traced_wall_s"]) for p in procs)},
        "raw_wall_s": statistics.median(raw_walls),
        "raw_setup_s": median_of("raw_setup_s"),
        "mms_err_l2": procs[0]["mms_err_l2"],
        "csv_sha256": digests,
        "traced_csv_sha256": procs[0]["traced_digests"],
        "csv_vs_seed_commit": _baseline_digests(args.workload, args.seed,
                                                digests),
        "errors": errors[:20],
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
