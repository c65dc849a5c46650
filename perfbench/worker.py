"""One fresh interpreter of a benchmark run.

It gets a workload ready and reports how long that took from the moment the
orchestrator started it (`--t0`, on the shared monotonic clock).  It then
makes one warm-up call and repeats the measured call for `--seconds`,
checking every call's outputs.  With `--trace 1` it alternates untraced and
traced calls, so the tracing overhead is measured in the same process.  The
speed reference (speed.py) is timed once when ready and between calls, and
each call's time is also reported normalised by the reference around it.
The result goes to `--result` as JSON, and with `--trace 1` the first spans
go next to it as CSV.
"""
import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True, help="directory for call outputs")
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args()


def main():
    args = _parse()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.make(args.workload, args.config)
    wl.setup()
    setup_s = time.monotonic() - args.t0
    import speed
    ready_ref_s = speed.reference_s()
    import taxisim
    src = os.path.join(ROOT, "src", "taxisim")
    if os.path.dirname(os.path.abspath(taxisim.__file__)) != src:
        raise SystemExit(f"taxisim imported from {taxisim.__file__}, not {src}")
    result = {"setup_s": setup_s, "ready_ref_s": ready_ref_s,
              "setup_layers": wl.setup_layers}
    result.update(_measure(wl, args))
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def _measure(wl, args):
    import speed
    import workloads

    res = {"wall_s": [], "raw_wall_s": [], "traced_wall_s": [],
           "traced_calls": [],
           "attempted": 0, "failed": 0, "errors": [], "digests": None,
           "traced_digests": None, "mms_err_l2": 0.0}
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    def one_call(traced: bool):
        shutil.rmtree(args.out, ignore_errors=True)
        call = wl.call
        if traced:
            tracer.reset()
            tracer.install()
            call = tracer.span(wl.top_span, call)
        res["attempted"] += 1
        try:
            t = time.perf_counter()
            ret = call(args.out)
            wall = time.perf_counter() - t
        except Exception as exc:  # a failed call is counted, not fatal
            res["failed"] += 1
            res["errors"].append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if traced:
                tracer.uninstall()
        try:
            problems = wl.check(args.out, ret)
            digests = workloads.csv_digests(args.out)
            if isinstance(wl, workloads.RefineWorkload):
                res["mms_err_l2"] = workloads.mms_err_l2(ret)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems, digests = [f"unreadable outputs: {exc}"], None
        if res["digests"] is None:
            res["digests"] = digests
        elif digests != res["digests"]:
            problems.append("CSV outputs differ from the first call's")
        if problems:
            res["failed"] += 1
            res["errors"].extend(problems)
        if traced:
            res["traced_digests"] = res["traced_digests"] or digests
            res["traced_calls"].append({
                "spans": tracer.stats,
                "rejected_steps": tracer.rejected_steps,
                "cell_updates": tracer.cell_updates,
                "bytes_written": workloads.bytes_written(args.out)})
        return wall

    one_call(False)  # warm-up: checked, not timed
    ref = speed.reference_s()
    start = time.monotonic()
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            wall = one_call(traced)
            next_ref = speed.reference_s()
            if wall is not None:
                res["traced_wall_s" if traced else "wall_s"].append(
                    wall / speed.factor(ref, next_ref))
                if not traced:
                    res["raw_wall_s"].append(wall)
            ref = next_ref
        if time.monotonic() - start >= args.seconds:
            break
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["errors"] = res["errors"][:20]
    if tracer is not None:
        tracer.write_spans(os.path.splitext(args.result)[0] + "-spans.csv")
    return res


if __name__ == "__main__":
    main()
