"""Command-line entry point for the experiment runner."""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
import threading
import time

from .config import ConfigError, _finite, labels, load_config
from .experiments import (
    Terminated,
    _temporal_dts,
    check_out_dir,
    continuation_children,
    epsilon_continuation,
    l_sweep,
    recorded,
    refinement_grids,
    refinement_study,
    run_scenario,
    sweep_children,
)
from .inequalities import (check_ineq_61, check_ineq_64, check_lists,
                           cosine_family, largest_ratio)
from .stepper import StepFailure


def _floats(raw: str) -> list[float]:
    return [_finite(x) for x in raw.split(",") if x.strip()]


def _ints(raw: str) -> list[int]:
    return [int(x) for x in raw.split(",") if x.strip()]


def _load(args):
    """The config with the --seed and --out overrides; a ConfigError names
    the file, or the option whose value RunConfig rejects."""
    cfg = load_config(args.config)
    for option, key, value in (("seed", "seed", args.seed),
                               ("out", "out_dir", args.out)):
        if value is not None:
            try:
                cfg = dataclasses.replace(cfg, **{key: value})
            except ValueError as exc:
                raise ConfigError(f"argument --{option}: {exc}") from None
    return cfg


def _check(cfg, args) -> None:
    """The command's check of its arguments, before any output exists; a
    ValueError starts with `<name>: `, naming the option `--<name>`, and a
    ConfigError names the config file."""
    if args.command == "continuation":
        continuation_children(cfg, args.eps, args.jobs)
    elif args.command == "refine":
        grid = refinement_grids(args.n)[0]
        try:
            _temporal_dts(cfg, grid)
        except ValueError as exc:  # it names a config key
            raise ConfigError(f"{args.config}: {exc}") from None
    elif args.command == "sweep":
        sweep_children(cfg, args.l, args.jobs)
    elif args.command == "ineq":
        if args.count < 1:
            raise ValueError(f"count: {args.count} is not >= 1")
        check_lists(args.p, args.eta)
        for name, values in (("p", args.p), ("eta", args.eta)):
            try:
                labels(values, "rows and fitted constants")
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None


def _add_common(p):
    p.add_argument("config", help="run configuration file")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--seed", type=int, default=None, help="seed override")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="taxisim",
        description="Numerical laboratory for the regularized degenerate "
                    "nutrient-taxis system")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single simulation")
    _add_common(p)

    p = sub.add_parser("continuation", help="decreasing-epsilon study")
    _add_common(p)
    p.add_argument("--eps", required=True, type=_floats,
                   help="strictly decreasing comma list, e.g. 0.1,0.05,0.025")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("refine", help="manufactured-solution order study")
    _add_common(p)
    p.add_argument("--n", required=True, type=_ints,
                   help="doubling grid sizes, e.g. 32,64,128,256")

    p = sub.add_parser("sweep", help="diffusion-exponent sweep")
    _add_common(p)
    p.add_argument("--l", required=True, type=_floats,
                   help="comma list of exponents, each >= 1, e.g. 1.5,2,2.5,3")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("ineq", help="functional-inequality stress test")
    _add_common(p)
    p.add_argument("--count", type=int, default=100,
                   help="field pairs, at least 1")
    p.add_argument("--p", type=_floats, default=[1.0, 2.0],
                   help="comma list of exponents, each >= 1")
    p.add_argument("--eta", type=_floats, default=[0.1, 1.0, 10.0],
                   help="comma list of Young weights, each > 0")

    args = ap.parse_args(argv)
    # a config or argument that cannot be honoured is a usage error, found
    # before the output directory exists
    usage = sub.choices[args.command]
    try:
        cfg = _load(args)
        _check(cfg, args)
    except (ConfigError, OSError) as exc:  # an OSError names the file
        usage.error(str(exc))
    except ValueError as exc:
        usage.error(f"argument --{exc}")
    try:
        check_out_dir(cfg.out_dir)
    except OSError as exc:
        what = f"{exc.filename} {exc.strerror}"
        usage.error(f"argument --out: {what}" if args.out is not None
                    else f"{args.config}: output.dir {what}")

    # SIGTERM (kill, timeout, batch schedulers) ends the command as Ctrl-C
    # does, so that its manifest is finalized ("terminated") and its files
    # are flushed; only the main thread may set a handler
    if threading.current_thread() is not threading.main_thread():
        return _dispatch(cfg, args)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _dispatch(cfg, args)
    except Terminated:
        print(f"{usage.prog}: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        signal.signal(signal.SIGTERM,
                      signal.SIG_DFL if previous is None else previous)


def _terminate(signum, frame):
    raise Terminated(f"signal {signum}")


def _dispatch(cfg, args) -> int:
    if args.command == "ineq":
        return _run_ineq(cfg, args)
    if args.command == "run":
        status = run_scenario(cfg).manifest["status"]
    elif args.command == "continuation":
        try:
            status = epsilon_continuation(cfg, args.eps,
                                          jobs=args.jobs)["status"]
        except StepFailure:  # raised after the manifest reads child_failure
            status = "child_failure"
    elif args.command == "refine":
        man = refinement_study(cfg, args.n)
        status = man["status"]
        if status == "success":
            print("spatial orders:", ["%.3f/%.3f" % (ou, ov)
                                      for _, ou, ov in man["spatial_orders"]])
            print("temporal orders:",
                  ["%.3f" % o for o in man["temporal_orders"]])
    else:
        status = l_sweep(cfg, args.l, jobs=args.jobs)["status"]
    print(f"{args.command} finished: status={status} out={cfg.out_dir}")
    return 0 if status == "success" else 1


def _run_ineq(cfg, args) -> int:
    """Fit the constants of (6.1) and (6.4) over a seeded field family and
    write ineq_reports.csv, ineq_summary.json and a manifest that
    `recorded` finalizes, as in `run_scenario`.  The family is built as it
    is read, and each pair goes through both checks before the next is
    built.  Once both tables are written, the manifest's "timings" give the
    wall seconds of the family (its draws and every pair's build), of the
    (6.1) and of the (6.4) checks, each summed over the pairs, and of the
    writes, as fixed-point strings: the manifest's size must not depend on
    how long a call took."""
    seconds = dict.fromkeys(["family_s", "ineq_61_s", "ineq_64_s",
                             "write_s"], 0.0)
    timings = {}
    with recorded(cfg.out_dir, cfg, count=args.count, p=args.p,
                  eta=args.eta, timings=timings) as (_, files):
        clock = time.perf_counter
        start = clock()
        grid = cfg.grid()
        family = cosine_family(grid, args.count, cfg.seed)
        ps, etas = args.p, args.eta
        # one (field seed, lhs, rhs total, ratio) row per pair in each
        # column: one column per p for (6.1), per (p, eta), p-major, for
        # (6.4); a call per pair serves every p and eta
        c61 = [[] for _ in ps]
        c64 = [[] for _ in range(len(ps) * len(etas))]
        for i, (phi, psi) in enumerate(family):
            built = clock()
            for column, rep in zip(c61, check_ineq_61(phi, psi, ps,
                                                      field_seed=i)):
                terms = rep.rhs_terms
                column.append((i, rep.lhs, terms["bracket"] * terms["factor"],
                               rep.ratio))
            middle = clock()
            for column, rep in zip(c64, check_ineq_64(phi, psi, ps, etas,
                                                      field_seed=i)):
                column.append((i, rep.lhs, sum(rep.rhs_terms.values()),
                               rep.ratio))
            end = clock()
            seconds["family_s"] += built - start
            seconds["ineq_61_s"] += middle - built
            seconds["ineq_64_s"] += end - middle
            start = end
        seconds["family_s"] += clock() - start
        rows = []
        fitted = {}
        for j, p in enumerate(ps):
            sets = [("6.1", "", f"c61_p{p:g}", c61[j])]
            sets += [("6.4", f"{eta:g}", f"c64_p{p:g}_eta{eta:g}", column)
                     for eta, column in zip(etas, c64[j * len(etas):])]
            for ineq, eta, key, column in sets:
                rows += [(ineq, p, eta, *row) for row in column]
                fitted[key] = largest_ratio(row[-1] for row in column)

        start = clock()
        with open(os.path.join(cfg.out_dir, "ineq_reports.csv"), "w") as fh:
            fh.write("ineq,field_seed,p,eta,lhs,rhs_total,ratio\n")
            for ineq, p, eta, i, lhs, total, ratio in rows:
                fh.write(f"{ineq},{i},{p:g},{eta},"
                         f"{lhs:.17g},{total:.17g},{ratio:.17g}\n")
        files.append("ineq_reports.csv")
        summary = {"grid": list(grid.shape), "count": args.count,
                   "seed": cfg.seed, "fitted_constants": fitted}
        with open(os.path.join(cfg.out_dir, "ineq_summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        files.append("ineq_summary.json")
        seconds["write_s"] = clock() - start
        timings.update((key, f"{s:.6f}") for key, s in seconds.items())
    print(f"inequality lab finished: out={cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
