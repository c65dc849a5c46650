"""Command-line entry point for the experiment runner."""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from .config import ConfigError, _finite, labels, load_config
from .experiments import (
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
                           cosine_family)


def _floats(raw: str) -> list[float]:
    return [_finite(x) for x in raw.split(",") if x.strip()]


def _ints(raw: str) -> list[int]:
    return [int(x) for x in raw.split(",") if x.strip()]


def _load(args):
    given = {"seed": args.seed, "out_dir": args.out}
    return dataclasses.replace(load_config(args.config), **{
        k: v for k, v in given.items() if v is not None})


def _check(cfg, args) -> None:
    """The command's check of its arguments, before any output exists; a
    ValueError starts with `<name>: `, naming the option `--<name>`."""
    if args.command == "continuation":
        continuation_children(cfg, args.eps, args.jobs)
    elif args.command == "refine":
        refinement_grids(args.n)
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
    except (ConfigError, OSError) as exc:  # an OSError names the file
        usage.error(str(exc))
    try:
        _check(cfg, args)
    except ValueError as exc:
        usage.error(f"argument --{exc}")

    if args.command == "run":
        res = run_scenario(cfg)
        print(f"run finished: status={res.manifest['status']} "
              f"out={cfg.out_dir}")
        return 0 if res.manifest["status"] == "success" else 1
    if args.command == "continuation":
        man = epsilon_continuation(cfg, args.eps, jobs=args.jobs)
        print(f"continuation finished: out={cfg.out_dir}")
        return 0 if man["status"] == "success" else 1
    if args.command == "refine":
        man = refinement_study(cfg, args.n)
        print("spatial orders:",
              ["%.3f/%.3f" % (ou, ov) for _, ou, ov in man["spatial_orders"]])
        print("temporal orders:",
              ["%.3f" % o for o in man["temporal_orders"]])
        return 0
    if args.command == "sweep":
        man = l_sweep(cfg, args.l, jobs=args.jobs)
        print(f"sweep finished: out={cfg.out_dir}")
        return 0 if man["status"] == "success" else 1
    return _run_ineq(cfg, args)


def _run_ineq(cfg, args) -> int:
    """Fit the constants of (6.1) and (6.4) over a seeded field family and
    write ineq_reports.csv, ineq_summary.json and a manifest that
    `recorded` finalizes, as in `run_scenario`.  Once both are written, its
    "timings" give the wall seconds of the family build, the (6.1) and (6.4)
    checks and the writes, as fixed-point strings: the manifest's size must
    not depend on how long a call took."""
    seconds = dict.fromkeys(["family_s", "ineq_61_s", "ineq_64_s",
                             "write_s"], 0.0)
    timings = {}
    with recorded(cfg.out_dir, cfg, count=args.count, p=args.p,
                  eta=args.eta, timings=timings) as (_, files):
        start = time.perf_counter()
        grid = cfg.grid()
        pairs = cosine_family(grid, args.count, cfg.seed)
        seconds["family_s"] = time.perf_counter() - start
        rows = []
        fitted = {}
        for p in args.p:
            sets = [("6.1", "", f"c61_p{p:g}")]
            sets += [("6.4", f"{eta:g}", f"c64_p{p:g}_eta{eta:g}")
                     for eta in args.eta]
            # per set, one (field seed, lhs, rhs total, ratio) row per pair
            columns = [[] for _ in sets]
            start = time.perf_counter()
            for i, (phi, psi) in enumerate(pairs):
                rep = check_ineq_61(phi, psi, p, field_seed=i)
                terms = rep.rhs_terms
                columns[0].append((i, rep.lhs,
                                   terms["bracket"] * terms["factor"],
                                   rep.ratio))
            # one (6.4) face pass per pair serves every eta
            middle = time.perf_counter()
            for i, (phi, psi) in enumerate(pairs):
                reps = check_ineq_64(phi, psi, p, args.eta, field_seed=i)
                for column, rep in zip(columns[1:], reps):
                    column.append((i, rep.lhs, sum(rep.rhs_terms.values()),
                                   rep.ratio))
            seconds["ineq_61_s"] += middle - start
            seconds["ineq_64_s"] += time.perf_counter() - middle
            for (ineq, eta, key), column in zip(sets, columns):
                rows += [(ineq, p, eta, *row) for row in column]
                fitted[key] = max([0.0] + [row[-1] for row in column])

        start = time.perf_counter()
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
        seconds["write_s"] = time.perf_counter() - start
        timings.update((key, f"{s:.6f}") for key, s in seconds.items())
    print(f"inequality lab finished: out={cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
