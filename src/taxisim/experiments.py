"""Experiment orchestration: single scenarios, epsilon continuation,
grid-refinement verification, and l sweeps, with CSV/manifest persistence."""
from __future__ import annotations

import dataclasses
import datetime as _dt
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import RunConfig, config_to_dict
from .diagnostics import (
    FunctionalRecord,
    full_record,
    write_series,
)
from .grid import Domain, Grid, ScalarField, integrate, lp_norm, write_field
from .model import State, regularize_initial
from .presets import make_initial
from .stepper import StepFailure, run_until
from . import mms

__all__ = [
    "RunResult",
    "run_scenario",
    "epsilon_continuation",
    "refinement_study",
    "l_sweep",
    "write_pgm",
]

MMS_RESIDUAL_TOL = 1e-10


@dataclass
class RunResult:
    manifest: dict
    final_state: State | None
    records: list


def write_pgm(path, field: ScalarField) -> tuple[float, float]:
    """8-bit grayscale raster with linear min-max scaling; returns the
    (min, max) scaling constants."""
    a = field.values
    lo, hi = float(a.min()), float(a.max())
    if hi > lo:
        scaled = np.rint((a - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros(a.shape, dtype=np.uint8)
    if field.grid.dim == 1:
        img = scaled.reshape(1, -1)
    else:
        img = scaled.T  # x horizontal, y vertical
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
    return lo, hi


def _now() -> str:
    return _dt.datetime.now().isoformat(timespec="seconds")


def _write_manifest(out_dir, manifest: dict) -> None:
    manifest.setdefault("files", [])
    if "manifest.json" not in manifest["files"]:
        manifest["files"].append("manifest.json")
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tlabel(t: float) -> str:
    return f"{t:g}"


def run_scenario(config: RunConfig, out_dir: str | None = None) -> RunResult:
    """Run one simulation, sampling a FunctionalRecord every sample interval
    and writing series.csv, snapshots, optional PGM rasters, and a manifest."""
    out_dir = out_dir or config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    grid = config.grid()
    u0, v0 = make_initial(config.preset, grid, config.preset_params,
                          seed=config.seed)
    state = regularize_initial(u0, v0, config.model)
    ctrl = config.step_control()

    n_samples = int(math.floor(config.T / config.sample_interval + 1e-9))
    sample_times = [k * config.sample_interval for k in range(n_samples + 1)]
    snapshot_times = sorted(set(float(t) for t in config.snapshot_times))
    events = sorted(set(sample_times[1:]) | set(snapshot_times) | {config.T})

    records: list[FunctionalRecord] = []
    files: list[str] = []
    images: dict = {}
    manifest = {
        "config": config_to_dict(config),
        "version": __version__,
        "started": _now(),
        "status": "running",
        "children": [],
    }

    def is_sample(t: float) -> bool:
        k = round(t / config.sample_interval)
        return (k <= n_samples
                and abs(t - k * config.sample_interval) <= 1e-9 * max(1.0, t))

    def emit_snapshot(s: State) -> None:
        for name, f in (("u", s.u), ("v", s.v)):
            fname = f"{name}_{_tlabel(s.t)}.field"
            write_field(os.path.join(out_dir, fname), f)
            files.append(fname)
            if config.images:
                pname = f"{name}_{_tlabel(s.t)}.pgm"
                lo, hi = write_pgm(os.path.join(out_dir, pname), f)
                images[pname] = {"min": lo, "max": hi}
                files.append(pname)

    records.append(full_record(state, config.model, config.p_list,
                               config.q_alpha))
    snap_set = set(snapshot_times)
    if any(abs(t) <= 1e-12 for t in snap_set):
        emit_snapshot(state)
        snap_set = {t for t in snap_set if abs(t) > 1e-12}

    status = "success"
    error = None
    try:
        for target in events:
            if target <= 0.0:
                continue
            state = run_until(state, target, config.model, ctrl)
            # the state at T is always recorded; no time gets two rows
            if ((target == config.T or is_sample(state.t))
                    and state.t != records[-1].t):
                records.append(full_record(state, config.model, config.p_list,
                                           config.q_alpha))
            if any(abs(state.t - ts) <= 1e-9 * max(1.0, ts) for ts in snap_set):
                emit_snapshot(state)
    except StepFailure as exc:
        status = "step_failure"
        error = str(exc)
        state = exc.state

    write_series(os.path.join(out_dir, "series.csv"), records,
                 config.p_list, config.q_alpha)
    files.insert(0, "series.csv")
    manifest.update(status=status, finished=_now(), files=files)
    if images:
        manifest["images"] = images
    if error:
        manifest["error"] = error
    _write_manifest(out_dir, manifest)
    return RunResult(manifest=manifest, final_state=state, records=records)


def _run_child(args) -> RunResult:
    config, out_dir = args
    return run_scenario(config, out_dir)


def _map_runs(tasks, jobs: int):
    if jobs <= 1:
        return [_run_child(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_child, tasks))


def _sup_record(records, getter) -> float:
    return max(getter(rec) for rec in records)


def epsilon_continuation(config: RunConfig, eps_list, out_dir: str | None = None,
                         jobs: int = 1) -> dict:
    """Rerun one scenario along a strictly decreasing epsilon sequence and
    tabulate successive L1 differences of the final fields."""
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2:
        raise ValueError("epsilon continuation needs at least two values")
    if any(not 0 < e < 1 for e in eps_list):
        raise ValueError("all epsilon values must lie in (0,1)")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon list must be strictly decreasing")
    out_dir = out_dir or config.out_dir
    os.makedirs(out_dir, exist_ok=True)

    tasks = []
    children = []
    for eps in eps_list:
        child = dataclasses.replace(
            config,
            model=dataclasses.replace(config.model, epsilon=eps),
            snapshot_times=tuple(sorted(set(config.snapshot_times) | {config.T})))
        sub = f"eps_{eps:g}"
        tasks.append((child, os.path.join(out_dir, sub)))
        children.append(sub)
    results = _map_runs(tasks, jobs)
    for res, sub in zip(results, children):
        if res.manifest["status"] != "success":
            raise StepFailure(f"child run {sub} failed", res.final_state)

    sup_f4 = [_sup_record(res.records, lambda r: r.weighted_q[(4.0, 3.0)])
              for res in results]
    rows = []
    for i in range(len(eps_list) - 1):
        a, b = results[i].final_state, results[i + 1].final_state
        du = lp_norm(ScalarField(a.grid, a.u.values - b.u.values), 1.0)
        dv = lp_norm(ScalarField(a.grid, a.v.values - b.v.values), 1.0)
        rows.append((eps_list[i], eps_list[i + 1], du, dv,
                     sup_f4[i], sup_f4[i + 1]))

    with open(os.path.join(out_dir, "continuation.csv"), "w") as fh:
        fh.write("eps,eps_next,du_l1,dv_l1,sup_f4,sup_f4_next\n")
        for row in rows:
            fh.write(",".join("%.17g" % x for x in row) + "\n")

    manifest = {
        "config": config_to_dict(config),
        "version": __version__,
        "started": results[0].manifest["started"],
        "finished": _now(),
        "status": "success",
        "files": ["continuation.csv"],
        "children": children,
        "eps_list": eps_list,
    }
    _write_manifest(out_dir, manifest)
    return manifest


def _mms_config_run(config: RunConfig, n: int, source) -> State:
    grid = Grid(Domain((1.0,)), (n,))
    xc = grid.centers(0)
    u0 = ScalarField(grid, mms.exact_u(xc, 0.0))
    v0 = ScalarField(grid, mms.exact_v(xc, 0.0))
    state = State(u=u0, v=v0)
    ctrl = config.step_control()
    return run_until(state, config.T, config.model, ctrl, source=source)


def refinement_study(config: RunConfig, n_list, out_dir: str | None = None) -> dict:
    """Manufactured-solution verification: spatial orders from a doubling
    grid sequence, temporal orders from fixed-grid step-size halving."""
    n_list = [int(n) for n in n_list]
    if len(n_list) < 2 or any(b != 2 * a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be a doubling sequence of length >= 2")
    out_dir = out_dir or config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    started = _now()

    l = config.model.l
    residual = mms.residual_check(l)
    if residual > MMS_RESIDUAL_TOL:
        raise RuntimeError(
            f"manufactured source residual {residual:.3e} exceeds "
            f"{MMS_RESIDUAL_TOL:g}; refusing to run the study")
    fu, fv = mms.build_sources(l)

    def source_for(grid: Grid):
        xc = grid.centers(0)

        def source(t, _grid):
            return fu(xc, t), fv(xc, t)

        return source

    errors = []
    for n in n_list:
        grid = Grid(Domain((1.0,)), (n,))
        final = _mms_config_run(config, n, source_for(grid))
        xc = grid.centers(0)
        eu = lp_norm(ScalarField(grid, final.u.values - mms.exact_u(xc, config.T)), 2.0)
        ev = lp_norm(ScalarField(grid, final.v.values - mms.exact_v(xc, config.T)), 2.0)
        errors.append((n, eu, ev))
    spatial_orders = []
    for (n0, eu0, ev0), (n1, eu1, ev1) in zip(errors, errors[1:]):
        spatial_orders.append((n1, math.log2(eu0 / eu1), math.log2(ev0 / ev1)))

    # Temporal self-convergence on a fixed coarse grid: field differences
    # between runs at dt and dt/2 cancel the spatial error exactly.
    n_t = n_list[0]
    grid_t = Grid(Domain((1.0,)), (n_t,))
    src_t = source_for(grid_t)
    h = grid_t.h[0]
    dt0 = config.safety * h * h / 80.0  # safely below the forced-run CFL bound
    dts = [dt0, dt0 / 2.0, dt0 / 4.0]
    finals = []
    for dt in dts:
        xc = grid_t.centers(0)
        state = State(u=ScalarField(grid_t, mms.exact_u(xc, 0.0)),
                      v=ScalarField(grid_t, mms.exact_v(xc, 0.0)))
        finals.append(run_until(state, config.T, config.model,
                                config.step_control(), source=src_t, dt_max=dt))
    diffs = []
    for a, b in zip(finals, finals[1:]):
        d = np.sqrt(lp_norm(ScalarField(grid_t, a.u.values - b.u.values), 2.0) ** 2
                    + lp_norm(ScalarField(grid_t, a.v.values - b.v.values), 2.0) ** 2)
        diffs.append(float(d))
    temporal_orders = [math.log2(diffs[i] / diffs[i + 1])
                       for i in range(len(diffs) - 1)]

    with open(os.path.join(out_dir, "refine.csv"), "w") as fh:
        fh.write("n,err_u_l2,err_v_l2,order_u,order_v\n")
        for i, (n, eu, ev) in enumerate(errors):
            if i == 0:
                fh.write(f"{n},{eu:.17g},{ev:.17g},,\n")
            else:
                _, ou, ov = spatial_orders[i - 1]
                fh.write(f"{n},{eu:.17g},{ev:.17g},{ou:.17g},{ov:.17g}\n")
    with open(os.path.join(out_dir, "temporal.csv"), "w") as fh:
        fh.write("dt,diff_l2,order\n")
        for i, dt in enumerate(dts[:-1]):
            order = "" if i == 0 else "%.17g" % temporal_orders[i - 1]
            fh.write(f"{dt:.17g},{diffs[i]:.17g},{order}\n")

    manifest = {
        "config": config_to_dict(config),
        "version": __version__,
        "started": started,
        "finished": _now(),
        "status": "success",
        "files": ["refine.csv", "temporal.csv"],
        "children": [],
        "residual": residual,
        "spatial_orders": spatial_orders,
        "temporal_orders": temporal_orders,
        "errors": errors,
        "temporal_diffs": diffs,
    }
    _write_manifest(out_dir, manifest)
    return manifest


def l_sweep(config: RunConfig, l_list, out_dir: str | None = None,
            jobs: int = 1) -> dict:
    """One scenario run per diffusion exponent; summary of the sup-in-time
    norms the boundedness statements control."""
    l_list = [float(l) for l in l_list]
    if not l_list:
        raise ValueError("l sweep needs at least one exponent")
    out_dir = out_dir or config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    started = _now()

    p_list = tuple(sorted(set(config.p_list) | {2.0}))
    q_alpha = config.q_alpha
    if (4.0, 3.0) not in q_alpha:
        q_alpha = ((4.0, 3.0),) + q_alpha

    tasks = []
    children = []
    for l in l_list:
        child = dataclasses.replace(
            config,
            model=dataclasses.replace(config.model, l=l),
            p_list=p_list, q_alpha=q_alpha)
        sub = f"l_{l:g}"
        tasks.append((child, os.path.join(out_dir, sub)))
        children.append(sub)
    results = _map_runs(tasks, jobs)

    with open(os.path.join(out_dir, "sweep_summary.csv"), "w") as fh:
        fh.write("l,sup_lp_u_2,sup_lp_u_inf,sup_f4,final_mass_u,status\n")
        for l, res in zip(l_list, results):
            recs = res.records
            fh.write(",".join([
                "%.17g" % l,
                "%.17g" % _sup_record(recs, lambda r: r.lp_u[2.0]),
                "%.17g" % _sup_record(recs, lambda r: r.lp_u[math.inf]),
                "%.17g" % _sup_record(recs, lambda r: r.weighted_q[(4.0, 3.0)]),
                "%.17g" % recs[-1].mass_u,
                res.manifest["status"],
            ]) + "\n")

    manifest = {
        "config": config_to_dict(config),
        "version": __version__,
        "started": started,
        "finished": _now(),
        "status": "success" if all(r.manifest["status"] == "success"
                                   for r in results) else "child_failure",
        "files": ["sweep_summary.csv"],
        "children": children,
        "l_list": l_list,
    }
    _write_manifest(out_dir, manifest)
    return manifest
