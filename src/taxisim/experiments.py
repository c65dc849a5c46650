"""Experiment orchestration: single scenarios, epsilon continuation,
grid-refinement verification, and l sweeps, with CSV/manifest persistence."""
from __future__ import annotations

import contextlib
import dataclasses
import datetime as _dt
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import RunConfig, labels
from .diagnostics import full_record, write_series, write_series_header
from .grid import Domain, Grid, ScalarField, lp_norm, write_field
from .model import State, regularize_initial, rhs_arrays, stability_dt
from .presets import make_initial
from .stepper import StepFailure, run_until
from . import mms

__all__ = [
    "RunResult",
    "recorded",
    "run_scenario",
    "continuation_children",
    "epsilon_continuation",
    "refinement_grids",
    "refinement_study",
    "sweep_children",
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
    scaled = (np.rint((a - lo) / (hi - lo) * 255.0).astype(np.uint8)
              if hi > lo else np.zeros(a.shape, dtype=np.uint8))
    # x horizontal, y vertical
    img = scaled.reshape(1, -1) if field.grid.dim == 1 else scaled.T
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
    return lo, hi


def _now() -> str:
    return _dt.datetime.now().isoformat(timespec="seconds")


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def recorded(out_dir, config: RunConfig, **fields):
    """Make `out_dir` and yield its manifest and the list of files written.

    The manifest (config echo, version, start time and `fields`) is written
    with status "running" on entry and finalized however the block ends:
    "success" unless the block set another status, "error" (any exception,
    recorded as "Type: message" and re-raised) or "interrupted"
    (KeyboardInterrupt, re-raised).  Its `files` are what the block put in
    the yielded list, then "manifest.json"."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"config": dataclasses.asdict(config), "version": __version__,
                "started": _now(), "status": "running", **fields}
    files: list[str] = []

    def write() -> None:
        manifest["files"] = files + ["manifest.json"]
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    write()
    try:
        yield manifest, files
        if manifest["status"] == "running":
            manifest["status"] = "success"
    except KeyboardInterrupt:
        manifest["status"] = "interrupted"
        raise
    except Exception as exc:
        manifest.update(status="error", error=_describe(exc))
        raise
    finally:
        manifest["finished"] = _now()
        write()


def _events(config: RunConfig) -> dict:
    """{t: (record, snapshot)} in time order: the sample times and T, which
    are recorded, and the snapshot times.  Each time is capped at T, and
    times within 1e-9 max(1, t) of an event's first time join that event,
    which then takes place at its first time; the last event, which holds
    T, takes place at T."""
    n = int(math.floor(config.T / config.sample_interval + 1e-9))
    times = sorted([(min(k * config.sample_interval, config.T), True, False)
                    for k in range(n + 1)] + [(config.T, True, False)]
                   + [(t, False, True) for t in config.snapshot_times])
    events = []
    for t, record, snapshot in times:
        if events and t - events[-1][0] <= 1e-9 * max(1.0, t):
            events[-1][1] |= record
            events[-1][2] |= snapshot
        else:
            events.append([t, record, snapshot])
    events[-1][0] = config.T
    return {t: (record, snapshot) for t, record, snapshot in events}


def run_scenario(config: RunConfig, out_dir: str | None = None) -> RunResult:
    """Run one simulation through the events of `_events`, writing each
    record to series.csv as it is taken, snapshots and optional PGM rasters,
    and a manifest `recorded` finalizes; a StepFailure ends the run as
    "step_failure"."""
    out_dir = out_dir or config.out_dir
    p_list, q_alpha = config.p_list, config.q_alpha
    with recorded(out_dir, config, children=[]) as (manifest, files):
        u0, v0 = make_initial(config.preset, config.grid(),
                              config.preset_params, seed=config.seed)
        state = regularize_initial(u0, v0, config.model)
        ctrl = config.step_control()
        records = []
        with open(os.path.join(out_dir, "series.csv"), "w",
                  newline="") as series:
            files.append("series.csv")
            write_series_header(series, p_list, q_alpha)
            try:
                for t, (record, snapshot) in _events(config).items():
                    state = run_until(state, t, config.model, ctrl)
                    if record:
                        records.append(full_record(state, config.model,
                                                   p_list, q_alpha))
                        write_series(series, records[-1], p_list, q_alpha)
                    # by name: a field bound to a loop variable would keep
                    # its state's block alive until the next snapshot
                    for name in ("u", "v") if snapshot else ():
                        stem = f"{name}_{state.t:g}"
                        path = os.path.join(out_dir, stem)
                        write_field(path + ".field", getattr(state, name))
                        files.append(stem + ".field")
                        if config.images:
                            lo, hi = write_pgm(path + ".pgm",
                                               getattr(state, name))
                            manifest.setdefault("images", {})[
                                stem + ".pgm"] = {"min": lo, "max": hi}
                            files.append(stem + ".pgm")
            except StepFailure as exc:
                manifest.update(status="step_failure", error=str(exc))
                state = exc.state
    return RunResult(manifest=manifest, final_state=state, records=records)


def _children(prefix: str, values, make, jobs: int) -> dict:
    """{"<prefix>_<label>": make(value)}: a study's children, one
    subdirectory each, to run in `jobs` processes.  A ValueError, from
    `labels` or `make`, starts with `prefix: ` (or `jobs: `), the argument
    it is about; the CLI reports it as that option."""
    if not jobs >= 1:
        raise ValueError(f"jobs: {jobs} is not >= 1")
    try:
        return {f"{prefix}_{label}": make(x)
                for label, x in labels(values, "subdirectory").items()}
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def _run_child(args) -> RunResult:
    """One study child.  An exception it raises is its outcome, an "error"
    result without records, so its siblings still run."""
    config, out_dir = args
    try:
        return run_scenario(config, out_dir)
    except Exception as exc:
        return RunResult({"status": "error", "error": _describe(exc)}, None, [])


def _run_children(manifest: dict, out_dir, children: dict, jobs: int) -> dict:
    """Run a study's {subdirectory: config} children under `out_dir` and
    return their results by subdirectory.  If any child did not succeed, the
    study's manifest becomes "child_failure" with its "failed_children" and
    their "child_errors": "Type: message" for a child that raised, the
    failure message for one that ended as "step_failure"."""
    tasks = [(child, os.path.join(out_dir, sub))
             for sub, child in children.items()]
    if jobs <= 1:
        outcomes = [_run_child(task) for task in tasks]
    else:
        # imported here: it pulls in multiprocessing, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_child, tasks))
    results = dict(zip(children, outcomes))
    failed = [sub for sub, res in results.items()
              if res.manifest["status"] != "success"]
    if failed:
        manifest.update(status="child_failure", failed_children=failed,
                        child_errors={sub: results[sub].manifest["error"]
                                      for sub in failed})
    return results


def _sup_record(records, getter) -> float:
    return max(getter(rec) for rec in records)


def continuation_children(config: RunConfig, eps_list, jobs: int = 1) -> dict:
    """The {subdirectory: config} children of `epsilon_continuation`, each
    with a snapshot at time.T.  A ValueError names "eps" unless `eps_list` is
    strictly decreasing and at least two long (ModelParams checks each
    epsilon), and names "jobs" unless `jobs` >= 1."""
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"eps: {eps_list} is not a strictly decreasing "
                         "list of two or more values")
    snapshot_times = tuple(sorted(set(config.snapshot_times) | {config.T}))
    return _children("eps", eps_list, lambda eps: dataclasses.replace(
        config, model=dataclasses.replace(config.model, epsilon=eps),
        snapshot_times=snapshot_times), jobs)


def epsilon_continuation(config: RunConfig, eps_list, out_dir: str | None = None,
                         jobs: int = 1) -> dict:
    """Rerun one scenario along a strictly decreasing epsilon sequence and
    tabulate successive L1 differences of the final fields.  If a child
    does not succeed, the study's manifest ends as "child_failure" and
    StepFailure is raised for the first such child."""
    children = continuation_children(config, eps_list, jobs)
    eps_list = [child.model.epsilon for child in children.values()]
    out_dir = out_dir or config.out_dir
    with recorded(out_dir, config, children=list(children),
                  eps_list=eps_list) as (manifest, files):
        results = _run_children(manifest, out_dir, children, jobs)
        failed = manifest.get("failed_children")
        if not failed:
            runs = list(results.values())
            sup_f4 = [_sup_record(res.records,
                                  lambda r: r.weighted_q[(4.0, 3.0)])
                      for res in runs]
            rows = []
            for i in range(len(eps_list) - 1):
                a, b = runs[i].final_state, runs[i + 1].final_state
                du = lp_norm(ScalarField(a.grid, a.u.values - b.u.values), 1.0)
                dv = lp_norm(ScalarField(a.grid, a.v.values - b.v.values), 1.0)
                rows.append((eps_list[i], eps_list[i + 1], du, dv,
                             sup_f4[i], sup_f4[i + 1]))

            with open(os.path.join(out_dir, "continuation.csv"), "w") as fh:
                fh.write("eps,eps_next,du_l1,dv_l1,sup_f4,sup_f4_next\n")
                for row in rows:
                    fh.write(",".join("%.17g" % x for x in row) + "\n")
            files.append("continuation.csv")
    if failed:
        raise StepFailure(f"child run {failed[0]} failed",
                          results[failed[0]].final_state)
    return manifest


def _mms_initial(grid: Grid) -> State:
    xc = grid.centers(0)
    return State(u=ScalarField(grid, mms.exact_u(xc, 0.0)),
                 v=ScalarField(grid, mms.exact_v(xc, 0.0)))


def _mms_config_run(config: RunConfig, grid: Grid, source,
                    dt_max: float | None = None) -> State:
    return run_until(_mms_initial(grid), config.T, config.model,
                     config.step_control(), source=source, dt_max=dt_max)


def refinement_grids(n_list) -> list[Grid]:
    """The unit-interval grids of `refinement_study`, one per size.  A
    ValueError names "n" unless `n_list` is a doubling sequence at least two
    long (Grid checks each size)."""
    n_list = [int(n) for n in n_list]
    if len(n_list) < 2 or any(b != 2 * a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n: {n_list} is not a doubling list of two or more "
                         "sizes")
    try:
        return [Grid(Domain((1.0,)), (n,)) for n in n_list]
    except ValueError as exc:
        raise ValueError(f"n: {exc}") from None


def refinement_study(config: RunConfig, n_list, out_dir: str | None = None) -> dict:
    """Manufactured-solution verification: spatial orders from a doubling
    grid sequence, temporal orders from fixed-grid step-size halving.

    The manifest is finalized by `recorded`, as in `run_scenario`."""
    grids = refinement_grids(n_list)
    out_dir = out_dir or config.out_dir
    with recorded(out_dir, config, children=[]) as (manifest, files):
        l = config.model.l
        residual = mms.residual_check(l)
        if residual > MMS_RESIDUAL_TOL:
            raise RuntimeError(
                f"manufactured source residual {residual:.3e} exceeds "
                f"{MMS_RESIDUAL_TOL:g}; refusing to run the study")

        errors = []
        for grid in grids:
            xc = grid.centers(0)
            # the forcing pair is one block per step, in buffers of the grid
            final = _mms_config_run(config, grid, mms.forcing(l, xc))
            eu = lp_norm(ScalarField(grid, final.u.values - mms.exact_u(xc, config.T)), 2.0)
            ev = lp_norm(ScalarField(grid, final.v.values - mms.exact_v(xc, config.T)), 2.0)
            errors.append((grid.shape[0], eu, ev))
        spatial_orders = []
        for (n0, eu0, ev0), (n1, eu1, ev1) in zip(errors, errors[1:]):
            spatial_orders.append((n1, math.log2(eu0 / eu1), math.log2(ev0 / ev1)))

        # Temporal self-convergence on a fixed coarse grid: field differences
        # between runs at dt and dt/2 cancel the spatial error exactly.
        grid_t = grids[0]
        src_t = mms.forcing(l, grid_t.centers(0))
        h = grid_t.h[0]
        # at most the forced run's CFL bound at t = 0, where the exact
        # pair's mobilities peak: at l >= 3 h^2/80 lies above it, and runs
        # at dt0 and dt0/2 would take the same CFL steps
        start = _mms_initial(grid_t)
        _, maxima = rhs_arrays(start.u.values, start.v.values, grid_t,
                               config.model)
        dt0 = min(config.safety * h * h / 80.0,
                  stability_dt(grid_t, maxima, config.safety))
        dts = [dt0, dt0 / 2.0, dt0 / 4.0]
        finals = [_mms_config_run(config, grid_t, src_t, dt) for dt in dts]
        diffs = []
        for a, b in zip(finals, finals[1:]):
            d = np.sqrt(lp_norm(ScalarField(grid_t, a.u.values - b.u.values), 2.0) ** 2
                        + lp_norm(ScalarField(grid_t, a.v.values - b.v.values), 2.0) ** 2)
            diffs.append(float(d))
        temporal_orders = [math.log2(diffs[i] / diffs[i + 1])
                           for i in range(len(diffs) - 1)]

        with open(os.path.join(out_dir, "refine.csv"), "w") as fh:
            fh.write("n,err_u_l2,err_v_l2,order_u,order_v\n")
            orders = [",,"] + [f",{ou:.17g},{ov:.17g}"
                               for _, ou, ov in spatial_orders]
            for (n, eu, ev), tail in zip(errors, orders):
                fh.write(f"{n},{eu:.17g},{ev:.17g}{tail}\n")
        files.append("refine.csv")
        with open(os.path.join(out_dir, "temporal.csv"), "w") as fh:
            fh.write("dt,diff_l2,order\n")
            for i, dt in enumerate(dts[:-1]):
                order = "" if i == 0 else "%.17g" % temporal_orders[i - 1]
                fh.write(f"{dt:.17g},{diffs[i]:.17g},{order}\n")
        files.append("temporal.csv")
        manifest.update(residual=residual, spatial_orders=spatial_orders,
                        temporal_orders=temporal_orders, errors=errors,
                        temporal_diffs=diffs)
    return manifest


def sweep_children(config: RunConfig, l_list, jobs: int = 1) -> dict:
    """The {subdirectory: config} children of `l_sweep`, each recording the
    L2 norm and the (4, 3) quotient its summary needs.  A ValueError names
    "l" if `l_list` is empty (ModelParams checks each exponent), and names
    "jobs" unless `jobs` >= 1."""
    l_list = [float(l) for l in l_list]
    if not l_list:
        raise ValueError("l: the sweep needs at least one exponent")
    p_list = tuple(sorted(set(config.p_list) | {2.0}))
    q_alpha = config.q_alpha
    if (4.0, 3.0) not in q_alpha:
        q_alpha = ((4.0, 3.0),) + q_alpha
    return _children("l", l_list, lambda l: dataclasses.replace(
        config, model=dataclasses.replace(config.model, l=l),
        p_list=p_list, q_alpha=q_alpha), jobs)


def l_sweep(config: RunConfig, l_list, out_dir: str | None = None,
            jobs: int = 1) -> dict:
    """One scenario run per diffusion exponent; summary of the sup-in-time
    norms the boundedness statements control.  A child that fails still
    gets its summary row: "nan" cells (if it left no records) and its
    status; the study then ends as "child_failure"."""
    children = sweep_children(config, l_list, jobs)
    l_list = [child.model.l for child in children.values()]
    out_dir = out_dir or config.out_dir
    with recorded(out_dir, config, children=list(children),
                  l_list=l_list) as (manifest, files):
        results = _run_children(manifest, out_dir, children, jobs)
        with open(os.path.join(out_dir, "sweep_summary.csv"), "w") as fh:
            fh.write("l,sup_lp_u_2,sup_lp_u_inf,sup_f4,final_mass_u,status\n")
            for l, res in zip(l_list, results.values()):
                recs = res.records
                cells = [math.nan] * 4
                if recs:
                    cells = [
                        _sup_record(recs, lambda r: r.lp_u[2.0]),
                        _sup_record(recs, lambda r: r.lp_u[math.inf]),
                        _sup_record(recs, lambda r: r.weighted_q[(4.0, 3.0)]),
                        recs[-1].mass_u,
                    ]
                fh.write(",".join(["%.17g" % x for x in [l, *cells]]
                                  + [res.manifest["status"]]) + "\n")
        files.append("sweep_summary.csv")
    return manifest
