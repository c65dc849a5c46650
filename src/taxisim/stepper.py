"""Positivity-safe time stepping for the regularized system.

The scheme is forward Euler under a CFL bound; a step producing any
nonpositive cell is rejected and retried with half the step size, so
positivity comes from step-size control rather than clamping.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import GridBatch, ScalarField, _max, _min, _sum, work_arrays
from .model import (ModelParams, State, _max_at, _min_at, rhs_arrays,
                    stability_dt)

__all__ = ["StepControl", "StepFailure", "step", "run_until", "run_batch"]


@dataclass(frozen=True)
class StepControl:
    safety: float = 0.4
    dt_min: float = 1e-12
    max_halvings: int = 40

    def __post_init__(self) -> None:
        if not 0.0 < self.safety <= 1.0:
            raise ValueError(f"safety must lie in (0,1], got {self.safety}")
        if not self.dt_min > 0.0:
            raise ValueError(f"dt_min must be positive, got {self.dt_min}")
        m = self.max_halvings
        if not isinstance(m, numbers.Integral) or isinstance(m, bool) or m < 0:
            raise ValueError(
                f"max_halvings must be an integer >= 0, got {m!r}")


class StepFailure(RuntimeError):
    """Raised when no acceptable step size remains; carries the state."""

    def __init__(self, message: str, state: State):
        super().__init__(message)
        self.state = state


def _acceptable(a: np.ndarray) -> bool:
    """Every cell finite and positive: min rejects NaN and -inf, max +inf."""
    return bool(_min(a, axis=None) > 0.0 and _max(a, axis=None) < np.inf)


def step(state: State, params: ModelParams, ctrl: StepControl,
         dt_max: float | None = None, source=None) -> State:
    """One accepted step; dt starts at the CFL bound and halves on rejection.
    `source`, if given, maps t to the (f_u, f_v) pair `rhs_arrays` adds."""
    grid = state.grid
    u, v = state.u.values, state.v.values
    src = source(state.t) if source is not None else None
    work = work_arrays(grid)
    duv, maxima = rhs_arrays(u, v, grid, params, src, out=work.duv)
    dt = stability_dt(grid, maxima, ctrl.safety)
    if dt_max is not None:
        dt = min(dt, dt_max)
    # consumption rate, independent of dt, from the u*v rhs_arrays left
    uv_sum = float(_sum(work.uv, axis=None))

    for _ in range(ctrl.max_halvings + 1):
        if dt < ctrl.dt_min:
            raise StepFailure(f"step size {dt:.3e} fell below dt_min", state)
        new = duv * dt  # (u, v) + dt * (du, dv), bit for bit, in one block
        new[0] += u
        new[1] += v
        if _acceptable(new):
            consumed = dt * uv_sum * grid.cell_volume
            return State(u=ScalarField(grid, new[0], copy=False),
                         v=ScalarField(grid, new[1], copy=False),
                         t=state.t + dt,
                         cumulative_uv=state.cumulative_uv + consumed)
        dt *= 0.5
    raise StepFailure(
        f"positivity not restored after {ctrl.max_halvings} halvings", state)


def _check_limits(state: State, T: float, dt_max: float | None) -> None:
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    if dt_max is not None and not dt_max > 0.0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    if T < state.t:
        raise ValueError(f"target time {T} lies before state time {state.t}")


def run_until(state: State, T: float, params: ModelParams, ctrl: StepControl,
              observer=None, source=None, dt_max: float | None = None) -> State:
    """Step until t = T exactly (final step truncated); observer sees every
    accepted state."""
    _check_limits(state, T, dt_max)
    tol = 1e-12 * max(1.0, abs(T))
    while T - state.t > tol:
        cap = T - state.t
        if dt_max is not None:
            cap = min(cap, dt_max)
        state = step(state, params, ctrl, dt_max=cap, source=source)
        if T - state.t <= tol:
            state = dataclasses.replace(state, t=T)
        if observer is not None:
            observer(state)
    return state


def _run_state(grid, block: np.ndarray, a: int, t: float,
               cumulative_uv: float) -> State:
    """The state of the run whose cells are `block[:, a:]` of a batch."""
    n = grid.shape[0]
    return State(u=ScalarField(grid, block[0, a:a + n]),
                 v=ScalarField(grid, block[1, a:a + n]), t=t,
                 cumulative_uv=cumulative_uv)


def run_batch(states, T: float, params: ModelParams, ctrl: StepControl,
              dt_max=None, forcing=None) -> list[State]:
    """`run_until` for several 1D runs at once: each final state equals,
    bit for bit, ``run_until(state, T, params, ctrl, source=..., dt_max=...)``
    of its run.

    `dt_max` is None or one cap (or None) per run.  `forcing`, if given, is
    the runs' source formula: ``forcing(x)`` returns one run's `source` for
    its cell centres x, and ``forcing(x, sizes)`` the source of several runs
    end to end, which takes one time per run (as `mms.forcing` does).

    While two or more runs remain, a step of all of them is one
    `rhs_arrays` call over their `GridBatch`; each run keeps its own t, dt,
    cap, halving and consumption integral, exactly as `step` would.  A run
    that reaches T leaves the batch, and the last one finishes through
    `run_until`.  A run that fails leaves the batch too, and the others
    finish; the StepFailure of the first failing run in list order is then
    raised, as running them one after another would, with `results`: each
    run's final state, or its StepFailure."""
    states = list(states)
    caps = [None] * len(states) if dt_max is None else list(dt_max)
    if len(caps) != len(states):
        raise ValueError(f"dt_max has {len(caps)} caps for {len(states)} runs")
    for state, cap in zip(states, caps):
        _check_limits(state, T, cap)
    tol = 1e-12 * max(1.0, abs(T))
    results = list(states)  # a run already within tol of T takes no step
    active = [i for i, s in enumerate(states) if T - s.t > tol]
    while len(active) > 1:
        grids = [states[i].grid for i in active]
        batch = GridBatch(tuple(grids))
        work, starts, sizes = batch.work, batch.starts, np.array(batch.sizes)
        bounds = [(a, a + n) for a, n in zip(starts, batch.sizes)]
        block = np.concatenate([np.stack((states[i].u.values,
                                          states[i].v.values))
                                for i in active], axis=1)
        source = (forcing(np.concatenate([g.centers(0) for g in grids]),
                          batch.sizes) if forcing is not None else None)
        ts = [states[i].t for i in active]
        consumed = [states[i].cumulative_uv for i in active]
        caps_now = [caps[i] for i in active]
        done = []  # (position in the batch, result) of runs that leave it
        while not done:
            src = source(ts) if source is not None else None
            duv, (d, tm, g) = rhs_arrays(block[0], block[1], batch, params,
                                         src, out=work.duv)
            dts = []
            for grid, t, cap, maxima in zip(grids, ts, caps_now,
                                            zip(d.tolist(), tm.tolist(),
                                                g.tolist())):
                cap = T - t if cap is None else min(T - t, cap)
                dts.append(min(stability_dt(grid, maxima, ctrl.safety), cap))
            # consumption rates, each summed over its own slice: a sum
            # depends on its order (see `model._max_at`)
            uv_sums = [float(_sum(work.uv[a:b])) for a, b in bounds]
            pending = range(len(grids))
            for _ in range(ctrl.max_halvings + 1):
                for j in pending:
                    if dts[j] < ctrl.dt_min:
                        done.append((j, StepFailure(
                            f"step size {dts[j]:.3e} fell below dt_min",
                            _run_state(grids[j], block, starts[j], ts[j],
                                       consumed[j]))))
                pending = [j for j in pending if not dts[j] < ctrl.dt_min]
                new = duv * np.array(dts).repeat(sizes)
                new += block
                if _acceptable(new):
                    pending = []
                else:  # the same test per run
                    lo = _min_at(new, starts, axis=1).min(axis=0)
                    hi = _max_at(new, starts, axis=1).max(axis=0)
                    pending = [j for j in pending
                               if not (lo[j] > 0.0 and hi[j] < np.inf)]
                if not pending:
                    break
                for j in pending:
                    dts[j] *= 0.5
            for j in pending:
                done.append((j, StepFailure(
                    f"positivity not restored after {ctrl.max_halvings} "
                    "halvings", _run_state(grids[j], block, starts[j], ts[j],
                                           consumed[j]))))
            failed = {j for j, _ in done}
            for j, dt in enumerate(dts):
                if j not in failed:
                    consumed[j] += dt * uv_sums[j] * grids[j].cell_volume
                    ts[j] += dt
                    if T - ts[j] <= tol:
                        ts[j] = T
                        done.append((j, None))
            block = new
        for j, result in done:
            i = active[j]
            results[i] = result if result is not None else _run_state(
                grids[j], block, starts[j], T, consumed[j])
        left = {active[j] for j, _ in done}
        for j, i in enumerate(active):
            if i not in left:
                states[i] = _run_state(grids[j], block, starts[j], ts[j],
                                       consumed[j])
        active = [i for i in active if i not in left]
    for i in active:
        source = (forcing(states[i].grid.centers(0)) if forcing is not None
                  else None)
        try:
            results[i] = run_until(states[i], T, params, ctrl, source=source,
                                   dt_max=caps[i])
        except StepFailure as exc:
            results[i] = exc
    failures = [r for r in results if isinstance(r, StepFailure)]
    if failures:
        failures[0].results = results
        raise failures[0]
    return results
