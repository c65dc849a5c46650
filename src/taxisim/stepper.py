"""Positivity-safe time stepping for the regularized system.

The scheme is forward Euler under a CFL bound; a step producing any
nonpositive cell is rejected and retried with half the step size, so
positivity comes from step-size control rather than clamping.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import GridBatch, ScalarField, _max, _min, _sum
from .model import ModelParams, State, rhs_arrays, stability_dt

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
    work = grid.work
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


def _cap(T: float, t: float, dt_max: float | None) -> float:
    """The largest step a run at t may take: to T, and at most dt_max."""
    return T - t if dt_max is None else min(T - t, dt_max)


def _at(state: State, T: float) -> State:
    """`state` with its clock set to T: the same object if t == T."""
    return state if state.t == T else dataclasses.replace(state, t=T)


def run_until(state: State, T: float, params: ModelParams, ctrl: StepControl,
              observer=None, source=None, dt_max: float | None = None) -> State:
    """Step until t = T exactly (final step truncated); observer sees every
    accepted state.  A state already within 1e-12 * max(1, |T|) of T takes
    no step and is returned at t = T (the same object if t == T)."""
    _check_limits(state, T, dt_max)
    tol = 1e-12 * max(1.0, abs(T))
    while T - state.t > tol:
        state = step(state, params, ctrl, dt_max=_cap(T, state.t, dt_max),
                     source=source)
        if T - state.t <= tol:
            state = _at(state, T)
        if observer is not None:
            observer(state)
    return _at(state, T)


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
    `rhs_arrays` call over their `GridBatch`, each run at its own capped
    CFL step.  It is accepted whole if no step lies below dt_min and every
    cell stays finite and positive; if not, every run takes it through
    `step`, which halves or raises as in `run_until`.  A run that reaches T
    leaves the batch, and the last one finishes through `run_until`.  A run
    that fails leaves the batch too, and the others finish; the StepFailure
    of the first failing run in list order is then raised, as running them
    one after another would, with `results`: each run's final state, or its
    StepFailure."""
    states = list(states)
    caps = [None] * len(states) if dt_max is None else list(dt_max)
    if len(caps) != len(states):
        raise ValueError(f"dt_max has {len(caps)} caps for {len(states)} runs")
    for state, cap in zip(states, caps):
        _check_limits(state, T, cap)

    @functools.cache
    def own_source(i):  # run i's source when it steps alone, built once
        if forcing is not None:
            return forcing(states[i].grid.centers(0))

    tol = 1e-12 * max(1.0, abs(T))
    # a run already within tol of T takes no step
    results = [_at(s, T) if T - s.t <= tol else s for s in states]
    active = [i for i, s in enumerate(states) if T - s.t > tol]
    while len(active) > 1:
        grids = [states[i].grid for i in active]
        batch = GridBatch(tuple(grids))
        work, starts = batch.work, batch.starts
        bounds = [(a, a + n) for a, n in zip(starts, batch.sizes)]
        block = np.concatenate([np.stack((states[i].u.values,
                                          states[i].v.values))
                                for i in active], axis=1)
        source = (forcing(np.concatenate([g.centers(0) for g in grids]),
                          batch.sizes) if forcing is not None else None)
        ts = [states[i].t for i in active]
        consumed = [states[i].cumulative_uv for i in active]
        done = []  # (position in the batch, result) of runs that leave it
        while not done:
            src = source(ts) if source is not None else None
            duv, (d, tm, g) = rhs_arrays(block[0], block[1], batch, params,
                                         src, out=work.duv)
            dts = [min(stability_dt(grid, maxima, ctrl.safety),
                       _cap(T, t, caps[i]))
                   for grid, t, i, maxima in zip(grids, ts, active,
                                                 zip(d.tolist(), tm.tolist(),
                                                     g.tolist()))]
            new = duv * np.array(dts).repeat(batch.sizes)
            new += block
            if min(dts) >= ctrl.dt_min and _acceptable(new):
                for j, (a, b) in enumerate(bounds):
                    # each consumption rate summed over its own slice: a
                    # sum depends on its order (see `model._max_at`)
                    uv_sum = float(_sum(work.uv[a:b]))
                    consumed[j] += dts[j] * uv_sum * grids[j].cell_volume
                    ts[j] += dts[j]
            else:
                for j, (i, (a, b)) in enumerate(zip(active, bounds)):
                    state = _run_state(grids[j], block, a, ts[j], consumed[j])
                    try:
                        state = step(state, params, ctrl,
                                     _cap(T, ts[j], caps[i]),
                                     own_source(i))
                    except StepFailure as exc:
                        done.append((j, exc))
                        continue
                    new[:, a:b] = state.u.values, state.v.values
                    ts[j], consumed[j] = state.t, state.cumulative_uv
            for j, t in enumerate(ts):  # a failed run's t lies before T
                if T - t <= tol:
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
        try:
            results[i] = run_until(states[i], T, params, ctrl,
                                   source=own_source(i),
                                   dt_max=caps[i])
        except StepFailure as exc:
            results[i] = exc
    failures = [r for r in results if isinstance(r, StepFailure)]
    if failures:
        failures[0].results = results
        raise failures[0]
    return results
