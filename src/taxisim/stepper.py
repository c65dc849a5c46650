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

from .grid import ScalarField, work_arrays
from .model import (ModelParams, State, _max, _min, _sum, rhs_arrays,
                    stability_dt)

__all__ = ["StepControl", "StepFailure", "step", "run_until"]


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


def run_until(state: State, T: float, params: ModelParams, ctrl: StepControl,
              observer=None, source=None, dt_max: float | None = None) -> State:
    """Step until t = T exactly (final step truncated); observer sees every
    accepted state."""
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    if dt_max is not None and not dt_max > 0.0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    if T < state.t:
        raise ValueError(f"target time {T} lies before state time {state.t}")
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
