"""Right-hand side of the regularized degenerate taxis-consumption system.

The bacterial density u diffuses with mobility u^(l-1) v, drifts up nutrient
gradients with mobility u^l v, and grows by +uv; the nutrient v diffuses with
unit coefficient and is consumed by -uv.  Both fluxes carry zero normal
component across the boundary.  The reaction term uses the identical cellwise
product uv in both equations, so any consistent one-step method conserves the
discrete total mass of u + v exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, WorkArrays, work_arrays

__all__ = [
    "ModelParams",
    "State",
    "InvalidInitialData",
    "PositivityViolation",
    "regularize_initial",
    "rhs_arrays",
    "stability_dt",
]


class InvalidInitialData(ValueError):
    """Initial data violates u0 >= 0 or v0 > 0."""


class PositivityViolation(ValueError):
    """A field that must be strictly positive is not."""


@dataclass(frozen=True)
class ModelParams:
    l: float
    epsilon: float
    b: float = 1.0
    face_mean: str = "arithmetic"

    def __post_init__(self) -> None:
        if not 1.0 <= self.l < np.inf:
            raise ValueError(f"l must be finite and >= 1, got {self.l}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.b <= 0.0:
            raise ValueError(f"b must be positive (energy constant), got {self.b}")
        if self.face_mean not in ("arithmetic", "harmonic"):
            raise ValueError("face_mean must be arithmetic or harmonic, "
                             f"got {self.face_mean!r}")


@dataclass
class State:
    """Solution pair plus simulation clock and running consumption integral."""

    u: ScalarField
    v: ScalarField
    t: float = 0.0
    cumulative_uv: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.u.grid


def regularize_initial(u0: ScalarField, v0: ScalarField,
                       params: ModelParams) -> State:
    """Shift u0 by epsilon; reject data outside u0 >= 0, v0 > 0."""
    if u0.grid is not v0.grid and u0.grid != v0.grid:
        raise InvalidInitialData("u0 and v0 must share one grid")
    bad_u = np.argwhere(u0.values < 0.0)
    if bad_u.size:
        cell = tuple(int(i) for i in bad_u[0])
        raise InvalidInitialData(
            f"u0 negative at cell {cell}: {u0.values[cell]!r}")
    bad_v = np.argwhere(v0.values <= 0.0)
    if bad_v.size:
        cell = tuple(int(i) for i in bad_v[0])
        raise InvalidInitialData(
            f"v0 nonpositive at cell {cell}: {v0.values[cell]!r}")
    u = ScalarField(u0.grid, u0.values + params.epsilon, copy=False)
    return State(u=u, v=v0.copy(), t=0.0, cumulative_uv=0.0)


def _coefficients(u: np.ndarray, v: np.ndarray, params: ModelParams,
                  work: WorkArrays):
    """Cellwise diffusion coefficient u^(l-1) v and taxis coefficient u^l v,
    built from a single power evaluation into the work arrays."""
    l = params.l
    cd, ct = work.coef_d, work.coef_t
    if l == 1.0:
        np.multiply(u, v, out=ct)
        return v, ct  # u^0 = 1 exactly
    # in-place `**=` keeps the `**` operator's scalar fast paths (0.5 -> sqrt)
    np.copyto(cd, u)
    cd **= l - 1.0
    np.multiply(cd, u, out=ct)
    ct *= v
    cd *= v
    return cd, ct


def rhs_arrays(u: np.ndarray, v: np.ndarray, grid: Grid, params: ModelParams,
               source=None) -> tuple[np.ndarray, np.ndarray]:
    """Array-level right-hand side; `source` is an optional (f_u, f_v) pair.

    Per axis the face differences, face means and the two fluxes divided by
    h are each formed once, over flattened cells in the grid's work arrays
    (see `WorkArrays`).  The returned arrays are freshly allocated; u*v is
    left in the work arrays' `uv`.
    """
    work = work_arrays(grid)
    coef_d, coef_t = _coefficients(u, v, params, work)
    harmonic = params.face_mean == "harmonic"
    du = np.zeros(u.shape)
    dv = np.zeros(v.shape)
    r = np.multiply(u, v, out=work.uv)
    fdu, fdv = du, dv
    if grid.dim > 1:
        u, v, coef_d, coef_t, fdu, fdv = (
            a.reshape(-1) for a in (u, v, coef_d, coef_t, du, dv))
    for ha, lo, hi, junk, _, (gu, gv, flux, den, *_) in work.axes:
        np.subtract(u[hi], u[lo], out=gu)
        gu /= ha
        np.subtract(v[hi], v[lo], out=gv)
        gv /= ha
        d0, d1 = coef_d[lo], coef_d[hi]
        t0, t1 = coef_t[lo], coef_t[hi]
        # flux = mean(coef_d) * gu - mean(coef_t) * gv; gu then holds the
        # taxis term
        if harmonic:
            np.multiply(2.0, d0, out=flux)
            flux *= d1
            flux /= np.add(d0, d1, out=den)
            flux *= gu
            np.multiply(2.0, t0, out=gu)
            gu *= t1
            gu /= np.add(t0, t1, out=den)
        else:
            np.add(d0, d1, out=flux)
            flux *= 0.5
            flux *= gu
            np.add(t0, t1, out=gu)
            gu *= 0.5
        gu *= gv
        flux -= gu
        flux /= ha
        gv /= ha
        if junk is not None:
            flux[junk] = 0.0
            gv[junk] = 0.0
        fdu[lo] += flux
        fdu[hi] -= flux
        fdv[lo] += gv
        fdv[hi] -= gv
    du += r
    dv -= r
    if source is not None:
        du += source[0]
        dv += source[1]
    return du, dv


def stability_dt(state: State, params: ModelParams,
                 safety: float = 0.4) -> float:
    """Explicit diffusion step bound dt <= safety * h^2 / (2 * dim * Dmax).

    Dmax majorizes the unit nutrient diffusivity, the degenerate mobility
    u^(l-1) v, and the taxis mobility u^l v scaled by the largest nutrient
    face gradient.
    """
    v = state.v.values
    grid = state.grid
    work = work_arrays(grid)
    coef_d, coef_t = _coefficients(state.u.values, v, params, work)
    if grid.dim > 1:
        v = v.reshape(-1)
    gv_max = 0.0
    for ha, lo, hi, junk, _, (diff, *_) in work.axes:
        np.subtract(v[hi], v[lo], out=diff)
        if junk is not None:
            diff[junk] = 0.0
        g = np.abs(diff, out=diff).max() / ha
        if g > gv_max:
            gv_max = g
    dmax = max(1.0, float(coef_d.max()), float(coef_t.max()) * gv_max)
    hmin = min(grid.h)
    return safety * hmin * hmin / (2.0 * grid.dim * dmax)
