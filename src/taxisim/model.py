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

from .grid import Grid, GridBatch, ScalarField, WorkArrays, _max, _min

__all__ = [
    "ModelParams",
    "State",
    "InvalidInitialData",
    "PositivityViolation",
    "regularize_initial",
    "rhs_arrays",
    "stability_dt",
]


# The segment forms of grid's direct reductions `_max` and `_min` reduce
# each segment of a `GridBatch`: max and min do not depend on the order, so
# they are exact, but a sum does (`np.add.reduceat` adds sequentially), so
# a batch sums each segment's slice on its own.
_max_at, _min_at = np.maximum.reduceat, np.minimum.reduceat


class InvalidInitialData(ValueError):
    """Initial data violates u0 >= 0 or v0 > 0, or is not finite."""


class PositivityViolation(ValueError):
    """A field that must be strictly positive is not."""


@dataclass(frozen=True)
class ModelParams:
    l: float
    epsilon: float
    b: float = 1.0

    def __post_init__(self) -> None:
        if not 1.0 <= self.l < np.inf:
            raise ValueError(f"l must be finite and >= 1, got {self.l}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not 0.0 < self.b < np.inf:
            raise ValueError("b must be positive and finite (energy "
                             f"constant), got {self.b}")


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
    """Shift u0 by epsilon; reject data outside u0 >= 0, v0 > 0, and
    non-finite data."""
    if u0.grid is not v0.grid and u0.grid != v0.grid:
        raise InvalidInitialData("u0 and v0 must share one grid")
    for what, a, bad in (("u0 negative", u0.values, u0.values < 0.0),
                         ("u0 non-finite", u0.values, ~np.isfinite(u0.values)),
                         ("v0 nonpositive", v0.values, v0.values <= 0.0),
                         ("v0 non-finite", v0.values, ~np.isfinite(v0.values))):
        if bad.any():
            cell = tuple(int(i) for i in np.argwhere(bad)[0])
            raise InvalidInitialData(f"{what} at cell {cell}: {a[cell]!r}")
    u = ScalarField(u0.grid, u0.values + params.epsilon, copy=False)
    return State(u=u, v=v0.copy(), t=0.0, cumulative_uv=0.0)


def _coefficients(u: np.ndarray, v: np.ndarray, params: ModelParams,
                  work: WorkArrays):
    """Cellwise diffusion coefficient u^(l-1) v and taxis coefficient u^l v
    in the work arrays.  u*v is formed first, into the `uv` row, and is the
    taxis coefficient at l = 1 and the diffusion one at l = 2; any other l
    takes a single power evaluation."""
    l = params.l
    uv = np.multiply(u, v, out=work.uv)
    if l == 1.0:
        return v, uv  # u^0 = 1 exactly
    cd, ct = work.coef_d, work.coef_t
    if l == 2.0:
        np.multiply(u, u, out=ct)
        ct *= v
        return uv, ct
    # in-place `**=` keeps the `**` operator's scalar fast paths (0.5 -> sqrt)
    np.copyto(cd, u)
    cd **= l - 1.0
    np.multiply(cd, u, out=ct)
    ct *= v
    cd *= v
    return cd, ct


def rhs_arrays(u: np.ndarray, v: np.ndarray, grid: Grid | GridBatch,
               params: ModelParams, source=None, out=None
               ) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Array-level right-hand side; `source` is an optional (f_u, f_v)
    pair, such as a ``(2, *grid.shape)`` block, added in one call.

    Returns a ``(2, *grid.shape)`` block of du and dv, written into `out`
    (a C-contiguous float64 block of that shape) when given and else fresh,
    and the maxima `stability_dt` takes: of u^(l-1) v, u^l v and |face
    gradient of v|.  Per axis the two fluxes divided by h are formed in
    place in the axis's flux block (see `WorkArrays`; the scalings are the
    axis's `rhs_scalings`), which less itself shifted by the stride is each
    cell's net flux.  u*v is left in the `uv` work row.

    For a `GridBatch` the arrays hold its grids end to end, and each
    maximum is an array with one value per grid.
    """
    work = grid.work
    starts = work.starts
    coef_d, coef_t = _coefficients(u, v, params, work)
    if grid.dim > 1:
        u, v, coef_d, coef_t = (a.reshape(-1) for a in (u, v, coef_d, coef_t))
    if out is None:
        out = np.empty((2, *grid.shape))
    duv, first, gv_max = out.reshape(-1), True, 0.0
    for (grad, k, (su, ku), (sv, kv)), \
            (_, lo, hi, junk, _, (gu, gv, mean, *_)), (faces, up, down) \
            in zip(work.scalings, work.axes, work.flux):
        np.subtract(u[hi], u[lo], out=gu)
        np.subtract(v[hi], v[lo], out=gv)
        if junk is not None:  # `faces` has the junk faces of both rows there
            faces[junk] = 0.0
        if grad is not None:
            grad[0](faces, grad[1], out=faces)  # faces /= h
        # max|d| / h is max|d / h| bit for bit: rounding is monotone and
        # odd, and k is 1.0 or an exact 1/h
        if starts is None:
            gv_max = max(gv_max, k * _max(gv), -k * _min(gv))
        else:  # k per grid; a junk face's 0 is below each grid's max|d|
            gv_max = k * np.fmax(_max_at(gv, starts), -_min_at(gv, starts))
        # flux = mean(coef_d) * gu - mean(coef_t) * gv, in place of gu, with
        # the arithmetic means' factor 0.5 left to `su`
        np.add(coef_d[lo], coef_d[hi], out=mean)
        gu *= mean
        np.add(coef_t[lo], coef_t[hi], out=mean)
        mean *= gv
        gu -= mean
        su(gu, ku, out=gu)
        sv(gv, kv, out=gv)
        # margins add 0 and (0 + a) - b == a - b: once +-u*v is added, this
        # is bit for bit a zero-filled block and four scatters
        if first:
            np.subtract(up, down, out=duv)
            first = False
        else:
            duv += up
            duv -= down
    du, dv = out
    du += work.uv
    dv -= work.uv
    if source is not None:
        out += source
    if starts is not None:
        return out, (_max_at(coef_d, starts), _max_at(coef_t, starts), gv_max)
    return out, (float(_max(coef_d)), float(_max(coef_t)), float(gv_max))


def stability_dt(grid: Grid, maxima: tuple[float, float, float],
                 safety: float = 0.4) -> float:
    """Explicit diffusion step bound dt <= safety * h^2 / (2 * dim * Dmax).

    Dmax majorizes the unit nutrient diffusivity, the degenerate mobility
    u^(l-1) v, and the taxis mobility u^l v scaled by the largest nutrient
    face gradient, from the three `maxima` that `rhs_arrays` returns.
    """
    d, t, g = maxima
    dmax = max(1.0, d, t * g)
    hmin = min(grid.h)
    return safety * hmin * hmin / (2.0 * grid.dim * dmax)
