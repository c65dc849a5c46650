"""Manufactured solutions for scheme verification.

The exact pair

    u*(x,t) = 2 + cos(pi x) e^{-t}
    v*(x,t) = 2 + cos(pi x) e^{-t} / 2

is Neumann-compatible on (0,1), strictly positive, and keeps both mobilities
bounded away from zero, so the forced runs measure scheme order rather than
degeneracy handling.  The source terms are closed-form numpy (no sympy),
checked by an independent arbitrary-precision finite-difference oracle
(mpmath, imported only there) that re-derives the strong-form residual at
points drawn by the standard library's `random` (so that the check loads
no `numpy.random`) before any study is trusted.
"""
from __future__ import annotations

import math
import numbers
import random

import numpy as np

__all__ = ["exact_u", "exact_v", "forcing", "build_sources", "residual_check"]

_PI2 = math.pi ** 2


def exact_u(x, t):
    return 2.0 + np.cos(np.pi * x) * np.exp(-t)


def exact_v(x, t):
    return 2.0 + np.cos(np.pi * x) * np.exp(-t) / 2.0


def forcing(l: float, x, sizes=None):
    """The forcing that makes the exact pair solve the forced system for
    exponent l, at the positions `x` (a scalar or an array), as a function
    of t: ``source(t)`` returns the ``(2, *x.shape)`` block whose rows are
    f_u and f_v.  The block and its work arrays are made here, once, and
    each call overwrites them.

    With `sizes`, `x` holds the cells of several grids end to end, as a
    `GridBatch` does, and ``source(ts)`` takes one time per grid: each
    grid's rows are bit for bit those of ``forcing(l, its x)(its t)``.

    With h = cos(pi x) e^{-t} / 2 (u* = 2 + 2h, v* = 2 + h) and g = u*_x^2:
    f_u = u*^(l-2) [g v* (1 + l h) + u* h (g/2 - 2 pi^2 v* h)] - 2h - u* v*
    and f_v = (pi^2 - 1) h + u* v*.  The rows share h, v*, u* and u* v*;
    at l = 2 the factor u*^0 = 1 is skipped."""
    c, s2 = np.cos(np.pi * x), np.sin(np.pi * x) ** 2
    shape = np.shape(c)
    block = np.empty((2,) + shape)
    # `[i, ...]` keeps each row an array when x is a scalar (0-d)
    fu, fv = block[0, ...], block[1, ...]
    h, v, u, uv, g, a, b = (np.empty(shape) for _ in range(7))
    if sizes is not None:
        sizes = np.array(sizes)

    def source(t):
        if sizes is None:
            e = math.exp(-t)
            he, ge = 0.5 * e, _PI2 * e * e
        else:  # libm's exp per grid, as above, then spread over its cells
            es = [math.exp(-ti) for ti in t]
            he, ge = np.array([[0.5 * e for e in es],
                               [_PI2 * e * e for e in es]]
                              ).repeat(sizes, axis=1)
        np.multiply(c, he, out=h)
        np.add(h, 2.0, out=v)
        np.add(h, v, out=u)
        np.multiply(u, v, out=uv)
        np.multiply(s2, ge, out=g)
        # the bracket, g v* (l h + 1) + u* h (g/2 - 2 pi^2 v* h), into fu
        np.multiply(g, v, out=fu)
        np.multiply(h, l, out=a)
        np.add(a, 1.0, out=a)
        np.multiply(fu, a, out=fu)
        np.multiply(v, 2.0 * _PI2, out=a)
        np.multiply(a, h, out=a)
        np.multiply(g, 0.5, out=b)
        np.subtract(b, a, out=b)
        np.multiply(u, h, out=a)
        np.multiply(a, b, out=a)
        np.add(fu, a, out=fu)
        if l != 2.0:
            np.multiply(fu, u ** (l - 2.0), out=fu)
        np.multiply(h, 2.0, out=a)
        np.subtract(fu, a, out=fu)
        np.subtract(fu, uv, out=fu)
        np.multiply(h, _PI2 - 1.0, out=fv)
        np.add(fv, uv, out=fv)
        return block

    return source


def build_sources(l: float):
    """(f_u(x, t), f_v(x, t)): the rows of `forcing(l, x)` at t, each a
    fresh array (a float for scalar x)."""
    def f_u(x, t):
        return forcing(l, x)(t)[0]

    def f_v(x, t):
        return forcing(l, x)(t)[1]

    return f_u, f_v


def oracle_points(npoints: int, seed: int) -> list[tuple[float, float]]:
    """`residual_check`'s (x, t) points, each drawn x first from
    uniform(0.05, 0.95) by ``random.Random(seed)``; npoints is an int >= 1."""
    if isinstance(npoints, bool) or not (
            isinstance(npoints, numbers.Integral) and npoints >= 1):
        raise ValueError(f"npoints must be an integer >= 1, got {npoints!r}")
    rng = random.Random(seed)
    return [(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            for _ in range(npoints)]


def residual_check(l: float, npoints: int = 10, seed: int = 0) -> float:
    """Max strong-form residual of the forced system at `oracle_points`,
    with every derivative taken by high-precision numerical differentiation
    (independent of the closed form that produced the sources).  u* = 2 + w
    and v* = 2 + w/2 with w = cos(pi x) e^{-t}, so the derivatives taken are
    those of w, each of one factor with the other held fixed."""
    import mpmath

    pts = oracle_points(npoints, seed)
    fu, fv = build_sources(l)
    worst = 0.0
    with mpmath.workdps(40):
        pi, diff = mpmath.pi, mpmath.diff

        for xx, tt in pts:
            xx = mpmath.mpf(float(xx))
            tt = mpmath.mpf(float(tt))
            c, e = mpmath.cos(pi * xx), mpmath.exp(-tt)

            def w_of_x(s):
                return mpmath.cos(pi * s) * e

            def flux(xs):
                # diffusion less taxis, u^(l-1) v u_x - u^l v v_x
                w, wx = w_of_x(xs), diff(w_of_x, xs)
                u, v = 2 + w, 2 + w / 2
                return u ** (l - 1) * v * (wx - u * wx / 2)

            wt = diff(lambda s: c * mpmath.exp(-s), tt)
            wxx = diff(w_of_x, xx, 2)
            uv = (2 + c * e) * (2 + c * e / 2)
            ru = (wt - diff(flux, xx) - uv
                  - mpmath.mpf(float(fu(float(xx), float(tt)))))
            rv = (wt / 2 - wxx / 2 + uv
                  - mpmath.mpf(float(fv(float(xx), float(tt)))))
            worst = max(worst, abs(float(ru)), abs(float(rv)))
    return worst
