"""Manufactured solutions for scheme verification.

The exact pair

    u*(x,t) = 2 + cos(pi x) e^{-t}
    v*(x,t) = 2 + cos(pi x) e^{-t} / 2

is Neumann-compatible on (0,1), strictly positive, and keeps both mobilities
bounded away from zero, so the forced runs measure scheme order rather than
degeneracy handling.  Source terms are derived symbolically with sympy; an
independent arbitrary-precision finite-difference oracle (mpmath) re-derives
the strong-form residual at random points before any study is trusted.
"""
from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
import sympy as sp

__all__ = ["exact_u", "exact_v", "build_sources", "residual_check"]


def _symbolic_pair():
    x, t = sp.symbols("x t", real=True)
    u = 2 + sp.cos(sp.pi * x) * sp.exp(-t)
    v = 2 + sp.cos(sp.pi * x) * sp.exp(-t) / 2
    return x, t, u, v


def exact_u(x, t):
    return 2.0 + np.cos(np.pi * x) * np.exp(-t)


def exact_v(x, t):
    return 2.0 + np.cos(np.pi * x) * np.exp(-t) / 2.0


@functools.lru_cache(maxsize=None)
def build_sources(l: float):
    """Numpy-callable forcing (f_u(x,t), f_v(x,t)) that makes the exact pair
    solve the forced system for exponent l."""
    x, t, u, v = _symbolic_pair()
    fu = (u.diff(t)
          - (u ** (l - 1) * v * u.diff(x)).diff(x)
          + (u ** l * v * v.diff(x)).diff(x)
          - u * v)
    fv = v.diff(t) - v.diff(x, 2) + u * v
    return (sp.lambdify((x, t), fu, modules="numpy", cse=True),
            sp.lambdify((x, t), fv, modules="numpy", cse=True))


def residual_check(l: float, npoints: int = 10, seed: int = 0) -> float:
    """Max strong-form residual of the forced system at random (x,t) points,
    with every derivative taken by high-precision numerical differentiation
    (independent of the symbolic route that produced the sources)."""
    fu, fv = build_sources(l)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.05, 0.95, size=(npoints, 2))
    worst = 0.0
    with mpmath.workdps(40):
        pi = mpmath.pi

        def u_of(xx, tt):
            return 2 + mpmath.cos(pi * xx) * mpmath.e ** (-tt)

        def v_of(xx, tt):
            return 2 + mpmath.cos(pi * xx) * mpmath.e ** (-tt) / 2

        for xx, tt in pts:
            xx = mpmath.mpf(float(xx))
            tt = mpmath.mpf(float(tt))

            def diff_flux(xs):
                ux = mpmath.diff(lambda s: u_of(s, tt), xs)
                return u_of(xs, tt) ** (l - 1) * v_of(xs, tt) * ux

            def taxis_flux(xs):
                vx = mpmath.diff(lambda s: v_of(s, tt), xs)
                return u_of(xs, tt) ** l * v_of(xs, tt) * vx

            ut = mpmath.diff(lambda s: u_of(xx, s), tt)
            vt = mpmath.diff(lambda s: v_of(xx, s), tt)
            vxx = mpmath.diff(lambda s: v_of(s, tt), xx, 2)
            uv = u_of(xx, tt) * v_of(xx, tt)
            ru = (ut - mpmath.diff(diff_flux, xx) + mpmath.diff(taxis_flux, xx)
                  - uv - mpmath.mpf(float(fu(float(xx), float(tt)))))
            rv = vt - vxx + uv - mpmath.mpf(float(fv(float(xx), float(tt))))
            worst = max(worst, abs(float(ru)), abs(float(rv)))
    return worst
