"""Manufactured solutions for scheme verification.

The exact pair

    u*(x,t) = 2 + cos(pi x) e^{-t}
    v*(x,t) = 2 + cos(pi x) e^{-t} / 2

is Neumann-compatible on (0,1), strictly positive, and keeps both mobilities
bounded away from zero, so the forced runs measure scheme order rather than
degeneracy handling.  The source terms are closed-form numpy (no sympy),
checked by an independent arbitrary-precision finite-difference oracle
(mpmath, imported only there) that re-derives the strong-form residual at
random points before any study is trusted.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["exact_u", "exact_v", "factors", "build_sources", "residual_check"]


def exact_u(x, t):
    return 2.0 + np.cos(np.pi * x) * np.exp(-t)


def exact_v(x, t):
    return 2.0 + np.cos(np.pi * x) * np.exp(-t) / 2.0


def factors(x) -> tuple:
    """(cos(pi x), sin(pi x)^2): the x-only factors of the sources at x."""
    return np.cos(np.pi * x), np.sin(np.pi * x) ** 2


def build_sources(l: float):
    """Forcing (f_u(x,t), f_v(x,t)) that makes the exact pair solve the
    forced system for exponent l; `x` is a position (scalar or array) or
    its `factors`, which a caller on a fixed grid forms once.  With
    h = cos(pi x) e^{-t} / 2 (u* = 2 + 2h, v* = 2 + h) and g = u*_x^2:
    f_u = u*^(l-2) [g v* (1 + l h) + u* h (g/2 - 2 pi^2 v* h)] - 2h - u* v*
    and f_v = (pi^2 - 1) h + u* v*."""
    pi2 = math.pi ** 2

    def f_u(x, t):
        c, s2 = x if isinstance(x, tuple) else factors(x)
        e = math.exp(-t)
        h = c * (0.5 * e)
        v = h + 2.0
        u = h + v
        g = s2 * (pi2 * e * e)
        bracket = g * v * (l * h + 1.0) + u * h * (0.5 * g - 2.0 * pi2 * v * h)
        return u ** (l - 2.0) * bracket - 2.0 * h - u * v

    def f_v(x, t):
        c = x[0] if isinstance(x, tuple) else np.cos(np.pi * x)
        h = c * (0.5 * math.exp(-t))
        v = h + 2.0
        return (pi2 - 1.0) * h + (h + v) * v

    return f_u, f_v


def residual_check(l: float, npoints: int = 10, seed: int = 0) -> float:
    """Max strong-form residual of the forced system at random (x,t) points,
    with every derivative taken by high-precision numerical differentiation
    (independent of the closed form that produced the sources)."""
    import mpmath

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
