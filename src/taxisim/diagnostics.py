"""Diagnostic functionals evaluated on a simulation state.

Every gradient functional is assembled on faces, with coefficient fields
averaged to the faces, so the dissipation quantities stay consistent with
the flux discretization and the discrete energy identities mirror the
continuous integration by parts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, face_sums, integrate, integrate_array, lp_norm
from .model import ModelParams, PositivityViolation, State

__all__ = [
    "FunctionalRecord",
    "dissipations",
    "weighted_gradient",
    "energy_G",
    "energy_case",
    "full_record",
    "record_columns",
    "record_row",
    "write_series",
    "DEFAULT_Q_ALPHA",
]

DEFAULT_Q_ALPHA = ((4.0, 3.0), (6.0, 5.0))

_L_EQ_TOL = 1e-12  # exact-equality threshold for the l = 2 and l = 3 cases


@dataclass
class FunctionalRecord:
    t: float
    mass_u: float
    mass_v: float
    sup_u: float
    sup_v: float
    inf_v: float
    cumulative_uv: float
    diss_u: float
    diss_v: float
    grad_v_sq: float
    grad_v_sq_over_v: float
    weighted_q: dict
    weighted_L2: float
    lp_u: dict
    entropy: float
    energy_G: float
    energy_G_defined: bool


def _check_positive(f: ScalarField, name: str) -> None:
    m = float(f.values.min())
    if not m > 0.0:
        raise PositivityViolation(f"{name} must be strictly positive, min = {m!r}")


# Face integrands over grads=(u, v), means=(u, v).
def _diss_u(gu, gv, mu, mv, w):
    return (mv / mu) * gu * gu * w


def _diss_v(gu, gv, mu, mv, w):
    return (mu / mv) * gv * gv * w


def _grad_v_sq(gu, gv, mu, mv, w):
    return gv * gv * w


def _grad_v_sq_over_v(gu, gv, mu, mv, w):
    return gv * gv * w / mv


def _quotient(q: float, alpha: float):
    """Face integrand (gv, mv, w) of |grad v|^q / v^alpha, q > 2, 0 < alpha < q."""
    if not q > 2.0:
        raise ValueError(f"exponent q must exceed 2, got {q}")
    if not 0.0 < alpha < q:
        raise ValueError(f"weight alpha must lie in (0, q), got {alpha}")
    return lambda gv, mv, w: np.abs(gv) ** q / mv ** alpha * w


def dissipations(state: State) -> tuple[float, float]:
    """Gradient-structure integrals: (sum (v/u)|grad u|^2, sum (u/v)|grad v|^2)."""
    _check_positive(state.u, "u")
    _check_positive(state.v, "v")
    u, v = state.u.values, state.v.values
    diss_u, diss_v = face_sums(state.grid, (_diss_u, _diss_v),
                               grads=(u, v), means=(u, v))
    return diss_u, diss_v


def weighted_gradient(state: State, q: float, alpha: float) -> float:
    """Face sum of |grad v|^q / v^alpha for q > 2, 0 < alpha < q."""
    integrand = _quotient(q, alpha)
    _check_positive(state.v, "v")
    v = state.v.values
    return face_sums(state.grid, (integrand,), grads=(v,), means=(v,))[0]


def energy_case(l: float) -> str:
    """Which branch of the l-dependent energy functional applies."""
    if abs(l - 2.0) < _L_EQ_TOL:
        return "u_log_u"
    if abs(l - 3.0) < _L_EQ_TOL:
        return "neg_log_u"
    if l <= 1.0 + _L_EQ_TOL:
        return "undefined"  # the functional is only built for l > 1
    if 2.0 < l < 3.0:
        return "neg_power"
    return "power"


def energy_G(state: State, params: ModelParams) -> float:
    """l-dependent entropy of u plus the quartic gradient quotient of v.

    For l = 1 no case is prescribed; the quartic gradient term is returned
    alone and full_record flags the value as case-undefined.
    """
    _check_positive(state.u, "u")
    return _energy_G(state.u, params, weighted_gradient(state, 4.0, 3.0))


def _energy_G(u: ScalarField, params: ModelParams, f4: float) -> float:
    """energy_G from a positive u and the quartic quotient f4 of v."""
    l, b = params.l, params.b
    case = energy_case(l)
    if case == "u_log_u":
        ent = integrate_array(u.grid, u.values * np.log(u.values))
        return 4.0 * b * ent + f4
    if case == "neg_log_u":
        ent = integrate_array(u.grid, np.log(u.values))
        return -4.0 * b * ent + f4
    if case == "undefined":
        return f4
    power = integrate_array(u.grid, u.values ** (3.0 - l))
    if case == "neg_power":
        return -4.0 * b / ((3.0 - l) * (l - 2.0)) * power + f4
    return 4.0 * b / ((l - 3.0) * (l - 2.0)) * power + f4


def _entropy(state: State, params: ModelParams) -> float:
    """l-case entropy of u matching the initial-data assumptions:
    integral of u^(2-l) away from l = 2, integral of ln u at l = 2."""
    u = state.u
    if abs(params.l - 2.0) < _L_EQ_TOL:
        return integrate_array(u.grid, np.log(u.values))
    return integrate_array(u.grid, u.values ** (2.0 - params.l))


def full_record(state: State, params: ModelParams, p_list,
                q_alpha=DEFAULT_Q_ALPHA) -> FunctionalRecord:
    """Every diagnostic of `state`; the face functionals share one pass."""
    _check_positive(state.u, "u")
    _check_positive(state.v, "v")
    u, v = state.u, state.v
    q_alpha = [(float(q), float(a)) for q, a in q_alpha]
    quotients = {qa: _quotient(*qa) for qa in [(4.0, 3.0)] + q_alpha}
    sums = face_sums(
        state.grid,
        [_diss_u, _diss_v, _grad_v_sq, _grad_v_sq_over_v]
        + [lambda gu, gv, mu, mv, w, f=f: f(gv, mv, w)
           for f in quotients.values()],
        grads=(u.values, v.values), means=(u.values, v.values))
    diss_u, diss_v, grad_v_sq, grad_v_sq_over_v = sums[:4]
    quotient_sums = dict(zip(quotients, sums[4:]))
    lp_u = {float(p): lp_norm(u, float(p)) for p in p_list}
    lp_u[math.inf] = lp_norm(u, math.inf)
    return FunctionalRecord(
        t=state.t,
        mass_u=integrate(u),
        mass_v=integrate(v),
        sup_u=float(u.values.max()),
        sup_v=float(v.values.max()),
        inf_v=float(v.values.min()),
        cumulative_uv=state.cumulative_uv,
        diss_u=diss_u,
        diss_v=diss_v,
        grad_v_sq=grad_v_sq,
        grad_v_sq_over_v=grad_v_sq_over_v,
        weighted_q={qa: quotient_sums[qa] for qa in q_alpha},
        weighted_L2=integrate_array(u.grid, u.values * u.values * v.values),
        lp_u=lp_u,
        entropy=_entropy(state, params),
        energy_G=_energy_G(u, params, quotient_sums[(4.0, 3.0)]),
        energy_G_defined=energy_case(params.l) != "undefined",
    )


def _fmt_param(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else str(x)


def record_columns(p_list, q_alpha=DEFAULT_Q_ALPHA) -> list[str]:
    cols = ["t", "mass_u", "mass_v", "sup_u", "sup_v", "inf_v",
            "cumulative_uv", "diss_u", "diss_v", "grad_v_sq",
            "grad_v_sq_over_v", "weighted_L2", "entropy", "energy_G",
            "energy_G_defined"]
    cols += [f"wq_{_fmt_param(q)}_{_fmt_param(a)}" for q, a in q_alpha]
    cols += [f"lp_u_{_fmt_param(p)}" for p in p_list]
    cols.append("lp_u_inf")
    return cols


def record_row(rec: FunctionalRecord, p_list,
               q_alpha=DEFAULT_Q_ALPHA) -> list[str]:
    vals = [rec.t, rec.mass_u, rec.mass_v, rec.sup_u, rec.sup_v, rec.inf_v,
            rec.cumulative_uv, rec.diss_u, rec.diss_v, rec.grad_v_sq,
            rec.grad_v_sq_over_v, rec.weighted_L2, rec.entropy, rec.energy_G]
    out = ["%.17g" % x for x in vals]
    out.append("1" if rec.energy_G_defined else "0")
    out += ["%.17g" % rec.weighted_q[(float(q), float(a))] for q, a in q_alpha]
    out += ["%.17g" % rec.lp_u[float(p)] for p in p_list]
    out.append("%.17g" % rec.lp_u[math.inf])
    return out


def write_series(path, records, p_list, q_alpha=DEFAULT_Q_ALPHA) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(record_columns(p_list, q_alpha)) + "\n")
        for rec in records:
            fh.write(",".join(record_row(rec, p_list, q_alpha)) + "\n")
