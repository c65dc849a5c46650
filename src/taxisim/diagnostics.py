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

from .grid import ScalarField, face_sums, integrate_array, work_arrays
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
    "write_series_header",
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


# Whole exponents up to this are formed as products, within (n - 1)
# roundings of the exact power: at most 7e-15 relative.
_MAX_PRODUCT_POWER = 64


def _check_positive(f: ScalarField, name: str) -> float:
    """The minimum of `f`, which must be > 0."""
    m = float(f.values.min())
    if not m > 0.0:
        raise PositivityViolation(f"{name} must be strictly positive, min = {m!r}")
    return m


def _whole(n: float) -> bool:
    return float(n).is_integer() and 1 <= n <= _MAX_PRODUCT_POWER


def _power(x: np.ndarray, n: float, out: np.ndarray) -> np.ndarray:
    """x ** n into `out`, which must not be `x`.  A whole n is formed by
    left-to-right repeated squaring, at most 2 log2(n) products, each several
    times cheaper than libm's `pow`; any other n keeps the `**` operator and
    its scalar fast paths."""
    if not _whole(n):
        np.copyto(out, x)
        out **= n
        return out
    src = x
    for bit in bin(int(n))[3:]:
        np.multiply(src, src, out=out)
        if bit == "1":
            out *= x
        src = out
    if src is x:
        np.copyto(out, x)
    return out


# Face integrands over grads=(u, v), means=(u, v), written in place with the
# operation order of (mv / mu) * gu * gu * w and (mu / mv) * gv * gv * w.
def _dissipation_faces(gu, gv, mu, mv, w, spare):
    t = spare[0]
    np.divide(mv, mu, out=t)
    t *= gu
    t *= gu
    t *= w
    yield t
    np.divide(mu, mv, out=t)
    t *= gv
    t *= gv
    t *= w
    yield t


def _check_exponents(q: float, alpha: float) -> None:
    if not q > 2.0:
        raise ValueError(f"exponent q must exceed 2, got {q}")
    if not 0.0 < alpha < q:
        raise ValueError(f"weight alpha must lie in (0, q), got {alpha}")


def _quotient_faces(gv, mv, w, g2, q_alpha, spare):
    """Yield |gv|^q / mv^alpha * w for each (q, alpha) of `q_alpha`, from
    g2 = gv * gv; mv^alpha is formed once per run of equal alpha."""
    num, den, tmp = spare[:3]
    alpha = None
    for q, a in q_alpha:
        if a != alpha:
            _power(mv, a, den)
            alpha = a
        if _whole(q) and q % 2 == 0:
            _power(g2, q / 2, num)
        else:
            _power(np.abs(gv, out=tmp), q, num)
        num /= den
        num *= w
        yield num


def dissipations(state: State) -> tuple[float, float]:
    """Gradient-structure integrals: (sum (v/u)|grad u|^2, sum (u/v)|grad v|^2)."""
    _check_positive(state.u, "u")
    _check_positive(state.v, "v")
    u, v = state.u.values, state.v.values
    diss_u, diss_v = face_sums(state.grid, _dissipation_faces,
                               grads=(u, v), means=(u, v))
    return diss_u, diss_v


def weighted_gradient(state: State, q: float, alpha: float) -> float:
    """Face sum of |grad v|^q / v^alpha for q > 2, 0 < alpha < q."""
    _check_exponents(q, alpha)
    _check_positive(state.v, "v")
    v = state.v.values

    def faces(gv, mv, w, spare):
        g2 = np.multiply(gv, gv, out=spare[0])
        yield from _quotient_faces(gv, mv, w, g2, [(q, alpha)], spare[1:])

    return face_sums(state.grid, faces, grads=(v,), means=(v,))[0]


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
    f4 = weighted_gradient(state, 4.0, 3.0)
    return _energy_G(state.grid, state.u.values, params, f4, None,
                     work_arrays(state.grid).coef_d)


def _energy_G(grid, u: np.ndarray, params: ModelParams, f4: float,
              log_u, out: np.ndarray) -> float:
    """energy_G from a positive u, the quartic quotient f4 of v and log u
    (None: formed here when needed); `out` is a cell-field work array."""
    l, b = params.l, params.b
    case = energy_case(l)
    if case == "u_log_u":
        if log_u is None:
            log_u = np.log(u, out=out)
        ent = integrate_array(grid, np.multiply(u, log_u, out=out))
        return 4.0 * b * ent + f4
    if case == "neg_log_u":
        ent = integrate_array(grid, np.log(u, out=out))
        return -4.0 * b * ent + f4
    if case == "undefined":
        return f4
    power = integrate_array(grid, _power(u, 3.0 - l, out))
    if case == "neg_power":
        return -4.0 * b / ((3.0 - l) * (l - 2.0)) * power + f4
    return 4.0 * b / ((l - 3.0) * (l - 2.0)) * power + f4


def full_record(state: State, params: ModelParams, p_list,
                q_alpha=DEFAULT_Q_ALPHA) -> FunctionalRecord:
    """Every diagnostic of `state`.  The face functionals share one pass and
    every temporary lives in the grid's work arrays, which the record
    borrows from the step."""
    _check_columns(p_list, q_alpha)
    _check_positive(state.u, "u")
    inf_v = _check_positive(state.v, "v")
    grid = state.grid
    u, v = state.u.values, state.v.values
    q_alpha = [(float(q), float(a)) for q, a in q_alpha]
    # the energy's quartic quotient too; sorted by alpha to share v^alpha
    quotients = sorted(dict.fromkeys([(4.0, 3.0)] + q_alpha),
                       key=lambda qa: qa[1])
    for qa in quotients:
        _check_exponents(*qa)

    def faces(gu, gv, mu, mv, w, spare):
        yield from _dissipation_faces(gu, gv, mu, mv, w, spare)
        # gu and mu are free from here on
        t = spare[0]
        g2 = np.multiply(gv, gv, out=gu)
        yield np.multiply(g2, w, out=t)  # grad_v_sq
        t /= mv
        yield t  # grad_v_sq_over_v
        yield from _quotient_faces(gv, mv, w, g2, quotients, (t, mu) + spare[1:])

    sums = face_sums(grid, faces, grads=(u, v), means=(u, v))
    diss_u, diss_v, grad_v_sq, grad_v_sq_over_v = sums[:4]
    quotient_sums = dict(zip(quotients, sums[4:]))

    work = work_arrays(grid)
    c = np.multiply(u, u, out=work.coef_d)
    c *= v
    weighted_L2 = integrate_array(grid, c)
    sup_u = float(u.max())
    lp_u = {}
    for p in p_list:
        p = float(p)  # u > 0, so |u| ** p is u ** p
        lp_u[p] = float(np.sum(_power(u, p, c)) * grid.cell_volume) ** (1.0 / p)
    lp_u[math.inf] = sup_u
    log_u = None
    # the entropy of u is int ln u at l = 2 and int u^(2-l) otherwise
    if energy_case(params.l) == "u_log_u":
        log_u = np.log(u, out=work.coef_t)
        entropy = integrate_array(grid, log_u)
    else:
        entropy = integrate_array(grid, _power(u, 2.0 - params.l, c))
    return FunctionalRecord(
        t=state.t,
        mass_u=integrate_array(grid, u),
        mass_v=integrate_array(grid, v),
        sup_u=sup_u,
        sup_v=float(v.max()),
        inf_v=inf_v,
        cumulative_uv=state.cumulative_uv,
        diss_u=diss_u,
        diss_v=diss_v,
        grad_v_sq=grad_v_sq,
        grad_v_sq_over_v=grad_v_sq_over_v,
        weighted_q={qa: quotient_sums[qa] for qa in q_alpha},
        weighted_L2=weighted_L2,
        lp_u=lp_u,
        entropy=entropy,
        energy_G=_energy_G(grid, u, params, quotient_sums[(4.0, 3.0)], log_u, c),
        energy_G_defined=energy_case(params.l) != "undefined",
    )


def _fmt_param(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else str(x)


def _check_columns(p_list, q_alpha=DEFAULT_Q_ALPHA) -> None:
    """A ValueError, starting with `p_list: ` or `q_alpha: `, if an entry
    repeats a column; every record has lp_u_inf, so p = inf does."""
    cols = record_columns(p_list, q_alpha)
    for i, name in enumerate(cols):
        if name in cols[:i]:
            key = "q_alpha" if name.startswith("wq_") else "p_list"
            raise ValueError(f"{key}: column {name} would repeat")


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


def write_series_header(fh, p_list, q_alpha=DEFAULT_Q_ALPHA) -> None:
    """Start a series.csv in the open text file `fh`: the `record_columns`
    line."""
    fh.write(",".join(record_columns(p_list, q_alpha)) + "\n")


def write_series(fh, rec, p_list, q_alpha=DEFAULT_Q_ALPHA) -> None:
    """Append the `record_row` line of `rec` to a series.csv that
    `write_series_header` started in `fh`."""
    fh.write(",".join(record_row(rec, p_list, q_alpha)) + "\n")
