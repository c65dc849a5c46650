"""Numerical stress tests for the two functional inequalities behind the
a-priori estimates.

Both inequalities are existential in their constants, so no "violation" is
ever declared: each check reports the left side, every bracketed right-hand
term, and their ratio; fitting a constant over a family of fields means
taking the maximal ratio.  Sampled fields are band-limited cosine series
(Neumann-symmetric), since high-frequency grid noise makes the discrete
gradient a poor stand-in for the continuous one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import _check_positive, _dissipation_faces, _quotient_faces
from .grid import Grid, ScalarField, face_sums, integrate_array, work_arrays

__all__ = [
    "IneqReport",
    "check_ineq_61",
    "check_ineq_64",
    "check_lists",
    "fit_constant",
    "cosine_family",
]


@dataclass
class IneqReport:
    lhs: float
    rhs_terms: dict
    ratio: float
    params: dict = field(default_factory=dict)
    field_seed: int | None = None


def _check_p(p: float) -> None:  # both inequalities hold for p >= 1
    if not 1.0 <= p < math.inf:
        raise ValueError(f"exponent p must be finite and >= 1, got {p}")


def _check_eta(eta: float) -> None:  # (6.4)'s Young weight
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")


def check_lists(ps, etas) -> None:
    """The p and eta lists of a sweep of checks: neither empty, each p >= 1
    and each eta > 0.  A ValueError starts with `p: ` or `eta: `."""
    for name, values, rule in (("p", ps, _check_p), ("eta", etas, _check_eta)):
        try:
            if len(values) == 0:
                raise ValueError("the list is empty")
            for x in values:
                rule(x)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None


def check_ineq_61(phi: ScalarField, psi: ScalarField, p: float,
                  field_seed: int | None = None) -> IneqReport:
    """Interpolation bound: int phi^(p+1) psi against the dissipation bracket
    {int (phi/psi)|grad psi|^2 + int (psi/phi)|grad phi|^2 + int phi psi}
    times int phi^p."""
    _check_p(p)
    _check_positive(phi, "phi")
    _check_positive(psi, "psi")
    grid = phi.grid
    f, s = phi.values, psi.values
    lhs = integrate_array(grid, f ** (p + 1.0) * s)
    diss_phi, diss_psi = face_sums(grid, _dissipation_faces,
                                   grads=(f, s), means=(f, s))
    bracket = diss_psi + diss_phi + integrate_array(grid, f * s)
    factor = integrate_array(grid, f ** p)
    denom = bracket * factor
    ratio = lhs / denom if denom > 0.0 else math.inf
    return IneqReport(lhs=lhs,
                      rhs_terms={"bracket": bracket, "factor": factor},
                      ratio=ratio, params={"p": p}, field_seed=field_seed)


def check_ineq_64(phi: ScalarField, psi: ScalarField, p: float, eta,
                  field_seed: int | None = None):
    """Young-type bound on int phi^(p+1) psi |grad psi|^2; the right side
    carries the eta-weighted phi-dissipation, two terms scaled by the quartic
    gradient quotient of psi, and a mass term.  Ratios are reported with the
    inequality's unquantified constant set to 1.

    `eta` is a float, giving one IneqReport, or a non-empty sequence, giving
    one report per eta in order.  The face pass and every eta-free integral
    are formed once for the whole sequence, so each report equals, to the
    bit, that of a call with its eta alone."""
    single = np.ndim(eta) == 0
    etas = (eta,) if single else tuple(eta)
    check_lists((p,), etas)
    _check_positive(phi, "phi")
    _check_positive(psi, "psi")
    grid = phi.grid
    f, s = phi.values, psi.values
    sup_psi = float(s.max())
    fp1s = f ** (p + 1.0) * s

    # in place, with the operation order of m_fp1s * gs * gs * w and
    # m_fm1s * gf * gf * w; the quartic quotient is weighted_gradient's
    def faces(gf, gs, m_fp1s, m_fm1s, ms, w, spare):
        t = spare[0]
        np.multiply(m_fp1s, gs, out=t)
        t *= gs
        t *= w
        yield t
        np.multiply(m_fm1s, gf, out=t)
        t *= gf
        t *= w
        yield t
        # m_fp1s and m_fm1s are free from here on
        g2 = np.multiply(gs, gs, out=m_fp1s)
        yield from _quotient_faces(gs, ms, w, g2, [(4.0, 3.0)],
                                   (t, spare[1], m_fm1s))

    lhs, grad_phi, f4 = face_sums(grid, faces, grads=(f, s),
                                  means=(fp1s, f ** (p - 1.0) * s, s))
    int_fp1s = integrate_array(grid, fp1s)
    mass_power = (sup_psi ** 2
                  * integrate_array(grid, f) ** (2.0 * p + 1.0) * f4)
    base = sup_psi ** 2 * integrate_array(grid, f * s)
    reports = []
    for e in etas:
        # key order fixes the summation order of denom
        terms = {
            "eta_grad_phi": e * grad_phi,
            "mixed": (sup_psi + sup_psi ** 3 / e) * int_fp1s * f4,
            "mass_power": mass_power,
            "base": base,
        }
        denom = sum(terms.values())
        if lhs == 0.0:
            ratio = 0.0
        else:
            ratio = lhs / denom if denom > 0.0 else math.inf
        reports.append(IneqReport(lhs=lhs, rhs_terms=terms, ratio=ratio,
                                  params={"p": p, "eta": e},
                                  field_seed=field_seed))
    return reports[0] if single else reports


def fit_constant(family, check, **params) -> float:
    """Maximal ratio of `check` over an iterable of (phi, psi) pairs."""
    best = None
    for i, (phi, psi) in enumerate(family):
        rep = check(phi, psi, field_seed=i, **params)
        if best is None or rep.ratio > best:
            best = rep.ratio
    if best is None:
        raise ValueError("empty field family")
    return best


# cosine_family's series: modes up to _MODES per axis, scaled to [lo, hi]
# with lo and hi drawn uniformly from these ranges
_MODES = 3
_LO_RANGE = (0.1, 1.0)
_HI_RANGE = (1.0, 10.0)


def _cosine_basis(grid: Grid, modes: int) -> list[np.ndarray]:
    """Per axis, the factor cos(k pi x / L) at the cell centers of every term
    of the series (1 where the term's k on that axis is 0), stacked along a
    leading term axis and shaped to broadcast along its own axis.  The terms
    are k = 1..modes in 1D and (kx, ky) != (0, 0) in 0..modes, ky fastest,
    in 2D."""
    if grid.dim == 1:
        ks = [(k,) for k in range(1, modes + 1)]
    else:
        ks = [(kx, ky) for kx in range(modes + 1) for ky in range(modes + 1)
              if (kx, ky) != (0, 0)]
    basis = []
    for axis in range(grid.dim):
        shape = [len(ks)] + [1] * grid.dim
        shape[axis + 1] = grid.shape[axis]
        x = grid.centers(axis)
        length = grid.domain.lengths[axis]
        basis.append(np.stack([np.cos(k[axis] * np.pi * x / length)
                               if k[axis] else np.ones_like(x)
                               for k in ks]).reshape(shape))
    return basis


def _random_smooth(rng: np.random.Generator, grid: Grid, basis, lo: float,
                   hi: float) -> ScalarField:
    # one draw per term; a term is (c * cx) * cy, in 2D formed as the same
    # product cy * (c * cx), and the reduction over the leading axis adds the
    # terms in order.  In 2D the terms are formed a block of rows at a time
    # in the grid's work arrays, which the checks that follow need anyway,
    # so that building a family does not raise the peak memory
    terms = (rng.normal(size=len(basis[0])).reshape((-1,) + (1,) * grid.dim)
             * basis[0])
    if grid.dim == 1:
        raw = np.add.reduce(terms, axis=0)
    else:
        k, (nx, ny) = len(terms), grid.shape
        buf = work_arrays(grid).rows.reshape(-1)
        if buf.size < k * ny:  # more terms than the work arrays hold rows
            buf = np.empty(k * ny)
        nrows = buf.size // (k * ny)
        raw = np.empty(grid.shape)
        for i in range(0, nx, nrows):
            block = terms[:, i:i + nrows]
            out = buf[:block.size * ny].reshape(k, -1, ny)
            np.copyto(out, basis[1])
            out *= block
            np.add.reduce(out, axis=0, out=raw[i:i + nrows])
    low = raw.min()
    span = raw.max() - low
    if span < 1e-30:
        return ScalarField.full(grid, 0.5 * (lo + hi))
    # lo + (hi - lo) * (raw - low) / span, in place
    raw -= low
    raw *= hi - lo
    raw /= span
    raw += lo
    return ScalarField(grid, raw, copy=False)


def cosine_family(grid: Grid, count: int, seed: int):
    """Seeded list of (phi, psi) pairs of smooth positive fields."""
    rng = np.random.default_rng(seed)
    basis = _cosine_basis(grid, _MODES)
    pairs = []
    for _ in range(count):
        lo = rng.uniform(*_LO_RANGE)
        hi = rng.uniform(*_HI_RANGE)
        phi = _random_smooth(rng, grid, basis, lo, hi)
        lo = rng.uniform(*_LO_RANGE)
        hi = rng.uniform(*_HI_RANGE)
        psi = _random_smooth(rng, grid, basis, lo, hi)
        pairs.append((phi, psi))
    return pairs
