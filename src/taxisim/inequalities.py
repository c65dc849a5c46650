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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import _check_positive, _dissipation_faces, _weighted_faces
from .grid import (FACE_BUFFERS, Grid, ScalarField, _max, _min, face_sums,
                   integrate_array)

__all__ = [
    "IneqReport",
    "check_ineq_61",
    "check_ineq_64",
    "check_lists",
    "fit_constant",
    "largest_ratio",
    "CosineFamily",
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


def check_lists(ps, etas=None) -> None:
    """The p and eta lists of a sweep of checks: neither empty, each p >= 1
    and each eta > 0; with `etas` None only the p list is checked.  A
    ValueError starts with `p: ` or `eta: `."""
    for name, values, rule in (("p", ps, _check_p), ("eta", etas, _check_eta)):
        if values is None:
            continue
        try:
            if len(values) == 0:
                raise ValueError("the list is empty")
            for x in values:
                rule(x)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None


def _listed(x) -> tuple[bool, tuple]:
    """(whether `x` is one number, its values as a tuple)."""
    single = np.ndim(x) == 0
    return single, (x,) if single else tuple(x)


def _pair_grid(phi: ScalarField, psi: ScalarField) -> Grid:
    """The one grid of phi and psi; a ValueError if they differ."""
    if phi.grid is not psi.grid and phi.grid != psi.grid:
        raise ValueError("phi and psi must share one grid")
    return phi.grid


def check_ineq_61(phi: ScalarField, psi: ScalarField, p,
                  field_seed: int | None = None):
    """Interpolation bound: int phi^(p+1) psi against the dissipation bracket
    {int (phi/psi)|grad psi|^2 + int (psi/phi)|grad phi|^2 + int phi psi}
    times int phi^p.

    `p` is a float, giving one IneqReport, or a non-empty sequence, giving
    one report per p in order.  The face pass and the bracket are formed
    once for the whole sequence, so each report equals, to the bit, that of
    a call with its p alone."""
    single, ps = _listed(p)
    check_lists(ps)
    grid = _pair_grid(phi, psi)
    _check_positive(phi, "phi")
    _check_positive(psi, "psi")
    f, s = phi.values, psi.values
    diss_phi, diss_psi = face_sums(grid, _dissipation_faces,
                                   grads=(f, s), means=(f, s))
    bracket = diss_psi + diss_phi + integrate_array(grid, f * s)
    reports = []
    for q in ps:
        lhs = integrate_array(grid, f ** (q + 1.0) * s)
        factor = integrate_array(grid, f ** q)
        denom = bracket * factor
        ratio = lhs / denom if denom > 0.0 else math.inf
        reports.append(IneqReport(lhs=lhs,
                                  rhs_terms={"bracket": bracket,
                                             "factor": factor},
                                  ratio=ratio, params={"p": q},
                                  field_seed=field_seed))
    return reports[0] if single else reports


# (6.4)'s two Young terms of one p from the face gradients of phi and psi
# and the face means of phi^(p+1) psi and phi^(p-1) psi, in place in the
# means with the operation order of m_fp1s * gs * gs * w and
# m_fm1s * gf * gf * w
def _young_faces(gf, gs, m_fp1s, m_fm1s, w):
    m_fp1s *= gs
    m_fp1s *= gs
    m_fp1s *= w
    yield m_fp1s
    m_fm1s *= gf
    m_fm1s *= gf
    m_fm1s *= w
    yield m_fm1s


# The p's of one (6.4) face pass: the grads (phi, psi), psi's mean in the
# first pass and two means per p fill the face buffers
_P_PER_PASS = (FACE_BUFFERS - 3) // 2


# (6.4)'s face integrand over grads=(phi, psi) and means ([psi,] then
# phi^(p+1) psi and phi^(p-1) psi for each p): each p's two Young terms,
# then, where psi's mean leads the (then odd) list, psi's quartic quotient,
# as weighted_gradient forms it at (q, alpha) = (4, 3), in the buffers
# those terms freed and the spare ones
def _ineq64_faces(gf, gs, *rest):
    *ms, w, spare = rest
    quartic = len(ms) % 2
    for m_fp1s, m_fm1s in zip(ms[quartic::2], ms[quartic + 1::2]):
        yield from _young_faces(gf, gs, m_fp1s, m_fm1s, w)
    if quartic:
        yield from _weighted_faces([(4.0, 3.0)], gs, ms[0], w,
                                   ms[1:] + list(spare))


def check_ineq_64(phi: ScalarField, psi: ScalarField, p, eta,
                  field_seed: int | None = None):
    """Young-type bound on int phi^(p+1) psi |grad psi|^2; the right side
    carries the eta-weighted phi-dissipation, two terms scaled by the quartic
    gradient quotient of psi, and a mass term.  Ratios are reported with the
    inequality's unquantified constant set to 1.

    `p` and `eta` are each a float or a non-empty sequence.  Two floats give
    one IneqReport; otherwise the reports form a flat list, p-major, one per
    (p, eta).  One face pass forms the face integrands of two p's, as many
    as the grid's face buffers hold, and the first also the quartic
    quotient of psi, so a call makes ceil(|p| / 2) face passes.  Every
    p-free integral is formed once per call, the p-dependent ones once per
    p, so each report equals, to the bit, that of a call with its p and eta
    alone."""
    single_p, ps = _listed(p)
    single_eta, etas = _listed(eta)
    check_lists(ps, etas)
    grid = _pair_grid(phi, psi)
    _check_positive(phi, "phi")
    _check_positive(psi, "psi")
    f, s = phi.values, psi.values
    sup_psi = float(_max(s, axis=None))
    f4, per_p = None, []  # per p: (lhs, grad_phi, int_fp1s)
    for i in range(0, len(ps), _P_PER_PASS):
        means = [] if per_p else [s]  # psi's mean in the first pass
        for q in ps[i:i + _P_PER_PASS]:
            means += [f ** (q + 1.0) * s, f ** (q - 1.0) * s]
        sums = face_sums(grid, _ineq64_faces, grads=(f, s), means=means)
        if not per_p:
            f4 = sums.pop()
        per_p += [(lhs, grad_phi, integrate_array(grid, fp1s))
                  for lhs, grad_phi, fp1s in zip(
                      sums[::2], sums[1::2], means[len(means) % 2::2])]
    int_f = integrate_array(grid, f)
    base = sup_psi ** 2 * integrate_array(grid, f * s)
    reports = []
    for q, (lhs, grad_phi, int_fp1s) in zip(ps, per_p):
        mass_power = sup_psi ** 2 * int_f ** (2.0 * q + 1.0) * f4
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
                                      params={"p": q, "eta": e},
                                      field_seed=field_seed))
    return reports[0] if single_p and single_eta else reports


def largest_ratio(ratios) -> float:
    """The constant fitted to an iterable of ratios: the largest, the first
    of equal ones; a ValueError if there are none."""
    best = max(ratios, default=None)
    if best is None:
        raise ValueError("empty field family")
    return best


def fit_constant(family, check, **params) -> float:
    """Maximal ratio of `check` over an iterable of (phi, psi) pairs."""
    return largest_ratio(check(phi, psi, field_seed=i, **params).ratio
                         for i, (phi, psi) in enumerate(family))


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


def _random_smooth(coeffs: np.ndarray, grid: Grid, basis, lo: float,
                   hi: float) -> ScalarField:
    # one coefficient per term; a term is (c * cx) * cy, in 2D formed as the
    # same product cy * (c * cx), and the reduction over the leading axis
    # adds the terms in order.  In 2D the terms are formed a block of rows at
    # a time in the grid's work arrays, which the checks that follow need
    # anyway, so that building a pair does not raise the peak memory
    terms = coeffs.reshape((-1,) + (1,) * grid.dim) * basis[0]
    if grid.dim == 1:
        raw = np.add.reduce(terms, axis=0)
    else:
        k, (nx, ny) = len(terms), grid.shape
        buf = grid.work.rows.reshape(-1)
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
    low = _min(raw, axis=None)
    span = _max(raw, axis=None) - low
    if span < 1e-30:
        return ScalarField.full(grid, 0.5 * (lo + hi))
    # lo + (hi - lo) * (raw - low) / span, in place
    raw -= low
    raw *= hi - lo
    raw /= span
    raw += lo
    return ScalarField(grid, raw, copy=False)


class CosineFamily(Sequence):
    """A seeded family of (phi, psi) pairs of smooth positive fields, built
    as it is read.

    It keeps only the random draws, which it takes from the seed's
    generator when it is made; each read of a pair builds both fields
    afresh, so iterating holds one pair at a time (two while a loop
    variable keeps the last one), whatever the count.  It reads like a
    list of pairs: `len`, iteration, unpacking, integer and negative
    indices, and a slice giving a list.  It has no `+` or `append`, and an
    edit to a read field does not reach the next read of that pair."""

    def __init__(self, grid: Grid, count: int, seed: int):
        self.grid = grid
        self._basis = _cosine_basis(grid, _MODES)
        k = len(self._basis[0])
        rng = np.random.default_rng(seed)
        # per pair and field (phi, then psi): lo, hi, then the coefficients
        self._bounds = np.empty((count, 2, 2))
        self._coeffs = np.empty((count, 2, k))
        for i in range(count):
            for j in range(2):
                self._bounds[i, j] = (rng.uniform(*_LO_RANGE),
                                      rng.uniform(*_HI_RANGE))
                self._coeffs[i, j] = rng.normal(size=k)

    def __len__(self) -> int:
        return len(self._bounds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]  # a list's IndexError and TypeError
        phi, psi = (_random_smooth(coeffs, self.grid, self._basis,
                                   *bounds.tolist())
                    for coeffs, bounds in zip(self._coeffs[i], self._bounds[i]))
        return phi, psi


def cosine_family(grid: Grid, count: int, seed: int) -> CosineFamily:
    """Seeded sequence of `count` (phi, psi) pairs of smooth positive
    fields, built as they are read (see `CosineFamily`)."""
    return CosineFamily(grid, count, seed)
