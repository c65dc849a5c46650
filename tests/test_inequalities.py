import math
import tracemalloc

import numpy as np
import pytest

from taxisim import (
    Domain,
    Grid,
    IneqReport,
    PositivityViolation,
    ScalarField,
    State,
    check_ineq_61,
    check_ineq_64,
    cosine_family,
    fit_constant,
    inequalities,
    weighted_gradient,
)
from taxisim.grid import face_sums, integrate_array


def grid1d(n=64, L=1.0):
    return Grid(Domain((L,)), (n,))


def const_pair(grid, c, d):
    return ScalarField.full(grid, c), ScalarField.full(grid, d)


class TestIneq61:
    def test_unit_constants(self):
        phi, psi = const_pair(grid1d(16), 1.0, 1.0)
        rep = check_ineq_61(phi, psi, 1.0)
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs_terms["bracket"] == pytest.approx(1.0)
        assert rep.rhs_terms["factor"] == pytest.approx(1.0)
        assert rep.ratio == pytest.approx(1.0)

    def test_constants_two_one(self):
        phi, psi = const_pair(grid1d(16), 2.0, 1.0)
        rep = check_ineq_61(phi, psi, 1.0)
        assert rep.lhs == pytest.approx(4.0)
        assert rep.rhs_terms["bracket"] == pytest.approx(2.0)
        assert rep.rhs_terms["factor"] == pytest.approx(2.0)
        assert rep.ratio == pytest.approx(1.0)

    def test_constant_pairs_ratio_one_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c, d = rng.uniform(0.1, 10.0, 2)
            phi, psi = const_pair(grid1d(16), c, d)
            for p in (1.0, 2.0, 3.5):
                assert check_ineq_61(phi, psi, p).ratio \
                    == pytest.approx(1.0, rel=1e-12)

    def test_scale_covariance(self):
        # phi -> lam*phi at p = 1 rescales both sides by lam^2
        (phi, psi), = cosine_family(grid1d(48), 1, seed=5)
        base = check_ineq_61(phi, psi, 1.0).ratio
        for lam in (0.5, 2.0, 10.0):
            scaled = ScalarField(phi.grid, lam * phi.values)
            rep = check_ineq_61(scaled, psi, 1.0)
            assert rep.ratio == pytest.approx(base, rel=1e-10)

    def test_rejects_bad_p(self):
        phi, psi = const_pair(grid1d(8), 1.0, 1.0)
        with pytest.raises(ValueError):
            check_ineq_61(phi, psi, 0.5)

    def test_rejects_nonpositive(self):
        g = grid1d(8)
        vals = np.ones(8)
        vals[4] = -0.1
        with pytest.raises(PositivityViolation):
            check_ineq_61(ScalarField(g, vals), ScalarField.full(g, 1.0), 1.0)

    def test_fuzz_ratios_finite(self):
        pairs = cosine_family(grid1d(48), 100, seed=11)
        for p in (1.0, 2.0):
            for i, (phi, psi) in enumerate(pairs):
                rep = check_ineq_61(phi, psi, p, field_seed=i)
                assert math.isfinite(rep.ratio) and rep.ratio > 0.0
                assert rep.field_seed == i


class TestIneq64:
    def test_flat_psi_gives_zero(self):
        g = grid1d(32)
        rng = np.random.default_rng(2)
        phi = ScalarField(g, rng.uniform(0.5, 2.0, 32))
        rep = check_ineq_64(phi, ScalarField.full(g, 1.5), 1.0, 1.0)
        assert rep.lhs == 0.0
        assert rep.ratio == 0.0

    def test_linear_psi_lhs(self):
        # phi = 1, psi = 1+x: lhs = int (1+x)|psi'|^2 = 1.5
        g = grid1d(256)
        phi = ScalarField.full(g, 1.0)
        psi = ScalarField(g, 1.0 + g.centers(0))
        rep = check_ineq_64(phi, psi, 1.0, 1.0)
        assert rep.lhs == pytest.approx(1.5, abs=1e-3)
        # eta term vanishes for flat phi; the others are analytic:
        # f4 = 0.375, int phi^2 psi = int phi psi = 1.5, sup psi = 2 - h/2
        sup = float(psi.values.max())
        assert rep.rhs_terms["eta_grad_phi"] == 0.0
        assert rep.rhs_terms["mixed"] == pytest.approx(
            (sup + sup ** 3) * 1.5 * 0.375, rel=2e-3)
        assert rep.rhs_terms["mass_power"] == pytest.approx(
            sup ** 2 * 0.375, rel=2e-3)
        assert rep.rhs_terms["base"] == pytest.approx(sup ** 2 * 1.5, rel=1e-6)

    def test_rejects_bad_eta(self):
        phi, psi = const_pair(grid1d(8), 1.0, 1.0)
        with pytest.raises(ValueError):
            check_ineq_64(phi, psi, 1.0, 0.0)
        with pytest.raises(ValueError):
            check_ineq_64(phi, psi, 1.0, -2.0)

    def test_terms_nonnegative_fuzz(self):
        pairs = cosine_family(grid1d(48), 50, seed=7)
        for i, (phi, psi) in enumerate(pairs):
            rep = check_ineq_64(phi, psi, 2.0, 1.0, field_seed=i)
            assert all(t >= 0.0 for t in rep.rhs_terms.values())
            assert math.isfinite(rep.ratio) and rep.ratio >= 0.0

    def test_eta_sweep_bounded(self):
        # the fitted constant stays within one order of magnitude over the
        # eta sweep; it is not monotone in eta because the eta-weighted
        # phi-dissipation grows while the psi^3/eta term shrinks
        pairs = cosine_family(grid1d(48), 30, seed=13)
        fits = [fit_constant(pairs, check_ineq_64, p=1.0, eta=eta)
                for eta in (0.1, 1.0, 10.0)]
        assert all(math.isfinite(c) and c > 0.0 for c in fits)
        assert max(fits) / min(fits) < 10.0


def assert_same_report(a, b):
    assert a.lhs == b.lhs
    assert list(a.rhs_terms.items()) == list(b.rhs_terms.items())
    assert a.ratio == b.ratio
    assert a.params == b.params
    assert a.field_seed == b.field_seed


class TestIneq64EtaSequence:
    ETAS = (0.1, 1.0, 10.0, 0.37, 1.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5])
    @pytest.mark.parametrize("grid", [grid1d(48),
                                      Grid(Domain((1.0, 1.5)), (24, 20))],
                             ids=["1d", "2d"])
    def test_matches_scalar_calls(self, grid, p):
        pairs = cosine_family(grid, 6, seed=19)
        flat = (pairs[0][0], ScalarField.full(grid, 1.5))  # lhs == 0 branch
        for i, (phi, psi) in enumerate(pairs + [flat]):
            reports = check_ineq_64(phi, psi, p, self.ETAS, field_seed=i)
            assert len(reports) == len(self.ETAS)
            for eta, rep in zip(self.ETAS, reports):
                assert_same_report(
                    rep, check_ineq_64(phi, psi, p, eta, field_seed=i))
        assert reports[0].lhs == 0.0 and reports[0].ratio == 0.0

    def test_array_of_etas(self):
        (phi, psi), = cosine_family(grid1d(32), 1, seed=3)
        reports = check_ineq_64(phi, psi, 2.0, np.array([0.5, 2.0]))
        assert [r.params["eta"] for r in reports] == [0.5, 2.0]
        assert isinstance(check_ineq_64(phi, psi, 2.0, np.float64(0.5)),
                          IneqReport)

    @pytest.mark.parametrize("etas", [(1.0, 0.0), [2.0, -1.0, 3.0],
                                      (1.0, math.nan)])
    def test_bad_eta_raises_before_any_work(self, monkeypatch, etas):
        def no_face_pass(*args, **kwargs):
            raise AssertionError("face pass started")

        monkeypatch.setattr(inequalities, "face_sums", no_face_pass)
        g = grid1d(8)
        phi = ScalarField.full(g, -1.0)  # would fail the positivity check
        with pytest.raises(ValueError, match="eta must be positive"):
            check_ineq_64(phi, ScalarField.full(g, 1.0), 1.0, etas)


def reference_ineq64(phi, psi, p, eta):
    """(lhs, rhs terms, ratio) of (6.4) with the quartic quotient formed by
    numpy's `**` (gs ** 4 / ms ** 3 * w) instead of the product kernel that
    `weighted_gradient` uses: the reference for check_ineq_64's terms and
    for its allocations."""
    grid = phi.grid
    f, s = phi.values, psi.values
    sup_psi = float(s.max())
    fp1s = f ** (p + 1.0) * s

    # in place in the grid's face buffers
    def faces(gf, gs, m_fp1s, m_fm1s, ms, w, spare):
        t, den = spare
        np.multiply(m_fp1s, gs, out=t)
        t *= gs
        t *= w
        yield t
        np.copyto(t, gs)
        t **= 4
        np.copyto(den, ms)
        den **= 3
        t /= den
        t *= w
        yield t
        np.multiply(m_fm1s, gf, out=t)
        t *= gf
        t *= w
        yield t

    lhs, f4, grad_phi = face_sums(grid, faces, grads=(f, s),
                                  means=(fp1s, f ** (p - 1.0) * s, s))
    terms = {
        "eta_grad_phi": eta * grad_phi,
        "mixed": ((sup_psi + sup_psi ** 3 / eta)
                  * integrate_array(grid, fp1s) * f4),
        "mass_power": (sup_psi ** 2
                       * integrate_array(grid, f) ** (2.0 * p + 1.0) * f4),
        "base": sup_psi ** 2 * integrate_array(grid, f * s),
    }
    denom = sum(terms.values())
    return lhs, terms, (lhs / denom if lhs else 0.0)


class TestIneq64MatchesReference:
    ETAS = (0.1, 1.0, 10.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5])
    @pytest.mark.parametrize("grid", [
        grid1d(48),
        Grid(Domain((1.0, 1.0)), (16, 16)),
        Grid(Domain((1.0, 3.0)), (12, 9)),
    ], ids=["1d", "2d-square", "2d-stretched"])
    def test_terms_match(self, grid, p):
        for i, (phi, psi) in enumerate(cosine_family(grid, 5, seed=23)):
            reports = check_ineq_64(phi, psi, p, self.ETAS, field_seed=i)
            for eta, rep in zip(self.ETAS, reports):
                lhs, terms, ratio = reference_ineq64(phi, psi, p, eta)
                assert rep.lhs == lhs
                for key in ("eta_grad_phi", "base"):
                    assert rep.rhs_terms[key] == terms[key]
                for key in ("mixed", "mass_power"):
                    assert rep.rhs_terms[key] == pytest.approx(terms[key],
                                                               rel=1e-14)
                assert rep.ratio == pytest.approx(ratio, rel=1e-14)

    @pytest.mark.parametrize("p", [1.0, 2.5])
    @pytest.mark.parametrize("grid", [
        grid1d(48),
        Grid(Domain((1.0, 3.0)), (12, 9)),
    ], ids=["1d", "2d-stretched"])
    def test_quotient_is_weighted_gradient(self, grid, p):
        # the quartic quotient f4 of psi enters mass_power and mixed as a
        # factor; forming both from weighted_gradient gives them to the bit
        for phi, psi in cosine_family(grid, 5, seed=29):
            f, s = phi.values, psi.values
            f4 = weighted_gradient(State(phi, psi), 4.0, 3.0)
            sup_psi = float(s.max())
            rep = check_ineq_64(phi, psi, p, 0.5)
            assert rep.rhs_terms["mass_power"] == (
                sup_psi ** 2 * integrate_array(grid, f) ** (2.0 * p + 1.0)
                * f4)
            assert rep.rhs_terms["mixed"] == (
                (sup_psi + sup_psi ** 3 / 0.5)
                * integrate_array(grid, f ** (p + 1.0) * s) * f4)

    def test_allocation_bound(self):
        # the shared kernel works in the grid's face buffers: at most one
        # field size above the reference's peak
        grid = Grid(Domain((1.0, 1.0)), (64, 64))
        (phi, psi), = cosine_family(grid, 1, seed=31)
        peaks = []
        for check in (reference_ineq64,
                      lambda *args: check_ineq_64(*args, field_seed=0)):
            check(phi, psi, 2.0, 1.0)  # the grid's work arrays exist now
            tracemalloc.start()
            try:
                check(phi, psi, 2.0, 1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        reference, shared = peaks
        assert shared <= reference + phi.values.nbytes


class TestFitConstant:
    def test_singleton_constant_family(self):
        pair = const_pair(grid1d(8), 1.0, 1.0)
        assert fit_constant([pair], check_ineq_61, p=1.0) \
            == pytest.approx(1.0)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            fit_constant([], check_ineq_61, p=1.0)

    def test_deterministic(self):
        g = grid1d(48)
        a = fit_constant(cosine_family(g, 10, seed=3), check_ineq_61, p=2.0)
        b = fit_constant(cosine_family(g, 10, seed=3), check_ineq_61, p=2.0)
        assert a == b

    def test_grid_robust(self):
        # same continuous fields sampled at n and 2n: fitted constants close
        for p in (1.0, 2.0):
            coarse = fit_constant(cosine_family(grid1d(48), 40, seed=17),
                                  check_ineq_61, p=p)
            fine = fit_constant(cosine_family(grid1d(96), 40, seed=17),
                                check_ineq_61, p=p)
            assert abs(fine - coarse) / coarse < 0.2


class TestCosineFamily:
    def test_count_and_positivity(self):
        pairs = cosine_family(grid1d(32), 25, seed=1)
        assert len(pairs) == 25
        for phi, psi in pairs:
            assert phi.values.min() > 0.0 and psi.values.min() > 0.0
            assert phi.values.max() <= 10.0 + 1e-12

    def test_seed_reproducible(self):
        a = cosine_family(grid1d(32), 5, seed=9)
        b = cosine_family(grid1d(32), 5, seed=9)
        for (p1, s1), (p2, s2) in zip(a, b):
            assert np.array_equal(p1.values, p2.values)
            assert np.array_equal(s1.values, s2.values)

    def test_2d(self):
        g = Grid(Domain((1.0, 1.0)), (16, 16))
        pairs = cosine_family(g, 3, seed=2)
        for phi, psi in pairs:
            assert phi.values.shape == (16, 16)
            assert phi.values.min() > 0.0

    @staticmethod
    def reference_smooth(rng, grid, modes, lo, hi):
        """The original sampler: np.cos of full meshgrids for every mode."""
        coords = grid.meshgrid()
        raw = np.zeros(grid.shape)
        if grid.dim == 1:
            ks = [(k,) for k in range(1, modes + 1)]
        else:
            ks = [(kx, ky) for kx in range(modes + 1)
                  for ky in range(modes + 1) if (kx, ky) != (0, 0)]
        for k in ks:
            amp = rng.normal()
            term = np.ones(grid.shape) * amp
            for axis, ka in enumerate(k):
                if ka:
                    term = term * np.cos(ka * np.pi * coords[axis]
                                         / grid.domain.lengths[axis])
            raw += term
        span = raw.max() - raw.min()
        if span < 1e-30:
            return ScalarField.full(grid, 0.5 * (lo + hi))
        return ScalarField(grid, lo + (hi - lo) * (raw - raw.min()) / span)

    @pytest.mark.parametrize("lengths, shape", [
        ((1.0,), (64,)),
        ((10.0,), (37,)),
        ((1.0, 1.0), (64, 64)),
        ((2.0, 3.5), (48, 80)),
        ((1.0, 1.0), (2, 9)),  # more terms than the work arrays hold rows
    ])
    @pytest.mark.parametrize("seed, modes", [(0, 3), (1, 3), (7, 5)])
    def test_matches_reference_bitwise(self, lengths, shape, seed, modes,
                                       monkeypatch):
        monkeypatch.setattr(inequalities, "_MODES", modes)
        g = Grid(Domain(lengths), shape)
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(4):
            pair = []
            for _ in range(2):
                lo = rng.uniform(0.1, 1.0)
                hi = rng.uniform(1.0, 10.0)
                pair.append(self.reference_smooth(rng, g, modes, lo, hi))
            expected.append(pair)
        got = cosine_family(g, 4, seed)
        for (phi, psi), (ref_phi, ref_psi) in zip(got, expected):
            assert np.array_equal(phi.values, ref_phi.values)
            assert np.array_equal(psi.values, ref_psi.values)
