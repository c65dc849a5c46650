import math
import pickle

import numpy as np
import pytest

from taxisim import (
    Domain,
    Grid,
    ScalarField,
    integrate,
    laplacian,
    lp_norm,
    read_field,
    write_field,
)
from taxisim.grid import (face_quadrature, face_scaling, rhs_scalings,
                          work_arrays)


def grid1d(n=16, L=1.0):
    return Grid(Domain((L,)), (n,))


def grid2d(n=8, L=1.0):
    return Grid(Domain((L, L)), (n, n))


def from_function(grid, fn):
    """Sample ``fn(*coords)`` at cell centers."""
    return ScalarField(grid, fn(*grid.meshgrid()), copy=False)


def face_gradient(f):
    """Test-local oracle: per-axis face gradients including the boundary
    faces, which carry 0."""
    out = []
    for axis, h in enumerate(f.grid.h):
        pad = [(0, 0)] * f.grid.dim
        pad[axis] = (1, 1)
        out.append(np.pad(np.diff(f.values, axis=axis) / h, pad))
    return tuple(out)


def random_field(grid, seed, lo=0.1, hi=10.0):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.uniform(lo, hi, size=grid.shape))


class TestDomainGrid:
    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            Domain((1.0, 1.0, 1.0))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Domain((0.0,))

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError):
            Grid(Domain((1.0,)), (1,))

    def test_spacing(self):
        g = Grid(Domain((2.0, 1.0)), (8, 4))
        assert g.h == (0.25, 0.25)
        assert g.cell_volume == pytest.approx(0.0625)

    def test_equal_grids_hash_equal(self):
        a = Grid(Domain((2.0, 1.0)), (8, 4))
        a.h  # fills the per-instance caches of one side only
        b = Grid(Domain((2, 1)), [8, 4])
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((Domain((2.0, 1.0)), (8, 4)))
        assert a != Grid(Domain((2.0, 1.5)), (8, 4))
        assert a != Grid(Domain((2.0, 1.0)), (8, 5))
        assert repr(a) == ("Grid(domain=Domain(lengths=(2.0, 1.0)), "
                           "shape=(8, 4))")

    def test_pickle_round_trip(self):
        a = Grid(Domain((2.0, 1.0)), (8, 4))
        fresh = pickle.dumps(a)
        hash(a), a.h  # fill the per-instance caches
        b = pickle.loads(pickle.dumps(a))
        assert b == a and hash(b) == hash(a)
        assert b.h == a.h
        # the pickle carries the fields, not the per-instance caches
        assert pickle.dumps(a) == fresh


class TestIntegrate:
    def test_constant_interval(self):
        f = ScalarField.full(grid1d(16), 2.0)
        assert integrate(f) == pytest.approx(2.0)

    def test_affine_exact(self):
        # midpoint rule is exact on affine integrands
        f = from_function(grid1d(100), lambda x: x)
        assert integrate(f) == pytest.approx(0.5, abs=1e-14)

    def test_constant_square(self):
        f = ScalarField.full(grid2d(32), 1.0)
        assert integrate(f) == pytest.approx(1.0)

    def test_linearity(self):
        for seed in range(20):
            g = grid2d(12)
            f1 = random_field(g, seed)
            f2 = random_field(g, seed + 1000)
            a, b = 2.5, -1.25
            combo = ScalarField(g, a * f1.values + b * f2.values)
            lhs = integrate(combo)
            rhs = a * integrate(f1) + b * integrate(f2)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestFaceGradient:
    def test_constant_field(self):
        g = grid1d(10)
        (gx,) = face_gradient(ScalarField.full(g, 3.7))
        assert np.all(gx == 0.0)

    def test_affine_interior_exact(self):
        g = grid1d(10)
        (gx,) = face_gradient(from_function(g, lambda x: x))
        assert gx[0] == 0.0 and gx[-1] == 0.0
        np.testing.assert_allclose(gx[1:-1], 1.0, atol=1e-13)

    def test_divergence_theorem(self):
        def divergence(g, fluxes):
            # test-local oracle: per-axis differences of the face fluxes,
            # boundary faces included
            out = np.zeros(g.shape)
            for axis, h in enumerate(g.h):
                out += np.diff(fluxes[axis], axis=axis) / h
            return ScalarField(g, out)

        for seed in range(10):
            g = grid2d(9)
            f = random_field(g, seed)
            div = divergence(g, face_gradient(f))
            assert abs(integrate(div)) < 1e-12


class TestLaplacian:
    def test_constant_zero(self):
        g = grid2d(8)
        lap = laplacian(ScalarField.full(g, 4.2))
        assert np.all(lap.values == 0.0)

    def test_affine_hand_stencil(self):
        # mirror ghost makes the first/last cell see a kink of size 1/h
        g = grid1d(10)
        lap = laplacian(from_function(g, lambda x: x))
        np.testing.assert_allclose(lap.values[1:-1], 0.0, atol=1e-11)
        assert lap.values[0] == pytest.approx(10.0)
        assert lap.values[-1] == pytest.approx(-10.0)

    def test_neumann_compatibility(self):
        for seed in range(10):
            f = random_field(grid1d(33), seed)
            assert abs(integrate(laplacian(f))) < 1e-12
        for seed in range(10):
            f = random_field(grid2d(7), seed)
            assert abs(integrate(laplacian(f))) < 1e-12

    def test_cosine_convergence(self):
        # 2nd-order on a Neumann-compatible smooth profile
        errs = []
        for n in (32, 64):
            g = grid1d(n)
            f = from_function(g, lambda x: np.cos(np.pi * x))
            exact = -np.pi ** 2 * f.values
            errs.append(np.abs(laplacian(f).values - exact).max())
        assert errs[0] / errs[1] > 3.0


class TestLpNorm:
    def test_constant(self):
        f = ScalarField.full(grid1d(16), 3.0)
        assert lp_norm(f, 2.0) == pytest.approx(3.0)

    def test_indicator(self):
        g = grid1d(64)
        f = from_function(g, lambda x: (x < 0.5).astype(float))
        assert lp_norm(f, 1.0) == pytest.approx(0.5)

    def test_sup_norm(self):
        g = grid1d(16)
        vals = np.ones(16)
        vals[5] = 7.25
        assert lp_norm(ScalarField(g, vals), math.inf) == 7.25

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            lp_norm(ScalarField.full(grid1d(4), 1.0), 0.5)

    def test_monotone_in_p_unit_domain(self):
        ps = [1.0, 1.5, 2.0, 4.0, 8.0]
        for seed in range(100):
            f = random_field(grid1d(32), seed)
            norms = [lp_norm(f, p) for p in ps] + [lp_norm(f, math.inf)]
            for a, b in zip(norms, norms[1:]):
                assert b >= a - 1e-12


class TestFaceQuadrature:
    def test_tiles_domain(self):
        g = grid1d(16, L=2.0)
        assert face_quadrature(g, 0).sum() == pytest.approx(2.0)
        g2 = Grid(Domain((2.0, 3.0)), (8, 6))
        assert face_quadrature(g2, 0).sum() * 6 == pytest.approx(6.0)
        assert face_quadrature(g2, 1).sum() * 8 == pytest.approx(6.0)

    def test_two_cells(self):
        g = grid1d(2, L=1.0)
        w = face_quadrature(g, 0)
        assert w.shape == (1,)
        assert w[0] == pytest.approx(1.0)


class TestFaceScaling:
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf,
               -math.inf, math.nan]

    # (grid, the ufunc its axis scaling takes): h = 1/64, 2 and 10/256
    @pytest.mark.parametrize("grid, ufunc", [
        (grid1d(64), np.multiply),
        (grid1d(2, L=4.0), np.multiply),
        (grid1d(256, L=10.0), np.true_divide),
    ])
    def test_equals_division(self, grid, ufunc):
        (h,) = grid.h
        (scale, k), *_ = work_arrays(grid).axes[0]
        assert scale is ufunc
        x = np.concatenate([self.SPECIAL, np.random.default_rng(0).normal(
            scale=1e3, size=1000)])
        with np.errstate(all="ignore"):
            got = scale(x, k)
            want = x / h
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("h, ufunc", [
        (2.0 ** -1022, np.multiply), (2.0 ** 1023, np.multiply),
        (5e-324, np.true_divide),  # 1 / h overflows
        (0.75, np.true_divide), (0.1, np.true_divide),
    ])
    def test_multiplies_only_by_exact_reciprocals(self, h, ufunc):
        scale, k = face_scaling(h)
        assert scale is ufunc
        assert k == (1.0 / h if ufunc is np.multiply else h)


class TestRhsScalings:
    # one multiply per face row when h is a power of two and every c / h^2
    # is finite and normal; else the gradients divide by h first
    @pytest.mark.parametrize("h", [1 / 64, 1 / 128, 1.0, 2.0, 2.0 ** -500])
    def test_one_multiply_per_row(self, h):
        for mean, c in (("arithmetic", 0.5), ("harmonic", 2.0)):
            grad, k, su, sv = rhs_scalings(h, mean)
            assert grad is None and k == 1.0 / h
            assert su == (np.multiply, c / h / h)
            assert sv == (np.multiply, 1.0 / h / h)

    @pytest.mark.parametrize("h", [10 / 256, 0.75, 3.0,
                                   2.0 ** -520, 2.0 ** 520])
    def test_divide_path(self, h):
        # 2^-520 and 2^520: 1 / h^2 overflows or is not normal
        for mean, c in (("arithmetic", 0.5), ("harmonic", 2.0)):
            grad, k, su, sv = rhs_scalings(h, mean)
            assert grad == face_scaling(h) and k == 1.0
            assert su == face_scaling(h / c) and sv == face_scaling(h)


class TestFieldIO:
    def test_roundtrip_1d(self, tmp_path):
        f = random_field(grid1d(17, L=1.75), seed=4)
        path = tmp_path / "f.field"
        write_field(path, f)
        back = read_field(path)
        assert back.grid.shape == f.grid.shape
        assert back.grid.domain.lengths == f.grid.domain.lengths
        assert np.array_equal(back.values, f.values)

    def test_roundtrip_2d(self, tmp_path):
        g = Grid(Domain((2.0, 0.5)), (6, 9))
        f = random_field(g, seed=11)
        path = tmp_path / "f2.field"
        write_field(path, f)
        back = read_field(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_truncated_rejected(self, tmp_path):
        f = random_field(grid1d(8), seed=0)
        path = tmp_path / "bad.field"
        write_field(path, f)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            read_field(path)
