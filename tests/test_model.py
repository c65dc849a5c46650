import numpy as np
import pytest

from taxisim import (
    Domain,
    Grid,
    InvalidInitialData,
    ModelParams,
    ScalarField,
    State,
    integrate,
    laplacian,
    regularize_initial,
    rhs,
    stability_dt,
)
from taxisim.grid import _axis_slices
from taxisim.model import rhs_arrays


def grid1d(n=32, L=1.0):
    return Grid(Domain((L,)), (n,))


def grid2d(n=12, L=1.0):
    return Grid(Domain((L, L)), (n, n))


def random_state(grid, seed, lo=0.2, hi=3.0):
    rng = np.random.default_rng(seed)
    u = ScalarField(grid, rng.uniform(lo, hi, size=grid.shape))
    v = ScalarField(grid, rng.uniform(lo, hi, size=grid.shape))
    return State(u=u, v=v)


class TestRegularize:
    def test_shift_from_zero(self):
        g = grid1d()
        st = regularize_initial(ScalarField.full(g, 0.0),
                                ScalarField.full(g, 1.0),
                                ModelParams(l=2.0, epsilon=0.01))
        assert np.all(st.u.values == 0.01)
        assert np.all(st.v.values == 1.0)
        assert st.t == 0.0 and st.cumulative_uv == 0.0

    def test_shift_from_one(self):
        g = grid1d()
        st = regularize_initial(ScalarField.full(g, 1.0),
                                ScalarField.full(g, 1.0),
                                ModelParams(l=2.0, epsilon=0.1))
        assert np.all(st.u.values == 1.1)

    def test_rejects_negative_u0(self):
        g = grid1d(8)
        vals = np.ones(8)
        vals[3] = -1e-9
        with pytest.raises(InvalidInitialData, match=r"\(3,\)"):
            regularize_initial(ScalarField(g, vals), ScalarField.full(g, 1.0),
                               ModelParams(l=2.0, epsilon=0.01))

    def test_rejects_nonpositive_v0(self):
        g = grid1d(8)
        vals = np.ones(8)
        vals[5] = 0.0
        with pytest.raises(InvalidInitialData, match=r"\(5,\)"):
            regularize_initial(ScalarField.full(g, 1.0), ScalarField(g, vals),
                               ModelParams(l=2.0, epsilon=0.01))


class TestParams:
    def test_rejects_small_l(self):
        with pytest.raises(ValueError):
            ModelParams(l=0.5, epsilon=0.1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            ModelParams(l=2.0, epsilon=1.5)

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            ModelParams(l=2.0, epsilon=0.1, face_mean="geometric")


class TestRhs:
    def test_constants(self):
        g = grid2d(8)
        st = State(u=ScalarField.full(g, 2.0), v=ScalarField.full(g, 3.0))
        du, dv = rhs(st, ModelParams(l=2.0, epsilon=0.01))
        np.testing.assert_allclose(du.values, 6.0, atol=1e-14)
        np.testing.assert_allclose(dv.values, -6.0, atol=1e-14)

    def test_gaussian_bump_against_loop_stencil(self):
        # v constant kills the taxis flux; compare the degenerate diffusion
        # against a brute-force ghost-cell loop
        g = grid1d(24)
        x = g.centers(0)
        u = 1.0 + np.exp(-((x - 0.5) ** 2) / 0.02)
        st = State(u=ScalarField(g, u), v=ScalarField.full(g, 1.0))
        params = ModelParams(l=2.0, epsilon=0.01)
        du, dv = rhs(st, params)

        h = g.h[0]
        n = g.shape[0]
        ghost = np.concatenate(([u[0]], u, [u[-1]]))  # mirror ghosts
        expected = np.zeros(n)
        for i in range(n):
            uc, ul, ur = ghost[i + 1], ghost[i], ghost[i + 2]
            flux_r = 0.0 if i == n - 1 else 0.5 * (uc + ur) * (ur - uc) / h
            flux_l = 0.0 if i == 0 else 0.5 * (ul + uc) * (uc - ul) / h
            expected[i] = (flux_r - flux_l) / h + uc
        np.testing.assert_allclose(du.values, expected, atol=1e-12)
        np.testing.assert_allclose(dv.values, -u, atol=1e-12)

    def test_mass_neutral(self):
        params = ModelParams(l=2.5, epsilon=0.01)
        for seed in range(100):
            g = grid2d(7) if seed % 2 else grid1d(13)
            st = random_state(g, seed)
            du, dv = rhs(st, params)
            total = integrate(ScalarField(g, du.values + dv.values))
            assert abs(total) < 1e-12

    def test_l1_v1_reduces_to_heat_plus_growth(self):
        g = grid1d(20)
        st = random_state(g, 3)
        st = State(u=st.u, v=ScalarField.full(g, 1.0))
        du, _ = rhs(st, ModelParams(l=1.0, epsilon=0.01))
        expected = laplacian(st.u).values + st.u.values
        np.testing.assert_allclose(du.values, expected, atol=1e-12)

    def test_taxis_vanishes_for_flat_v(self):
        # flat v, l = 1: taxis flux is gone and du collapses to c*(lap u + u)
        g = grid1d(20)
        st = random_state(g, 5)
        stf = State(u=st.u, v=ScalarField.full(g, 2.0))
        du, _ = rhs(stf, ModelParams(l=1.0, epsilon=0.01))
        expected = 2.0 * (laplacian(st.u).values + st.u.values)
        np.testing.assert_allclose(du.values, expected, atol=1e-12)

    def test_transpose_symmetry_2d(self):
        g = grid2d(10)
        st = random_state(g, 9)
        params = ModelParams(l=2.0, epsilon=0.01)
        du, dv = rhs(st, params)
        st_t = State(u=ScalarField(g, st.u.values.T),
                     v=ScalarField(g, st.v.values.T))
        du_t, dv_t = rhs(st_t, params)
        np.testing.assert_allclose(du_t.values, du.values.T, atol=1e-12)
        np.testing.assert_allclose(dv_t.values, dv.values.T, atol=1e-12)

    def test_harmonic_mean_positive(self):
        g = grid1d(16)
        st = random_state(g, 11, lo=0.01, hi=5.0)
        du, dv = rhs(st, ModelParams(l=2.0, epsilon=0.01,
                                     face_mean="harmonic"))
        assert np.all(np.isfinite(du.values))
        total = integrate(ScalarField(g, du.values + dv.values))
        assert abs(total) < 1e-12


class TestStabilityDt:
    def test_unit_state(self):
        g = grid1d(10)
        st = State(u=ScalarField.full(g, 1.0), v=ScalarField.full(g, 1.0))
        dt = stability_dt(st, ModelParams(l=2.0, epsilon=0.01), safety=0.4)
        assert dt == pytest.approx(0.4 * 0.01 / 2.0)

    def test_large_u_flat_v(self):
        g = grid1d(10)
        st = State(u=ScalarField.full(g, 4.0), v=ScalarField.full(g, 1.0))
        dt = stability_dt(st, ModelParams(l=2.0, epsilon=0.01), safety=0.4)
        assert dt == pytest.approx(0.4 * 0.01 / (2.0 * 4.0))

    def test_always_positive(self):
        for seed in range(20):
            g = grid2d(6)
            st = random_state(g, seed, lo=1e-3, hi=50.0)
            dt = stability_dt(st, ModelParams(l=3.0, epsilon=0.01))
            assert dt > 0.0 and np.isfinite(dt)


# The np.diff / zeros_like forms the one-pass model replaced, kept as
# references: the current kernels must reproduce them bit for bit.
def reference_coefficients(u, v, l):
    p1, pl = (None, u) if l == 1.0 else (u ** (l - 1.0), u ** (l - 1.0) * u)
    return (v if p1 is None else p1 * v), pl * v


def reference_rhs_arrays(u, v, grid, params, source=None):
    coef_d, coef_t = reference_coefficients(u, v, params.l)

    def face_mean(a, axis):
        lo, hi = _axis_slices(a.ndim, axis)
        a0, a1 = a[lo], a[hi]
        if params.face_mean == "arithmetic":
            return 0.5 * (a0 + a1)
        return 2.0 * a0 * a1 / (a0 + a1)

    du = np.zeros_like(u)
    dv = np.zeros_like(v)
    for axis, ha in enumerate(grid.h):
        gu = np.diff(u, axis=axis) / ha
        gv = np.diff(v, axis=axis) / ha
        flux = face_mean(coef_d, axis) * gu - face_mean(coef_t, axis) * gv
        lo, hi = _axis_slices(u.ndim, axis)
        du[lo] += flux / ha
        du[hi] -= flux / ha
        dv[lo] += gv / ha
        dv[hi] -= gv / ha
    r = u * v
    du += r
    dv -= r
    if source is not None:
        du += source[0]
        dv += source[1]
    return du, dv


def reference_stability_dt(state, params, safety=0.4):
    v, grid = state.v.values, state.grid
    coef_d, coef_t = reference_coefficients(state.u.values, v, params.l)
    gv_max = 0.0
    for axis, ha in enumerate(grid.h):
        gv_max = max(gv_max, np.abs(np.diff(v, axis=axis)).max() / ha)
    dmax = max(1.0, float(coef_d.max()), float(coef_t.max()) * gv_max)
    hmin = min(grid.h)
    return safety * hmin * hmin / (2.0 * grid.dim * dmax)


class TestReferenceEquivalence:
    @pytest.mark.parametrize("l", [1.0, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("mean", ["arithmetic", "harmonic"])
    @pytest.mark.parametrize("make_grid", [lambda: grid1d(37, L=3.0),
                                           lambda: Grid(Domain((2.0, 1.5)),
                                                        (11, 9))])
    def test_bit_identical(self, l, mean, make_grid):
        g = make_grid()
        params = ModelParams(l=l, epsilon=0.01, face_mean=mean)
        rng = np.random.default_rng(7)
        source = (rng.normal(size=g.shape), rng.normal(size=g.shape))
        for seed in range(3):
            st = random_state(g, seed, lo=0.01, hi=4.0)
            u, v = st.u.values, st.v.values
            for src in (None, source):
                du, dv = rhs_arrays(u, v, g, params, src)
                ru, rv = reference_rhs_arrays(u, v, g, params, src)
                assert np.array_equal(du, ru) and np.array_equal(dv, rv)
            for safety in (0.4, 1.0):
                assert (stability_dt(st, params, safety)
                        == reference_stability_dt(st, params, safety))
