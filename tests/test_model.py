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
    stability_dt,
)
from taxisim.grid import GridBatch, _axis_slices
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


    @pytest.mark.parametrize("which, bad, cell", [
        ("u0", np.nan, 2), ("u0", np.inf, 4), ("v0", np.inf, 6),
        ("v0", np.nan, 1)])
    def test_rejects_non_finite(self, which, bad, cell):
        g = grid1d(8)
        vals = np.ones(8)
        vals[cell] = bad
        fields = dict.fromkeys(("u0", "v0"), ScalarField.full(g, 1.0))
        fields[which] = ScalarField(g, vals)
        with pytest.raises(InvalidInitialData,
                           match=rf"^{which} non-finite at cell \({cell},\)"):
            regularize_initial(fields["u0"], fields["v0"],
                               ModelParams(l=2.0, epsilon=0.01))


class TestParams:
    def test_rejects_small_l(self):
        with pytest.raises(ValueError):
            ModelParams(l=0.5, epsilon=0.1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            ModelParams(l=2.0, epsilon=1.5)

    def test_rejects_bad_mean(self):
        # no field selects a face mean: the step has the arithmetic one only
        with pytest.raises(TypeError, match="face_mean"):
            ModelParams(l=2.0, epsilon=0.1, face_mean="geometric")

    @pytest.mark.parametrize("b", [np.nan, np.inf])
    def test_rejects_non_finite_b(self, b):
        with pytest.raises(ValueError, match="b must be positive and finite"):
            ModelParams(l=2.0, epsilon=0.1, b=b)


class TestRhs:
    def test_constants(self):
        g = grid2d(8)
        st = State(u=ScalarField.full(g, 2.0), v=ScalarField.full(g, 3.0))
        (du, dv), _ = rhs_arrays(st.u.values, st.v.values, g,
                            ModelParams(l=2.0, epsilon=0.01))
        np.testing.assert_allclose(du, 6.0, atol=1e-14)
        np.testing.assert_allclose(dv, -6.0, atol=1e-14)

    def test_gaussian_bump_against_loop_stencil(self):
        # v constant kills the taxis flux; compare the degenerate diffusion
        # against a brute-force ghost-cell loop
        g = grid1d(24)
        x = g.centers(0)
        u = 1.0 + np.exp(-((x - 0.5) ** 2) / 0.02)
        st = State(u=ScalarField(g, u), v=ScalarField.full(g, 1.0))
        params = ModelParams(l=2.0, epsilon=0.01)
        (du, dv), _ = rhs_arrays(st.u.values, st.v.values, g, params)

        h = g.h[0]
        n = g.shape[0]
        ghost = np.concatenate(([u[0]], u, [u[-1]]))  # mirror ghosts
        expected = np.zeros(n)
        for i in range(n):
            uc, ul, ur = ghost[i + 1], ghost[i], ghost[i + 2]
            flux_r = 0.0 if i == n - 1 else 0.5 * (uc + ur) * (ur - uc) / h
            flux_l = 0.0 if i == 0 else 0.5 * (ul + uc) * (uc - ul) / h
            expected[i] = (flux_r - flux_l) / h + uc
        np.testing.assert_allclose(du, expected, atol=1e-12)
        np.testing.assert_allclose(dv, -u, atol=1e-12)

    def test_mass_neutral(self):
        params = ModelParams(l=2.5, epsilon=0.01)
        for seed in range(100):
            g = grid2d(7) if seed % 2 else grid1d(13)
            st = random_state(g, seed)
            (du, dv), _ = rhs_arrays(st.u.values, st.v.values, g, params)
            total = integrate(ScalarField(g, du + dv))
            assert abs(total) < 1e-12

    def test_l1_v1_reduces_to_heat_plus_growth(self):
        g = grid1d(20)
        st = random_state(g, 3)
        st = State(u=st.u, v=ScalarField.full(g, 1.0))
        (du, _), _ = rhs_arrays(st.u.values, st.v.values, g,
                           ModelParams(l=1.0, epsilon=0.01))
        expected = laplacian(st.u).values + st.u.values
        np.testing.assert_allclose(du, expected, atol=1e-12)

    def test_taxis_vanishes_for_flat_v(self):
        # flat v, l = 1: taxis flux is gone and du collapses to c*(lap u + u)
        g = grid1d(20)
        st = random_state(g, 5)
        stf = State(u=st.u, v=ScalarField.full(g, 2.0))
        (du, _), _ = rhs_arrays(stf.u.values, stf.v.values, g,
                           ModelParams(l=1.0, epsilon=0.01))
        expected = 2.0 * (laplacian(st.u).values + st.u.values)
        np.testing.assert_allclose(du, expected, atol=1e-12)

    def test_transpose_symmetry_2d(self):
        g = grid2d(10)
        st = random_state(g, 9)
        params = ModelParams(l=2.0, epsilon=0.01)
        (du, dv), _ = rhs_arrays(st.u.values, st.v.values, g, params)
        st_t = State(u=ScalarField(g, st.u.values.T),
                     v=ScalarField(g, st.v.values.T))
        (du_t, dv_t), _ = rhs_arrays(st_t.u.values, st_t.v.values, g, params)
        np.testing.assert_allclose(du_t, du.T, atol=1e-12)
        np.testing.assert_allclose(dv_t, dv.T, atol=1e-12)


def cfl_dt(state, params, safety=0.4):
    """The step's dt: `stability_dt` of the maxima `rhs_arrays` returns."""
    _, maxima = rhs_arrays(state.u.values, state.v.values, state.grid, params)
    return stability_dt(state.grid, maxima, safety)


class TestStabilityDt:
    def test_unit_state(self):
        g = grid1d(10)
        st = State(u=ScalarField.full(g, 1.0), v=ScalarField.full(g, 1.0))
        dt = cfl_dt(st, ModelParams(l=2.0, epsilon=0.01), safety=0.4)
        assert dt == pytest.approx(0.4 * 0.01 / 2.0)

    def test_large_u_flat_v(self):
        g = grid1d(10)
        st = State(u=ScalarField.full(g, 4.0), v=ScalarField.full(g, 1.0))
        dt = cfl_dt(st, ModelParams(l=2.0, epsilon=0.01), safety=0.4)
        assert dt == pytest.approx(0.4 * 0.01 / (2.0 * 4.0))

    def test_always_positive(self):
        for seed in range(20):
            g = grid2d(6)
            st = random_state(g, seed, lo=1e-3, hi=50.0)
            dt = cfl_dt(st, ModelParams(l=3.0, epsilon=0.01))
            assert dt > 0.0 and np.isfinite(dt)


class TestWorkArrays:
    @pytest.mark.parametrize("l", [1.0, 2.0])
    @pytest.mark.parametrize("mean", ["arithmetic"])
    @pytest.mark.parametrize("make_grid", [grid1d, grid2d])
    def test_results_outlive_the_next_call(self, l, mean, make_grid):
        g = make_grid()
        params = ModelParams(l=l, epsilon=0.01)
        first, second = random_state(g, 1), random_state(g, 2)
        (du, dv), _ = rhs_arrays(first.u.values, first.v.values, g, params)
        kept = du.copy(), dv.copy()
        (du2, dv2), _ = rhs_arrays(second.u.values, second.v.values, g, params)
        assert np.array_equal(du, kept[0]) and np.array_equal(dv, kept[1])
        assert not np.array_equal(du2, du)

    @pytest.mark.parametrize("l", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("mean", ["arithmetic"])
    @pytest.mark.parametrize("make_grid", [grid1d, grid2d,
                                           lambda: grid1d(37, L=3.0)])
    def test_out_matches_fresh_block(self, l, mean, make_grid):
        g = make_grid()
        params = ModelParams(l=l, epsilon=0.01)
        st = random_state(g, 3)
        source = np.random.default_rng(4).normal(size=(2, *g.shape))
        for src in (None, source):
            fresh, maxima = rhs_arrays(st.u.values, st.v.values, g, params,
                                       src)
            out = np.full((2, *g.shape), np.nan)
            got, got_maxima = rhs_arrays(st.u.values, st.v.values, g, params,
                                         src, out=out)
            assert got is out and got_maxima == maxima
            assert out.tobytes() == fresh.tobytes()


class TestGridBatch:
    """rhs_arrays over grids end to end: each grid's rows and maxima are
    those of its own call, bit for bit."""

    @pytest.mark.parametrize("l", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mean", ["arithmetic"])
    @pytest.mark.parametrize("L, sizes", [(1.0, (16, 32, 2, 8)),
                                          (10.0, (7, 48, 30)),
                                          (1.0, (12, 24, 48))])
    def test_segments_match_their_grids(self, l, mean, L, sizes):
        grids = [grid1d(n, L) for n in sizes]
        batch = GridBatch(grids)
        params = ModelParams(l=l, epsilon=0.01)
        states = [random_state(g, seed) for seed, g in enumerate(grids)]
        u = np.concatenate([st.u.values for st in states])
        v = np.concatenate([st.v.values for st in states])
        source = np.random.default_rng(9).normal(size=(2, batch.num_cells))
        for src in (None, source):
            got, maxima = rhs_arrays(u, v, batch, params, src,
                                     out=batch.work.duv)
            for i, (g, st, a) in enumerate(zip(grids, states, batch.starts)):
                cut = slice(a, a + g.shape[0])
                want, want_maxima = rhs_arrays(
                    st.u.values, st.v.values, g, params,
                    None if src is None else src[:, cut].copy())
                assert got[:, cut].tobytes() == want.tobytes()
                assert tuple(m[i] for m in maxima) == want_maxima
                assert batch.work.uv[cut].tobytes() == (
                    st.u.values * st.v.values).tobytes()

    def test_rejects_mixed_branches_and_2d(self):
        with pytest.raises(ValueError, match="one branch of rhs_scalings"):
            GridBatch([grid1d(16), grid1d(12)])
        with pytest.raises(ValueError, match="1D grids"):
            GridBatch([grid1d(16), grid2d(8)])
        with pytest.raises(ValueError, match="1D grids"):
            GridBatch([])

    def test_layout(self):
        batch = GridBatch([grid1d(16), grid1d(8), grid1d(32)])
        assert batch == GridBatch((grid1d(16), grid1d(8), grid1d(32)))
        assert hash(batch) == hash(GridBatch([grid1d(16), grid1d(8),
                                              grid1d(32)]))
        assert (batch.sizes, batch.starts, batch.shape) == (
            (16, 8, 32), (0, 16, 24), (56,))
        assert batch.work is batch.work


# The np.diff / zeros_like forms the one-pass model replaced, kept as
# references: the current kernels must reproduce them bit for bit.
def reference_coefficients(u, v, l):
    p1, pl = (None, u) if l == 1.0 else (u ** (l - 1.0), u ** (l - 1.0) * u)
    return (v if p1 is None else p1 * v), pl * v


def reference_rhs_arrays(u, v, grid, params, source=None,
                         mean="arithmetic"):
    """The step's (du, dv) in the np.diff form; `mean` "harmonic" gives the
    flux of the harmonic face mean the step no longer has."""
    coef_d, coef_t = reference_coefficients(u, v, params.l)

    def face_mean(a, axis):
        lo, hi = _axis_slices(a.ndim, axis)
        a0, a1 = a[lo], a[hi]
        if mean == "arithmetic":
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


def reference_maxima(state, params):
    """The CFL maxima in the np.diff form: of u^(l-1) v, of u^l v and of
    |face difference of v| / h."""
    v = state.v.values
    coef_d, coef_t = reference_coefficients(state.u.values, v, params.l)
    g = max(np.abs(np.diff(v, axis=axis)).max() / ha
            for axis, ha in enumerate(state.grid.h))
    return coef_d.max(), coef_t.max(), g


def row_ramps(grid):
    """u constant; v rises by 4 along every row and each row starts 0.5 below
    the one before, so in flat order v falls by 4.5 from v[j, -1] to
    v[j + 1, 0], more than across any face."""
    nx, ny = grid.shape
    v = np.linspace(1.0, 5.0, ny) + 0.5 * np.arange(nx, 0, -1)[:, None]
    return State(u=ScalarField.full(grid, 3.0), v=ScalarField(grid, v))


# 1D, then 2D shapes whose flattened last axis has junk faces (every other
# flat face when ny = 2); then a 2D grid whose spacings are powers of two,
# whose faces multiply by 1/h, and run-1d's 1D grid, h = 10/256, which
# divides (see `grid.face_scaling` and `grid.rhs_scalings`); then h = 1,
# h = 2, and a 2D grid with one power-of-two axis, h = 1/8, and one not,
# h = 3/7
BIT_GRIDS = [lambda: grid1d(37, L=3.0),
             lambda: Grid(Domain((2.0, 1.5)), (11, 9)),
             lambda: Grid(Domain((1.5, 2.0)), (9, 11)),
             lambda: Grid(Domain((1.0, 1.0)), (7, 2)),
             lambda: Grid(Domain((1.0, 3.0)), (2, 7)),
             lambda: Grid(Domain((2.0, 0.25)), (16, 8)),
             lambda: grid1d(256, L=10.0),
             lambda: grid1d(12, L=12.0),
             lambda: Grid(Domain((16.0, 24.0)), (8, 12)),
             lambda: Grid(Domain((1.0, 3.0)), (8, 7))]


class TestReferenceEquivalence:
    """rhs_arrays against the np.diff reference: bit for bit with its
    arithmetic face mean.  Against its harmonic one, the v rows, the maxima
    and dt, which no face mean enters, are still those bits, and the u rows
    are not the harmonic flux: the step has no harmonic mean."""

    @pytest.mark.parametrize("l", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("mean", ["arithmetic", "harmonic"])
    @pytest.mark.parametrize("make_grid", BIT_GRIDS)
    def test_bit_identical(self, l, mean, make_grid):
        g = make_grid()
        params = ModelParams(l=l, epsilon=0.01)
        rng = np.random.default_rng(7)
        source = (rng.normal(size=g.shape), rng.normal(size=g.shape))
        states = [random_state(g, seed, lo=0.01, hi=4.0) for seed in range(3)]
        if g.dim == 2:
            states.append(row_ramps(g))
        for st in states:
            u, v = st.u.values, st.v.values
            for src in (None, source):
                with np.errstate(all="raise"):
                    duv, maxima = rhs_arrays(u, v, g, params, src)
                du, dv = duv
                ru, rv = reference_rhs_arrays(u, v, g, params, src, mean)
                assert duv.shape == (2, *g.shape)
                assert maxima == reference_maxima(st, params)
                # tobytes also tells -0.0 from 0.0
                if mean == "arithmetic":
                    assert du.tobytes() == ru.tobytes()
                else:
                    assert not np.allclose(du, ru)
                assert dv.tobytes() == rv.tobytes()
            for safety in (0.4, 1.0):
                with np.errstate(all="raise"):
                    dt = stability_dt(g, maxima, safety)
                assert dt == reference_stability_dt(st, params, safety)
