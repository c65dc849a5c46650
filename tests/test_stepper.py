import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from taxisim import (
    Domain,
    Grid,
    ModelParams,
    ScalarField,
    State,
    StepControl,
    StepFailure,
    full_record,
    integrate,
    lp_norm,
    run_until,
    step,
)
import taxisim.model
import taxisim.stepper
from taxisim.grid import work_arrays
from taxisim.inequalities import check_ineq_64, cosine_family
from taxisim.model import rhs_arrays, stability_dt
from taxisim.stepper import _acceptable


def grid1d(n=32, L=1.0):
    return Grid(Domain((L,)), (n,))


def constant_state(grid, u=1.0, v=1.0):
    return State(u=ScalarField.full(grid, u), v=ScalarField.full(grid, v))


def random_state(grid, seed, lo=0.2, hi=2.0):
    rng = np.random.default_rng(seed)
    return State(u=ScalarField(grid, rng.uniform(lo, hi, size=grid.shape)),
                 v=ScalarField(grid, rng.uniform(lo, hi, size=grid.shape)))


PARAMS = ModelParams(l=2.0, epsilon=0.01)


class TestStep:
    def test_constant_explicit(self):
        g = grid1d(10)
        st = constant_state(g)
        new = step(st, PARAMS, StepControl(), dt_max=0.1)
        # CFL cap is 0.002 here, so the step is CFL-limited, not dt_max
        dt = new.t
        np.testing.assert_allclose(new.u.values, 1.0 + dt, atol=1e-14)
        np.testing.assert_allclose(new.v.values, 1.0 - dt, atol=1e-14)
        assert new.cumulative_uv == pytest.approx(dt * 1.0)

    def test_constant_explicit_dt_capped(self):
        g = grid1d(2, L=2.0)  # h = 1 so the CFL bound is large
        st = constant_state(g)
        new = step(st, PARAMS, StepControl(), dt_max=0.1)
        assert new.t == pytest.approx(0.1)
        np.testing.assert_allclose(new.u.values, 1.1, atol=1e-14)
        np.testing.assert_allclose(new.v.values, 0.9, atol=1e-14)
        assert new.cumulative_uv == pytest.approx(0.1 * 2.0)

    def test_explicit_conserves_mass(self):
        for seed in range(20):
            g = grid1d(24)
            st = random_state(g, seed)
            before = integrate(st.u) + integrate(st.v)
            new = step(st, PARAMS, StepControl())
            after = integrate(new.u) + integrate(new.v)
            assert after == pytest.approx(before, rel=1e-12)

    def test_positivity_by_halving(self):
        # u huge, v tiny: the full step drives v negative and must be halved
        g = Grid(Domain((4.0,)), (4,))  # h = 1, CFL dt = 0.2 at Dmax = 1
        st = constant_state(g, u=100.0, v=1e-3)
        params = ModelParams(l=1.0, epsilon=0.01)
        new = step(st, params, StepControl())
        full_dt = 0.4 * 1.0 / 2.0  # = 0.2, and 0.2 * 100 > 1 kills v
        assert new.t < full_dt
        assert new.v.values.min() > 0.0
        assert new.u.values.min() > 0.0

    def test_step_failure_carries_state(self):
        g = Grid(Domain((4.0,)), (4,))
        st = constant_state(g, u=1e9, v=1e-6)
        params = ModelParams(l=1.0, epsilon=0.01)
        with pytest.raises(StepFailure) as exc_info:
            step(st, params, StepControl(max_halvings=3, dt_min=1e-3))
        assert exc_info.value.state is st


class TestStepControl:
    @pytest.mark.parametrize("kwargs", [
        {"dt_min": math.nan}, {"dt_min": 0.0}, {"max_halvings": 2.5},
        {"max_halvings": True}, {"max_halvings": -1}, {"safety": math.nan}])
    def test_rejects(self, kwargs):
        (key,) = kwargs
        with pytest.raises(ValueError, match=f"^{key} must"):
            StepControl(**kwargs)

    def test_accepts_numpy_integer(self):
        assert StepControl(max_halvings=np.int64(3)).max_halvings == 3


class TestRunUntil:
    @pytest.mark.parametrize("T, dt_max, key", [
        (math.nan, None, "T"), (math.inf, None, "T"), (-math.inf, None, "T"),
        (0.5, math.nan, "dt_max"), (0.5, 0.0, "dt_max"),
        (0.5, -1e-3, "dt_max")])
    def test_rejects_bad_limits_before_any_step(self, monkeypatch, T, dt_max,
                                                key):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(taxisim.stepper, "step", no_step)
        st = constant_state(grid1d(8))
        with pytest.raises(ValueError, match=f"^{key} must"):
            run_until(st, T, PARAMS, StepControl(), dt_max=dt_max)

    def test_noop_at_target(self):
        g = grid1d(8)
        st = constant_state(g)
        calls = []
        out = run_until(st, 0.0, PARAMS, StepControl(),
                        observer=calls.append)
        assert out is st
        assert calls == []

    def test_rejects_past_target(self):
        g = grid1d(8)
        st = State(u=ScalarField.full(g, 1.0), v=ScalarField.full(g, 1.0),
                   t=1.0)
        with pytest.raises(ValueError):
            run_until(st, 0.5, PARAMS, StepControl())

    def test_hits_target_exactly(self):
        g = grid1d(16)
        st = constant_state(g)
        out = run_until(st, 0.0123, PARAMS, StepControl())
        assert out.t == 0.0123

    def test_conservation(self):
        g = grid1d(32)
        st = constant_state(g)
        out = run_until(st, 0.01, PARAMS, StepControl())
        total = integrate(out.u) + integrate(out.v)
        assert total == pytest.approx(2.0, rel=1e-12)

    def test_logistic_ode_oracle(self):
        # constants stay constant in space, so (u, v) follows u' = uv,
        # v' = -uv with u + v = 2; u(T) = 2/(1 + e^(-2T))
        g = grid1d(100)
        st = constant_state(g)
        out = run_until(st, 1.0, PARAMS, StepControl())
        exact = 2.0 / (1.0 + math.exp(-2.0))
        assert out.u.values[0] == pytest.approx(exact, abs=1e-3)
        assert out.v.values[0] == pytest.approx(2.0 - exact, abs=1e-3)

    def test_observer_sees_every_step(self):
        g = grid1d(16)
        st = constant_state(g)
        times = []
        out = run_until(st, 0.005, PARAMS, StepControl(),
                        observer=lambda s: times.append(s.t))
        assert times[-1] == out.t == 0.005
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_sup_v_nonincreasing_and_mass_u_nondecreasing(self):
        g = grid1d(32)
        rng = np.random.default_rng(5)
        st = State(u=ScalarField(g, rng.uniform(0.5, 2.0, 32)),
                   v=ScalarField(g, rng.uniform(0.5, 2.0, 32)))
        sups, masses, infs = [], [], []

        def obs(s):
            sups.append(s.v.values.max())
            infs.append(s.v.values.min())
            masses.append(integrate(s.u))

        run_until(st, 0.05, PARAMS, StepControl(), observer=obs)
        for a, b in zip(sups, sups[1:]):
            assert b <= a + 1e-12
        for a, b in zip(masses, masses[1:]):
            assert b >= a - 1e-12
        assert min(infs) > 0.0

    def test_consumption_budget(self):
        g = grid1d(32)
        st = constant_state(g, u=2.0, v=1.5)
        out = run_until(st, 2.0, PARAMS, StepControl())
        assert out.cumulative_uv <= 1.5 + 1e-10
        # the budget identity: consumed mass equals lost v mass
        assert out.cumulative_uv == pytest.approx(1.5 - integrate(out.v),
                                                  abs=1e-10)

    def test_comparison_lower_bound(self):
        g = grid1d(32)
        rng = np.random.default_rng(17)
        st = State(u=ScalarField(g, rng.uniform(0.5, 2.0, 32)),
                   v=ScalarField(g, rng.uniform(0.5, 2.0, 32)))
        min_v0 = st.v.values.min()
        c1 = [0.0]

        def obs(s):
            c1[0] = max(c1[0], s.u.values.max())

        out = run_until(st, 0.5, PARAMS, StepControl(), observer=obs)
        bound = min_v0 * math.exp(-c1[0] * 0.5) - 1e-6
        assert out.v.values.min() >= bound


def reference_step(state, params, ctrl, dt_max=None):
    """The step loop before the one-pass rewrite: isfinite-based acceptance
    and the consumption sum re-taken on every halving."""
    grid = state.grid
    u, v = state.u.values, state.v.values
    (du, dv), maxima = rhs_arrays(u, v, grid, params)
    dt = stability_dt(grid, maxima, ctrl.safety)
    if dt_max is not None:
        dt = min(dt, dt_max)
    for _ in range(ctrl.max_halvings + 1):
        un = u + dt * du
        vn = v + dt * dv
        consumed = dt * float(np.sum(u * v)) * grid.cell_volume
        if (np.isfinite(un).all() and un.min() > 0.0
                and np.isfinite(vn).all() and vn.min() > 0.0):
            return un, vn, state.t + dt, state.cumulative_uv + consumed
        dt *= 0.5
    raise AssertionError("reference step did not accept")


def halving_state(seed, grid=Grid(Domain((3.0,)), (16,))):
    # u large, v small: the CFL step drives v negative and must be halved;
    # the default cell volume 3/16 rounds products
    rng = np.random.default_rng(seed)
    return State(u=ScalarField(grid, rng.uniform(50.0, 150.0, grid.shape)),
                 v=ScalarField(grid, rng.uniform(5e-4, 2e-3, grid.shape)),
                 t=0.25)


def halving_state_2d(seed):
    return halving_state(seed, Grid(Domain((3.0, 1.25)), (7, 5)))


class TestOnePassStep:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0,
                                     -1.0, 5e-324, 1e-300, 1.0])
    def test_acceptable_matches_isfinite_form(self, bad):
        # fields, and the step's (u, v) blocks with the bad value in v only
        for shape in ((5,), (3, 4), (2, 5), (2, 3, 4)):
            a = np.full(shape, 2.0)
            cells = a[1] if shape[0] == 2 else a
            cells.flat[cells.size // 2] = bad
            expected = bool(np.isfinite(a).all() and a.min() > 0.0)
            assert _acceptable(a) is expected

    @pytest.mark.parametrize("l", [1.0, 2.0])
    def test_forced_halving_matches_reference(self, l):
        params = ModelParams(l=l, epsilon=0.01)
        ctrl = StepControl()
        for make_state in (halving_state, halving_state_2d):
            for seed in range(6):
                st = make_state(seed)
                new = step(st, params, ctrl)
                un, vn, t, cum = reference_step(st, params, ctrl)
                _, maxima = rhs_arrays(st.u.values, st.v.values, st.grid,
                                       params)
                assert new.t - st.t < stability_dt(st.grid, maxima,
                                                   ctrl.safety)
                assert np.array_equal(new.u.values, un)
                assert np.array_equal(new.v.values, vn)
                assert new.t == t and new.cumulative_uv == cum

    @pytest.mark.parametrize("make_state", [
        halving_state, halving_state_2d,
        lambda seed: random_state(Grid(Domain((1.0, 1.0)), (9, 7)), seed)])
    def test_one_coefficient_pass(self, monkeypatch, make_state):
        # rhs_arrays forms the coefficients and hands their maxima to
        # stability_dt; halving reuses them
        calls = []
        coefficients = taxisim.model._coefficients

        def counted(*args):
            calls.append(args)
            return coefficients(*args)

        monkeypatch.setattr(taxisim.model, "_coefficients", counted)
        for seed in range(3):
            calls.clear()
            step(make_state(seed), PARAMS, StepControl())
            assert len(calls) == 1


class TestWorkArrays:
    def test_interleaved_grids_of_one_shape(self):
        # equal shapes, different spacings: the work arrays must not carry
        # one grid's h into the other's step
        grids = [Grid(Domain((1.0, 1.0)), (9, 7)),
                 Grid(Domain((3.0, 0.5)), (9, 7))]
        starts = [random_state(g, seed) for seed, g in enumerate(grids)]
        ctrl = StepControl()
        alone = []
        for st in starts:
            work_arrays.cache_clear()
            run = []
            for _ in range(4):
                st = step(st, PARAMS, ctrl)
                run.append(st)
            alone.append(run)
        work_arrays.cache_clear()
        states = list(starts)
        for k in range(4):
            for i, ref in enumerate(alone):
                states[i] = step(states[i], PARAMS, ctrl)
                assert np.array_equal(states[i].u.values, ref[k].u.values)
                assert np.array_equal(states[i].v.values, ref[k].v.values)
                assert states[i].t == ref[k].t
                assert states[i].cumulative_uv == ref[k].cumulative_uv

    @pytest.mark.parametrize("shape", [(40,), (9, 7)])
    def test_record_between_steps_changes_nothing(self, shape):
        # the record borrows the step's work arrays; neither may see the
        # other's leftovers
        g = Grid(Domain((1.0,) * len(shape)), shape)
        ctrl = StepControl()
        first = step(random_state(g, 3), PARAMS, ctrl)
        work_arrays.cache_clear()
        fresh = full_record(first, PARAMS, (2.0, 4.0))
        plain = step(first, PARAMS, ctrl)
        rec = full_record(first, PARAMS, (2.0, 4.0))
        after = step(first, PARAMS, ctrl)
        assert rec == fresh
        assert np.array_equal(after.u.values, plain.u.values)
        assert np.array_equal(after.v.values, plain.v.values)
        assert (after.t, after.cumulative_uv) == (plain.t, plain.cumulative_uv)

    @pytest.mark.parametrize("shape", [(40,), (9, 7)])
    def test_flux_block_margins_stay_zero(self, shape):
        # the step takes each cell's net flux as an axis's flux block less
        # itself shifted by the stride, so the margins must stay 0.0 through
        # records, cosine families and inequality checks on the same grid
        g = Grid(Domain((1.0,) * len(shape)), shape)
        ctrl = StepControl()
        first = step(random_state(g, 4), PARAMS, ctrl)
        full_record(first, PARAMS, (2.0, 4.0))
        (phi, psi), = cosine_family(g, 1, seed=5)
        check_ineq_64(phi, psi, 2.0, [0.5, 1.0])
        work, n = work_arrays(g), g.num_cells
        for (_, _, hi, *_), (_, up, down) in zip(work.axes, work.flux):
            s = hi.start
            margins = np.concatenate([down[:s], down[n:n + s], up[-s:]])
            assert margins.tobytes() == bytes(margins.nbytes)  # +0.0 each
        after = step(first, PARAMS, ctrl)
        work_arrays.cache_clear()
        cleared = step(first, PARAMS, ctrl)
        assert after.u.values.tobytes() == cleared.u.values.tobytes()
        assert after.v.values.tobytes() == cleared.v.values.tobytes()
        assert (after.t, after.cumulative_uv) == (cleared.t,
                                                  cleared.cumulative_uv)

    @pytest.mark.parametrize("kernel, bound", [("rhs_arrays", 2.25),
                                               ("stability_dt", 0.25),
                                               ("step", 4.25)])
    def test_allocation_bound(self, kernel, bound):
        # rhs_arrays allocates the (du, dv) block, step also the new (u, v)
        # block, stability_dt no field: face passes and u*v live in the work
        # arrays, and no ufunc sees a strided axis-1 slice, which numpy
        # would copy
        g = Grid(Domain((2.0, 2.0)), (64, 64))
        ctrl = StepControl()
        st = step(random_state(g, 5), PARAMS, ctrl)  # allocates the work arrays
        _, maxima = rhs_arrays(st.u.values, st.v.values, g, PARAMS)
        calls = {
            "rhs_arrays": lambda: rhs_arrays(st.u.values, st.v.values, g,
                                             PARAMS),
            "stability_dt": lambda: stability_dt(g, maxima),
            "step": lambda: step(st, PARAMS, ctrl),
        }
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            calls[kernel]()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - start) / (8 * g.num_cells) <= bound

    def test_step_allocates_only_the_new_block(self):
        # (du, dv) lives in the work arrays: an accepted step allocates the
        # new (u, v) block and nothing field-sized besides
        g = Grid(Domain((2.0, 2.0)), (64, 64))
        ctrl = StepControl()
        st = step(random_state(g, 5), PARAMS, ctrl)  # allocates the work arrays
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            step(st, PARAMS, ctrl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - start) / (8 * g.num_cells) <= 2.25


def golden_state(grid):
    """Smooth positive data from + - * / alone, so its bytes, and those of
    every step from it, are the same on every IEEE-754 platform."""
    x = grid.centers(0) / grid.domain.lengths[0]
    u, v = 1.0 + 4.0 * x * (1.0 - x), 0.5 + x * x
    if grid.dim == 2:
        y = grid.centers(1) / grid.domain.lengths[1]
        u = u[:, None] * (1.5 - y)
        v = v[:, None] + 0.25 * y
    return State(u=ScalarField(grid, u), v=ScalarField(grid, v))


# sha256 of u then v after 40 steps, recorded at ebdef4d: 1D h = 10/48
# divides, 2D h = 1/16 multiplies (see `grid.rhs_scalings`)
GOLDEN = {
    ("1d", "arithmetic", 1.0): "8bb268df7bf460663934aa677d3b1614bd24c079ecf844609f34dde031cfa5a6",
    ("1d", "arithmetic", 1.5): "f9328400d6b0443c80c5670f6618cd9762842d4e7c3ee2741e62f7c83c519af1",
    ("1d", "arithmetic", 2.0): "0707dad6a536931be48f4615d7aad7e783355d8f71b62bac047e425d96b11d9f",
    ("1d", "harmonic", 1.0): "6196da41d70309dc58ba3ea392207f374245a6ed974fecad6090c0a3b2ec247f",
    ("1d", "harmonic", 1.5): "08ecfffe3eef13fa4626d29ec1c98fa68aeb4d14aed27839bb2d91bcdc55d1fd",
    ("1d", "harmonic", 2.0): "7068fc6885b8d09ba551198a60913f22ac3ae2bd54e31a4f42323b3ec750724e",
    ("2d", "arithmetic", 1.0): "6d83cad0e055c8659d7173df93597b5ea7692ec0857fdf3a850dd29ae5fc8fe4",
    ("2d", "arithmetic", 1.5): "1dcbc5b001a754308591d6b434b2109c6877c2819f36623e553e197108950a34",
    ("2d", "arithmetic", 2.0): "47ff9a8cbca2cc2125af635f651cbfa67ff2abaddfd0e605188e00b4973f12e1",
    ("2d", "harmonic", 1.0): "7ff8517f0f1bf295cb132fcde3af66b2671e1fcf78c906fa9667f253e1ef5858",
    ("2d", "harmonic", 1.5): "56d1c53f6caf09ffae035369f84560c88c1208b73cd0712809d0a1ffceb5190d",
    ("2d", "harmonic", 2.0): "f4fd5f0e06e29e8a7f11c9a9680c3da67933c8ccb856d4371672afefc7390f88",
}
GOLDEN_GRIDS = {"1d": Grid(Domain((10.0,)), (48,)),
                "2d": Grid(Domain((1.0, 1.0)), (16, 16))}


@pytest.mark.parametrize("key", GOLDEN,
                         ids=["-".join(map(str, k)) for k in GOLDEN])
def test_golden_bytes(key):
    name, mean, l = key
    params = ModelParams(l=l, epsilon=0.01, face_mean=mean)
    st = golden_state(GOLDEN_GRIDS[name])
    for _ in range(40):
        st = step(st, params, StepControl())
    got = hashlib.sha256(st.u.values.tobytes() + st.v.values.tobytes())
    assert got.hexdigest() == GOLDEN[key]


class TestTracingContract:
    """Benchmark tracing wraps `stepper.stability_dt` and `stepper.rhs_arrays`
    and reads each halving from dt; `step` must call both exactly once,
    through the stepper module's names, and accept min(CFL, dt_max) / 2**k."""

    @pytest.mark.parametrize("dt_max", [None, 0.007, 1e-9])
    def test_one_call_each_and_halved_dt(self, monkeypatch, dt_max):
        calls = {"stability_dt": [], "rhs_arrays": 0}

        def counted_dt(*args, **kwargs):
            dt = stability_dt(*args, **kwargs)
            calls["stability_dt"].append(dt)
            return dt

        def counted_rhs(*args, **kwargs):
            calls["rhs_arrays"] += 1
            return rhs_arrays(*args, **kwargs)

        monkeypatch.setattr(taxisim.stepper, "stability_dt", counted_dt)
        monkeypatch.setattr(taxisim.stepper, "rhs_arrays", counted_rhs)
        params = ModelParams(l=1.0, epsilon=0.01)
        halvings = []
        st = halving_state(4)
        for n in range(1, 6):
            # from t = 0 the new clock is the accepted dt, with no rounding
            new = step(dataclasses.replace(st, t=0.0), params, StepControl(),
                       dt_max=dt_max)
            assert len(calls["stability_dt"]) == calls["rhs_arrays"] == n
            start = calls["stability_dt"][-1]
            if dt_max is not None:
                start = min(start, dt_max)
            k = round(math.log2(start / new.t))
            assert k >= 0 and new.t == start / 2 ** k
            halvings.append(k)
            st = new
        if dt_max != 1e-9:
            assert max(halvings) > 0  # the halving path was exercised
