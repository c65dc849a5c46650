import dataclasses
import functools
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
    run_batch,
    run_until,
    step,
)
import taxisim.model
import taxisim.stepper
from taxisim import mms
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


def on_fresh_grid(state):
    """`state` on a new grid equal to its own, which holds no work arrays
    yet: after `work_arrays.cache_clear()` its steps get a fresh set."""
    g = state.grid
    fresh = Grid(Domain(g.domain.lengths), g.shape)
    return dataclasses.replace(state, u=ScalarField(fresh, state.u.values),
                               v=ScalarField(fresh, state.v.values))


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

    @pytest.mark.parametrize("T", [1e-13, 5e-13])
    def test_within_tolerance_reaches_target(self, monkeypatch, T):
        # 0 < T - t <= 1e-12 max(1, |T|): the input came back at t = 0
        def no_step(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(taxisim.stepper, "step", no_step)
        st = constant_state(grid1d(16))
        calls = []
        out = run_until(st, T, PARAMS, StepControl(), observer=calls.append)
        assert out.t == T and calls == []
        assert out.u is st.u and out.v is st.v
        assert out.cumulative_uv == st.cumulative_uv

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
            st = on_fresh_grid(st)
            run = []
            for _ in range(4):
                st = step(st, PARAMS, ctrl)
                run.append(st)
            alone.append(run)
        work_arrays.cache_clear()
        states = [on_fresh_grid(st) for st in starts]
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
        fresh = full_record(on_fresh_grid(first), PARAMS, (2.0, 4.0))
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
        cleared = step(on_fresh_grid(first), PARAMS, ctrl)
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
    ("2d", "arithmetic", 1.0): "6d83cad0e055c8659d7173df93597b5ea7692ec0857fdf3a850dd29ae5fc8fe4",
    ("2d", "arithmetic", 1.5): "1dcbc5b001a754308591d6b434b2109c6877c2819f36623e553e197108950a34",
    ("2d", "arithmetic", 2.0): "47ff9a8cbca2cc2125af635f651cbfa67ff2abaddfd0e605188e00b4973f12e1",
}
GOLDEN_GRIDS = {"1d": Grid(Domain((10.0,)), (48,)),
                "2d": Grid(Domain((1.0, 1.0)), (16, 16))}


@pytest.mark.parametrize("key", GOLDEN,
                         ids=["-".join(map(str, k)) for k in GOLDEN])
def test_golden_bytes(key):
    name, mean, l = key
    params = ModelParams(l=l, epsilon=0.01)
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


def serial_runs(states, T, params, ctrl, caps, forcing=None):
    """What `run_batch` replaces: each run through `run_until`, its final
    state or its StepFailure."""
    out = []
    for st, cap in zip(states, caps):
        source = forcing(st.grid.centers(0)) if forcing is not None else None
        try:
            out.append(run_until(st, T, params, ctrl, source=source,
                                 dt_max=cap))
        except StepFailure as exc:
            out.append(exc)
    return out


def assert_same_state(a, b):
    assert a.grid == b.grid
    assert a.u.values.tobytes() == b.u.values.tobytes()
    assert a.v.values.tobytes() == b.v.values.tobytes()
    assert (a.t, a.cumulative_uv) == (b.t, b.cumulative_uv)
    assert type(a.t) is type(b.t)
    assert type(a.cumulative_uv) is type(b.cumulative_uv)


def assert_same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, StepFailure):
            assert type(g) is StepFailure and str(g) == str(w)
            assert_same_state(g.state, w.state)
        else:
            assert_same_state(g, w)


# unequal sizes on one rhs_scalings branch each: h a power of two (1/16,
# 1/32, 1/8), and h = 10/n
LAYOUTS = {"pow2": (1.0, (16, 32, 8, 16)), "L10": (10.0, (16, 48, 24))}


class TestRunBatch:
    @pytest.mark.parametrize("with_source", [False, True])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("mean", ["arithmetic"])
    @pytest.mark.parametrize("l", [1.0, 1.5, 2.0, 3.0])
    def test_matches_run_until(self, l, mean, layout, with_source):
        L, sizes = LAYOUTS[layout]
        params = ModelParams(l=l, epsilon=0.01)
        grids = [grid1d(n, L) for n in sizes]
        # the forced runs start from the manufactured pair, as in the study
        states = [State(u=ScalarField(g, mms.exact_u(g.centers(0), 0.0)),
                        v=ScalarField(g, mms.exact_v(g.centers(0), 0.0)))
                  if with_source else random_state(g, seed, 0.5, 1.5)
                  for seed, g in enumerate(grids)]
        states[1] = dataclasses.replace(states[1], t=0.004)
        T = 0.01 if layout == "L10" else 0.005
        caps = [None, 4e-4, 1e-4, None][:len(sizes)]
        forcing = functools.partial(mms.forcing, l) if with_source else None
        want = serial_runs(states, T, params, StepControl(), caps, forcing)
        assert all(type(w) is State for w in want)
        got = run_batch(states, T, params, StepControl(), dt_max=caps,
                        forcing=forcing)
        assert_same_results(got, want)
        assert all(st.t == T for st in got)

    @pytest.mark.parametrize("forcing", [
        None, functools.partial(mms.forcing, 2.0)], ids=["unforced", "forced"])
    def test_one_run_halves_alone(self, forcing):
        # halving_state's CFL step drives v negative; the others', on the
        # same rhs_scalings branch (h = 3/16 and 10/n), do not.  Under the
        # manufactured source, made for the unit interval, every run halves
        # and then fails: each rejected batch step is taken by `step` with
        # that run's own source
        ctrl = StepControl()
        sick = halving_state(7)
        _, maxima = rhs_arrays(sick.u.values, sick.v.values, sick.grid,
                               PARAMS)
        first = step(sick, PARAMS, ctrl)
        assert first.t - sick.t < stability_dt(sick.grid, maxima)
        states = [random_state(grid1d(24, 10.0), 1), sick,
                  random_state(grid1d(48, 10.0), 2)]
        T = 0.3
        want = serial_runs(states, T, PARAMS, ctrl, [None] * 3, forcing)
        assert all(type(w) is (State if forcing is None else StepFailure)
                   for w in want)
        try:
            got = run_batch(states, T, PARAMS, ctrl, forcing=forcing)
        except StepFailure as exc:
            got = exc.results
        assert_same_results(got, want)

    def test_run_within_tolerance_reaches_target(self):
        # a run starting within 1e-12 of T came back with its own t
        T = 0.005
        states = [random_state(grid1d(16), 1), random_state(grid1d(32), 2),
                  random_state(grid1d(16), 3), random_state(grid1d(8), 4)]
        states[2] = dataclasses.replace(states[2], t=T - 5e-13)
        states[3] = dataclasses.replace(states[3], t=T)
        got = run_batch(states, T, PARAMS, StepControl())
        assert [st.t for st in got] == [T] * 4
        assert got[2].u is states[2].u and got[3] is states[3]
        assert_same_results(got[:2], serial_runs(states[:2], T, PARAMS,
                                                 StepControl(), [None] * 2))

    def test_own_source_built_once_per_run(self):
        # in test_one_run_halves_alone[forced]'s shape every batch step is
        # handed to `step`; each run's single-grid source was built anew at
        # every handoff, 61 times for the 3 runs
        builds = []

        def forcing(x, sizes=None):
            if sizes is None:
                builds.append(x.size)
            return mms.forcing(2.0, x, sizes)

        states = [random_state(grid1d(24, 10.0), 1), halving_state(7),
                  random_state(grid1d(48, 10.0), 2)]
        with pytest.raises(StepFailure):
            run_batch(states, 0.3, PARAMS, StepControl(), forcing=forcing)
        assert 0 < len(builds) <= 3
        assert len(builds) == len(set(builds))

    def test_failing_runs_let_the_others_finish(self):
        # run 1 cannot restore positivity without halving, run 2's cap
        # lies below dt_min: the serial loop raises run 1's failure
        ctrl = StepControl(max_halvings=0, dt_min=1e-6)
        states = [random_state(grid1d(24, 10.0), 1), halving_state(7),
                  random_state(grid1d(16, 10.0), 3),
                  random_state(grid1d(48, 10.0), 2)]
        caps = [None, None, 1e-7, 2e-3]
        T = 0.3
        want = serial_runs(states, T, PARAMS, ctrl, caps)
        assert [type(w) for w in want] == [State, StepFailure, StepFailure,
                                           State]
        with pytest.raises(StepFailure) as exc:
            run_batch(states, T, PARAMS, ctrl, dt_max=caps)
        assert exc.value is exc.value.results[1]
        assert_same_results(exc.value.results, want)
        assert "positivity" in str(want[1]) and "dt_min" in str(want[2])

    def test_one_rhs_call_per_batch_step(self, monkeypatch):
        # rhs_arrays once per step of the batch, then per step of the last
        # run; stability_dt once per step of every run; both through the
        # stepper module's names, where the benchmark's tracer finds them
        calls = {"rhs_arrays": 0, "stability_dt": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        states = [random_state(grid1d(n), seed)
                  for seed, n in enumerate((16, 32, 8))]
        T, caps = 0.005, [None, None, 5e-5]
        steps = []
        for st, cap in zip(states, caps):
            seen = []
            run_until(st, T, PARAMS, StepControl(), observer=seen.append,
                      dt_max=cap)
            steps.append(len(seen))
        monkeypatch.setattr(taxisim.stepper, "rhs_arrays",
                            counted("rhs_arrays", rhs_arrays))
        monkeypatch.setattr(taxisim.stepper, "stability_dt",
                            counted("stability_dt", stability_dt))
        run_batch(states, T, PARAMS, StepControl(), dt_max=caps)
        assert len(set(steps)) == 3
        assert calls == {"rhs_arrays": max(steps), "stability_dt": sum(steps)}

    def test_round_robin_builds_one_set_per_grid(self):
        # five grids, one more than work_arrays' cache holds: each grid
        # keeps the set it fetched, so stepping them in turn builds five
        grids = [grid1d(n) for n in (8, 16, 24, 32, 40)]
        states = [random_state(g, seed) for seed, g in enumerate(grids)]
        work_arrays.cache_clear()
        for _ in range(10):
            states = [step(st, PARAMS, StepControl()) for st in states]
        assert work_arrays.cache_info().misses == 5
        assert all(st.grid.work is g.work for st, g in zip(states, grids))

    def test_grids_keep_their_cached_work_arrays(self):
        # the batches' work arrays live outside work_arrays' cache of 4, so
        # the last run's steps find its grid's entry still there
        grids = [grid1d(n) for n in (8, 16, 32, 64)]
        work_arrays.cache_clear()
        for g in grids:
            work_arrays(g)
        misses = work_arrays.cache_info().misses
        states = [random_state(g, seed) for seed, g in enumerate(grids)]
        run_batch(states, 0.002, PARAMS, StepControl())
        info = work_arrays.cache_info()
        assert (info.misses, info.currsize) == (misses, 4)

    def test_finished_single_and_no_runs(self):
        st = random_state(grid1d(16), 0)
        done = dataclasses.replace(st, t=0.01)
        got = run_batch([done, st], 0.01, PARAMS, StepControl())
        assert got[0] is done
        assert_same_state(got[1], run_until(st, 0.01, PARAMS, StepControl()))
        assert run_batch([], 0.01, PARAMS, StepControl()) == []

    @pytest.mark.parametrize("T, caps, match", [
        (math.nan, None, "T must be finite"),
        (0.01, [None], "1 caps for 2 runs"),
        (0.01, [None, 0.0], "dt_max must be positive"),
        (-1.0, None, "lies before state time"),
    ])
    def test_rejects_bad_limits(self, T, caps, match):
        states = [random_state(grid1d(16), 0), random_state(grid1d(8), 1)]
        with pytest.raises(ValueError, match=match):
            run_batch(states, T, PARAMS, StepControl(), dt_max=caps)
