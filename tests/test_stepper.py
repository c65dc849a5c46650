import math

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
    integrate,
    lp_norm,
    run_until,
    step,
)


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


class TestRunUntil:
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
