"""Acceptance gate: ten desk-scale property checks of the solver and its
diagnostic laboratory.  Each test prints one PASS/FAIL line straight to the
terminal (bypassing capture) so the gate is readable from any pytest run.

Domain lengths are chosen per scenario to keep explicit CFL-bound runs within
the stated per-criterion runtime budgets; the properties themselves are
length-independent.
"""
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
    check_ineq_61,
    check_ineq_64,
    cosine_family,
    fit_constant,
    integrate,
    lp_norm,
    parse_config,
    regularize_initial,
    run_until,
)
from taxisim.diagnostics import full_record, weighted_gradient
from taxisim.experiments import epsilon_continuation, refinement_study
from taxisim.presets import make_initial

pytestmark = pytest.mark.acceptance

# tolerances, pinned once
CONSERVATION_RTOL = 1e-10
STEP_MONOTONE_TOL = 1e-12
BUDGET_TOL = 1e-10
COMPARISON_TOL = 1e-6
# running maxima of strictly increasing norms can never be attained exactly
# before T/2; this is the relative slack accepted as "plateau"
PLATEAU_RTOL = 2e-3
EPS_FACTOR_MAX = 10.0
WINDOW_GROWTH_MAX = 0.05
SPATIAL_ORDER_RANGE = (1.8, 2.2)
TEMPORAL_ORDER_RANGE = (0.8, 1.2)
ORACLE_TOL = 1e-3
FIT_AGREEMENT = 0.2


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\ncriterion {num:2d} [{tag}] {name}{suffix}")
    assert ok, f"criterion {num}: {name}: {detail}"


class TrajectoryStats:
    """Streaming per-step monotonicity and positivity bookkeeping."""

    def __init__(self, state):
        self.total0 = integrate(state.u) + integrate(state.v)
        self.mass_v0 = integrate(state.v)
        self.min_v0 = float(state.v.values.min())
        self.prev_mass_u = integrate(state.u)
        self.prev_sup_v = float(state.v.values.max())
        self.max_conservation_err = 0.0
        self.worst_mass_u_drop = 0.0
        self.worst_sup_v_rise = 0.0
        self.min_u = float(state.u.values.min())
        self.min_v = float(state.v.values.min())
        self.max_sup_u = float(state.u.values.max())
        self.steps = 0

    def __call__(self, state):
        mass_u = integrate(state.u)
        total = mass_u + integrate(state.v)
        self.max_conservation_err = max(
            self.max_conservation_err, abs(total - self.total0) / self.total0)
        self.worst_mass_u_drop = max(self.worst_mass_u_drop,
                                     self.prev_mass_u - mass_u)
        sup_v = float(state.v.values.max())
        self.worst_sup_v_rise = max(self.worst_sup_v_rise,
                                    sup_v - self.prev_sup_v)
        self.prev_mass_u = mass_u
        self.prev_sup_v = sup_v
        self.min_u = min(self.min_u, float(state.u.values.min()))
        self.min_v = min(self.min_v, float(state.v.values.min()))
        self.max_sup_u = max(self.max_sup_u, float(state.u.values.max()))
        self.steps += 1


@pytest.fixture(scope="module")
def base_runs():
    """Shared gaussian-colony runs for criteria 1-4: 1D n=256 and 2D 64^2,
    l in {1, 2, 3}, T = 5, explicit scheme."""
    out = {}
    for dim in (1, 2):
        if dim == 1:
            grid = Grid(Domain((8.0,)), (256,))
            preset = {"amplitude": 2.0, "width": 0.5, "v": 1.0, "center": None}
        else:
            grid = Grid(Domain((2.0, 2.0)), (64, 64))
            preset = {"amplitude": 2.0, "width": 0.3, "v": 1.0, "center": None}
        for l in (1.0, 2.0, 3.0):
            params = ModelParams(l=l, epsilon=0.01)
            u0, v0 = make_initial("gaussian_colony", grid, preset)
            state = regularize_initial(u0, v0, params)
            stats = TrajectoryStats(state)
            final = run_until(state, 5.0, params, StepControl(),
                              observer=stats)
            out[(dim, l)] = (stats, final)
    return out


def test_criterion_01_conservation(base_runs, capsys):
    worst_cons = max(s.max_conservation_err for s, _ in base_runs.values())
    worst_drop = max(s.worst_mass_u_drop for s, _ in base_runs.values())
    ok = worst_cons <= CONSERVATION_RTOL and worst_drop <= STEP_MONOTONE_TOL
    report(capsys, 1, "mass conservation and nondecreasing bacterial mass",
           ok, f"max rel drift {worst_cons:.2e}, "
               f"worst mass_u drop {worst_drop:.2e}")


def test_criterion_02_max_principle_positivity(base_runs, capsys):
    worst_rise = max(s.worst_sup_v_rise for s, _ in base_runs.values())
    min_u = min(s.min_u for s, _ in base_runs.values())
    min_v = min(s.min_v for s, _ in base_runs.values())
    ok = worst_rise <= STEP_MONOTONE_TOL and min_u > 0.0 and min_v > 0.0
    report(capsys, 2, "sup v nonincreasing, u and v strictly positive", ok,
           f"worst sup_v rise {worst_rise:.2e}, min u {min_u:.2e}, "
           f"min v {min_v:.2e}")


def test_criterion_03_consumption_budget(base_runs, capsys):
    worst = max(final.cumulative_uv - stats.mass_v0
                for stats, final in base_runs.values())
    ok = worst <= BUDGET_TOL
    report(capsys, 3, "cumulative consumption within the initial v budget",
           ok, f"worst excess {worst:.2e}")


def test_criterion_04_comparison_lower_bound(base_runs, capsys):
    worst = math.inf
    for stats, final in base_runs.values():
        bound = stats.min_v0 * math.exp(-stats.max_sup_u * 5.0)
        worst = min(worst, float(final.v.values.min()) - bound)
    ok = worst >= -COMPARISON_TOL
    report(capsys, 4, "pointwise exponential lower bound on v", ok,
           f"worst margin {worst:.2e}")


@pytest.fixture(scope="module")
def functional_bound_runs():
    """Criterion 5 runs: 2D 64^2 gaussian colony, T = 10, sampled at 0.1."""

    def run(l, eps):
        grid = Grid(Domain((2.0, 2.0)), (64, 64))
        params = ModelParams(l=l, epsilon=eps)
        u0, v0 = make_initial("gaussian_colony", grid,
                              {"amplitude": 4.0, "width": 0.3, "v": 1.0,
                               "center": None})
        state = regularize_initial(u0, v0, params)
        times, f4s, l2s, l4s = [], [], [], []
        for k in range(1, 101):
            state = run_until(state, 0.1 * k, params, StepControl())
            rec = full_record(state, params, (2.0, 4.0))
            times.append(rec.t)
            f4s.append(rec.weighted_q[(4.0, 3.0)])
            l2s.append(rec.lp_u[2.0])
            l4s.append(rec.lp_u[4.0])
        times = np.asarray(times)
        out = {}
        for name, arr in (("f4", f4s), ("l2", l2s), ("l4", l4s)):
            arr = np.asarray(arr)
            sup = float(arr.max())
            sup_half = float(arr[times <= 5.0 + 1e-9].max())
            out[name] = (sup, 1.0 - sup_half / sup)
        return out

    runs = {}
    for l in (1.5, 2.0, 2.5, 3.0):
        runs[("l", l)] = run(l, 0.01)
    runs[("eps", 0.01)] = runs[("l", 2.0)]
    for eps in (0.1, 0.001):
        runs[("eps", eps)] = run(2.0, eps)
    return runs


def test_criterion_05_uniform_functional_bounds(functional_bound_runs, capsys):
    runs = functional_bound_runs
    worst_slack = max(slack for data in runs.values()
                      for _, slack in data.values())
    factors = {}
    for name in ("f4", "l2", "l4"):
        sups = [runs[k][name][0] for k in runs if k[0] == "eps"]
        factors[name] = max(sups) / min(sups)
    worst_factor = max(factors.values())
    ok = worst_slack <= PLATEAU_RTOL and worst_factor < EPS_FACTOR_MAX
    report(capsys, 5, "F4 and L2/L4 norms plateau, stable across epsilon",
           ok, f"worst plateau slack {worst_slack:.2e}, "
               f"worst eps factor {worst_factor:.2f}")


def test_criterion_06_long_time_boundedness(capsys):
    worst = -math.inf
    for l in (1.0, 2.0, 4.0):
        grid = Grid(Domain((10.0,)), (256,))
        params = ModelParams(l=l, epsilon=0.01)
        u0, v0 = make_initial("perturbed_front", grid,
                              {"base": 1.0, "noise_amp": 0.05, "v": 1.0},
                              seed=7)
        state = regularize_initial(u0, v0, params)
        times, sups = [], []

        def obs(s):
            times.append(s.t)
            sups.append(float(s.u.values.max()))

        run_until(state, 100.0, params, StepControl(), observer=obs)
        times = np.asarray(times)
        sups = np.asarray(sups)
        early = sups[(times > 25.0) & (times <= 50.0)].max()
        late = sups[(times > 50.0) & (times <= 100.0)].max()
        worst = max(worst, late / early - 1.0)
    ok = worst < WINDOW_GROWTH_MAX
    report(capsys, 6, "sup u stays flat over the late time window", ok,
           f"worst window growth {worst:.2e}")


def test_criterion_07_epsilon_cauchy(tmp_path, capsys):
    cfg = parse_config("""
domain.lx = 2
grid.nx = 256
model.l = 2
model.epsilon = 0.1
time.T = 1
init.preset = gaussian_colony
init.amplitude = 2
init.width = 0.2
diagnostics.sample_interval = 0.5
""")
    epsilon_continuation(cfg, [0.1, 0.05, 0.025, 0.0125], str(tmp_path))
    rows = (tmp_path / "continuation.csv").read_text().strip().split("\n")[1:]
    diffs = [float(r.split(",")[2]) for r in rows]
    ok = all(a > b for a, b in zip(diffs, diffs[1:]))
    report(capsys, 7, "successive epsilon differences strictly decrease", ok,
           "L1 diffs " + ", ".join(f"{d:.3e}" for d in diffs))


def test_criterion_08_manufactured_orders(tmp_path, capsys):
    cfg = parse_config("""
grid.nx = 32
model.l = 2
model.epsilon = 0.01
time.T = 0.02
init.preset = constant
""")
    manifest = refinement_study(cfg, [32, 64, 128, 256], str(tmp_path))
    orders = [o for _, ou, ov in manifest["spatial_orders"]
              for o in (ou, ov)]
    t_orders = manifest["temporal_orders"]
    lo, hi = SPATIAL_ORDER_RANGE
    tlo, thi = TEMPORAL_ORDER_RANGE
    ok = (manifest["residual"] < 1e-10
          and all(lo <= o <= hi for o in orders)
          and all(tlo <= o <= thi for o in t_orders))
    report(capsys, 8, "manufactured-solution convergence orders", ok,
           f"residual {manifest['residual']:.1e}, spatial "
           + "/".join(f"{o:.2f}" for o in orders) + ", temporal "
           + "/".join(f"{o:.2f}" for o in t_orders))


def test_criterion_09_quadrature_oracles(capsys):
    grid = Grid(Domain((1.0,)), (256,))
    x = grid.centers(0)
    lin = ScalarField(grid, 1.0 + x)
    flat = ScalarField.full(grid, 1.0)
    st_u = State(u=lin, v=flat)
    st_v = State(u=flat, v=lin)
    from taxisim import dissipations
    diss_u, _ = dissipations(st_u)
    errs = {
        "log2": abs(diss_u - math.log(2.0)),
        "f4": abs(weighted_gradient(st_v, 4.0, 3.0) - 0.375),
        "f6": abs(weighted_gradient(st_v, 6.0, 5.0) - 0.234375),
    }
    ok = all(e < ORACLE_TOL for e in errs.values())
    report(capsys, 9, "analytic quadrature oracles for the functionals", ok,
           ", ".join(f"{k} err {v:.1e}" for k, v in errs.items()))


def test_criterion_10_inequality_lab(capsys):
    n, count, seed = 64, 100, 11
    pairs = cosine_family(Grid(Domain((1.0,)), (n,)), count, seed)
    pairs2 = cosine_family(Grid(Domain((1.0,)), (2 * n,)), count, seed)

    finite = True
    for phi, psi in pairs:
        for p in (1.0, 2.0):
            finite &= math.isfinite(check_ineq_61(phi, psi, p).ratio)
            finite &= math.isfinite(check_ineq_64(phi, psi, p, 1.0).ratio)

    g = Grid(Domain((1.0,)), (16,))
    const_ratio = check_ineq_61(ScalarField.full(g, 2.0),
                                ScalarField.full(g, 3.0), 2.0).ratio
    exact = abs(const_ratio - 1.0) < 1e-12

    worst_dev = 0.0
    for p in (1.0, 2.0):
        for check, extra in ((check_ineq_61, {}),
                             (check_ineq_64, {"eta": 1.0})):
            c1 = fit_constant(pairs, check, p=p, **extra)
            c2 = fit_constant(pairs2, check, p=p, **extra)
            worst_dev = max(worst_dev, abs(c2 - c1) / c1)
    ok = finite and exact and worst_dev < FIT_AGREEMENT
    report(capsys, 10, "inequality ratios finite, exact on constants, "
           "grid-robust", ok,
           f"constant-pair ratio dev {abs(const_ratio - 1.0):.1e}, "
           f"worst fit deviation {worst_dev:.1%}")
