import math
import tracemalloc

import numpy as np
import pytest

from taxisim import (
    Domain,
    Grid,
    ModelParams,
    PositivityViolation,
    ScalarField,
    State,
    StepControl,
    dissipations,
    energy_G,
    full_record,
    integrate,
    lp_norm,
    run_until,
    step,
    weighted_gradient,
)
from taxisim.diagnostics import (
    DEFAULT_Q_ALPHA,
    FunctionalRecord,
    _check_columns,
    _dissipation_faces,
    _fmt_param,
    _power,
    _quotient_faces,
    energy_case,
    record_columns,
    record_row,
    write_series,
    write_series_header,
)
from taxisim.grid import (
    FACE_BUFFERS,
    _axis_slices,
    face_quadrature,
    face_sums,
    work_arrays,
)
from test_model import BIT_GRIDS, random_state, row_ramps


def grid1d(n=32, L=1.0):
    return Grid(Domain((L,)), (n,))


def linear_state(n, slope_u=0.0, slope_v=0.0, base_u=1.0, base_v=1.0):
    g = grid1d(n)
    x = g.centers(0)
    return State(u=ScalarField(g, base_u + slope_u * x),
                 v=ScalarField(g, base_v + slope_v * x))


PARAMS = ModelParams(l=2.0, epsilon=0.01)


class TestDissipations:
    def test_constants_are_zero(self):
        st = linear_state(16)
        du, dv = dissipations(st)
        assert du == 0.0 and dv == 0.0

    def test_log_oracle(self):
        # u = 1+x, v = 1: int u_x^2 / u = log 2
        errs = []
        for n in (64, 256):
            st = linear_state(n, slope_u=1.0)
            du, dv = dissipations(st)
            assert dv == 0.0
            errs.append(abs(du - math.log(2.0)))
        assert errs[1] < 1e-3
        assert errs[0] / errs[1] > 3.0  # second order in h

    def test_symmetry(self):
        # swapping u and v swaps the two dissipation integrals
        g = grid1d(24)
        rng = np.random.default_rng(3)
        u = ScalarField(g, rng.uniform(0.5, 2.0, 24))
        v = ScalarField(g, rng.uniform(0.5, 2.0, 24))
        du, dv = dissipations(State(u=u, v=v))
        du2, dv2 = dissipations(State(u=v, v=u))
        assert du == pytest.approx(dv2) and dv == pytest.approx(du2)

    def test_rejects_nonpositive(self):
        g = grid1d(8)
        vals = np.ones(8)
        vals[2] = 0.0
        with pytest.raises(PositivityViolation):
            dissipations(State(u=ScalarField(g, vals),
                               v=ScalarField.full(g, 1.0)))


class TestWeightedGradient:
    def test_quartic_oracle(self):
        # v = 1+x: int |v_x|^4 / v^3 = 1/2 - 1/8 = 0.375
        st = linear_state(256, slope_v=1.0)
        f4 = weighted_gradient(st, 4.0, 3.0)
        assert f4 == pytest.approx(0.375, abs=1e-3)

    def test_sextic_oracle(self):
        # v = 1+x: int |v_x|^6 / v^5 = 1/4 - 1/64 = 0.234375
        st = linear_state(256, slope_v=1.0)
        f6 = weighted_gradient(st, 6.0, 5.0)
        assert f6 == pytest.approx(0.234375, abs=1e-3)

    def test_rejects_bad_exponents(self):
        st = linear_state(8)
        with pytest.raises(ValueError):
            weighted_gradient(st, 2.0, 1.0)
        with pytest.raises(ValueError):
            weighted_gradient(st, 4.0, 4.5)
        with pytest.raises(ValueError):
            weighted_gradient(st, 4.0, 0.0)

    def test_nonnegative(self):
        g = grid1d(16)
        rng = np.random.default_rng(8)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            st = State(u=ScalarField(g, rng.uniform(0.1, 3.0, 16)),
                       v=ScalarField(g, rng.uniform(0.1, 3.0, 16)))
            assert weighted_gradient(st, 4.0, 3.0) >= 0.0


class TestEnergyCase:
    def test_branches(self):
        assert energy_case(2.0) == "u_log_u"
        assert energy_case(3.0) == "neg_log_u"
        assert energy_case(1.0) == "undefined"
        assert energy_case(2.5) == "neg_power"
        assert energy_case(1.5) == "power"
        assert energy_case(4.0) == "power"


class TestEnergyG:
    def test_log_case_unit_field(self):
        # u = 1: the u log u entropy vanishes, flat v kills the gradient part
        st = linear_state(16)
        assert energy_G(st, ModelParams(l=2.0, epsilon=0.01)) == 0.0

    def test_neg_power_case(self):
        # l = 2.5, u = 1, flat v: -4/((3-l)(l-2)) = -16
        st = linear_state(16)
        assert energy_G(st, ModelParams(l=2.5, epsilon=0.01)) \
            == pytest.approx(-16.0)

    def test_neg_log_case(self):
        # l = 3, u = e: -4 int log u = -4
        g = grid1d(16)
        st = State(u=ScalarField.full(g, math.e), v=ScalarField.full(g, 1.0))
        assert energy_G(st, ModelParams(l=3.0, epsilon=0.01)) \
            == pytest.approx(-4.0)

    def test_power_case(self):
        # l = 4, u = 2, flat v: 4/((l-3)(l-2)) * int u^(3-l) = 2 * (1/2) = 1
        g = grid1d(16)
        st = State(u=ScalarField.full(g, 2.0), v=ScalarField.full(g, 1.0))
        assert energy_G(st, ModelParams(l=4.0, epsilon=0.01)) \
            == pytest.approx(1.0)

    def test_b_scaling(self):
        g = grid1d(16)
        st = State(u=ScalarField.full(g, math.e), v=ScalarField.full(g, 1.0))
        one = energy_G(st, ModelParams(l=3.0, epsilon=0.01, b=1.0))
        three = energy_G(st, ModelParams(l=3.0, epsilon=0.01, b=3.0))
        assert three == pytest.approx(3.0 * one)

    def test_l1_reduces_to_gradient_part(self):
        st = linear_state(64, slope_v=1.0)
        params = ModelParams(l=1.0, epsilon=0.01)
        assert energy_G(st, params) \
            == pytest.approx(weighted_gradient(st, 4.0, 3.0))


class TestFullRecord:
    def test_constant_state(self):
        g = grid1d(16)
        st = State(u=ScalarField.full(g, 2.0), v=ScalarField.full(g, 3.0))
        rec = full_record(st, PARAMS, [2.0, 4.0])
        assert rec.mass_u == pytest.approx(2.0)
        assert rec.mass_v == pytest.approx(3.0)
        assert rec.sup_u == 2.0 and rec.sup_v == 3.0 and rec.inf_v == 3.0
        assert rec.weighted_L2 == pytest.approx(12.0)  # int u^2 v
        assert rec.diss_u == 0.0 and rec.diss_v == 0.0
        assert rec.grad_v_sq == 0.0 and rec.grad_v_sq_over_v == 0.0
        assert rec.lp_u[2.0] == pytest.approx(2.0)
        assert rec.lp_u[math.inf] == 2.0
        assert rec.weighted_q[(4.0, 3.0)] == 0.0
        assert rec.energy_G_defined

    def test_l1_flags_energy_undefined(self):
        st = linear_state(8)
        rec = full_record(st, ModelParams(l=1.0, epsilon=0.01), [2.0])
        assert not rec.energy_G_defined

    def test_entropy_l_cases(self):
        g = grid1d(16)
        st = State(u=ScalarField.full(g, math.e), v=ScalarField.full(g, 1.0))
        rec2 = full_record(st, ModelParams(l=2.0, epsilon=0.01), [2.0])
        assert rec2.entropy == pytest.approx(1.0)  # int log u
        rec3 = full_record(st, ModelParams(l=3.0, epsilon=0.01), [2.0])
        assert rec3.entropy == pytest.approx(1.0 / math.e)  # int u^(2-l)

    def test_nonnegative_along_trajectory(self):
        g = grid1d(32)
        x = g.centers(0)
        st = State(u=ScalarField(g, 1.0 + 0.5 * np.cos(np.pi * x)),
                   v=ScalarField.full(g, 1.0))
        recs = []
        for k in range(1, 6):
            st = run_until(st, 0.01 * k, PARAMS, StepControl())
            recs.append(full_record(st, PARAMS, [2.0]))
        for rec in recs:
            assert rec.diss_u >= 0.0 and rec.diss_v >= 0.0
            assert rec.grad_v_sq >= 0.0 and rec.grad_v_sq_over_v >= 0.0
            assert rec.weighted_q[(4.0, 3.0)] >= 0.0
            assert rec.inf_v > 0.0

    @pytest.mark.parametrize("shape", [(48,), (12, 9)])
    @pytest.mark.parametrize("q_alpha", [((4.0, 3.0), (6.0, 5.0)),
                                         ((3.0, 1.0),)])
    def test_matches_standalone_functionals(self, shape, q_alpha):
        # the record's shared face pass equals each standalone functional
        g = Grid(Domain((1.0,) * len(shape)), shape)
        rng = np.random.default_rng(len(shape))
        st = State(u=ScalarField(g, rng.uniform(0.2, 3.0, shape)),
                   v=ScalarField(g, rng.uniform(0.2, 3.0, shape)))
        for params in (PARAMS, ModelParams(l=2.5, epsilon=0.01)):
            rec = full_record(st, params, [2.0], q_alpha)
            assert (rec.diss_u, rec.diss_v) == dissipations(st)
            assert rec.weighted_q == {
                qa: weighted_gradient(st, *qa) for qa in q_alpha}
            assert rec.energy_G == energy_G(st, params)

    @pytest.mark.parametrize("p_list, q_alpha, message", [
        ((2.0, math.inf), DEFAULT_Q_ALPHA, "p_list: column lp_u_inf would"),
        ((2, 2.0), DEFAULT_Q_ALPHA, "p_list: column lp_u_2 would"),
        ((2.0,), ((4, 3), (4.0, 3.0)), "q_alpha: column wq_4_3 would"),
    ])
    def test_repeated_column_rejected(self, p_list, q_alpha, message):
        # each would write a series.csv header naming one column twice
        with pytest.raises(ValueError, match=message):
            _check_columns(p_list, q_alpha)
        with pytest.raises(ValueError, match=message):
            full_record(linear_state(8), PARAMS, p_list, q_alpha)


class TestSerialization:
    P_LIST = (2.0, 4.0)

    def test_row_matches_columns(self):
        st = linear_state(16, slope_u=0.5, slope_v=0.25)
        rec = full_record(st, PARAMS, self.P_LIST)
        cols = record_columns(self.P_LIST)
        row = record_row(rec, self.P_LIST)
        assert len(cols) == len(row)
        assert cols[0] == "t" and cols[-1] == "lp_u_inf"
        assert "wq_4_3" in cols and "lp_u_2" in cols

    def test_roundtrip_values(self):
        st = linear_state(16, slope_u=0.5)
        rec = full_record(st, PARAMS, (2.0,), ((4.0, 3.0),))
        # %.17g preserves doubles exactly
        row = record_row(rec, (2.0,), ((4.0, 3.0),))
        cols = record_columns((2.0,), ((4.0, 3.0),))
        got = dict(zip(cols, row))
        assert float(got["mass_u"]) == rec.mass_u
        assert float(got["diss_u"]) == rec.diss_u
        assert got["energy_G_defined"] == "1"

    def test_write_series(self, tmp_path):
        st = linear_state(16, slope_u=0.5)
        rec = full_record(st, PARAMS, self.P_LIST)
        path = tmp_path / "series.csv"
        with open(path, "w", newline="") as fh:
            write_series_header(fh, self.P_LIST)
            write_series(fh, rec, self.P_LIST)
            write_series(fh, rec, self.P_LIST)  # appends
        header = ",".join(record_columns(self.P_LIST))
        row = ",".join(record_row(rec, self.P_LIST))
        assert path.read_text() == header + "\n" + (row + "\n") * 2


# Reference: the record path as it was before the face pass moved into the
# grid's work arrays, with shaped interior-face arrays, a fresh array per
# integrand and `**` for every power.
def interior_face_gradient(values, axis, h):
    """Difference quotient on the interior faces of one axis."""
    return np.diff(values, axis=axis) / h


def interior_face_mean(values, axis):
    """Arithmetic mean of adjacent cell values on the interior faces of one
    axis."""
    lo, hi = _axis_slices(values.ndim, axis)
    return 0.5 * (values[lo] + values[hi])


def _ref_face_sums(grid, integrands, grads=(), means=()):
    totals = [0.0] * len(integrands)
    for axis, h in enumerate(grid.h):
        faces = [interior_face_gradient(a, axis, h) for a in grads]
        faces += [interior_face_mean(a, axis) for a in means]
        faces.append(face_quadrature(grid, axis))
        for i, f in enumerate(integrands):
            totals[i] += float(np.sum(f(*faces)))
    return totals


def _ref_energy_G(u, params, f4):
    l, b = params.l, params.b
    case = energy_case(l)
    if case == "u_log_u":
        ent = integrate(ScalarField(u.grid, u.values * np.log(u.values)))
        return 4.0 * b * ent + f4
    if case == "neg_log_u":
        return -4.0 * b * integrate(ScalarField(u.grid, np.log(u.values))) + f4
    if case == "undefined":
        return f4
    power = integrate(ScalarField(u.grid, u.values ** (3.0 - l)))
    if case == "neg_power":
        return -4.0 * b / ((3.0 - l) * (l - 2.0)) * power + f4
    return 4.0 * b / ((l - 3.0) * (l - 2.0)) * power + f4


def reference_record(state, params, p_list, q_alpha):
    u, v = state.u, state.v
    q_alpha = [(float(q), float(a)) for q, a in q_alpha]
    keys = list(dict.fromkeys([(4.0, 3.0)] + q_alpha))
    integrands = [
        lambda gu, gv, mu, mv, w: (mv / mu) * gu * gu * w,
        lambda gu, gv, mu, mv, w: (mu / mv) * gv * gv * w,
        lambda gu, gv, mu, mv, w: gv * gv * w,
        lambda gu, gv, mu, mv, w: gv * gv * w / mv,
    ] + [lambda gu, gv, mu, mv, w, q=q, a=a: np.abs(gv) ** q / mv ** a * w
         for q, a in keys]
    sums = _ref_face_sums(state.grid, integrands, grads=(u.values, v.values),
                          means=(u.values, v.values))
    quotients = dict(zip(keys, sums[4:]))
    lp_u = {float(p): lp_norm(u, float(p)) for p in p_list}
    lp_u[math.inf] = lp_norm(u, math.inf)
    if abs(params.l - 2.0) < 1e-12:
        entropy = integrate(ScalarField(u.grid, np.log(u.values)))
    else:
        entropy = integrate(ScalarField(u.grid, u.values ** (2.0 - params.l)))
    return FunctionalRecord(
        t=state.t, mass_u=integrate(u), mass_v=integrate(v),
        sup_u=float(u.values.max()), sup_v=float(v.values.max()),
        inf_v=float(v.values.min()), cumulative_uv=state.cumulative_uv,
        diss_u=sums[0], diss_v=sums[1], grad_v_sq=sums[2],
        grad_v_sq_over_v=sums[3],
        weighted_q={qa: quotients[qa] for qa in q_alpha},
        weighted_L2=integrate(ScalarField(
            u.grid, u.values * u.values * v.values)),
        lp_u=lp_u, entropy=entropy,
        energy_G=_ref_energy_G(u, params, quotients[(4.0, 3.0)]),
        energy_G_defined=energy_case(params.l) != "undefined")


def _is_whole(x):
    return float(x).is_integer()


class TestRecordMatchesReference:
    """Whole-number powers are products now, within a few roundings of
    libm's `pow`, and on 2D grids the face sums add over the flat faces of
    the last axis, whose junk faces add 0 between rows, in another order;
    every other column keeps its bits.  energy_G carries the quartic
    quotient, so it must equal the reference formula applied to the record's
    own quotient."""

    GRIDS = [Grid(Domain((1.0,)), (48,)),
             Grid(Domain((2.0, 2.0)), (16, 16)),
             Grid(Domain((1.0, 3.0)), (12, 9))]

    def _state(self, grid, seed):
        rng = np.random.default_rng(seed)
        return State(u=ScalarField(grid, rng.uniform(0.2, 3.0, grid.shape)),
                     v=ScalarField(grid, rng.uniform(0.2, 3.0, grid.shape)),
                     t=0.25, cumulative_uv=0.125)

    def _compare(self, grid, l, p_list, q_alpha):
        params = ModelParams(l=l, epsilon=0.01)
        for seed in range(3):
            st = self._state(grid, seed)
            rec = full_record(st, params, p_list, q_alpha)
            ref = reference_record(st, params, p_list, q_alpha)
            close = {f"wq_{_fmt_param(q)}_{_fmt_param(a)}"
                     for q, a in q_alpha if _is_whole(q) or _is_whole(a)}
            # the products for p = 1 and 2 are u and u*u, exact as `**`
            close |= {f"lp_u_{_fmt_param(p)}" for p in p_list
                      if _is_whole(p) and p not in (1.0, 2.0)}
            if grid.dim > 1:
                close |= {"diss_u", "diss_v", "grad_v_sq", "grad_v_sq_over_v"}
                close |= {f"wq_{_fmt_param(q)}_{_fmt_param(a)}"
                          for q, a in q_alpha}
            cols = record_columns(p_list, q_alpha)
            got = dict(zip(cols, record_row(rec, p_list, q_alpha)))
            want = dict(zip(cols, record_row(ref, p_list, q_alpha)))
            for col in cols:
                if col == "energy_G":
                    continue
                if col in close:
                    assert float(got[col]) == pytest.approx(
                        float(want[col]), rel=1e-15, abs=0.0), col
                else:
                    assert got[col] == want[col], col
            f4 = weighted_gradient(st, 4.0, 3.0)
            assert rec.energy_G == _ref_energy_G(st.u, params, f4)
            ref_f4 = reference_record(st, params, (), ((4.0, 3.0),))
            assert f4 == pytest.approx(ref_f4.weighted_q[(4.0, 3.0)],
                                       rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "2d-nonsquare"])
    @pytest.mark.parametrize("l", [1.0, 2.0, 2.5, 3.0])
    def test_whole_exponents(self, grid, l):
        self._compare(grid, l, (1.0, 2.0, 4.0),
                      ((4.0, 3.0), (6.0, 5.0), (3.0, 1.0), (5.0, 3.0),
                       (8.0, 2.0)))

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "2d-nonsquare"])
    @pytest.mark.parametrize("l", [1.0, 2.0, 2.5, 3.0])
    def test_non_integer_exponents_bitwise(self, grid, l):
        # no column may differ: close is empty
        self._compare(grid, l, (2.5,), ((3.5, 1.5),))


# per face: the two dissipations, then |gv|^4 / mv^3 (squares of squares)
# and |gv|^3 / mv (through abs)
def _flat_faces(gu, gv, mu, mv, w, spare):
    yield from _dissipation_faces(gu, gv, mu, mv, w, spare)
    g2 = np.multiply(gv, gv, out=gu)
    yield from _quotient_faces(gv, mv, w, g2, [(4.0, 3.0), (3.0, 1.0)],
                               (spare[0], mu, spare[1]))


_SHAPED_FACES = [
    lambda gu, gv, mu, mv, w: (mv / mu) * gu * gu * w,
    lambda gu, gv, mu, mv, w: (mu / mv) * gv * gv * w,
    lambda gu, gv, mu, mv, w: np.abs(gv) ** 4.0 / mv ** 3.0 * w,
    lambda gu, gv, mu, mv, w: np.abs(gv) ** 3.0 / mv ** 1.0 * w,
]


class TestFlatFaceSums:
    @pytest.mark.parametrize("make_grid", BIT_GRIDS)
    def test_matches_shaped_reference(self, make_grid):
        # on 2D grids the row_ramps v jumps across the junk faces by more
        # than across any face, and the junk faces must still add 0
        g = make_grid()
        states = [random_state(g, seed, lo=0.01, hi=4.0) for seed in range(3)]
        if g.dim == 2:
            states.append(row_ramps(g))
        for st in states:
            arrays = (st.u.values, st.v.values)
            with np.errstate(all="raise"):
                got = face_sums(g, _flat_faces, grads=arrays, means=arrays)
            want = _ref_face_sums(g, _SHAPED_FACES, grads=arrays,
                                  means=arrays)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("make_grid", BIT_GRIDS)
    def test_dual_volumes(self, make_grid):
        g = make_grid()
        for h, lo, hi, junk, w, faces in work_arrays(g).axes:
            assert not w.flags.writeable
            assert w.shape == faces[0].shape
            zero = np.zeros(w.size, dtype=bool)
            if junk is not None:
                zero[junk] = True
            assert zero.any() == (junk is not None)
            assert np.array_equal(w == 0.0, zero)  # exactly at the junk faces
            assert w.sum() == pytest.approx(g.domain.volume, rel=1e-14)

    @pytest.mark.parametrize("make_grid", BIT_GRIDS)
    def test_buffer_limit(self, make_grid):
        # every face gradient and mean has a face buffer of its own: the
        # work arrays' buffers are the limit, and a call beyond it raises
        # before any pass instead of dropping the arrays it has no room for
        g = make_grid()
        assert all(len(faces) == FACE_BUFFERS
                   for *_, faces in work_arrays(g).axes)
        a = np.ones(g.shape)
        seen = []

        def faces(*args):
            seen.append(len(args))
            yield args[-2]

        total, = face_sums(g, faces, grads=[a] * 3, means=[a] * 4)
        assert total == pytest.approx(g.dim * g.domain.volume, rel=1e-14)
        assert seen == [FACE_BUFFERS + 2] * g.dim  # no spare buffer left
        with pytest.raises(ValueError, match=f"at most {FACE_BUFFERS} "):
            face_sums(g, faces, grads=[a] * 4, means=[a] * 5)
        assert len(seen) == g.dim


class TestPower:
    @pytest.mark.parametrize("n", list(range(1, 18)) + [31, 64])
    def test_whole_within_n_roundings(self, n):
        x = np.random.default_rng(n).uniform(0.5, 2.0, 1000)
        got = _power(x, float(n), np.empty_like(x))
        np.testing.assert_allclose(got, x ** float(n),
                                   rtol=max(n - 1, 1) * 2.0 ** -52, atol=0.0)

    @pytest.mark.parametrize("n", [0.5, 2.5, -1.0, -0.5, 65.0, 1e3])
    def test_other_exponents_keep_pow(self, n):
        x = np.random.default_rng(1).uniform(0.5, 1.5, 1000)
        assert np.array_equal(_power(x, n, np.empty_like(x)), x ** n)


class TestRecordAllocation:
    def test_record_allocates_at_most_three_fields(self):
        # every temporary lives in the grid's work arrays, and the flat face
        # passes leave numpy no strided slice to copy
        g = Grid(Domain((2.0, 2.0)), (64, 64))
        rng = np.random.default_rng(5)
        st = State(u=ScalarField(g, rng.uniform(0.2, 2.0, g.shape)),
                   v=ScalarField(g, rng.uniform(0.2, 2.0, g.shape)))
        st = step(st, PARAMS, StepControl())
        full_record(st, PARAMS, (2.0, 4.0))  # warm
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            full_record(st, PARAMS, (2.0, 4.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - start) / (8 * g.num_cells) <= 0.25
