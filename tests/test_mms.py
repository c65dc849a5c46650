import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import taxisim
from taxisim.mms import (build_sources, exact_u, exact_v, forcing,
                         oracle_points, residual_check)


class TestExactPair:
    def test_pointwise_values(self):
        assert exact_u(0.0, 0.0) == pytest.approx(3.0)
        assert exact_v(0.0, 0.0) == pytest.approx(2.5)
        assert exact_u(1.0, 0.0) == pytest.approx(1.0)
        assert exact_u(0.5, 0.0) == pytest.approx(2.0)

    def test_strictly_positive(self):
        x = np.linspace(0.0, 1.0, 101)
        for t in (0.0, 0.5, 2.0):
            assert exact_u(x, t).min() > 0.0
            assert exact_v(x, t).min() > 0.0

    def test_neumann_compatible(self):
        # odd-order x-derivatives vanish at the walls; check by symmetry of
        # the cosine profile under reflection
        eps = 1e-6
        for t in (0.0, 1.0):
            assert exact_u(eps, t) == pytest.approx(exact_u(-eps, t))
            assert exact_u(1.0 + eps, t) == pytest.approx(exact_u(1.0 - eps, t))


class TestSources:
    def test_vectorized_and_finite(self):
        fu, fv = build_sources(2.0)
        x = np.linspace(0.05, 0.95, 33)
        for t in (0.0, 0.7):
            a, b = fu(x, t), fv(x, t)
            assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
            assert a.shape == x.shape and b.shape == x.shape

    def test_fv_closed_form(self):
        # the v equation forcing is exactly computable by hand:
        # f_v = v*_t - v*_xx + u* v*
        fu, fv = build_sources(2.0)
        x, t = 0.3, 0.4
        c = np.cos(np.pi * x) * np.exp(-t)
        expected = -c / 2 + np.pi ** 2 * c / 2 + (2 + c) * (2 + c / 2)
        assert fv(x, t) == pytest.approx(expected, rel=1e-12)

    def test_residual_small(self):
        # high-precision finite differences re-derive the strong form
        for l in (1.5, 2.0):
            assert residual_check(l, npoints=4) < 1e-10

    def test_residual_deterministic(self):
        assert residual_check(2.0, npoints=3, seed=1) \
            == residual_check(2.0, npoints=3, seed=1)

    @pytest.mark.parametrize("row", [0, 1])
    def test_residual_resolves_a_small_error(self, monkeypatch, row):
        # either source row off by 1e-9, a tenth of the study's tolerance
        right = taxisim.mms.build_sources

        def off(l):
            rows = list(right(l))
            good = rows[row]
            rows[row] = lambda x, t: good(x, t) + 1e-9
            return tuple(rows)

        monkeypatch.setattr(taxisim.mms, "build_sources", off)
        assert residual_check(2.0, npoints=3) == pytest.approx(1e-9, rel=1e-4)

    @pytest.mark.parametrize("npoints", [0, -1])
    def test_residual_needs_a_point(self, npoints):
        # an empty oracle returned 0.0, so a study trusted unchecked sources
        with pytest.raises(ValueError, match="^npoints must be an integer"):
            residual_check(2.0, npoints=npoints)

    def test_oracle_points_come_from_random(self):
        rng = random.Random(3)
        want = [(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
                for _ in range(4)]
        assert oracle_points(4, 3) == want

    @pytest.mark.parametrize("l", [1.0, 1.5, 2.0, 3.0])
    def test_residual_matches_per_field_oracle(self, l):
        # the oracle differentiates w = cos(pi x) e^{-t} once per quantity;
        # differentiating u* and v* separately, each flux on its own, gives
        # the same residual to the bit
        mpmath = pytest.importorskip("mpmath")
        fu, fv = build_sources(l)
        pts = oracle_points(3, 5)
        worst = 0.0
        with mpmath.workdps(40):
            def u_of(x, t):
                return 2 + mpmath.cos(mpmath.pi * x) * mpmath.e ** (-t)

            def v_of(x, t):
                return 2 + mpmath.cos(mpmath.pi * x) * mpmath.e ** (-t) / 2

            for x, t in pts:
                x, t = mpmath.mpf(float(x)), mpmath.mpf(float(t))

                def diff_flux(s):
                    ux = mpmath.diff(lambda r: u_of(r, t), s)
                    return u_of(s, t) ** (l - 1) * v_of(s, t) * ux

                def taxis_flux(s):
                    vx = mpmath.diff(lambda r: v_of(r, t), s)
                    return u_of(s, t) ** l * v_of(s, t) * vx

                uv = u_of(x, t) * v_of(x, t)
                ru = (mpmath.diff(lambda s: u_of(x, s), t)
                      - mpmath.diff(diff_flux, x)
                      + mpmath.diff(taxis_flux, x) - uv
                      - mpmath.mpf(float(fu(float(x), float(t)))))
                rv = (mpmath.diff(lambda s: v_of(x, s), t)
                      - mpmath.diff(lambda s: v_of(s, t), x, 2) + uv
                      - mpmath.mpf(float(fv(float(x), float(t)))))
                worst = max(worst, abs(float(ru)), abs(float(rv)))
        assert residual_check(l, npoints=3, seed=5) == worst


def sympy_sources(l):
    """The forcing derived symbolically, as the closed form's oracle."""
    sp = pytest.importorskip("sympy")
    x, t = sp.symbols("x t", real=True)
    u = 2 + sp.cos(sp.pi * x) * sp.exp(-t)
    v = 2 + sp.cos(sp.pi * x) * sp.exp(-t) / 2
    fu = (u.diff(t)
          - (u ** (l - 1) * v * u.diff(x)).diff(x)
          + (u ** l * v * v.diff(x)).diff(x)
          - u * v)
    fv = v.diff(t) - v.diff(x, 2) + u * v
    return (sp.lambdify((x, t), fu, modules="numpy", cse=True),
            sp.lambdify((x, t), fv, modules="numpy", cse=True))


class TestClosedFormMatchesSympy:
    @pytest.mark.parametrize("l", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    def test_matches_symbolic_derivation(self, l):
        oracle = sympy_sources(l)
        closed = build_sources(l)
        for t in (0.0, 5e-4, 0.7):
            for n in (32, 128):
                x = (np.arange(n) + 0.5) / n
                for f, ref in zip(closed, oracle):
                    want = ref(x, t)
                    tol = 1e-13 * np.abs(want).max()
                    got = f(x, t)
                    assert got.shape == x.shape
                    assert np.abs(got - want).max() <= tol
            for f, ref in zip(closed, oracle):
                want = float(ref(0.3, t))
                assert abs(float(f(0.3, t)) - want) <= 1e-13 * abs(want)


# The two closures the forcing block replaced, kept as references: its rows
# must reproduce them bit for bit.
def reference_f_u(x, t, l):
    pi2 = math.pi ** 2
    c, s2 = np.cos(np.pi * x), np.sin(np.pi * x) ** 2
    e = math.exp(-t)
    h = c * (0.5 * e)
    v = h + 2.0
    u = h + v
    g = s2 * (pi2 * e * e)
    bracket = g * v * (l * h + 1.0) + u * h * (0.5 * g - 2.0 * pi2 * v * h)
    return u ** (l - 2.0) * bracket - 2.0 * h - u * v


def reference_f_v(x, t):
    pi2 = math.pi ** 2
    c = np.cos(np.pi * x)
    h = c * (0.5 * math.exp(-t))
    v = h + 2.0
    return (pi2 - 1.0) * h + (h + v) * v


class TestForcingBlock:
    @pytest.mark.parametrize("l", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    def test_rows_match_closed_forms(self, l):
        fu, fv = build_sources(l)
        for n in (32, 128):
            x = (np.arange(n) + 0.5) / n
            source = forcing(l, x)
            for t in (0.0, 5e-4, 0.7):
                want = reference_f_u(x, t, l), reference_f_v(x, t)
                block = source(t)
                assert block.shape == (2, n)
                # tobytes also tells -0.0 from 0.0
                assert block[0].tobytes() == want[0].tobytes()
                assert block[1].tobytes() == want[1].tobytes()
                assert fu(x, t).tobytes() == want[0].tobytes()
                assert fv(x, t).tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("l", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    def test_scalar_path(self, l):
        # a scalar x takes the block's array arithmetic, so the oracle in
        # residual_check checks what the study runs
        fu, fv = build_sources(l)
        for x in (0.05, 0.3, 0.5, 0.95):
            for t in (0.0, 5e-4, 0.7):
                got = fu(x, t), fv(x, t)
                block = forcing(l, x)(t)
                assert block.shape == (2,)
                want = (reference_f_u(np.array([x]), t, l)[0],
                        reference_f_v(np.array([x]), t)[0])
                for g, b, w in zip(got, block, want):
                    assert isinstance(g, float)
                    assert g == b == w

    @pytest.mark.parametrize("l", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    def test_per_segment_times(self, l):
        # grids end to end, one time each: every grid's rows are those of
        # its own source at its own time
        sizes = (32, 64, 128, 32, 7, 2)
        xs = [(np.arange(n) + 0.5) / n for n in sizes]
        source = forcing(l, np.concatenate(xs), sizes)
        rng = np.random.default_rng(11)
        for ts in ([0.0] * 6, [5e-4, 0.7, 0.0, 1e-3, 2.5, 0.3],
                   list(rng.uniform(0.0, 1.0, 6))):
            block = source(ts)
            assert block.shape == (2, sum(sizes))
            a = 0
            for x, t, n in zip(xs, ts, sizes):
                assert block[:, a:a + n].tobytes() == forcing(l, x)(t).tobytes()
                a += n
        assert source(ts) is block

    def test_block_reused(self):
        # the study's source makes no array per step
        x = (np.arange(16) + 0.5) / 16
        source = forcing(2.5, x)
        first = source(0.1)
        kept = first.copy()
        assert source(0.2) is first
        assert not np.array_equal(first, kept)
        assert np.array_equal(forcing(2.5, x)(0.1), kept)


class TestLazyImports:
    """mpmath and the process pool load only where they are used; sympy
    never does."""

    HEAVY = ("sympy", "mpmath", "concurrent.futures.process")

    def loaded_after(self, code):
        src = os.path.dirname(os.path.dirname(taxisim.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        probe = (f"import sys\n{code}\n"
                 f"print(','.join(m for m in {self.HEAVY!r} if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        return set(filter(None, out.stdout.strip().split(",")))

    def test_cli_import_is_light(self):
        assert self.loaded_after("import taxisim.cli") == set()

    def test_refine_does_not_load_sympy(self, tmp_path):
        cfg = ("grid.nx = 16\nmodel.l = 2\nmodel.epsilon = 0.01\n"
               "time.T = 0.001\ninit.preset = constant\n")
        loaded = self.loaded_after(
            "import taxisim.mms\n"
            "from taxisim.config import parse_config\n"
            "from taxisim.experiments import refinement_study\n"
            "taxisim.mms.build_sources(2.0)\n"
            f"refinement_study(parse_config({cfg!r}), [16, 32], "
            f"{str(tmp_path / 'out')!r})")
        assert "mpmath" in loaded and "sympy" not in loaded

    def test_refine_command_loads_no_numpy_random(self, tmp_path):
        # the oracle's points came from np.random.default_rng, the only use
        # of numpy.random on the refine path; `python -m taxisim.cli` runs
        # through runpy so that sys.modules can be read after it
        cfg = tmp_path / "refine.cfg"
        cfg.write_text("grid.nx = 16\nmodel.l = 2\nmodel.epsilon = 0.01\n"
                       "time.T = 0.001\ninit.preset = constant\n")
        out = tmp_path / "out"
        argv = ["taxisim.cli", "refine", str(cfg), "--out", str(out),
                "--n", "16,32"]
        probe = (f"import runpy, sys\nsys.argv = {argv!r}\n"
                 "try:\n"
                 "    runpy.run_module('taxisim.cli', run_name='__main__',\n"
                 "                     alter_sys=True)\n"
                 "except SystemExit as exc:\n"
                 "    assert exc.code == 0, exc.code\n"
                 "print('mpmath' in sys.modules, 'numpy.random' in sys.modules)")
        src = os.path.dirname(os.path.dirname(taxisim.__file__))
        proc = subprocess.run([sys.executable, "-c", probe],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert (out / "refine.csv").exists()
        assert proc.stdout.splitlines()[-1] == "True False"
