import math
import os
import subprocess
import sys

import numpy as np
import pytest

import taxisim
from taxisim.mms import (build_sources, exact_u, exact_v, forcing,
                         residual_check)


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
