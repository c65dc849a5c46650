import os
import subprocess
import sys

import numpy as np
import pytest

import taxisim
from taxisim.mms import (build_sources, exact_u, exact_v, factors,
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
                    # from positions and from the per-grid factors alike
                    for arg in (x, factors(x)):
                        got = f(arg, t)
                        assert got.shape == x.shape
                        assert np.abs(got - want).max() <= tol
            for f, ref in zip(closed, oracle):
                want = float(ref(0.3, t))
                assert abs(float(f(0.3, t)) - want) <= 1e-13 * abs(want)


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
