"""Tests for the Boys function: values, recursions, asymptotics, the
shipped top row of its table, and the SciPy-free import it buys."""

import hashlib
import importlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from reference_eri import boys_quadrature, boys_series, boys_single
from repro.integrals.boys import boys, boys_array

# the module, not the function ``repro.integrals`` re-exports under its name
boys_module = importlib.import_module("repro.integrals.boys")


class TestKnownValues:
    def test_f0_at_zero(self):
        assert boys_single(0, 0.0) == pytest.approx(1.0)

    def test_fm_at_zero(self):
        out = boys(5, 0.0)
        for m in range(6):
            assert out[m] == pytest.approx(1.0 / (2 * m + 1))

    def test_f0_closed_form(self):
        # F_0(x) = sqrt(pi/(4x)) erf(sqrt(x))
        for x in (0.1, 1.0, 7.3, 25.0):
            expected = math.sqrt(math.pi / (4 * x)) * math.erf(math.sqrt(x))
            assert boys_single(0, x) == pytest.approx(expected, rel=1e-12)

    def test_large_x_asymptotic(self):
        x = 60.0
        expected = 0.5 * math.sqrt(math.pi / x)
        assert boys_single(0, x) == pytest.approx(expected, rel=1e-10)


class TestCrossValidation:
    @given(st.integers(0, 8), st.floats(0.0, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_series(self, m, x):
        assert boys_single(m, x) == pytest.approx(boys_series(m, x), rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("m", [0, 2, 5])
    @pytest.mark.parametrize("x", [0.3, 2.0, 11.0])
    def test_matches_quadrature(self, m, x):
        assert boys_single(m, x) == pytest.approx(
            boys_quadrature(m, x), rel=1e-6
        )


class TestRecursionConsistency:
    @given(st.floats(1e-6, 80.0), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_upward_identity(self, x, mmax):
        """F_{m+1} = ((2m+1) F_m - e^{-x}) / (2x)."""
        f = boys(mmax, x)
        for m in range(mmax):
            lhs = f[m + 1]
            rhs = ((2 * m + 1) * f[m] - math.exp(-x)) / (2 * x)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-13)

    @given(st.floats(0.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing_in_m(self, x):
        f = boys(6, x)
        assert np.all(np.diff(f) <= 1e-15)

    @given(st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_decreasing_in_x(self, m):
        xs = np.linspace(0, 20, 40)
        vals = [boys_single(m, float(x)) for x in xs]
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))


class TestVectorized:
    def test_matches_scalar(self):
        xs = np.array([0.0, 0.5, 3.0, 20.0, 40.0, 100.0])
        arr = boys_array(4, xs)
        for i, x in enumerate(xs):
            assert np.allclose(arr[i], boys(4, float(x)), rtol=1e-12)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            boys_array(2, np.array([-1.0]))


class TestValidation:
    def test_negative_m_raises(self):
        with pytest.raises(ValueError):
            boys(-1, 1.0)

    def test_negative_x_raises(self):
        with pytest.raises(ValueError):
            boys(0, -0.5)


#: the one-line command (from the repo root) that regenerates the
#: shipped top row ``F_38`` at the table's 2 240 nonzero nodes k / 64
REGENERATE = (
    'python -c "import numpy as np; from scipy.special import gamma, gammainc; '
    "x = np.arange(1, 2241) / 64; np.save('src/repro/integrals/boys_top.npy', "
    'gamma(38.5) * gammainc(38.5, x) / (2.0 * x**38.5))"'
)


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestShippedTopRow:
    """``boys_top.npy`` is SciPy's gamma formula, bit for bit."""

    def test_file_equals_the_scipy_expression(self):
        from scipy.special import gamma, gammainc

        x = np.arange(1, 2241) / 64
        expected = gamma(38.5) * gammainc(38.5, x) / (2.0 * x**38.5)
        shipped = np.load(
            pathlib.Path(boys_module.__file__).with_name("boys_top.npy")
        )
        assert (shipped.dtype, shipped.shape) == (expected.dtype, expected.shape)
        assert _sha256(shipped) == _sha256(expected), (
            f"boys_top.npy differs from SciPy's F_38; regenerate it with\n"
            f"  {REGENERATE}"
        )

    def test_table_equals_a_table_built_through_scipy(self):
        """The import-time table against one built wholly through SciPy:
        the top order by the gamma formula at every node, the rest by
        downward recursion."""
        from scipy.special import gamma, gammainc

        step, top = boys_module._STEP, boys_module._TABLE_MMAX + boys_module._TERMS - 1
        xg = np.arange(round(boys_module._ASYMPTOTIC_X / step) + 1) * step
        a = top + 0.5
        table = np.empty((top + 1, xg.size))
        table[top, 0] = 1.0 / (2 * top + 1)
        table[top, 1:] = gamma(a) * gammainc(a, xg[1:]) / (2.0 * xg[1:] ** a)
        emx = np.exp(-xg)
        for m in range(top - 1, -1, -1):
            table[m] = (2.0 * xg * table[m + 1] + emx) / (2 * m + 1)
        assert _sha256(boys_module._TABLE) == _sha256(table), (
            f"the Boys table differs from SciPy's; regenerate boys_top.npy "
            f"with\n  {REGENERATE}"
        )


#: run in a fresh interpreter: the production paths first, asserting no
#: SciPy module is loaded, then each of the two deliberate imports
_NO_SCIPY_SCRIPT = """
import sys, tempfile

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import repro, repro.cli
from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane, water
from repro.fock.reorder import reorder_basis
from repro.fock.screening_map import ScreeningMap
from repro.fock.simulate import simulate_gtfock
from repro.integrals.schwarz import schwarz_model
from repro.scf import RHF, hf

rhf = RHF(water(), "sto-3g")
assert not scipy_modules(), f"constructing an RHF loaded SciPy: {scipy_modules()}"
hf.STORE_BUDGET = 0  # above the budget, a run is direct
assert round(rhf.run().energy, 8) == -74.96292825
basis = reorder_basis(BasisSet.build(alkane(2), "vdz-sim"))
simulate_gtfock(basis, ScreeningMap(basis, schwarz_model(basis), 1e-10), 12)
assert not scipy_modules(), f"loaded SciPy: {scipy_modules()}"

from repro.integrals.boys import boys
from repro.integrals.engine import MDEngine

with tempfile.TemporaryDirectory() as d:
    MDEngine(BasisSet.build(water(), "sto-3g"), store=d)
assert "scipy.sparse" in sys.modules, "attach_store did not import scipy.sparse"
assert "scipy.special" not in sys.modules, scipy_modules()
boys(2, 1.0)
assert "scipy.special" in sys.modules, "boys() did not import scipy.special"
"""


def test_cold_paths_load_no_scipy():
    """Import, constructing an RHF, a direct RHF and a simulated GTFock
    cell load no SciPy; ``attach_store`` (scipy.sparse, also by a run's
    private store) and ``boys`` (scipy.special) are the two deliberate
    users."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
