"""Tests for the Boys function: values, recursions, asymptotics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_eri import boys_quadrature, boys_series, boys_single
from repro.integrals.boys import boys, boys_array


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
