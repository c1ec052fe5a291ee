"""Direct tests of the McMurchie-Davidson Hermite machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_eri import r_tensor
from repro.integrals.boys import boys
from repro.integrals.hermite import e_coefficients, hermite_index


class TestECoefficients:
    @given(
        st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(-2.0, 2.0)
    )
    @settings(max_examples=50, deadline=None)
    def test_e000_is_gaussian_prefactor(self, a, b, ab):
        e = e_coefficients(0, 0, a, b, ab)
        mu = a * b / (a + b)
        assert e[0, 0, 0] == pytest.approx(math.exp(-mu * ab * ab), rel=1e-12)

    def test_same_center_odd_t_vanish_for_s_p(self):
        """At AB = 0, E_t^{ij} = 0 whenever i + j - t is odd."""
        e = e_coefficients(2, 2, 1.3, 0.7, 0.0)
        for i in range(3):
            for j in range(3):
                for t in range(i + j + 1):
                    if (i + j - t) % 2 == 1:
                        assert e[i, j, t] == pytest.approx(0.0, abs=1e-14)

    @given(st.floats(0.2, 4.0), st.floats(0.2, 4.0), st.floats(-1.5, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_overlap_sum_rule(self, a, b, ab):
        """E_0^{11} reproduces the analytic <p|p> 1-D overlap.

        For 1-D Gaussians x^i e^{-a x^2}: S_ij = E_0^{ij} sqrt(pi/p).
        The p-p overlap has the closed form
        (PA*PB + 1/(2p)) * exp(-mu AB^2) * sqrt(pi/p).
        """
        p = a + b
        mu = a * b / p
        pa = -b / p * ab
        pb = a / p * ab
        e = e_coefficients(1, 1, a, b, ab)
        expected = (pa * pb + 0.5 / p) * math.exp(-mu * ab * ab)
        assert e[1, 1, 0] == pytest.approx(expected, rel=1e-10, abs=1e-14)

    def test_transposition_symmetry(self):
        """E_t^{ij}(a, b, AB) == E_t^{ji}(b, a, -AB)."""
        a, b, ab = 1.7, 0.4, 0.9
        e1 = e_coefficients(2, 2, a, b, ab)
        e2 = e_coefficients(2, 2, b, a, -ab)
        for i in range(3):
            for j in range(3):
                for t in range(i + j + 1):
                    assert e1[i, j, t] == pytest.approx(e2[j, i, t], rel=1e-10,
                                                        abs=1e-14)


class TestHermiteIndex:
    def test_count(self):
        # number of (t,u,v) with t+u+v <= L is C(L+3, 3)
        for L in range(5):
            expected = (L + 1) * (L + 2) * (L + 3) // 6
            assert len(hermite_index(L)) == expected

    def test_unique(self):
        idx = hermite_index(4)
        assert len(set(idx)) == len(idx)


class TestRTensor:
    def test_r000_is_boys(self):
        p = 1.9
        pq = np.array([0.4, -0.2, 0.8])
        r = r_tensor(3, p, pq)
        t = p * float(pq @ pq)
        assert r[0, 0, 0] == pytest.approx(boys(0, t)[0], rel=1e-12)

    def test_odd_components_vanish_at_origin(self):
        r = r_tensor(4, 1.2, np.zeros(3))
        for t in range(5):
            for u in range(5 - t):
                for v in range(5 - t - u):
                    if t % 2 or u % 2 or v % 2:
                        assert r[t, u, v] == pytest.approx(0.0, abs=1e-14)

    def test_axis_permutation_symmetry(self):
        """Swapping PQ components permutes the R tensor consistently."""
        p = 0.8
        pq = np.array([0.5, -1.1, 0.3])
        r1 = r_tensor(3, p, pq)
        r2 = r_tensor(3, p, pq[[1, 0, 2]])
        for t in range(4):
            for u in range(4 - t):
                for v in range(4 - t - u):
                    assert r1[t, u, v] == pytest.approx(r2[u, t, v], rel=1e-10,
                                                        abs=1e-14)

    def test_sign_flip(self):
        """R_{tuv}(-PQ) = (-1)^{t+u+v} R_{tuv}(PQ)."""
        p = 1.4
        pq = np.array([0.7, 0.2, -0.5])
        r1 = r_tensor(3, p, pq)
        r2 = r_tensor(3, p, -pq)
        for t in range(4):
            for u in range(4 - t):
                for v in range(4 - t - u):
                    sign = (-1.0) ** (t + u + v)
                    assert r2[t, u, v] == pytest.approx(sign * r1[t, u, v],
                                                        rel=1e-10, abs=1e-14)
