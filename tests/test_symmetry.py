"""Tests for the parity SymmetryCheck and unique-quartet predicate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tasks as scalar
from reference_tasks import canonical_instance, is_canonical_instance, orbit_tuples
from repro.fock.symmetry import symmetry_check, task_computes


class TestSymmetryCheck:
    @given(st.integers(0, 200), st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_tournament(self, m, n):
        """Exactly one orientation passes for m != n; diagonal passes."""
        if m == n:
            assert symmetry_check(m, n)
        else:
            assert symmetry_check(m, n) != symmetry_check(n, m)

    def test_parity_structure(self):
        assert symmetry_check(4, 2)  # larger first, even sum
        assert not symmetry_check(2, 4)
        assert symmetry_check(2, 5)  # smaller first, odd sum
        assert not symmetry_check(5, 2)


class TestOrbit:
    def test_generic_orbit_size(self):
        assert len(orbit_tuples(0, 1, 2, 3)) == 8

    def test_bra_diagonal_orbit(self):
        assert len(orbit_tuples(1, 1, 2, 3)) == 4

    def test_fully_diagonal(self):
        assert len(orbit_tuples(2, 2, 2, 2)) == 1

    @given(st.tuples(*[st.integers(0, 6)] * 4))
    @settings(max_examples=100, deadline=None)
    def test_canonical_is_in_orbit(self, t):
        m, p, n, q = t
        rep = canonical_instance(m, p, n, q)
        assert rep in orbit_tuples(m, p, n, q)

    @given(st.tuples(*[st.integers(0, 6)] * 4))
    @settings(max_examples=100, deadline=None)
    def test_canonical_invariant_over_orbit(self, t):
        m, p, n, q = t
        rep = canonical_instance(m, p, n, q)
        for (a, b, c, d) in orbit_tuples(m, p, n, q):
            assert canonical_instance(a, b, c, d) == rep

    def test_is_canonical_unique_in_orbit(self):
        orbit = orbit_tuples(0, 2, 1, 3)
        hits = [t for t in orbit if is_canonical_instance(*t)]
        assert len(hits) == 1


class TestTaskComputesCoverage:
    """The heart of the algorithm: every orbit computed exactly once."""

    @pytest.mark.parametrize("nshells", [3, 5, 6, 9])
    def test_exact_once_coverage(self, nshells):
        from collections import Counter

        counts = Counter()
        for m in range(nshells):
            for n in range(nshells):
                for p in range(nshells):
                    for q in range(nshells):
                        if task_computes(m, n, p, q):
                            counts[canonical_instance(m, p, n, q)] += 1
        # reference: all orbits
        orbits = {
            canonical_instance(a, b, c, d)
            for a in range(nshells)
            for b in range(nshells)
            for c in range(nshells)
            for d in range(nshells)
        }
        assert set(counts) == orbits
        assert all(v == 1 for v in counts.values())

    def test_task_gate(self):
        """Tasks failing SymmetryCheck(M, N) compute nothing."""
        m, n = 2, 4  # symmetry_check(2, 4) is False
        assert not symmetry_check(m, n)
        for p in range(6):
            for q in range(6):
                assert not task_computes(m, n, p, q)

    def test_diagonal_task_tiebreak(self):
        """Diagonal tasks keep only P <= Q among passing loop points."""
        m = 3
        passing = [
            (p, q)
            for p in range(8)
            for q in range(8)
            if task_computes(m, m, p, q)
        ]
        assert all(p <= q for p, q in passing)
        assert passing  # and there are some


class TestArrayPredicates:
    def test_match_scalar_oracles(self):
        """Elementwise over index arrays == the scalar predicates."""
        m, n, p, q = np.indices((7, 7, 7, 7)).reshape(4, -1)
        assert symmetry_check(m, n).tolist() == [
            scalar.symmetry_check(a, b) for a, b in zip(m.tolist(), n.tolist())
        ]
        assert task_computes(m, n, p, q).tolist() == [
            scalar.task_computes(*t)
            for t in zip(m.tolist(), n.tolist(), p.tolist(), q.tolist())
        ]
