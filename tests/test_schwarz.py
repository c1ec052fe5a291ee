"""Tests for Cauchy-Schwarz screening bounds."""

import numpy as np
import pytest

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane
from reference_eri import eri_shell_quartet
from reference_kernel import pair_bound

from repro.integrals.schwarz import (
    schwarz_matrix,
    schwarz_model,
    screening_stats,
    unique_significant_quartet_count,
)


class TestExactBound:
    def test_is_true_upper_bound(self, water_basis):
        """|(MN|PQ)| <= sigma(MN) sigma(PQ) for every element."""
        sigma = schwarz_matrix(water_basis)
        ns = water_basis.nshells
        rng = np.random.default_rng(1)
        for _ in range(25):
            m, n, p, q = rng.integers(0, ns, 4)
            blk = eri_shell_quartet(
                water_basis.shells[m],
                water_basis.shells[n],
                water_basis.shells[p],
                water_basis.shells[q],
            )
            assert np.max(np.abs(blk)) <= sigma[m, n] * sigma[p, q] * (1 + 1e-10)

    def test_symmetric(self, water_basis):
        sigma = schwarz_matrix(water_basis)
        assert np.allclose(sigma, sigma.T)

    def test_nonnegative(self, water_basis):
        assert np.all(schwarz_matrix(water_basis) >= 0)

    def test_pair_bound_matches_matrix(self, water_basis):
        sigma = schwarz_matrix(water_basis)
        assert pair_bound(water_basis, 0, 3) == pytest.approx(sigma[0, 3])


class TestModelBound:
    @pytest.fixture(scope="class")
    def pair(self):
        basis = BasisSet.build(alkane(4), "sto-3g")
        return basis, schwarz_matrix(basis), schwarz_model(basis)

    def test_exact_on_diagonal(self, pair):
        _b, exact, model = pair
        assert np.allclose(np.diag(model), np.diag(exact), rtol=1e-10)

    def test_decays_with_distance(self, pair):
        basis, _e, model = pair
        centers = basis.centers
        d_near = np.linalg.norm(centers[0] - centers[1])
        far = int(np.argmax(np.linalg.norm(centers - centers[0], axis=1)))
        assert model[0, far] < model[0, 1]
        assert d_near < np.linalg.norm(centers[0] - centers[far])

    def test_rank_correlation_with_exact(self, pair):
        """Model ordering of pair magnitudes tracks the exact ordering."""
        _b, exact, model = pair
        iu = np.triu_indices_from(exact, k=1)
        e, m = np.log10(exact[iu] + 1e-300), np.log10(model[iu] + 1e-300)
        # Spearman-ish: correlation of ranks
        er = np.argsort(np.argsort(e))
        mr = np.argsort(np.argsort(m))
        corr = np.corrcoef(er, mr)[0, 1]
        assert corr > 0.85

    def test_symmetric(self, pair):
        _b, _e, model = pair
        assert np.allclose(model, model.T)


class TestStatsAndCounts:
    def test_screening_stats_keys(self, water_basis):
        sigma = schwarz_matrix(water_basis)
        st = screening_stats(sigma, 1e-10)
        assert st["nshells"] == water_basis.nshells
        assert 0 < st["fraction_significant"] <= 1

    def test_unique_count_no_screening(self):
        """tau=0 keeps all: count = npair(npair+1)/2 with npair=n(n+1)/2."""
        n = 6
        sigma = np.ones((n, n))
        npair = n * (n + 1) // 2
        expected = npair * (npair + 1) // 2
        assert unique_significant_quartet_count(sigma, 0.0) == expected

    def test_unique_count_full_screening(self):
        sigma = np.full((4, 4), 1e-8)
        assert unique_significant_quartet_count(sigma, 1.0) == 0

    def test_unique_count_matches_bruteforce(self, water_basis):
        sigma = schwarz_matrix(water_basis)
        tau = 1e-4  # aggressive so screening actually drops quartets
        ns = water_basis.nshells
        brute = 0
        for m in range(ns):
            for n in range(m + 1):
                for p in range(m + 1):
                    qmax = n if p == m else p
                    for q in range(qmax + 1):
                        if sigma[m, n] * sigma[p, q] >= tau:
                            brute += 1
        fast = unique_significant_quartet_count(sigma, tau)
        assert fast == brute

    def test_monotone_in_tau(self, water_basis):
        sigma = schwarz_matrix(water_basis)
        counts = [
            unique_significant_quartet_count(sigma, t)
            for t in (1e-12, 1e-8, 1e-4, 1e-1)
        ]
        assert counts == sorted(counts, reverse=True)
