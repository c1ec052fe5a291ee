"""Tests for ScreeningMap and the spatial shell reordering."""

import numpy as np
import pytest

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane, graphene_flake
from repro.fock.reorder import bandwidth_of, cell_reordering, reorder_basis
from repro.fock.screening_map import ScreeningMap
from repro.integrals.schwarz import schwarz_model


@pytest.fixture(scope="module")
def alkane_screen():
    basis = BasisSet.build(alkane(12), "vdz-sim")
    return ScreeningMap(basis, schwarz_model(basis), 1e-10)


class TestScreeningMap:
    def test_phi_contains_self(self, alkane_screen):
        for m in range(alkane_screen.nshells):
            assert m in alkane_screen.phi[m]

    def test_phi_symmetric(self, alkane_screen):
        sig = alkane_screen.significant
        assert np.array_equal(sig, sig.T)

    def test_avg_phi_between_1_and_n(self, alkane_screen):
        assert 1.0 <= alkane_screen.avg_phi <= alkane_screen.nshells

    def test_q_at_most_B(self, alkane_screen):
        assert alkane_screen.avg_consecutive_overlap <= alkane_screen.avg_phi

    def test_screening_actually_drops_pairs(self, alkane_screen):
        """A 12-carbon chain is long enough for far pairs to screen out."""
        frac = alkane_screen.significant.mean()
        assert frac < 0.995

    def test_phi_union(self, alkane_screen):
        u = alkane_screen.phi_union(np.array([0, 1]))
        manual = np.zeros(alkane_screen.nshells, dtype=bool)
        manual[alkane_screen.phi[0]] = True
        manual[alkane_screen.phi[1]] = True
        assert np.array_equal(u, manual)

    def test_mismatched_sigma_rejected(self, alkane_screen):
        with pytest.raises(ValueError):
            ScreeningMap(alkane_screen.basis, np.ones((3, 3)), 1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5], ids=["nan", "inf", "negative"])
    def test_bad_sigma_rejected(self, bad):
        """One bad pair value used to pass (NaN deviations compare False)
        and turn the task cost matrix into garbage."""
        basis = BasisSet.build(alkane(2), "sto-3g")
        sigma = np.full((basis.nshells, basis.nshells), 0.5)
        sigma[0, 3] = sigma[3, 0] = bad
        with pytest.raises(ValueError, match="sigma"):
            ScreeningMap(basis, sigma, 1e-6)

    def test_bad_tau_rejected(self, alkane_screen):
        with pytest.raises(ValueError):
            ScreeningMap(alkane_screen.basis, alkane_screen.sigma, 0.0)

    def test_infinite_tau_rejected(self, alkane_screen):
        """tau = +inf used to pass and screen out every quartet."""
        with pytest.raises(ValueError, match="tau"):
            ScreeningMap(alkane_screen.basis, alkane_screen.sigma, np.inf)

    def test_all_zero_sigma_keeps_only_the_diagonal(self, alkane_screen):
        """A zero Schwarz bound is a true bound, not an error."""
        ns = alkane_screen.nshells
        screen = ScreeningMap(alkane_screen.basis, np.zeros((ns, ns)), 1e-10)
        assert np.array_equal(screen.significant, np.eye(ns, dtype=bool))
        assert screen.stats()["significant_pairs"] == ns

    def test_stats_keys(self, alkane_screen):
        st = alkane_screen.stats()
        assert {"A_avg_shell_size", "B_avg_phi", "q_avg_overlap"} <= set(st)


class TestReordering:
    @pytest.fixture(scope="class")
    def basis(self):
        # scramble an alkane's shells first so reordering has work to do
        basis = BasisSet.build(alkane(16), "vdz-sim")
        rng = np.random.default_rng(0)
        return basis.permuted(rng.permutation(basis.nshells))

    def test_is_permutation(self, basis):
        order = cell_reordering(basis)
        assert sorted(order.tolist()) == list(range(basis.nshells))

    def test_reduces_bandwidth(self, basis):
        """Reordering recovers near the natural chain order's bandwidth.

        The scrambled basis has large index bandwidth; the cell reorder
        must shrink it back to within ~15% of the unscrambled atom-order
        bandwidth (which is near-optimal for a linear alkane).
        """
        sig_before = ScreeningMap(basis, schwarz_model(basis), 1e-10).significant
        rb = reorder_basis(basis)
        sig_after = ScreeningMap(rb, schwarz_model(rb), 1e-10).significant
        natural = BasisSet.build(alkane(16), "vdz-sim")
        sig_nat = ScreeningMap(natural, schwarz_model(natural), 1e-10).significant
        assert bandwidth_of(sig_after) < bandwidth_of(sig_before)
        assert bandwidth_of(sig_after) <= 1.15 * bandwidth_of(sig_nat)

    def test_hilbert_also_reduces(self, basis):
        sig_before = ScreeningMap(basis, schwarz_model(basis), 1e-10).significant
        rb = reorder_basis(basis, ordering="hilbert")
        sig_after = ScreeningMap(rb, schwarz_model(rb), 1e-10).significant
        assert bandwidth_of(sig_after) < bandwidth_of(sig_before)

    def test_none_is_identity(self, basis):
        order = cell_reordering(basis, ordering="none")
        assert np.array_equal(order, np.arange(basis.nshells))

    def test_unknown_ordering_rejected(self, basis):
        with pytest.raises(ValueError):
            cell_reordering(basis, ordering="zigzag")

    def test_bad_cell_size_rejected(self, basis):
        with pytest.raises(ValueError):
            cell_reordering(basis, cell_size=0.0)

    def test_groups_atoms_spatially(self):
        """After reordering, consecutive shells are spatially close."""
        basis = BasisSet.build(graphene_flake(3), "vdz-sim")
        rng = np.random.default_rng(1)
        scrambled = basis.permuted(rng.permutation(basis.nshells))
        rb = reorder_basis(scrambled, cell_size=4.0)
        centers = rb.centers
        gaps = np.linalg.norm(np.diff(centers, axis=0), axis=1)
        scrambled_gaps = np.linalg.norm(
            np.diff(scrambled.centers, axis=0), axis=1
        )
        assert np.median(gaps) < 0.5 * np.median(scrambled_gaps)
