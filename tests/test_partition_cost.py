"""Tests for the static 2-D partition and the vectorized task cost matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane, water
from repro.fock.cost import parity_allowed, quartet_cost_matrix
from repro.fock.partition import StaticPartition, TaskBlock
from repro.fock.screening_map import ScreeningMap
from reference_tasks import block_tasks, enumerate_task_quartets, exact_diagonal
from repro.fock.symmetry import symmetry_check
from repro.integrals.schwarz import schwarz_model


def owner_of_task(part: StaticPartition, m: int, n: int) -> int:
    """Linear process id initially owning task (M, N), by bisection."""
    gi = int(np.searchsorted(part.row_shell_bounds, m, side="right")) - 1
    gj = int(np.searchsorted(part.col_shell_bounds, n, side="right")) - 1
    return part.proc_id(gi, gj)


class TestStaticPartition:
    @given(st.integers(1, 64), st.integers(8, 60))
    @settings(max_examples=50, deadline=None)
    def test_blocks_tile_task_grid(self, nproc, nshells):
        if nshells < nproc:
            return
        part = StaticPartition.build(nshells, nproc)
        covered = np.zeros((nshells, nshells), dtype=int)
        for p in range(part.nproc):
            blk = part.task_block(p)
            covered[blk.row_lo : blk.row_hi, blk.col_lo : blk.col_hi] += 1
        assert np.all(covered == 1)

    def test_owner_of_task_matches_blocks(self):
        part = StaticPartition.build(20, 6)
        for p in range(6):
            blk = part.task_block(p)
            for (m, n) in block_tasks(blk):
                assert owner_of_task(part, m, n) == p

    def test_too_many_procs_rejected(self):
        with pytest.raises(ValueError):
            StaticPartition.build(3, 16)

    def test_matrix_bounds_follow_shells(self):
        basis = BasisSet.build(water(), "sto-3g")
        part = StaticPartition.build(basis.nshells, 4)
        rb, cb = part.matrix_bounds(basis)
        assert rb[0] == 0 and rb[-1] == basis.nbf
        assert np.all(np.diff(rb) > 0)

    def test_task_block_tasks_count(self):
        blk = TaskBlock(2, 5, 1, 4)
        assert blk.ntasks == 9
        assert len(block_tasks(blk)) == 9


class TestParityAllowed:
    @given(st.integers(0, 40), st.integers(2, 50))
    @settings(max_examples=60, deadline=None)
    def test_matches_symmetry_check(self, m, ns):
        if m >= ns:
            return
        mask = parity_allowed(m, ns)
        for p in range(ns):
            assert mask[p] == symmetry_check(m, p)


@pytest.fixture(scope="module")
def small_screen():
    basis = BasisSet.build(alkane(5), "sto-3g")
    return ScreeningMap(basis, schwarz_model(basis), 1e-8)


class TestCostMatrix:
    def test_exact_diagonal_matches_enumeration(self, small_screen):
        """Vectorized counts == per-task enumeration, every task."""
        costs = exact_diagonal(small_screen, quartet_cost_matrix(small_screen))
        sizes = small_screen.basis.shell_sizes().astype(float)
        ns = small_screen.nshells
        for m in range(0, ns, 3):
            for n in range(0, ns, 4):
                cnt = 0
                eri = 0.0
                for (mm, p, nn, q) in enumerate_task_quartets(small_screen, m, n):
                    cnt += 1
                    eri += sizes[mm] * sizes[p] * sizes[nn] * sizes[q]
                assert costs.quartets[m, n] == pytest.approx(cnt)
                assert costs.eris[m, n] == pytest.approx(eri)

    def test_total_matches_unique_count(self, small_screen):
        """Sum over all tasks == number of unique screened quartets."""
        from reference_fock import canonical_shell_quartets

        costs = exact_diagonal(small_screen, quartet_cost_matrix(small_screen))
        unique = sum(
            1 for _ in canonical_shell_quartets(small_screen.sigma, small_screen.tau)
        )
        assert costs.quartets.sum() == pytest.approx(unique)

    def test_gated_tasks_zero(self, small_screen):
        costs = quartet_cost_matrix(small_screen)
        ns = small_screen.nshells
        for m in range(ns):
            for n in range(ns):
                if not symmetry_check(m, n):
                    assert costs.quartets[m, n] == 0.0

    def test_approx_diagonal_close(self, small_screen):
        exact = exact_diagonal(small_screen, quartet_cost_matrix(small_screen))
        approx = quartet_cost_matrix(small_screen)
        off = ~np.eye(small_screen.nshells, dtype=bool)
        assert np.allclose(exact.quartets[off], approx.quartets[off])
        # diagonal approximation within a factor ~2
        d_e = exact.quartets.diagonal().sum()
        d_a = approx.quartets.diagonal().sum()
        assert 0.5 * d_e <= d_a <= 2.0 * d_e + 1

    def test_screening_reduces_work(self, small_screen):
        """Tighter tau keeps more quartets."""
        loose = quartet_cost_matrix(small_screen)
        tight_screen = ScreeningMap(
            small_screen.basis, small_screen.sigma, 1e-3
        )
        tight = quartet_cost_matrix(tight_screen)
        assert tight.quartets.sum() < loose.quartets.sum()
