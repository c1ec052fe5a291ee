"""Tests for prefetch footprints and both task decompositions."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_fock import canonical_shell_quartets
from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane, methane
from repro.fock.partition import StaticPartition, TaskBlock
from repro.fock.prefetch import (
    block_footprint,
    footprint_bounding_boxes,
    rank_footprints,
)
from repro.fock.screening_map import ScreeningMap
from reference_tasks import (
    atom_quartet_shell_quartets,
    canonical_instance,
    enumerate_task_quartets,
)
from reference_nwchem import nwchem_task_list, nwchem_task_rows
from repro.fock.nwchem_cost import atom_sigma
from repro.fock.tasks import gtfock_task_rows
from repro.integrals.class_batch import build_class_plan, canonical_quartet_array
from repro.integrals.schwarz import schwarz_matrix, schwarz_model


@pytest.fixture(scope="module")
def screen():
    basis = BasisSet.build(alkane(10), "vdz-sim")
    return ScreeningMap(basis, schwarz_model(basis), 1e-10)


def ga_calls_for_footprint(fp, row_bounds, col_bounds) -> int:
    """Number of one-sided GA calls to fetch a footprint: the oracle of
    ``rank_footprints``'s call counts.

    One call per (fetch-region bounding box, owner process) intersection,
    mirroring strided GA gets against a 2-D blocked array with
    shell-block boundaries ``row_bounds``/``col_bounds`` (shell indices).
    """
    calls = 0
    for r0, r1, c0, c1 in footprint_bounding_boxes(fp):
        gi0 = int(np.searchsorted(row_bounds, r0, side="right")) - 1
        gi1 = int(np.searchsorted(row_bounds, r1 - 1, side="right")) - 1
        gj0 = int(np.searchsorted(col_bounds, c0, side="right")) - 1
        gj1 = int(np.searchsorted(col_bounds, c1 - 1, side="right")) - 1
        calls += (gi1 - gi0 + 1) * (gj1 - gj0 + 1)
    return calls


class TestFootprint:
    def test_covers_task_reads(self, screen):
        """Every D pair a task's quartets read lies inside the footprint
        (in at least one orientation -- D is symmetric)."""
        m, n = 7, 19
        fp = block_footprint(screen, TaskBlock(m, m + 1, n, n + 1))
        union = fp.row_pairs | fp.col_pairs | np.outer(fp.phi_rows, fp.phi_cols)
        for (mm, p, nn, q) in enumerate_task_quartets(screen, m, n):
            for (a, b) in (
                (mm, p), (nn, q), (p, q), (mm, nn), (mm, q), (p, nn),
            ):
                assert union[a, b] or union[b, a], f"pair {(a, b)} uncovered"

    def test_block_smaller_than_sum_of_tasks(self, screen):
        """The Figure-1 effect: union footprint << per-task sum."""
        blk = TaskBlock(5, 15, 10, 20)
        fp = block_footprint(screen, blk)
        per_task_sum = sum(
            block_footprint(screen, TaskBlock(m, m + 1, n, n + 1)).elements
            for (m, n) in blk.tasks()
        )
        assert fp.elements < 0.25 * per_task_sum

    def test_elements_counts_union(self, screen):
        fp = block_footprint(screen, TaskBlock(0, 2, 0, 2))
        sizes = screen.basis.shell_sizes()
        union = fp.row_pairs | fp.col_pairs | np.outer(fp.phi_rows, fp.phi_cols)
        manual = int((sizes[:, None] * sizes[None, :])[union].sum())
        assert fp.elements == manual

    def test_bounding_boxes_cover_regions(self, screen):
        fp = block_footprint(screen, TaskBlock(3, 6, 8, 11))
        boxes = footprint_bounding_boxes(fp)
        assert 1 <= len(boxes) <= 3
        union = fp.row_pairs | fp.col_pairs | np.outer(fp.phi_rows, fp.phi_cols)
        covered = np.zeros_like(union)
        for r0, r1, c0, c1 in boxes:
            covered[r0:r1, c0:c1] = True
        assert np.all(covered[union])

    def test_ga_calls_scale_with_grid(self, screen):
        fp = block_footprint(screen, TaskBlock(0, 4, 0, 4))
        part1 = StaticPartition.build(screen.nshells, 1)
        part4 = StaticPartition.build(screen.nshells, 16)
        c1 = ga_calls_for_footprint(fp, part1.row_shell_bounds, part1.col_shell_bounds)
        c4 = ga_calls_for_footprint(fp, part4.row_shell_bounds, part4.col_shell_bounds)
        assert c1 <= c4
        assert c1 >= 1


def _per_rank_footprints(screen, part):
    """The loop ``simulate_gtfock`` ran before ``rank_footprints``."""
    elements, calls = [], []
    for p in range(part.nproc):
        fp = block_footprint(screen, part.task_block(p))
        elements.append(fp.elements)
        calls.append(ga_calls_for_footprint(
            fp, part.row_shell_bounds, part.col_shell_bounds
        ))
    return np.array(elements), np.array(calls)


@st.composite
def _random_screen_and_grid(draw):
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # random symmetric significance pattern of random density; the
    # diagonal is forced true by ScreeningMap.significant itself
    upper = np.triu(rng.random((n, n)) < rng.random(), 1)
    sigma = np.where(upper | upper.T, 1.0, 1e-30)
    sizes = rng.integers(1, 7, size=n)
    basis = SimpleNamespace(nshells=n, shell_sizes=lambda: sizes)
    screen = ScreeningMap(basis, sigma, 1e-10)

    def cuts(nblocks):
        inner = rng.choice(np.arange(1, n), size=nblocks - 1, replace=False)
        return np.concatenate(([0], np.sort(inner), [n])).astype(int)

    # independent uneven cuts: prow != pcol, 1x1 grids, row and column
    # blocks that overlap as shell ranges
    prow, pcol = draw(st.integers(1, min(n, 5))), draw(st.integers(1, min(n, 5)))
    part = StaticPartition(n, prow, pcol, cuts(prow), cuts(pcol))
    return screen, part


class TestRankFootprints:
    @given(_random_screen_and_grid())
    @settings(max_examples=200, deadline=None)
    def test_closed_form_equals_per_rank_masks(self, case):
        screen, part = case
        elements, calls = rank_footprints(screen, part)
        ref_elements, ref_calls = _per_rank_footprints(screen, part)
        assert np.array_equal(elements, ref_elements)
        assert np.array_equal(calls, ref_calls)
        assert elements.dtype == calls.dtype == np.int64

    @pytest.mark.parametrize("nproc", [1, 2, 6, 16])
    def test_real_screen_on_the_built_partition(self, screen, nproc):
        part = StaticPartition.build(screen.nshells, nproc)
        elements, calls = rank_footprints(screen, part)
        ref_elements, ref_calls = _per_rank_footprints(screen, part)
        assert np.array_equal(elements, ref_elements)
        assert np.array_equal(calls, ref_calls)


@pytest.fixture(scope="module")
def methane_screen():
    basis = BasisSet.build(methane(), "sto-3g")
    return ScreeningMap(basis, schwarz_matrix(basis), 1e-11)


class TestTaskDecompositions:
    def test_gtfock_tasks_cover_all_orbits_once(self, methane_screen):
        ref = {
            canonical_instance(m, n, p, q)
            for (m, n, p, q) in canonical_shell_quartets(
                methane_screen.sigma, methane_screen.tau
            )
        }
        counts = Counter()
        ns = methane_screen.nshells
        for m in range(ns):
            for n in range(ns):
                for (mm, p, nn, q) in enumerate_task_quartets(methane_screen, m, n):
                    counts[canonical_instance(mm, p, nn, q)] += 1
        assert set(counts) == ref
        assert all(v == 1 for v in counts.values())

    def test_nwchem_tasks_cover_all_orbits_once(self, methane_screen):
        ref = {
            canonical_instance(m, n, p, q)
            for (m, n, p, q) in canonical_shell_quartets(
                methane_screen.sigma, methane_screen.tau
            )
        }
        basis = methane_screen.basis
        soa = basis.atom_shell_lists()
        counts = Counter()
        for t in nwchem_task_list(methane_screen):
            for l_at in t.l_range():
                for (m, n, p, q) in atom_quartet_shell_quartets(
                    methane_screen, soa, t.i_at, t.j_at, t.k_at, l_at
                ):
                    counts[canonical_instance(m, n, p, q)] += 1
        assert set(counts) == ref
        assert all(v == 1 for v in counts.values())

    def test_nwchem_chunking(self, methane_screen):
        for chunk in (1, 3, 5):
            tasks = nwchem_task_list(methane_screen, chunk=chunk)
            for t in tasks:
                assert t.l_hi - t.l_lo + 1 <= chunk

    def test_atom_sigma_reduction(self, methane_screen):
        a_sig = atom_sigma(methane_screen)
        basis = methane_screen.basis
        soa = basis.atom_shell_lists()
        # atom value is the max of the shell-pair block
        blk = methane_screen.sigma[np.ix_(soa[0], soa[1])]
        assert a_sig[0, 1] == pytest.approx(float(blk.max()))
        assert np.allclose(a_sig, a_sig.T)

    @given(st.integers(0, 2**32 - 1), st.integers(-9, -2), st.sampled_from([1, 2, 5]))
    @settings(max_examples=15, deadline=None)
    def test_plan_row_owners_match_generators(self, seed, tau_exp, chunk):
        """On random screens every canonical plan row has exactly one
        GTFock and one NWChem owner, and each task's rows are its
        generator's quartets, in its loop order."""
        basis = BasisSet.build(alkane(2), "sto-3g")
        raw = 10.0 ** np.random.default_rng(seed).uniform(-8, 0, (basis.nshells,) * 2)
        screen = ScreeningMap(basis, np.sqrt(raw * raw.T), 10.0**tau_exp)
        plan = build_class_plan(
            basis, None, canonical_quartet_array(screen.sigma, screen.tau)
        )
        ns = basis.nshells
        gt = gtfock_task_rows(plan, ns)
        tasks = nwchem_task_list(screen, chunk)
        nw = nwchem_task_rows(plan, screen, tasks, chunk)
        for owners in (gt, nw):
            assert np.array_equal(np.sort(owners.rows), np.arange(plan.nquartets))
        for m in range(ns):
            for n in range(ns):
                assert gt.images[gt.of(m * ns + n)].tolist() == [
                    list(q) for q in enumerate_task_quartets(screen, m, n)
                ]
        soa = basis.atom_shell_lists()
        for t, task in enumerate(tasks):
            assert nw.images[nw.of(t)].tolist() == [
                list(q) for l_at in task.l_range()
                for q in atom_quartet_shell_quartets(
                    screen, soa, task.i_at, task.j_at, task.k_at, l_at
                )
            ]

    def test_gtfock_screening_tightens(self, methane_screen):
        """Stricter tau yields a subset of quartets per task."""
        loose = set(enumerate_task_quartets(methane_screen, 1, 1))
        tight_screen = ScreeningMap(methane_screen.basis, methane_screen.sigma, 1e-2)
        tight = set(enumerate_task_quartets(tight_screen, 1, 1))
        assert tight <= loose
