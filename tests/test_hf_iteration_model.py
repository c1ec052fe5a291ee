"""Tests for the whole-iteration time model (Fock + density step)."""

import pytest

from repro.dist.hf_iteration import (
    HFIterationBreakdown,
    diagonalization_time_model,
    hf_iteration_breakdown,
)
from repro.fock.simulate import FockSimResult
from repro.runtime.machine import LONESTAR


def fake_fock(cores, t):
    return FockSimResult(
        algorithm="gtfock", molecule="X", cores=cores, nproc=cores // 12,
        t_fock_max=t, t_fock_avg=t, t_comp_avg=t, t_overhead_avg=0.0,
        load_balance=1.0, comm_mb_per_proc=0.0, ga_calls_per_proc=0.0,
    )


class TestDiagModel:
    def test_scales_down_with_p_but_sublinearly(self):
        t1 = diagonalization_time_model(2250, 1, LONESTAR)
        t64 = diagonalization_time_model(2250, 64, LONESTAR)
        assert t64 < t1
        assert t1 / t64 < 64  # efficiency decays: sublinear speedup

    def test_cubic_in_n(self):
        t1 = diagonalization_time_model(1000, 4, LONESTAR)
        t2 = diagonalization_time_model(2000, 4, LONESTAR)
        assert 4.0 < t2 / t1 < 10.0  # cubic compute + linear sync mix

    def test_validation(self):
        with pytest.raises(ValueError):
            diagonalization_time_model(0, 4, LONESTAR)


class TestBreakdown:
    def test_percent_in_paper_band_at_paper_scale(self):
        """C150H30-like numbers: purification is a small, growing share."""
        pcts = []
        # Fock times roughly like the paper's scaling for C150H30
        for cores, t_fock in ((12, 2000.0), (192, 130.0), (3888, 8.0)):
            b = hf_iteration_breakdown(fake_fock(cores, t_fock), 2250, LONESTAR)
            pcts.append(b.purification_percent)
        assert all(0.1 < p < 25.0 for p in pcts)
        assert pcts == sorted(pcts)  # share grows with core count

    def test_purification_beats_diagonalization_at_scale(self):
        b = hf_iteration_breakdown(fake_fock(3888, 8.0), 2250, LONESTAR)
        assert b.t_purification < b.t_diagonalization

    def test_iteration_sums(self):
        b = HFIterationBreakdown(12, 10.0, 1.0, 3.0)
        assert b.t_iteration_purify == pytest.approx(11.0)
        assert b.purification_percent == pytest.approx(100.0 / 11.0)
