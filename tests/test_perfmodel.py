"""Tests for the Sec III-G performance model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane
from repro.fock.screening_map import ScreeningMap
from repro.integrals.schwarz import schwarz_model
from repro.model.perfmodel import PerfModel
from repro.runtime.machine import LONESTAR


def overhead_ratio_closed_form(m: PerfModel, p: int) -> float:
    """Eq (11) in closed form (must equal ``m.overhead_ratio(p)``)."""
    pref = 8.0 * m.element_size * (1.0 + m.s) / (m.beta * m.t_int * m.B**2)
    inner = (
        4.0 * m.B
        + 2.0 * (m.B - m.q) * math.sqrt(p) / m.nshells
        + 2.0 * m.q * p / m.nshells**2
    )
    return pref * inner


def isoefficiency_shells(m: PerfModel, p: int, l_target: float) -> float:
    """nshells holding L(p) = l_target: the closed form solved for nshells
    (quadratic in x = sqrt(p) / nshells)."""
    pref = 8.0 * m.element_size * (1.0 + m.s) / (m.beta * m.t_int * m.B**2)
    c0 = pref * 4.0 * m.B - l_target
    c1 = pref * 2.0 * (m.B - m.q)
    c2 = pref * 2.0 * m.q
    x = (-c1 + math.sqrt(c1 * c1 - 4.0 * c2 * c0)) / (2.0 * c2)
    return math.sqrt(p) / x


@pytest.fixture(scope="module")
def model():
    return PerfModel(t_int=4.76e-6, nshells=648, A=2.26, B=300.0, q=250.0, s=3.8)


class TestBasics:
    def test_tcomp_eq6(self, model):
        p = 100
        expected = 4.76e-6 * 300.0**2 * 2.26**2 * 648**2 / (8 * p)
        assert model.t_comp(p) == pytest.approx(expected)

    def test_v1_eq7(self, model):
        assert model.v1(4) == pytest.approx(4 * 2.26**2 * 300 * 648**2 / 4)

    def test_v2_eq8(self, model):
        p = 16
        nb = 648 / 4
        assert model.v2(p) == pytest.approx(2 * (nb * 50 + 250) * 2.26**2)

    def test_volume_eq9(self, model):
        p = 9
        assert model.volume(p) == pytest.approx(
            (1 + 3.8) * (model.v1(p) + model.v2(p))
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PerfModel(t_int=-1, nshells=10, A=1, B=5, q=1)
        with pytest.raises(ValueError):
            PerfModel(t_int=1e-6, nshells=10, A=1, B=5, q=9)


class TestClosedForm:
    @given(st.sampled_from([1, 4, 16, 144, 1024, 419904]))
    @settings(max_examples=10, deadline=None)
    def test_eq11_matches_definition(self, p):
        m = PerfModel(t_int=4.76e-6, nshells=648, A=2.26, B=300.0, q=250.0, s=3.8)
        assert overhead_ratio_closed_form(m, p) == pytest.approx(
            m.overhead_ratio(p), rel=1e-10
        )


class TestScalingLaws:
    def test_overhead_grows_with_p(self, model):
        ls = [model.overhead_ratio(p) for p in (4, 64, 1024, 16384)]
        assert ls == sorted(ls)

    def test_efficiency_decreases(self, model):
        es = [model.efficiency(p) for p in (4, 64, 1024)]
        assert es == sorted(es, reverse=True)

    def test_isoefficiency_sqrt_p(self, model):
        """Holding p/n^2 constant holds L constant (isoefficiency)."""
        l1 = model.overhead_ratio(model.nshells**2 // 100)
        scaled = PerfModel(
            t_int=model.t_int, nshells=model.nshells * 3, A=model.A,
            B=model.B, q=model.q, s=model.s,
        )
        l2 = scaled.overhead_ratio(scaled.nshells**2 // 100)
        assert l1 == pytest.approx(l2, rel=1e-10)

    def test_isoefficiency_solver_roundtrip(self, model):
        """Solving for nshells at a known model's own L recovers nshells."""
        p = 10_000
        ref = PerfModel(
            t_int=1e-8, nshells=500, A=model.A, B=model.B, q=model.q, s=model.s
        )
        target = ref.overhead_ratio(p)
        n_needed = isoefficiency_shells(ref, p, target)
        assert n_needed == pytest.approx(500.0, rel=1e-6)


class TestCrossoverAnalysis:
    def test_crossover_tint_consistent(self, model):
        p = 324
        t_cross = model.t_int * model.overhead_ratio(p)  # where L(p) = 1
        faster = PerfModel(
            t_int=t_cross, nshells=model.nshells, A=model.A, B=model.B,
            q=model.q, s=model.s,
        )
        assert faster.overhead_ratio(p) == pytest.approx(1.0, rel=1e-10)

    def test_paper_crossover_claim_direction(self):
        """Sec III-G: computation dominates by orders of magnitude.

        The paper concludes integrals must get ~50x faster before
        communication can dominate (Eq 12 at maximum parallelism); the
        printed constant is not recoverable from the garbled text, but
        the reproducible content is (a) L << 1 today and (b) a large
        required speedup that shrinks with B.
        """
        m = PerfModel(
            t_int=4.76e-6, nshells=648, A=2.26, B=400.0, q=370.0, s=3.8
        )
        assert m.max_parallelism_ratio() < 0.05  # compute-dominated
        speedup = 1.0 / m.max_parallelism_ratio()
        assert speedup > 20
        # denser molecules (larger B) are even more compute-dominated
        dense = PerfModel(
            t_int=4.76e-6, nshells=648, A=2.26, B=600.0, q=500.0, s=3.8
        )
        assert dense.max_parallelism_ratio() < m.max_parallelism_ratio()

    def test_from_screening(self):
        basis = BasisSet.build(alkane(10), "vdz-sim")
        screen = ScreeningMap(basis, schwarz_model(basis), 1e-10)
        m = PerfModel.from_screening(screen, LONESTAR, s=2.0)
        assert m.nshells == basis.nshells
        assert m.B == pytest.approx(screen.avg_phi)
        assert m.overhead_ratio(16) > 0
