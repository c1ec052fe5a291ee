"""Tests for UHF, RI-J density fitting, and 3-center integrals."""

import numpy as np
import pytest

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell
from repro.chem.builders import h2
from repro.chem.molecule import Molecule
from repro.integrals.engine import MDEngine
from repro.integrals.eri_3center import eri_2center_block, eri_3center_block
from repro.integrals.eri_md import eri_shell_quartet
from repro.integrals.oneelec import overlap
from repro.scf.fock import build_jk
from repro.scf.hf import RHF
from repro.scf.ri import RIJBuilder, even_tempered_auxiliary
from repro.scf.uhf import UHF


def h_atom():
    return Molecule.from_arrays(["H"], np.zeros((1, 3)), name="H")


class TestUHF:
    def test_h_atom_literature(self):
        """H atom with STO-3G: E = -0.466582 (exact for this basis)."""
        res = UHF(h_atom()).run()
        assert res.converged
        assert res.energy == pytest.approx(-0.466582, abs=1e-5)

    def test_closed_shell_equals_rhf(self):
        e_uhf = UHF(h2(0.7414)).run().energy
        e_rhf = RHF(h2(0.7414)).run().energy
        assert e_uhf == pytest.approx(e_rhf, abs=1e-8)

    def test_symmetry_breaking_below_rhf_at_dissociation(self):
        """Stretched H2: broken-symmetry UHF lies well below RHF."""
        e_uhf = UHF(h2(2.5), guess_mix=0.4).run().energy
        e_rhf = RHF(h2(2.5)).run().energy
        assert e_uhf < e_rhf - 0.05

    def test_spin_contamination_detected(self):
        """Broken-symmetry UHF has <S^2> above the singlet value 0."""
        mol = h2(2.5)
        uhf = UHF(mol, guess_mix=0.4)
        res = uhf.run()
        s = overlap(BasisSet.build(mol, "sto-3g"))
        s2 = res.s_squared(s, uhf.n_alpha, uhf.n_beta)
        assert s2 > 0.5

    def test_closed_shell_s_squared_zero(self):
        mol = h2(0.7414)
        uhf = UHF(mol)
        res = uhf.run()
        s = overlap(BasisSet.build(mol, "sto-3g"))
        assert res.s_squared(s, uhf.n_alpha, uhf.n_beta) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_doublet_spin_density_integrates_to_one(self):
        res = UHF(h_atom()).run()
        assert np.trace(res.spin_density) == pytest.approx(1.0, abs=1e-8)

    def test_impossible_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            UHF(h2(0.7), multiplicity=2)  # 2 electrons cannot be a doublet

    @pytest.mark.parametrize(
        "mol, kw, sweeps",
        [(h2(0.7414), {}, 3), (h2(2.5), {"guess_mix": 0.4}, 3),
         (h_atom(), {}, 2)],
        ids=["h2", "h2-broken-symmetry", "h-atom-no-beta"],
    )
    def test_one_integral_pass_per_iteration(self, mol, kw, sweeps):
        """Both spins from one stacked build: 3x fewer quartets than the
        J(Da+Db), K(Da), K(Db) sweeps (2x with no beta electrons)."""

        class ThreeSweepUHF(UHF):
            def _fock_pair(self, h, d_a, d_b):
                j_tot, _ = build_jk(self.engine, d_a + d_b, self.tau)
                _, k_a = build_jk(self.engine, d_a, self.tau)
                if self.n_beta == 0:
                    return h + j_tot - k_a, h + j_tot
                _, k_b = build_jk(self.engine, d_b, self.tau)
                return h + j_tot - k_a, h + j_tot - k_b

        new, old = UHF(mol, **kw), ThreeSweepUHF(mol, **kw)
        res, ref = new.run(), old.run()
        assert abs(res.energy - ref.energy) <= 1e-10
        # iteration counts may differ by rounding noise at convergence
        per_iteration = new.engine.class_plan(new.tau).nquartets
        assert new.engine.quartets_computed == res.iterations * per_iteration
        assert old.engine.quartets_computed == \
            sweeps * ref.iterations * per_iteration

    def test_triplet_h2_above_singlet_at_equilibrium(self):
        e_singlet = UHF(h2(0.7414), multiplicity=1).run().energy
        e_triplet = UHF(h2(0.7414), multiplicity=3).run().energy
        assert e_triplet > e_singlet + 0.1


def s_shell(alpha, center=(0, 0, 0)):
    return Shell(l=0, exps=np.array([alpha]), coefs=np.array([1.0]),
                 center=np.array(center, dtype=float), atom_index=0)


class TestThreeCenter:
    def test_against_4center_with_sharp_probe(self):
        """(ab|P) is the limit of (ab|PP') as the fourth index tends to a
        point probe... instead validate via the fitted identity: the
        2-center (P|Q) must equal the 3-center with an s-pair collapsed.

        Direct check: (ss|P) computed two ways -- the dedicated 3-center
        code vs the 4-center code with the auxiliary role played by a
        product whose second factor is an extremely diffuse, nearly
        constant Gaussian rescaled to unit value at the center.
        """
        a = s_shell(1.1)
        b = s_shell(0.7, (0.0, 0.0, 0.8))
        p = s_shell(0.9, (0.4, 0.2, -0.3))
        val3 = eri_3center_block(a, b, p)[0, 0, 0]
        # 4-center with an almost-flat partner: (ab|pq) -> N_q * (ab|p)
        # as q -> 0 (q's normalized Gaussian tends to N_q * 1)
        q_exp = 1e-8
        q_sh = s_shell(q_exp, (0.4, 0.2, -0.3))
        n_q = (2.0 * q_exp / np.pi) ** 0.75
        val4 = eri_shell_quartet(a, b, p, q_sh)[0, 0, 0, 0]
        assert val4 / n_q == pytest.approx(val3, rel=1e-5)

    def test_2center_consistent_with_3center(self):
        """(P|Q) equals (sP'|Q)-style consistency via the flat-probe trick."""
        p = s_shell(1.3)
        q = s_shell(0.6, (0.0, 0.0, 1.1))
        val2 = eri_2center_block(p, q)[0, 0]
        flat_exp = 1e-8
        flat = s_shell(flat_exp, (0.0, 0.0, 0.0))
        n_flat = (2.0 * flat_exp / np.pi) ** 0.75
        val3 = eri_3center_block(p, flat, q)[0, 0, 0]
        assert val3 / n_flat == pytest.approx(val2, rel=1e-5)

    def test_2center_symmetric_positive(self):
        shells = [s_shell(0.5), s_shell(1.5, (1, 0, 0)), s_shell(3.0, (0, 1, 0))]
        n = len(shells)
        v = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                v[i, j] = eri_2center_block(shells[i], shells[j])[0, 0]
        assert np.allclose(v, v.T, atol=1e-12)
        assert np.linalg.eigvalsh(v).min() > 0  # Coulomb metric is PD

    def test_3center_bra_symmetry(self):
        a = s_shell(1.1)
        b = s_shell(0.7, (0.0, 0.0, 0.8))
        p = s_shell(0.9, (0.4, 0.2, -0.3))
        x = eri_3center_block(a, b, p)
        y = eri_3center_block(b, a, p)
        assert np.allclose(x, y.transpose(1, 0, 2), atol=1e-13)


class TestRIJ:
    @pytest.fixture(scope="class")
    def h2_state(self):
        mol = h2(0.7414)
        basis = BasisSet.build(mol, "sto-3g")
        d = RHF(mol).run().density
        j_exact, _ = build_jk(MDEngine(basis), d, 0.0)
        return basis, d, j_exact

    def test_fitting_accuracy(self, h2_state):
        basis, d, j_exact = h2_state
        ri = RIJBuilder.build(basis)
        assert ri.fitting_error(d, j_exact) < 1e-4

    def test_richer_auxiliary_improves(self, h2_state):
        basis, d, j_exact = h2_state
        coarse = RIJBuilder.build(basis, even_tempered_auxiliary(basis, nper=6))
        rich = RIJBuilder.build(
            basis, even_tempered_auxiliary(basis, beta=1.6, nper=12, lmax=2)
        )
        assert rich.fitting_error(d, j_exact) < coarse.fitting_error(d, j_exact)

    def test_fitted_j_symmetric(self, h2_state):
        basis, d, _j = h2_state
        jfit = RIJBuilder.build(basis).coulomb(d)
        assert np.allclose(jfit, jfit.T, atol=1e-10)

    def test_auxiliary_generation_validates(self, h2_state):
        basis, _d, _j = h2_state
        with pytest.raises(ValueError):
            even_tempered_auxiliary(basis, beta=0.9)
