"""Tests for the orbital summary ``repro scf`` prints."""

import numpy as np
import pytest

from repro.scf.properties import orbital_summary


class TestOrbitalSummary:
    def test_homo_lumo(self):
        eps = np.array([-2.0, -1.0, 0.5, 1.5])
        s = orbital_summary(eps, 2)
        assert s.homo == -1.0
        assert s.lumo == 0.5
        assert s.gap == 1.5

    def test_full_occupation_no_lumo(self):
        s = orbital_summary(np.array([-1.0, -0.5]), 2)
        assert s.lumo is None
        assert s.gap is None

    def test_invalid_nocc(self):
        with pytest.raises(ValueError):
            orbital_summary(np.array([-1.0]), 2)
