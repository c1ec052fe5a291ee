"""Tests for the vectorized NWChem task-cost estimation."""

import numpy as np
import pytest

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane, water_cluster
from repro.fock.cost import quartet_cost_matrix
from reference_centralized import reference_task_arrays
from repro.fock import nwchem_cost
from repro.fock.nwchem_cost import build_nwchem_task_arrays, nwchem_task_shape
from repro.fock.screening_map import ScreeningMap
from repro.integrals.schwarz import schwarz_model
from repro.runtime.machine import LONESTAR


@pytest.fixture(scope="module")
def screen():
    basis = BasisSet.build(alkane(8), "vdz-sim")
    return ScreeningMap(basis, schwarz_model(basis), 1e-10)


class TestTaskArrays:
    def test_costs_normalized_to_exact_total(self, screen):
        total = quartet_cost_matrix(screen).total_eris
        arrays = build_nwchem_task_arrays(screen, total, 1e-6, 0.0)
        assert arrays.cost.sum() == pytest.approx(total * 1e-6, rel=1e-9)

    def test_task_overhead_added_per_task(self, screen):
        total = quartet_cost_matrix(screen).total_eris
        without = build_nwchem_task_arrays(screen, total, 1e-6, 0.0)
        with_oh = build_nwchem_task_arrays(screen, total, 1e-6, 1e-3)
        assert with_oh.cost.sum() == pytest.approx(
            without.cost.sum() + 1e-3 * without.ntasks, rel=1e-9
        )

    def test_comm_nonnegative_and_paired(self, screen):
        total = quartet_cost_matrix(screen).total_eris
        arrays = build_nwchem_task_arrays(screen, total, 1e-6, 0.0)
        assert np.all(arrays.comm_bytes >= 0)
        # 12 calls per surviving quartet: calls are multiples of 12
        assert np.all(arrays.comm_calls % 12 == 0)
        # tasks with zero calls move zero bytes
        assert np.all(arrays.comm_bytes[arrays.comm_calls == 0] == 0)

    def test_dense_3d_system(self):
        """A 3-D cluster (every pair significant) still enumerates fine."""
        basis = BasisSet.build(water_cluster(2, 2, 1), "vdz-sim")
        screen = ScreeningMap(basis, schwarz_model(basis), 1e-10)
        total = quartet_cost_matrix(screen).total_eris
        arrays = build_nwchem_task_arrays(screen, total, 1e-6, 0.0)
        assert arrays.ntasks > 0
        assert arrays.cost.sum() > 0


class TestSharedTaskShape:
    """The machine-independent half is built once per screen; scaling it
    is bitwise the unsplit build kept in ``tests/reference_centralized.py``."""

    def test_two_machines_off_one_cached_shape(self, screen, monkeypatch):
        total = quartet_cost_matrix(screen).total_eris
        shape = nwchem_task_shape(screen)
        # from here on the shape may only come from the cache
        monkeypatch.setattr(nwchem_cost, "_build_task_shape", None)
        machines = (
            LONESTAR,
            LONESTAR.with_(t_int_nwchem=1.7e-6, task_overhead=3e-7,
                           element_size=4),
        )
        for cfg in machines:
            new = build_nwchem_task_arrays(
                screen, total, cfg.t_int_nwchem, cfg.task_overhead,
                element_size=cfg.element_size,
            )
            ref = reference_task_arrays(
                screen, total, cfg.t_int_nwchem, cfg.task_overhead,
                element_size=cfg.element_size,
            )
            assert new.ntasks == ref.ntasks == shape.ntasks
            assert new.total_eris == ref.total_eris
            for field in ("cost", "comm_bytes", "comm_calls"):
                a, b = getattr(new, field), getattr(ref, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), field

    def test_cache_is_per_screen_and_per_knobs(self, screen):
        assert nwchem_task_shape(screen) is nwchem_task_shape(screen)
        other = ScreeningMap(screen.basis, screen.sigma, screen.tau)
        assert nwchem_task_shape(other) is not nwchem_task_shape(screen)
        assert other == screen  # the memo is not part of the value
