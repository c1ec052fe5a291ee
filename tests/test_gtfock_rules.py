"""The numeric GTFock build runs the simulator's rules.

Given one partition, ``gtfock_build`` hands the work-stealing scheduler
the task queues and task costs ``simulate_gtfock`` does, fetches D in
the GA calls ``rank_footprints`` counts, and moves at least the union
bytes the simulator charges.  The byte gap is ROADMAP item 9's finding:
the numeric build fetches three overlapping boxes, the simulator
charges their union.
"""

import numpy as np
import pytest

from reference_tasks import block_tasks
from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane, water_cluster
from repro.fock import gtfock, simulate
from repro.fock.prefetch import rank_footprints
from repro.fock.reorder import reorder_basis
from repro.integrals.engine import MDEngine
from repro.integrals.oneelec import one_electron
from repro.obs.flight import CH_PREFETCH_GET
from repro.runtime.machine import LONESTAR
from repro.scf.guess import core_guess
from repro.scf.orthogonalization import orthogonalizer

SYSTEMS = {
    "water4-631g": (water_cluster(4, 1, 1), "6-31g"),
    "butane-sto3g": (alkane(4), "sto-3g"),
}


@pytest.fixture(scope="module", params=list(SYSTEMS))
def system(request):
    """A reordered system's (engine, Hcore, core-guess D); one engine
    for every process count."""
    mol, basis_name = SYSTEMS[request.param]
    basis = reorder_basis(BasisSet.build(mol, basis_name))
    s, t, v = one_electron(basis)
    hcore = t + v
    d = core_guess(hcore, orthogonalizer(s), mol.nelectrons // 2)
    return MDEngine(basis), hcore, d


def scheduled(monkeypatch, module) -> list:
    """Every ``(queues, costs)`` that ``module`` hands the scheduler."""
    seen, real = [], module.run_work_stealing

    def spy(queues, cost_of, *args, **kwargs):
        seen.append((
            [np.asarray(q) for q in queues],
            [np.asarray(cost_of(q)) for q in queues],
        ))
        return real(queues, cost_of, *args, **kwargs)

    monkeypatch.setattr(module, "run_work_stealing", spy)
    return seen


@pytest.mark.parametrize("nproc", [1, 4, 9])
def test_numeric_build_runs_the_simulator_rules(
    system, nproc, monkeypatch, record_property
):
    engine, hcore, density = system
    numeric = scheduled(monkeypatch, gtfock)
    simulated = scheduled(monkeypatch, simulate)
    res = gtfock.gtfock_build(engine, hcore, density, nproc)
    simulate.simulate_gtfock(
        engine.basis, res.screen, nproc * LONESTAR.cores_per_node,
        costs=res.costs,
    )
    (queues, costs), (sim_queues, sim_costs) = numeric[0], simulated[0]
    ns = engine.basis.nshells
    for p in range(nproc):
        assert np.array_equal(queues[p], sim_queues[p])
        assert np.array_equal(costs[p], sim_costs[p])
        assert [divmod(int(c), ns) for c in queues[p]] == block_tasks(
            res.partition.task_block(p)
        )

    elements, calls = rank_footprints(res.screen, res.partition)
    flight = res.stats.flight
    assert np.array_equal(flight.per_rank(CH_PREFETCH_GET, "msgs"), calls)
    fetched = flight.per_rank(CH_PREFETCH_GET, "bytes")
    union = elements * LONESTAR.element_size
    assert (fetched >= union).all()
    ratio = float(fetched.sum() / union.sum())
    record_property("prefetch_bytes_numeric_over_simulated", ratio)
    print(f"p={nproc}: prefetch bytes numeric / simulated = {ratio:.2f}")
