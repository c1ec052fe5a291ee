"""Property-based validation of the vectorized task cost matrix.

For random synthetic screening matrices, the fully vectorized
``quartet_cost_matrix`` (its diagonal tasks enumerated, see
``reference_tasks.exact_diagonal``) must agree with
brute-force enumeration of the task predicate -- over arbitrary value
distributions and drop tolerances, not just chemically shaped ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane
from repro.fock.cost import quartet_cost_matrix
from repro.fock.screening_map import ScreeningMap
from repro.fock.symmetry import symmetry_check, task_computes
from reference_tasks import exact_diagonal


def random_screen(seed: int, tau_exp: int) -> ScreeningMap:
    """Random symmetric sigma over a small real basis (sizes matter)."""
    basis = BasisSet.build(alkane(2), "sto-3g")  # 12 shells, mixed sizes
    rng = np.random.default_rng(seed)
    ns = basis.nshells
    raw = 10.0 ** rng.uniform(-8, 0, size=(ns, ns))
    sigma = np.sqrt(raw * raw.T)  # symmetric, positive
    return ScreeningMap(basis, sigma, 10.0**tau_exp)


def brute_force(screen: ScreeningMap) -> tuple[np.ndarray, np.ndarray]:
    ns = screen.nshells
    sizes = screen.basis.shell_sizes().astype(float)
    sig = screen.significant
    quartets = np.zeros((ns, ns))
    eris = np.zeros((ns, ns))
    for m in range(ns):
        for n in range(ns):
            if not symmetry_check(m, n):
                continue
            for p in range(ns):
                if not sig[m, p]:
                    continue
                for q in range(ns):
                    if not sig[n, q]:
                        continue
                    if screen.sigma[m, p] * screen.sigma[n, q] <= screen.tau:
                        continue
                    if task_computes(m, n, p, q):
                        quartets[m, n] += 1
                        eris[m, n] += sizes[m] * sizes[p] * sizes[n] * sizes[q]
    return quartets, eris


@given(st.integers(0, 10**6), st.integers(-9, -2))
@settings(max_examples=12, deadline=None)
def test_cost_matrix_matches_brute_force(seed, tau_exp):
    screen = random_screen(seed, tau_exp)
    costs = exact_diagonal(screen, quartet_cost_matrix(screen))
    bq, be = brute_force(screen)
    assert np.allclose(costs.quartets, bq)
    assert np.allclose(costs.eris, be)


def test_cost_matrix_uniform_sigma():
    """Degenerate case: all pair values equal."""
    basis = BasisSet.build(alkane(2), "sto-3g")
    ns = basis.nshells
    screen = ScreeningMap(basis, np.full((ns, ns), 0.5), 1e-6)
    costs = exact_diagonal(screen, quartet_cost_matrix(screen))
    bq, _be = brute_force(screen)
    assert np.allclose(costs.quartets, bq)
    # and totals equal the unique-quartet count with no screening
    npair = ns * (ns + 1) // 2
    assert costs.quartets.sum() == npair * (npair + 1) // 2
