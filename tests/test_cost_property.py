"""Property-based validation of the vectorized task cost matrix.

For random synthetic screening matrices, the fully vectorized
``quartet_cost_matrix`` (its diagonal tasks enumerated, see
``reference_tasks.exact_diagonal``) must agree with
brute-force enumeration of the task predicate -- over arbitrary value
distributions and drop tolerances, not just chemically shaped ones --
and be bitwise the per-row search it replaced (``reference_cost``).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import alkane
from repro.fock.cost import TaskCosts, quartet_cost_matrix
from repro.fock.screening_map import ScreeningMap
from repro.fock.symmetry import symmetry_check, task_computes
from reference_cost import row_loop_cost_matrix
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
    assert np.array_equal(costs.quartets, bq)
    assert np.array_equal(costs.eris, be)


def test_cost_matrix_uniform_sigma():
    """Degenerate case: all pair values equal."""
    basis = BasisSet.build(alkane(2), "sto-3g")
    ns = basis.nshells
    screen = ScreeningMap(basis, np.full((ns, ns), 0.5), 1e-6)
    costs = exact_diagonal(screen, quartet_cost_matrix(screen))
    bq, be = brute_force(screen)
    assert np.array_equal(costs.quartets, bq)
    assert np.array_equal(costs.eris, be)
    # and totals equal the unique-quartet count with no screening
    npair = ns * (ns + 1) // 2
    assert costs.quartets.sum() == npair * (npair + 1) // 2


#: mixed s/p/d shells (vdz-sim) the oracle property draws its bases from
SHELL_POOL = BasisSet.build(alkane(2), "vdz-sim")
#: an exponent that stands for an absent pair (sigma = 0)
ABSENT = -17


@st.composite
def screens(draw) -> ScreeningMap:
    """Random symmetric sigma over 1-10 drawn shells: powers of two (so
    products can equal tau exactly and the strict ``>`` decides), zeros
    (rows with no partner), or arbitrary values in (0, 1]."""
    ns = draw(st.integers(1, 10))
    picks = draw(st.lists(st.integers(0, SHELL_POOL.nshells - 1),
                          min_size=ns, max_size=ns))
    pow2 = st.integers(ABSENT, 0).map(lambda e: 0.0 if e == ABSENT else math.ldexp(1.0, e))
    cells = draw(st.lists(st.one_of(pow2, st.floats(1e-9, 1.0)),
                          min_size=ns * ns, max_size=ns * ns))
    lower = np.tril(np.array(cells).reshape(ns, ns))
    basis = BasisSet(molecule=SHELL_POOL.molecule,
                     shells=[SHELL_POOL.shells[i] for i in picks], name="drawn")
    tau = math.ldexp(1.0, draw(st.integers(-30, 0)))
    return ScreeningMap(basis, lower + np.tril(lower, -1).T, tau)


def _screen(sigma, tau) -> ScreeningMap:
    shells = SHELL_POOL.shells[: len(sigma)]
    basis = BasisSet(molecule=SHELL_POOL.molecule, shells=shells, name="drawn")
    return ScreeningMap(basis, np.array(sigma, dtype=float), tau)


@given(screens())
@example(_screen([[0.5]], 0.25))  # ns = 1, the product equals tau
@example(_screen([[1.0]], 0.5))  # ns = 1, one surviving quartet
@example(_screen([[0.0, 0.0, 0.0], [0.0, 0.5, 0.25], [0.0, 0.25, 1.0]], 0.125))
@example(_screen([[0.0]], 1.0))  # ns = 1, sigma = 0: no quartet survives
@example(_screen(np.zeros((3, 3)), 2.0**-30))  # ns = 3, sigma = 0
@settings(max_examples=60, deadline=None)
def test_cost_matrix_matches_row_loop_oracle(screen):
    """Bitwise the per-row threshold search it replaced, ties and empty
    rows included (shell 0 of the third example has no partner, and no
    shell of the last two)."""
    costs, oracle = quartet_cost_matrix(screen), row_loop_cost_matrix(screen)
    assert np.array_equal(costs.quartets, oracle.quartets)
    assert np.array_equal(costs.eris, oracle.eris)


@pytest.mark.parametrize("ns", [1, 3])
def test_all_zero_sigma_costs_nothing(ns):
    """sigma = 0 everywhere: every task is empty, in the vectorized
    matrix, the row-loop oracle and the brute-force enumeration alike."""
    screen = _screen(np.zeros((ns, ns)), 1.0)
    zeros = np.zeros((ns, ns))
    for costs in (
        exact_diagonal(screen, quartet_cost_matrix(screen)),
        row_loop_cost_matrix(screen),
        TaskCosts(*brute_force(screen)),
    ):
        assert np.array_equal(costs.quartets, zeros)
        assert np.array_equal(costs.eris, zeros)
