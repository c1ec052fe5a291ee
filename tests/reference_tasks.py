"""The per-task quartet generators the plan-row owners replaced.

Kept verbatim (bar the scalar symmetry predicates they call, inlined
here so the oracle shares nothing with the array versions in
``repro.fock.symmetry``) as the differential oracles of
``repro.fock.tasks.gtfock_task_rows`` / ``nwchem_task_rows``:

* ``enumerate_task_quartets`` -- Algorithm 3, one GTFock task's
  parity-unique screened quartets ``(MP|NQ)`` in loop order;
* ``atom_quartet_shell_quartets`` -- the unique shell quartets one
  NWChem atom quartet owns;
* ``orbit_tuples`` / ``canonical_instance`` / ``is_canonical_instance``
  -- the scalar orbit helpers both relied on;
* ``exact_diagonal`` -- a task cost matrix with its diagonal tasks
  enumerated instead of halved (``repro.fock.cost.quartet_cost_matrix``'s
  approximation).
* ``block_tasks`` -- a task block's ``(M, N)`` tasks, the list both
  GTFock builds' task-code queues (``repro.fock.simulate.task_queues``)
  replaced.

Production code must not import this module.
"""

from __future__ import annotations

from collections.abc import Iterator


def symmetry_check(m: int, n: int) -> bool:
    """The paper's parity SymmetryCheck, extended with C(x, x) = True."""
    if m == n:
        return True
    if m > n:
        return (m + n) % 2 == 0
    return (m + n) % 2 == 1


def task_computes(m: int, n: int, p: int, q: int) -> bool:
    """Does task ``(M,:|N,:)`` compute quartet ``(MP|NQ)``?"""
    if not (symmetry_check(m, n) and symmetry_check(m, p) and symmetry_check(n, q)):
        return False
    if m == n and p > q:
        return False
    return True


def orbit_tuples(
    m: int, p: int, n: int, q: int
) -> set[tuple[int, int, int, int]]:
    """All distinct (bra1, bra2, ket1, ket2) instances of a quartet's orbit.

    The quartet is written ``(MP|NQ)``: bra pair (m, p), ket pair (n, q).
    """
    out = set()
    for b1, b2 in ((m, p), (p, m)):
        for k1, k2 in ((n, q), (q, n)):
            out.add((b1, b2, k1, k2))
            out.add((k1, k2, b1, b2))
    return out


def canonical_instance(m: int, p: int, n: int, q: int) -> tuple[int, int, int, int]:
    """Lexicographically smallest orbit instance (bra1, bra2, ket1, ket2)."""
    return min(orbit_tuples(m, p, n, q))


def is_canonical_instance(m: int, p: int, n: int, q: int) -> bool:
    """True iff (m, p, n, q) is its orbit's lexicographic representative."""
    return (m, p, n, q) == canonical_instance(m, p, n, q)


def enumerate_task_quartets(
    screen, m: int, n: int
) -> Iterator[tuple[int, int, int, int]]:
    """Quartets ``(M, P, N, Q)`` computed by task ``(M,:|N,:)`` -- Algorithm 3.

    Iterates P over Phi(M) and Q over Phi(N) (anything outside the
    significant sets cannot pass the product test), applying the parity
    uniqueness predicate and Cauchy-Schwarz screening.
    """
    if not symmetry_check(m, n):
        return
    sigma = screen.sigma
    tau = screen.tau
    for p in screen.phi[m]:
        smp = sigma[m, p]
        if smp * screen.sigma_max <= tau:
            continue
        for q in screen.phi[n]:
            if smp * sigma[n, q] > tau and task_computes(m, n, int(p), int(q)):
                yield (m, int(p), n, int(q))


def exact_diagonal(screen, costs):
    """``costs`` (a ``TaskCosts``) with every diagonal task's quartets and
    ERIs counted by :func:`enumerate_task_quartets`."""
    sizes = screen.basis.shell_sizes()
    quartets, eris = costs.quartets.copy(), costs.eris.copy()
    for m in range(screen.nshells):
        task = list(enumerate_task_quartets(screen, m, m))
        quartets[m, m] = len(task)
        eris[m, m] = sum(float(sizes[a] * sizes[b] * sizes[c] * sizes[d])
                         for a, b, c, d in task)
    return type(costs)(quartets, eris)


def atom_quartet_shell_quartets(
    screen,
    shells_of_atom: list[list[int]],
    i_at: int,
    j_at: int,
    k_at: int,
    l_at: int,
) -> Iterator[tuple[int, int, int, int]]:
    """Unique screened shell quartets owned by atom quartet (IJ|KL).

    A shell quartet instance (MN|PQ) with M in I, N in J, P in K, Q in L
    is owned by this atom quartet iff it is the lexicographically
    smallest instance of its *shell* orbit among those whose atom tuple
    equals (I, J, K, L) position-wise.
    """
    sigma = screen.sigma
    tau = screen.tau
    atom_of = screen.basis.atom_of_shell
    target = (i_at, j_at, k_at, l_at)
    for m in shells_of_atom[i_at]:
        for n in shells_of_atom[j_at]:
            smn = sigma[m, n]
            if smn * screen.sigma_max <= tau:
                continue
            for p in shells_of_atom[k_at]:
                for q in shells_of_atom[l_at]:
                    if smn * sigma[p, q] <= tau:
                        continue
                    instances = [
                        t
                        for t in orbit_tuples(m, n, p, q)
                        if (
                            atom_of[t[0]],
                            atom_of[t[1]],
                            atom_of[t[2]],
                            atom_of[t[3]],
                        )
                        == target
                    ]
                    if (m, n, p, q) == min(instances):
                        yield (m, n, p, q)


def block_tasks(block) -> list[tuple[int, int]]:
    """All ``(M, N)`` shell-pair tasks of a task block, row major: the
    list the numeric build's queues held before both GTFock builds ran
    task codes ``M * nshells + N``."""
    return [
        (m, n)
        for m in range(block.row_lo, block.row_hi)
        for n in range(block.col_lo, block.col_hi)
    ]
