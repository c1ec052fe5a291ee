"""McMurchie-Davidson Hermite machinery.

Two building blocks:

* :func:`e_coefficients` -- the 1-D Hermite expansion coefficients
  ``E_t^{ij}`` that express a product of two Cartesian Gaussians as a sum
  of Hermite Gaussians (one array per Cartesian direction).
* :func:`r_tensor_batch` -- the Hermite Coulomb integrals ``R_{tuv}``
  obtained from Boys-function values by the standard upward recursion,
  for a whole batch of composite centers.

Everything downstream (overlap, kinetic, nuclear attraction, ERIs) is a
contraction of these two objects.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.integrals.boys import boys_array


def e_coefficients(la: int, lb: int, a, b, ab_dist: float) -> np.ndarray:
    """Hermite expansion coefficients for one Cartesian direction.

    Returns ``E[i, j, t]`` of shape (la+1, lb+1, la+lb+1) with the
    convention ``E[i, j, t] = 0`` for ``t > i + j``.

    Parameters
    ----------
    la, lb:
        Maximum 1-D angular momenta of the two centers.
    a, b:
        Primitive exponents -- two floats, or two equal-length arrays of
        primitive pairs, in which case ``E`` gains a trailing pair axis
        (elementwise the same arithmetic as the scalar call).
    ab_dist:
        ``A_x - B_x`` (the coordinate difference along this direction).
    """
    p = a + b
    mu = a * b / p
    one_over_2p = 0.5 / p
    # distances from the Gaussian product center P
    pa = -b / p * ab_dist  # P - A
    pb = a / p * ab_dist  # P - B

    E = np.zeros((la + 1, lb + 1, la + lb + 1) + np.shape(p))
    arg = -mu * ab_dist * ab_dist
    # math.exp per pair: np.exp may round the last bit differently
    E[0, 0, 0] = (
        math.exp(arg) if np.ndim(arg) == 0 else list(map(math.exp, arg.tolist()))
    )
    # build up i with j = 0
    for i in range(1, la + 1):
        tmax = i
        E[i, 0, 0] = pa * E[i - 1, 0, 0] + E[i - 1, 0, 1]
        for t in range(1, tmax + 1):
            E[i, 0, t] = (
                one_over_2p * E[i - 1, 0, t - 1]
                + pa * E[i - 1, 0, t]
                + (t + 1) * (E[i - 1, 0, t + 1] if t + 1 <= i - 1 else 0.0)
            )
    # build up j for every i
    for j in range(1, lb + 1):
        for i in range(la + 1):
            tmax = i + j
            E[i, j, 0] = pb * E[i, j - 1, 0] + E[i, j - 1, 1]
            for t in range(1, tmax + 1):
                E[i, j, t] = (
                    one_over_2p * E[i, j - 1, t - 1]
                    + pb * E[i, j - 1, t]
                    + (t + 1) * (E[i, j - 1, t + 1] if t + 1 <= i + j - 1 else 0.0)
                )
    return E


def hermite_index(lmax: int) -> list[tuple[int, int, int]]:
    """Flattened (t, u, v) index list with t+u+v <= lmax, in fixed order."""
    idx = []
    for t in range(lmax + 1):
        for u in range(lmax + 1 - t):
            for v in range(lmax + 1 - t - u):
                idx.append((t, u, v))
    return idx


@functools.lru_cache(maxsize=None)
def hermite_lookup(lmax: int) -> np.ndarray:
    """``lookup[t, u, v]``: position of (t, u, v) in ``hermite_index(lmax)``."""
    lookup = np.full((lmax + 1,) * 3, -1, dtype=np.intp)
    lookup[tuple(zip(*hermite_index(lmax)))] = np.arange(len(hermite_index(lmax)))
    return lookup


@functools.lru_cache(maxsize=None)
def _compact_recursion(lmax: int) -> tuple[int, tuple[int, ...], tuple]:
    """Row layout and step list of :func:`r_tensor_batch`.

    Only the auxiliaries ``R^{(n)}_{tuv}`` with ``n + t + u + v <= lmax``
    are ever read, so only they get a row: the ``n = 0`` entries first,
    in :func:`hermite_index` order (the result), then ``n = 1, 2, ..``.
    Returns the result's row count, the rows of the seeds ``R^{(n)}_{000}``
    and, in dependency order, one ``(dst, axis, src, k, src2)`` per other
    entry: ``R[dst] = PQ[axis] * R[src] + k * R[src2]``.
    """
    keys = [
        (n, *tuv) for n in range(lmax + 1) for tuv in hermite_index(lmax - n)
    ]
    row = {key: i for i, key in enumerate(keys)}
    steps = []
    for total in range(1, lmax + 1):
        for n in range(lmax - total, -1, -1):
            for tuv in hermite_index(total):
                if sum(tuv) != total:
                    continue
                axis = next(i for i in range(3) if tuv[i])
                low = list(tuv)
                low[axis] -= 1
                src = row[(n + 1, *low)]
                k = low[axis]
                low[axis] -= 1
                src2 = row[(n + 1, *low)] if k else src
                steps.append((row[(n, *tuv)], axis, src, k, src2))
    seeds = (row[(n, 0, 0, 0)] for n in range(lmax + 1))
    return len(hermite_index(lmax)), tuple(seeds), tuple(steps)


def r_tensor_batch(
    lmax: int, ps: np.ndarray, pqs: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Hermite Coulomb integrals for a whole batch of composite centers.

    For composite exponents ``ps`` (nq,) -- ``p`` for nuclear attraction,
    ``p q / (p + q)`` for ERIs -- and center differences ``pqs`` (nq, 3):
    one ``boys_array`` sweep, then the upward recursion
    ``R^{(n)}_{t+1,u,v} = t R^{(n+1)}_{t-1,u,v} + X R^{(n+1)}_{tuv}`` (and
    likewise for u, v) with each entry one contiguous length-``nq``
    vector -- over the compact set of auxiliaries only (70 rows instead
    of 5^4 at lmax = 4).  The loop count is independent of the batch
    size, so the Python overhead is amortized over the sweep.

    R is linear in the Boys values, so the per-center ``weights`` (nq,)
    scale the seeds ``R^{(n)}_{000}`` and with them every entry: callers
    fold their primitive prefactors in here.  Returns ``weights *
    R_{tuv}``, shape ``(nherm, nq)``, rows in ``hermite_index(lmax)`` order.
    """
    ps = np.asarray(ps, dtype=float).ravel()
    xyz = np.ascontiguousarray(np.asarray(pqs, dtype=float).reshape(-1, 3).T)
    x, y, z = xyz
    fm = boys_array(lmax, ps * (x * x + y * y + z * z)).T  # (lmax+1, nq)
    nherm, seeds, steps = _compact_recursion(lmax)
    rn = np.empty((len(seeds) + len(steps), ps.size))
    scale = weights
    for n, dst in enumerate(seeds):  # R^{(n)}_{000} = (-2p)^n F_n
        np.multiply(scale, fm[n], out=rn[dst])
        if n < lmax:
            scale = scale * (-2.0 * ps)
    tmp = np.empty(ps.size)
    for dst, axis, src, k, src2 in steps:
        val = np.multiply(xyz[axis], rn[src], out=rn[dst])
        if k:
            val += np.multiply(rn[src2], k, out=tmp)
    return rn[:nherm]
