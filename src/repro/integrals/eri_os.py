"""Electron repulsion integrals via Obara-Saika recursion, batched over
the rows of one class.

The second ERI formulation beside the McMurchie-Davidson class kernel
(:func:`repro.integrals.class_batch.compute_class_rows`): Table V's OS
engine, and the kernel the production engine recomputes non-finite MD
rows on.  It shares no Boys or Hermite code with MD -- its Boys values
come from the gammainc formula of :func:`repro.integrals.boys.boys`, not
``boys_array``'s table -- so a rescue is different arithmetic, not the
same NaN again.

The unit of work is the MD kernel's (arxiv 1708.00033): the rows of one
class, each step one array pass over rows x bra primitive pairs x ket
primitive pairs:

* the vertical recursion builds every ``(e0|f0)^{(m)}``, one pass per
  level ``|e| + |f|`` of a program derived once per ``(la + lb, lc + ld)``
  (:func:`_vrr_program`); the primitive prefactors and contraction
  coefficients ride in the ``(00|00)^{(m)}`` seeds;
* contraction sums the primitive axes;
* the Head-Gordon-Pople horizontal recursion moves angular momentum to
  the second and fourth centres on the contracted arrays, one pass per
  level of ``|b|`` (then ``|d|``);
* ``cartesian_to_basis`` per axis gives normalized basis functions.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import cartesian_components
from repro.integrals.boys import boys
from repro.integrals.spherical import cartesian_to_basis

Triple = tuple[int, int, int]

_TWO_PI_52 = 2.0 * math.pi**2.5

#: budget (float64 elements) of one pass's vertical-recursion table; a
#: class's rows are computed in slices that keep it below this
MAX_VRR_WORK = 1 << 18


def _cartesians(lo: int, hi: int) -> list[Triple]:
    """Cartesian exponent triples of total degree ``lo..hi``, by degree."""
    return [c for l in range(lo, hi + 1) for c in cartesian_components(l)]


def _shifted(t: Triple, i: int, by: int) -> Triple:
    return t[:i] + (t[i] + by,) + t[i + 1:]


def _level(key) -> int:
    return sum(key[0]) + sum(key[1])


@functools.lru_cache(maxsize=None)
def _vrr_program(la_max: int, lc_max: int) -> tuple[int, dict, tuple]:
    """The vertical recursion for every ``(e0|f0)^{(0)}`` with
    ``|e| <= la_max``, ``|f| <= lc_max``, as one array step per level.

    Row 0 of the table is zero (absent terms read it), rows
    ``1..la_max + lc_max + 1`` are the seeds ``(00|00)^{(m)}``, then come
    the entries the targets need, level ``|e| + |f|`` by level.  An entry
    lowers ``e`` on its largest component ``i`` unless ``e = 0``, when it
    lowers ``f`` the same way::

        (e|f)^m = PA_i (e-1|f)^m + WP_i (e-1|f)^{m+1}
                  + (e_i - 1)/2p [(e-2|f)^m - rho/p (e-2|f)^{m+1}]
                  + f_i/2(p+q) (e-1|f-1)^{m+1}

    (lowering ``f``: QC, WQ, 1/2q, rho/q and no last term).  Returns the
    row count, ``row_of[(e, f)]`` (the row of ``(e0|f0)^{(0)}``) and per
    level ``(lo, hi, geo, side, k1, k2, src1..src5)``: rows ``lo:hi`` from
    geometry rows ``geo`` (PA or QC) and ``geo + 3`` (WP or WQ), ``side``
    0 (p) or 1 (q), the integer factors and the five terms' rows.
    """
    zero: Triple = (0, 0, 0)
    steps: dict = {(zero, zero, m): None for m in range(la_max + lc_max + 1)}

    def visit(e: Triple, f: Triple, m: int) -> None:
        if (e, f, m) in steps:
            return
        side = 0 if any(e) else 1
        t = (e, f)[side]
        i = t.index(max(t))
        down1, down2 = _shifted(t, i, -1), _shifted(t, i, -2)

        def at(u: Triple, mm: int):  # (e, f, mm) with the lowered side u
            return (u, f, mm) if side == 0 else (e, u, mm)

        k1, k2 = down1[i], f[i] if side == 0 else 0
        terms = (
            at(down1, m), at(down1, m + 1),
            at(down2, m) if k1 else None, at(down2, m + 1) if k1 else None,
            (down1, _shifted(f, i, -1), m + 1) if k2 else None,
        )
        for term in terms:
            if term:
                visit(*term)
        steps[(e, f, m)] = (6 * side + i, side, k1, k2, terms)

    for e in _cartesians(0, la_max):
        for f in _cartesians(0, lc_max):
            visit(e, f, 0)
    order = sorted(steps, key=_level)  # stable: the seeds lead, by m
    row = {key: r for r, key in enumerate(order, start=1)}
    row[None] = 0
    levels, lo = [], 1
    for _, keys in itertools.groupby(order, key=_level):
        keys = list(keys)
        if steps[keys[0]] is not None:  # level 0 is the seeds
            geo, side, k1, k2, *src = (np.array(c) for c in zip(*(
                (*steps[k][:4], *(row[t] for t in steps[k][4])) for k in keys
            )))
            levels.append((lo, lo + len(keys), geo, side, k1[:, None] * 1.0,
                           k2[:, None] * 1.0, *src))
        lo += len(keys)
    row_of = {(e, f): row[(e, f, m)] for e, f, m in order if m == 0}
    return len(order) + 1, row_of, tuple(levels)


@functools.lru_cache(maxsize=None)
def _hrr_program(la: int, lb: int) -> tuple:
    """The horizontal recursion ``(a, b + 1_i| = (a + 1_i, b| + AB_i (a, b|``
    from rows ``e`` of ``_cartesians(la, la + lb)`` to rows ``(a, b)``,
    ``|a| = la``, ``|b| = lb``, a-major: per level ``|b| = j`` the
    previous level's rows of both terms and the axis ``i``."""
    prev = [(e, (0, 0, 0)) for e in _cartesians(la, la + lb)]
    steps = []
    for j in range(1, lb + 1):
        at = {key: r for r, key in enumerate(prev)}
        cur = [(a, b) for a in _cartesians(la, la + lb - j)
               for b in cartesian_components(j)]
        cols = []
        for a, b in cur:
            i = b.index(max(b))
            bm = _shifted(b, i, -1)
            cols.append((at[(_shifted(a, i, 1), bm)], at[(a, bm)], i))
        steps.append(tuple(np.array(c) for c in zip(*cols)))
        prev = cur
    return tuple(steps)


@functools.lru_cache(maxsize=None)
def _class_program(lkey: tuple, pure: tuple) -> tuple:
    """What :func:`os_class_rows` runs for one class: the vertical
    program, its target rows ``(n_e, n_f)``, the two horizontal programs
    and the bra / ket maps to basis functions."""
    la, lb, lc, ld = lkey
    nrows, row_of, levels = _vrr_program(la + lb, lc + ld)
    targets = np.array([
        [row_of[(e, f)] for f in _cartesians(lc, lc + ld)]
        for e in _cartesians(la, la + lb)
    ])
    to_basis = [cartesian_to_basis(l, p) for l, p in zip(lkey, pure)]
    return (
        nrows, levels, targets, _hrr_program(la, lb), _hrr_program(lc, ld),
        np.kron(to_basis[0], to_basis[1]), np.kron(to_basis[2], to_basis[3]),
    )


def _pair_arrays(basis: BasisSet, pairs: np.ndarray):
    """Per row of ``pairs`` (the shell pairs of one class side) and
    primitive pair: ``p``, ``P`` and ``c_a c_b exp(-ab/p |AB|^2)``; per
    row the first centre ``A`` and ``AB``."""
    ns, shells = basis.nshells, basis.shells
    keys, slots = np.unique(pairs[:, 0] * ns + pairs[:, 1], return_inverse=True)
    ij = [(shells[i], shells[j]) for i, j in zip(*(k.tolist() for k in divmod(keys, ns)))]
    a = np.array([np.repeat(sa.exps, sb.nprim) for sa, sb in ij])
    b = np.array([np.tile(sb.exps, sa.nprim) for sa, sb in ij])
    coef = np.array([np.outer(sa.norm_coefs, sb.norm_coefs).ravel() for sa, sb in ij])
    A = np.array([sa.center for sa, _ in ij])
    AB = A - np.array([sb.center for _, sb in ij])
    p = a + b
    P = A[:, None] - (b / p)[..., None] * AB[:, None]
    w = coef * np.exp(-a * b / p * (AB * AB).sum(axis=1)[:, None])
    slots = slots.reshape(-1)
    return p[slots], P[slots], w[slots], A[slots], AB[slots]


def _os_slice(basis: BasisSet, lkey, pure, quartets: np.ndarray) -> np.ndarray:
    """Blocks ``(nrows, ab, cd)`` over basis functions of one slice of a
    class's rows."""
    nrows, levels, targets, hrr_bra, hrr_ket, t_bra, t_ket = _class_program(lkey, pure)
    p, P, wab, A, AB = _pair_arrays(basis, quartets[:, :2])
    q, Q, wcd, C, CD = _pair_arrays(basis, quartets[:, 2:])
    p3, q3 = p[:, :, None], q[:, None, :]  # (rows, bra pairs, ket pairs)
    s = p3 + q3
    rho = p3 * q3 / s
    W = (p3[..., None] * P[:, :, None] + q3[..., None] * Q[:, None]) / s[..., None]
    PQ = P[:, :, None] - Q[:, None]
    n = s.size
    # rows PA, WP, QC, WQ by axis; 1/2p, 1/2q; rho/p, rho/q
    geo = np.moveaxis(np.concatenate(np.broadcast_arrays(
        (P - A[:, None])[:, :, None], W - P[:, :, None],
        (Q - C[:, None])[:, None], W - Q[:, None],
    ), axis=-1), -1, 0).reshape(12, n)
    half = np.stack(np.broadcast_arrays(0.5 / p3, 0.5 / q3)).reshape(2, n)
    ratio = np.stack([rho / p3, rho / q3]).reshape(2, n)
    half_s = (0.5 / s).ravel()

    mtot = sum(lkey)
    table = np.empty((nrows, n))
    table[0] = 0.0
    pref = _TWO_PI_52 / (p3 * q3 * np.sqrt(s)) * wab[:, :, None] * wcd[:, None]
    np.multiply(boys(mtot, rho * (PQ * PQ).sum(axis=-1)).reshape(-1, n),
                pref.reshape(1, n), out=table[1:mtot + 2])
    for lo, hi, geo_i, side, k1, k2, s1, s2, s3, s4, s5 in levels:
        v = geo[geo_i] * table[s1]
        v += geo[geo_i + 3] * table[s2]
        v += k1 * half[side] * (table[s3] - ratio[side] * table[s4])
        v += k2 * half_s * table[s5]
        table[lo:hi] = v

    # contract to (e, f, row); each side's recursion, then swap the sides
    x = table[targets.ravel()].reshape(*targets.shape, len(quartets), -1).sum(axis=-1)
    for steps, shift in ((hrr_bra, AB.T), (hrr_ket, CD.T)):
        for src1, src2, axis in steps:
            x = x[src1] + shift[axis][:, None] * x[src2]
        x = x.transpose(1, 0, 2)
    return np.matmul(np.matmul(t_bra, x.transpose(2, 0, 1)), t_ket.T)


def os_class_rows(basis: BasisSet, batch, rows) -> np.ndarray:
    """ERI blocks ``(len(rows), *batch.dims)`` of the class ``batch``'s
    ``rows`` (an index array into it) by Obara-Saika, in row slices that
    keep each vertical-recursion table under :data:`MAX_VRR_WORK`."""
    quartets = batch.quartets[rows]
    nrows = _class_program(batch.lkey, batch.pure)[0]
    step = max(1, MAX_VRR_WORK // (batch.nprim * nrows))
    return np.concatenate([
        _os_slice(basis, batch.lkey, batch.pure, quartets[lo:lo + step])
        for lo in range(0, len(quartets), step)
    ]).reshape((-1,) + batch.dims)
