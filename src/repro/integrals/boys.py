"""The Boys function F_m(x), the radial kernel of all Coulomb integrals.

``F_m(x) = \\int_0^1 t^{2m} exp(-x t^2) dt``

Every electron-repulsion and nuclear-attraction integral reduces, through
the McMurchie-Davidson scheme, to linear combinations of Boys-function
values, so both accuracy and speed matter here.

Evaluation paths:

* :func:`boys_array` -- production path (every batched kernel): the
  highest order is a Taylor interpolation in a table built at import,
  lower orders follow from the stable *downward* recursion
  ``F_m = (2x F_{m+1} + e^{-x}) / (2m+1)``; asymptotic form for large x.
* :func:`boys` -- scalar path of the per-primitive oracle kernels
  (``eri_md`` / ``eri_os``): same recursion from the regularized lower
  incomplete gamma function -- deliberately *not* the table, so the
  oracles stay independent of the production kernel.
* :func:`boys_series` -- Taylor/convergent series reference for small x.
* :func:`boys_quadrature` -- brute-force numerical quadrature used only in
  tests as an independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

#: Beyond this argument the asymptotic form
#: ``F_m(x) ~ (2m-1)!! / 2^{m+1} sqrt(pi / x^{2m+1})`` is accurate to
#: ``e^{-x} / 2x < 1e-17`` at *every* order m < x, so it is applied per
#: order (``F_{m+1} = (2m+1) F_m / 2x``): recursing downward from an
#: asymptotic top order would amplify that error by ``2x / (2m+1)`` a step.
_ASYMPTOTIC_X = 35.0


def boys_single(m: int, x: float) -> float:
    """F_m(x) for one order and one argument (scalar convenience path)."""
    return float(boys(m, x)[m])


def boys(mmax: int, x: float) -> np.ndarray:
    """Boys function values ``F_0(x) .. F_mmax(x)`` as a length-(mmax+1) array.

    Parameters
    ----------
    mmax:
        Highest order needed (total angular momentum of the integral).
    x:
        Non-negative argument.
    """
    if mmax < 0:
        raise ValueError(f"mmax must be >= 0, got {mmax}")
    if x < 0:
        raise ValueError(f"Boys argument must be >= 0, got {x}")
    out = np.empty(mmax + 1)
    if x < 1e-13:
        # F_m(0) = 1 / (2m + 1)
        out[:] = 1.0 / (2.0 * np.arange(mmax + 1) + 1.0)
        return out
    if x > _ASYMPTOTIC_X:
        out[0] = 0.5 * math.sqrt(math.pi / x)
        for m in range(mmax):
            out[m + 1] = out[m] * (2 * m + 1) / (2.0 * x)
        return out
    # F_m(x) = Gamma(m+1/2) * P(m+1/2, x) / (2 x^{m+1/2})
    a = mmax + 0.5
    out[mmax] = special.gamma(a) * special.gammainc(a, x) / (2.0 * x**a)
    emx = math.exp(-x)
    for m in range(mmax - 1, -1, -1):
        out[m] = (2.0 * x * out[m + 1] + emx) / (2.0 * m + 1.0)
    return out


#: interpolation table of :func:`boys_array`: nodes every ``_STEP`` on
#: [0, 35], orders 0 .. ``_TABLE_MMAX + _TERMS - 1``.  ``_TERMS`` Taylor
#: terms about the nearest node (``|d| <= _STEP / 2``) truncate at
#: ``(_STEP / 2)^_TERMS / _TERMS! = 3.5e-19`` (``|F_m| <= 1``; derivation
#: in docs/PERFORMANCE.md, "Kernel hot path")
_STEP = 1.0 / 64
_TERMS = 7
_TABLE_MMAX = 32


def _build_table(mmax: int) -> np.ndarray:
    """``table[m, k] = F_m(k * _STEP)`` for the orders a ``mmax`` sweep
    reads: the top one from the gammainc formula of :func:`boys`, the
    rest by downward recursion (which damps its error)."""
    xg = np.arange(round(_ASYMPTOTIC_X / _STEP) + 1) * _STEP
    top, a = mmax + _TERMS - 1, mmax + _TERMS - 0.5
    table = np.empty((top + 1, xg.size))
    table[top, 0] = 1.0 / (2 * top + 1)
    table[top, 1:] = (
        special.gamma(a) * special.gammainc(a, xg[1:]) / (2.0 * xg[1:] ** a)
    )
    emx = np.exp(-xg)
    for m in range(top - 1, -1, -1):
        table[m] = (2.0 * xg * table[m + 1] + emx) / (2 * m + 1)
    return table


_TABLE = _build_table(_TABLE_MMAX)


def _fill_tabulated(mmax: int, xs: np.ndarray, out: np.ndarray) -> None:
    """``out[m] = F_m(xs)`` for ``0 <= xs <= 35``, all ``m <= mmax``.

    Top order from the table: since ``F_m' = -F_{m+1}``,
    ``F_m(x_k + d) = sum_j F_{m+j}(x_k) (-d)^j / j!``, summed by Horner
    over contiguous table rows gathered at the nearest node ``x_k``.
    """
    # orders past the import-time table (no shipped basis) build their own
    table = _TABLE if mmax <= _TABLE_MMAX else _build_table(mmax)
    node = np.rint(xs * (1.0 / _STEP)).astype(np.intp)
    neg_d = node * _STEP - xs
    top = np.take(table[mmax + _TERMS - 1], node, out=out[mmax])
    row = np.empty_like(top)
    for j in range(_TERMS - 1, 0, -1):
        top *= neg_d
        top *= 1.0 / j
        top += np.take(table[mmax + j - 1], node, out=row)
    if mmax:
        emx = np.exp(-xs)
        two_x = 2.0 * xs
        for m in range(mmax - 1, -1, -1):
            row = np.multiply(two_x, out[m + 1], out=out[m])
            row += emx
            row /= 2.0 * m + 1.0


def boys_array(mmax: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized Boys: shape (len(xs), mmax+1).

    The production path of every batched kernel.  The result is the
    transpose of a batch-contiguous ``(mmax+1, n)`` array, so ``.T`` of
    it gives each order as one contiguous vector.
    """
    flat = np.asarray(xs, dtype=float).ravel()
    out = np.empty((mmax + 1, flat.size))
    if flat.size and flat.min() < 0:
        raise ValueError("Boys arguments must be >= 0")
    if not flat.size or flat.max() <= _ASYMPTOTIC_X:
        _fill_tabulated(mmax, flat, out)
        return out.T
    # asymptotic rows over the whole batch (inf/nan where x ~ 0), then
    # the columns the table covers are overwritten
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_2x = 0.5 / flat
        np.sqrt(inv_2x * (0.5 * math.pi), out=out[0])
        for m in range(mmax):
            row = np.multiply(out[m], inv_2x, out=out[m + 1])
            row *= 2 * m + 1
    small = np.flatnonzero(flat <= _ASYMPTOTIC_X)
    if small.size:
        sub = np.empty((mmax + 1, small.size))
        _fill_tabulated(mmax, flat[small], sub)
        out[:, small] = sub
    return out.T


def boys_series(m: int, x: float, terms: int = 200) -> float:
    """Convergent series: F_m(x) = e^{-x} sum_k (2m-1)!! (2x)^k / (2m+2k+1)!!.

    Reference implementation; converges for all x but is slow for large x.
    """
    acc = 0.0
    term = 1.0 / (2.0 * m + 1.0)
    for k in range(terms):
        acc += term
        term *= 2.0 * x / (2.0 * m + 2.0 * k + 3.0)
        if term < 1e-18 * max(acc, 1.0):
            break
    return math.exp(-x) * acc


def boys_quadrature(m: int, x: float, npts: int = 20001) -> float:
    """Direct numerical quadrature of the defining integral (tests only)."""
    t = np.linspace(0.0, 1.0, npts)
    y = t ** (2 * m) * np.exp(-x * t * t)
    return float(np.trapezoid(y, t))
