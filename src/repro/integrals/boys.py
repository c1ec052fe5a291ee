"""The Boys function F_m(x), the radial kernel of all Coulomb integrals.

``F_m(x) = \\int_0^1 t^{2m} exp(-x t^2) dt``

Every electron-repulsion and nuclear-attraction integral reduces, through
the McMurchie-Davidson scheme, to linear combinations of Boys-function
values, so both accuracy and speed matter here.

Evaluation paths:

* :func:`boys_array` -- production path (every batched kernel): the
  highest order is a Taylor interpolation in a table built at import
  from a shipped top row (``boys_top.npy``: importing this module loads
  no SciPy), lower orders follow from the stable *downward* recursion
  ``F_m = (2x F_{m+1} + e^{-x}) / (2m+1)``; asymptotic form for large x.
* :func:`boys` -- the path of the Obara-Saika kernel (the MD kernel's
  rescue) and of the oracles in ``tests/``: same recursion from the
  regularized lower incomplete gamma function, vectorised over x --
  deliberately *not* the table, so a rescue shares no Boys code with
  the kernel it rescues.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: Beyond this argument the asymptotic form
#: ``F_m(x) ~ (2m-1)!! / 2^{m+1} sqrt(pi / x^{2m+1})`` is accurate to
#: ``e^{-x} / 2x < 1e-17`` at *every* order m < x, so it is applied per
#: order (``F_{m+1} = (2m+1) F_m / 2x``): recursing downward from an
#: asymptotic top order would amplify that error by ``2x / (2m+1)`` a step.
_ASYMPTOTIC_X = 35.0


def boys(mmax: int, x) -> np.ndarray:
    """Boys function values ``F_0(x) .. F_mmax(x)``, shape
    ``(mmax + 1, *np.shape(x))``: a length-(mmax+1) array for a scalar.

    Parameters
    ----------
    mmax:
        Highest order needed (total angular momentum of the integral).
    x:
        Non-negative argument(s).
    """
    if mmax < 0:
        raise ValueError(f"mmax must be >= 0, got {mmax}")
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if (flat < 0).any():
        raise ValueError(f"Boys argument must be >= 0, got {flat.min()}")
    out = np.empty((mmax + 1, flat.size))
    small, large = flat < 1e-13, flat > _ASYMPTOTIC_X
    mid = ~(small | large)
    # F_m(0) = 1 / (2m + 1)
    out[:, small] = 1.0 / (2.0 * np.arange(mmax + 1)[:, None] + 1.0)
    xl = flat[large]
    fm = np.empty((mmax + 1, xl.size))
    fm[0] = 0.5 * np.sqrt(math.pi / xl)
    for m in range(mmax):
        fm[m + 1] = fm[m] * (2 * m + 1) / (2.0 * xl)
    out[:, large] = fm
    xm = flat[mid]
    fm = np.empty((mmax + 1, xm.size))
    fm[mmax] = _gamma_form(mmax, xm)
    emx = np.exp(-xm)
    for m in range(mmax - 1, -1, -1):
        fm[m] = (2.0 * xm * fm[m + 1] + emx) / (2.0 * m + 1.0)
    out[:, mid] = fm
    return out.reshape((mmax + 1,) + xs.shape)


#: interpolation table of :func:`boys_array`: nodes every ``_STEP`` on
#: [0, 35], orders 0 .. ``_TABLE_MMAX + _TERMS - 1``.  ``_TERMS`` Taylor
#: terms about the nearest node (``|d| <= _STEP / 2``) truncate at
#: ``(_STEP / 2)^_TERMS / _TERMS! = 3.5e-19`` (``|F_m| <= 1``; derivation
#: in docs/PERFORMANCE.md, "Kernel hot path")
_STEP = 1.0 / 64
_TERMS = 7
_TABLE_MMAX = 32


def _gamma_form(m: int, x: np.ndarray) -> np.ndarray:
    """``F_m(x) = Gamma(m+1/2) P(m+1/2, x) / (2 x^{m+1/2})`` for x > 0."""
    from scipy import special

    a = m + 0.5
    return special.gamma(a) * special.gammainc(a, x) / (2.0 * x**a)


def _build_table(mmax: int) -> np.ndarray:
    """``table[m, k] = F_m(k * _STEP)`` for the orders a ``mmax`` sweep
    reads: the top one from :func:`_gamma_form` (shipped for
    ``_TABLE_MMAX``), the rest by downward recursion (which damps its
    error)."""
    xg = np.arange(round(_ASYMPTOTIC_X / _STEP) + 1) * _STEP
    top = mmax + _TERMS - 1
    table = np.empty((top + 1, xg.size))
    table[top, 0] = 1.0 / (2 * top + 1)
    table[top, 1:] = (
        np.load(Path(__file__).with_name("boys_top.npy"))
        if mmax == _TABLE_MMAX else _gamma_form(top, xg[1:])
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
