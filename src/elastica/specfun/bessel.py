"""Validated Bessel-J entry points and zero tables."""

from __future__ import annotations

import math

import numpy as np

from ..errors import BracketError, RangeError
from . import _backend
from .roots import refine_brackets

_MAX_ORDER = 200
_MAX_ARG = 1e6


def _check(k: int, x: float):
    if not isinstance(k, (int, np.integer)) or k < 0 or k > _MAX_ORDER:
        raise RangeError(f"order must be an integer in [0, {_MAX_ORDER}], got {k!r}")
    if not (0.0 <= x <= _MAX_ARG):
        raise RangeError(f"argument must lie in [0, {_MAX_ARG:g}], got {x!r}")


def bessel_j(k: int, x: float) -> float:
    """J_k(x) for integer k >= 0, 0 <= x <= 1e6."""
    _check(k, x)
    return float(_backend.jn_table(int(k), [float(x)])[k, 0])


def bessel_j_prime(k: int, x: float) -> float:
    """J_k'(x) via J_k' = (J_{k-1} - J_{k+1})/2, with J_0' = -J_1."""
    _check(k, x)
    return float(_backend.jk_pairs(int(k), [float(x)])[1][0])


def bessel_j_sequence(nmax: int, x: float) -> np.ndarray:
    """Array [J_0(x), ..., J_nmax(x)] in one backward-recurrence pass."""
    _check(nmax, x)
    return _backend.jn_table(int(nmax), [float(x)]).ravel()


def bessel_zeros(k, m: int) -> np.ndarray:
    """First m positive zeros of J_k, ascending, for one order k or a 1-D array of orders.

    An array of orders gives one row of m zeros per order.  Every order gets
    a unit-step grid from below its first zero up to (m + k/2)*pi, which lies
    above j_{k,m}; zeros of J_k are more than 3 apart, so each sign change on
    a grid brackets one zero.  All grids are evaluated in one call, all
    brackets refined in lockstep and every zero Newton-polished.
    """
    if not isinstance(m, (int, np.integer)) or m < 0 or m > 10_000:
        raise RangeError(f"zero count must be an integer in [0, 10000], got {m!r}")
    ks = np.asarray(k)
    if ks.ndim > 1 or ks.dtype.kind not in "iu" or np.any((ks < 0) | (ks > _MAX_ORDER)):
        raise RangeError(f"order must be an integer in [0, {_MAX_ORDER}], got {k!r}")
    kk = np.atleast_1d(ks).astype(np.int64)
    x0 = np.where(kk == 0, 0.5, kk + 0.3)  # J_k > 0 on (0, j_{k,1})
    n = np.ceil((m + 0.5 * kk) * math.pi - x0).astype(np.int64) + 1
    owner = np.repeat(np.arange(kk.size), n)
    x = x0[owner] + (np.arange(owner.size) - (np.cumsum(n) - n)[owner])
    f = _backend.jk_pairs(kk[owner], x)[0]
    cross = np.flatnonzero((owner[:-1] == owner[1:]) & (f[:-1] * f[1:] < 0.0))
    found = np.bincount(owner[cross], minlength=kk.size)
    if np.any(found < m):
        raise BracketError(f"fewer than {m} sign changes of J_k below (m + k/2)*pi for k = {kk[found < m]}")
    cross = cross[np.arange(cross.size) - (np.cumsum(found) - found)[owner[cross]] < m]
    kz = kk[owner[cross]]
    jk = lambda x, i: _backend.jk_pairs(kz[i], x)[0]
    # Newton from 1e-10 relative leaves an error near 1e-20 relative (J''/J' = -1/x at a zero)
    zeros = refine_brackets(jk, x[cross], x[cross + 1], f[cross], f[cross + 1], 1e-10)
    j, jp = _backend.jk_pairs(kz, zeros)
    zeros = (zeros - j / jp).reshape(kk.size, m)
    return zeros if ks.ndim else zeros[0]
