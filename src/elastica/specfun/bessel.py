"""Zero tables of Bessel J_k."""

from __future__ import annotations

import math

import numpy as np

from ..errors import BracketError, RangeError
from . import _backend
from .roots import refine_brackets

_MAX_ORDER = 200
_MAX_ARG = 1e6


def bessel_zeros(k, m: int, below: float | None = None) -> np.ndarray:
    """First m positive zeros of J_k, ascending, for one order k or a 1-D array of orders.

    An array of orders gives one row of m zeros per order.  Every order gets
    a unit-step grid from below its first zero up to (m + k/2)*pi, which lies
    above j_{k,m}; zeros of J_k are more than 3 apart, so each sign change on
    a grid brackets one zero.  All grids are evaluated in one call (J_k and
    J_k' from one table), and all brackets are refined in lockstep by
    safeguarded Newton steps, each from the Hermite root of its ends' J_k and
    J_k' and each step taking J_k and J_k' from one table.

    With ``below``, only zeros up to that cutoff are made: each grid also
    stops at its first point at or past the cutoff, and the row entries past
    the cutoff (or past an order's last zero below it) are inf.  The grids
    are prefixes of the count form's and every bracket is refined alone, so
    each zero returned is bit for bit the count form's.
    """
    if not isinstance(m, (int, np.integer)) or m < 0 or m > 10_000:
        raise RangeError(f"zero count must be an integer in [0, 10000], got {m!r}")
    ks = np.asarray(k)
    if ks.ndim > 1 or ks.dtype.kind not in "iu" or np.any((ks < 0) | (ks > _MAX_ORDER)):
        raise RangeError(f"order must be an integer in [0, {_MAX_ORDER}], got {k!r}")
    if below is not None and not (0.0 <= below <= _MAX_ARG):
        raise RangeError(f"cutoff must lie in [0, {_MAX_ARG:g}], got {below!r}")
    kk = np.atleast_1d(ks).astype(np.int64)
    x0 = np.where(kk == 0, 0.5, kk + 0.3)  # J_k > 0 on (0, j_{k,1})
    n = np.ceil((m + 0.5 * kk) * math.pi - x0).astype(np.int64) + 1
    full = np.ones(kk.size, dtype=bool)  # grids that reach (m + k/2)*pi
    if below is not None:
        n_below = np.maximum(np.ceil(below - x0).astype(np.int64) + 1, 0)
        full = n <= n_below
        n = np.minimum(n, n_below)
    owner = np.repeat(np.arange(kk.size), n)
    x = x0[owner] + (np.arange(owner.size) - (np.cumsum(n) - n)[owner])
    f, fp = _backend.jk_pairs(kk[owner], x)
    cross = np.flatnonzero((owner[:-1] == owner[1:]) & (f[:-1] * f[1:] < 0.0))
    found = np.bincount(owner[cross], minlength=kk.size)
    if np.any(full & (found < m)):
        short = kk[full & (found < m)]
        raise BracketError(f"fewer than {m} sign changes of J_k below (m + k/2)*pi for k = {short}")
    rank = np.arange(cross.size) - (np.cumsum(found) - found)[owner[cross]]
    cross, rank = cross[rank < m], rank[rank < m]
    kz = kk[owner[cross]]
    # the last Newton step, at most 1e-10 relative, leaves an error near
    # 1e-20 relative (J''/J' = -1/x at a zero)
    roots = refine_brackets(lambda x, i: _backend.jk_pairs(kz[i], x), x[cross], x[cross + 1],
                            f[cross], f[cross + 1], 1e-10, fp[cross], fp[cross + 1])
    if below is not None:
        roots[roots > below] = math.inf  # the last bracket of a grid may end past the cutoff
    zeros = np.full((kk.size, m), math.inf)
    zeros[owner[cross], rank] = roots
    return zeros if ks.ndim else zeros[0]
