"""Validated Bessel-J entry points and zero tables."""

from __future__ import annotations

import math

import numpy as np

from ..errors import RangeError
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


def _mcmahon(k: int, i: np.ndarray) -> np.ndarray:
    mu = 4.0 * k * k
    beta = (i + 0.5 * k - 0.25) * math.pi
    return (
        beta
        - (mu - 1.0) / (8.0 * beta)
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)
    )


def _sign_grid_brackets(k: int, x0: float, need: int):
    """The first ``need`` sign-change brackets of J_k on the unit-step grid from x0.

    Zeros of J_k are more than 3 apart, so no unit step holds two of them.
    The grid is evaluated in blocks that double until enough brackets are found.
    """
    jk = lambda x: _backend.jn_table(k, x)[k]
    x = np.array([x0])
    f = jk(x)
    span = max(8.0, float(_mcmahon(k, np.array([need]))[0]) - x0 + 4.0)
    while True:
        x = np.concatenate([x, x[-1] + np.arange(1.0, math.ceil(span) + 1.0)])
        f = np.concatenate([f, jk(x[f.size:])])
        cross = np.flatnonzero(f[:-1] * f[1:] < 0.0)
        if cross.size >= need:
            cross = cross[:need]
            return x[cross], x[cross + 1], f[cross], f[cross + 1]
        span *= 2.0


def bessel_zeros(k: int, m: int) -> np.ndarray:
    """First m positive zeros of J_k, ascending.

    Each zero is bracketed by a sign change on a unit-step grid; all
    brackets are refined in lockstep and every zero is Newton-polished.
    """
    if m < 0 or m > 10_000:
        raise RangeError(f"zero count must lie in [0, 10000], got {m}")
    _check(k, 1.0)
    if m == 0:
        return np.empty(0)
    x0 = 0.5 if k == 0 else float(k) + 0.3  # J_k > 0 on (0, j_{k,1})
    lo, hi, flo, fhi = _sign_grid_brackets(k, x0, m)
    zeros = refine_brackets(lambda x, i: _backend.jn_table(k, x)[k], lo, hi, flo, fhi, 1e-14)
    j, jp = _backend.jk_pairs(k, zeros)
    return zeros - j / jp
