"""Bessel-J tables and disk boundary determinants over whole argument arrays.

Every kernel works on an array of arguments at once; a scalar is a batch of
one.  J_0..J_nmax come from one of three regimes, chosen per argument:

* x <= 0.5: the power series of each order;
* x >= max(25, 1.5*nmax): the Hankel expansion of J_0 and J_1, then upward
  recurrence;
* otherwise: Miller backward recurrence from a start order above max(nmax, x),
  normalised by J_0 + 2*sum J_{2m} = 1.

nmax may differ per argument, and each argument's values depend on nothing
else in the batch, so a batch gives bit for bit the values of its points
evaluated alone.

The characteristic determinants of the disk modes are built from these
tables; they are the hot loop of the spectrum scans.
"""

from __future__ import annotations

import math

import numpy as np

# Cody-Waite split of 2*pi (33-bit parts: quotient < 2**18 keeps the
# products exact) plus a double-double table of m*pi/4, m = 0..7, used to
# reduce the Hankel phase of large arguments without catastrophic rounding.
_TWOPI = 6.283185307179586
_TWOPI_P1 = 6.2831853069365025
_TWOPI_P2 = 2.4308402025215864e-10
_TWOPI_P3 = 8.089064995183803e-21
_PIO4_HI = (0.0, 0.7853981633974483, 1.5707963267948966, 2.356194490192345,
            3.141592653589793, 3.9269908169872414, 4.71238898038469, 5.497787143782138)
_PIO4_LO = (0.0, 3.061616997868383e-17, 6.123233995736766e-17, 9.184850993605148e-17,
            1.2246467991473532e-16, 1.5308084989341916e-16, 1.8369701987210297e-16,
            2.143131898507868e-16)
_ASYM_CUT = 25.0
# cells (rows x arguments) of one jk_pairs chunk's largest array: its Bessel
# table has kmax + 2 rows, the Hankel temporaries 41, so a chunk's arrays stay
# near 4 MB each however many arguments there are
_CHUNK_CELLS = 1 << 19


def _series(nmax: int, x: np.ndarray) -> np.ndarray:
    """Power series of J_0..J_nmax for 0 < x <= 0.5, all orders at once."""
    h = 0.5 * x
    k = np.arange(nmax + 1.0)[:, None]
    lt = k * np.log(h) - np.array([math.lgamma(j + 1.0) for j in range(nmax + 1)])[:, None]
    t = np.where(lt > -745.0, np.exp(lt), 0.0)
    s = t.copy()
    h2 = h * h
    live = t != 0.0
    m = 0
    while live.any():
        m += 1
        t = np.where(live, t * (-h2 / (m * (m + k))), t)
        s = np.where(live, s + t, s)
        live &= (t != 0.0) & (np.abs(t) > 1e-18 * np.abs(s))
    return s


def _hankel(nmax: int, x: np.ndarray) -> np.ndarray:
    """J_0, J_1 by the Hankel expansion, then upward recurrence; x >= 25, x >= 1.5*nmax."""
    q = np.floor(x / _TWOPI)
    r = ((x - q * _TWOPI_P1) - q * _TWOPI_P2) - q * _TWOPI_P3
    r = np.where(r < 0.0, r + _TWOPI, r)
    amp = np.sqrt(2.0 / (math.pi * x))
    out = np.empty((nmax + 1, x.size))
    j = np.arange(41.0)[:, None]
    sign = np.where((j + 1) % 4 < 2, 1.0, -1.0)  # +, -, -, +, +, -, ...
    even = j % 2 == 0
    j01 = []
    for k in (0, 1):
        mu4 = 4.0 * k * k
        # term j is a_{j+1} / x^{j+1}; the terms decrease for x >= 25, j <= 40
        term = np.cumprod((mu4 - (2.0 * j + 1.0) ** 2) / (8.0 * (j + 1.0) * x), axis=0)
        signed = sign * term
        # P = 1 + sum over odd j, Q = sum over even j (partial sums after each term)
        p = np.cumsum(np.vstack([np.ones_like(x), np.where(even, 0.0, signed)]), axis=0)[1:]
        q = np.cumsum(np.vstack([np.zeros_like(x), np.where(even, signed, 0.0)]), axis=0)[1:]
        # stop after the first term below 1e-17 of |P| + |Q|, or after 41 terms
        small = np.abs(term) < 1e-17 * (np.abs(p) + np.abs(q))
        small[-1] = True
        stop = np.argmax(small, axis=0), np.arange(x.size)
        m8 = (2 * k + 1) & 7
        chi = (r - _PIO4_HI[m8]) - _PIO4_LO[m8]
        j01.append(amp * (np.cos(chi) * p[stop] - np.sin(chi) * q[stop]))
    out[0] = j01[0]
    if nmax >= 1:
        out[1] = j01[1]
    for m in range(1, nmax):
        out[m + 1] = (2.0 * m / x) * out[m] - out[m - 1]
    return out


def _miller(nmax: int, x: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Miller backward recurrence, each argument from its own start order; x > 0.5.

    Column i starts above max(top[i], x[i]) and holds zeros until then, so it
    does not depend on the rest of the batch.
    """
    m0 = np.maximum(top, np.ceil(x).astype(np.int64))
    start = m0 + np.sqrt(160.0 * np.maximum(m0, 8)).astype(np.int64) + 12
    start += start & 1
    first = int(start.max())
    wait = first - start  # steps before a column begins; below 2**16, so radix-sorted
    order = np.argsort(wait.astype(np.uint16), kind="stable")
    # columns begun by step m = first, first - 1, ..., 1
    begun = np.cumsum(np.bincount(wait, minlength=first)[:first]).tolist()
    out = np.zeros((nmax + 1, x.size))
    jp = np.zeros_like(x)
    jc = np.zeros_like(x)
    # half the normalisation sum: sum of the provisional J_{2m}, m >= 1
    half = np.zeros_like(x)
    lo = 0
    for m, hi in zip(range(first, 0, -1), begun):
        if hi > lo:
            jc[order[lo:hi]] = 1e-30  # provisional J_m of the columns that begin here
            lo = hi
        jp, jc = jc, np.subtract((2.0 * m / x) * jc, jp, out=jp)  # jc: provisional J_{m-1}
        if m - 1 <= nmax:
            out[m - 1] = jc
        if (m - 1) % 2 == 0 and m > 1:
            half += jc
        # one step grows |J| by at most 2m/x + 1 < 2.2e3 (x > 0.5, m < 540
        # for orders up to 201), so eight steps stay below 1e277 from 1e250
        if m % 8 == 0:
            big = np.abs(jc) > 1e250
            if big.any():
                jc[big] *= 1e-250
                jp[big] *= 1e-250
                half[big] *= 1e-250
                out[:, big] *= 1e-250
    # J_0 + 2*sum_{m>=1} J_{2m} = 1 fixes the overall scale
    out /= 2.0 * half + jc
    return out


def jn_table(nmax, x) -> np.ndarray:
    """Table T[n, i] = J_n(x[i]) for n = 0..nmax[i] and every x[i] >= 0.

    ``nmax`` is one top order for every argument or one per argument; the
    table has max(nmax) + 1 rows, and rows above a column's own top order
    hold no meaningful value.  Column i depends only on x[i] and nmax[i].
    """
    x = np.asarray(x, dtype=float).ravel()
    top = np.broadcast_to(np.asarray(nmax, dtype=np.int64), x.shape)
    nmax = int(np.max(nmax, initial=0))
    out = np.zeros((nmax + 1, x.size))
    out[0, x == 0.0] = 1.0
    series = (x > 0.0) & (x <= 0.5)
    hankel = (x >= _ASYM_CUT) & (x >= 1.5 * top)
    miller = (x > 0.5) & ~hankel
    if series.any():
        out[:, series] = _series(nmax, x[series])
    if hankel.any():
        out[:, hankel] = _hankel(nmax, x[hankel])
    if miller.any():
        out[:, miller] = _miller(nmax, x[miller], top[miller])
    return out


def jk_pairs(k, x):
    """(J_k(x), J_k'(x)) over an array x, for one order k or one order per point.

    Long arrays go through jn_table in chunks of at most _CHUNK_CELLS table
    cells, so the temporaries stay bounded however many points there are.
    """
    x = np.asarray(x, dtype=float).ravel()
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), x.shape)
    rows = int(k.max(initial=0)) + 2
    jk = np.empty(x.size)
    jkp = np.empty(x.size)
    step = max(1, _CHUNK_CELLS // max(rows, 41))
    for lo in range(0, x.size, step):
        sl = slice(lo, lo + step)
        kc = k[sl]
        t = jn_table(kc + 1, x[sl])
        cols = np.arange(kc.size)
        up = t[kc + 1, cols]
        jk[sl] = t[kc, cols]
        jkp[sl] = np.where(kc == 0, -up, 0.5 * (t[np.abs(kc - 1), cols] - up))
    return jk, jkp


def det_grid(k, lams, mu: float, lam: float, free: bool):
    """Determinant and local scale arrays over a grid of trial eigenvalues.

    ``k`` is one angular order for the whole grid or one order per point.
    Clamped boundary: D_k = -p*s*J_k'(p)*J_k'(s) + k^2*J_k(p)*J_k(s) with
    p = sqrt(L/(lam+2mu)), s = sqrt(L/mu); traction-free: the real normal
    form of the (sigma_rr, sigma_rtheta) determinant.  The scale uses the
    per-argument envelopes max(|J_k|, |J_k'|), so d/scale stays O(local
    amplitude) at roots.
    """
    lams = np.asarray(lams, dtype=float)
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), lams.shape)
    p = np.sqrt(lams / (lam + 2.0 * mu))
    s = np.sqrt(lams / mu)
    j, jd = jk_pairs(np.concatenate([k, k]), np.concatenate([p, s]))
    n = lams.size
    jp, js, jpp, jsp = j[:n], j[n:], jd[:n], jd[n:]
    ap = np.maximum(np.abs(jp), np.abs(jpp))
    as_ = np.maximum(np.abs(js), np.abs(jsp))
    k2 = (k * k).astype(float)
    if not free:
        d = -p * s * jpp * jsp + k2 * jp * js
        return d, (p * s + k2) * ap * as_ + 1e-300
    a11 = (2.0 * k2 - s * s) * jp - 2.0 * p * jpp
    a22 = 2.0 * s * jsp + (s * s - 2.0 * k2) * js
    c12 = s * jsp - js
    c21 = p * jpp - jp
    d = a11 * a22 + 4.0 * k2 * c12 * c21
    sc = (
        (np.abs(2.0 * k2 - s * s) + 2.0 * p) * ap * (2.0 * s + np.abs(s * s - 2.0 * k2)) * as_
        + 4.0 * k2 * (s + 1.0) * as_ * (p + 1.0) * ap
        + 1e-300
    )
    return d, sc


def det_dirichlet(k: int, lam_ev: float, mu: float, lam: float):
    """Clamped-boundary determinant and its local scale at one trial eigenvalue."""
    d, sc = det_grid(k, [lam_ev], mu, lam, False)
    return float(d[0]), float(sc[0])


def det_free(k: int, lam_ev: float, mu: float, lam: float):
    """Traction-free determinant and its local scale at one trial eigenvalue."""
    d, sc = det_grid(k, [lam_ev], mu, lam, True)
    return float(d[0]), float(sc[0])
