"""Bessel tables (J_k, J_k') and zeros against independent oracles."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps

from elastica.errors import RangeError
from elastica.specfun import bessel_zeros
from elastica.specfun._backend import jk_pairs, jn_table

mp.mp.dps = 30


def _jn(k, x):
    """J_k(x) from the table kernel: row k of jn_table(k, [x])."""
    return jn_table(k, [x])[k, 0]


def _jn_prime(k, x):
    """J_k'(x) from the table kernel: the slope of jk_pairs(k, [x])."""
    return jk_pairs(k, [x])[1][0]


def series_j0(x, terms=60):
    """Power-series oracle for J_0, independent of the library path."""
    s = 0.0
    t = 1.0
    for m in range(terms):
        if m > 0:
            t *= -(x / 2) ** 2 / m**2
        s += t
    return s


def test_j0_at_zero():
    assert _jn(0, 0.0) == 1.0


@pytest.mark.parametrize("k", [1, 2, 5, 40, 200])
def test_jk_at_zero(k):
    assert _jn(k, 0.0) == 0.0


def test_first_j0_zero_against_series_bisection():
    # bisection on the power series brackets the first zero
    lo, hi = 2.0, 3.0
    assert series_j0(lo) > 0 > series_j0(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if series_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 2.404825557695773) < 1e-12
    assert abs(_jn(0, root)) < 1e-13


@pytest.mark.parametrize(
    "k,x",
    [(k, x) for k in (0, 1, 2, 3, 7, 20, 63, 120, 200)
     for x in (1e-7, 0.3, 0.5001, 2.1, 7.7, 12.0, 24.9, 25.1, 40.0, 180.0, 301.0,
               2.5e3, 9.9e5)],
)
def test_bessel_vs_mpmath(k, x):
    mine = _jn(k, x)
    ref = mp.besselj(k, mp.mpf(x))
    if abs(ref) < 1e-280:
        assert abs(mine) < 1e-270
        return
    envelope = math.sqrt(2.0 / (math.pi * x)) if x > max(1.0, k) else abs(float(ref))
    assert abs(mine - float(ref)) <= 1e-12 * max(abs(float(ref)), 1e-3 * envelope)


def test_prime_is_minus_j1():
    for x in (0.5, 1.0, 2.0):
        assert abs(_jn_prime(0, x) + _jn(1, x)) < 1e-13


def test_prime_at_origin():
    assert _jn_prime(1, 0.0) == 0.5
    assert _jn_prime(3, 0.0) == 0.0


def test_prime_at_first_j1_zero():
    j11 = bessel_zeros(1, 1)[0]
    assert abs(_jn_prime(0, j11) + _jn(1, j11)) < 1e-10
    assert abs(_jn(1, j11)) < 1e-11


def test_recurrence_residual_property():
    rng = np.random.default_rng(7)
    for _ in range(150):
        k = int(rng.integers(1, 150))
        x = float(rng.uniform(0.2, 400.0))
        jm, jc, jp = _jn(k - 1, x), _jn(k, x), _jn(k + 1, x)
        envelope = math.sqrt(2.0 / (math.pi * x)) if x > k else max(abs(jc), 1e-30)
        resid = jm + jp - (2.0 * k / x) * jc
        assert abs(resid) <= 1e-11 * max(1.0, 2.0 * k / x) * max(envelope, abs(jm), abs(jp))


def test_wronskian_style_identity():
    # J_k J_{k+1}' - J_k' J_{k+1} = J_k^2 + J_{k+1}^2 - ((2k+1)/x) J_k J_{k+1}
    for k in (0, 1, 4, 11):
        for x in (0.7, 3.3, 19.0, 77.0):
            lhs = _jn(k, x) * _jn_prime(k + 1, x) - _jn_prime(k, x) * _jn(k + 1, x)
            jk, jk1 = _jn(k, x), _jn(k + 1, x)
            rhs = jk**2 + jk1**2 - (2 * k + 1) / x * jk * jk1
            assert abs(lhs - rhs) < 1e-10


def test_crossover_overlap_agreement():
    # the backward-recurrence and asymptotic branches agree across the switch
    for k in (0, 1, 2, 5):
        for x in np.linspace(max(25.0, 1.5 * k) - 2.0, max(25.0, 1.5 * k) + 2.0, 9):
            ref = float(mp.besselj(k, mp.mpf(float(x))))
            assert abs(_jn(k, float(x)) - ref) <= 1e-11 * max(abs(ref), 1e-2)


def test_sequence_matches_scalar():
    # ulp-level wiggle allowed: the recurrence start order differs with nmax
    seq = jn_table(12, [9.25])[:, 0]
    for k in range(13):
        assert abs(seq[k] - _jn(k, 9.25)) <= 1e-14 * max(abs(seq[k]), 0.01)


def test_range_errors():
    for k in (-1, 201, np.array([0, 201]), np.array([-1, 3]), 1.5, np.array([0.0, 1.0]), "1"):
        with pytest.raises(RangeError):
            bessel_zeros(k, 3)
    for m in (-1, 10_001, 2.5):
        with pytest.raises(RangeError):
            bessel_zeros(np.arange(3), m)
        with pytest.raises(RangeError):
            bessel_zeros(0, m)
    assert bessel_zeros(np.arange(3), 0).shape == (3, 0)


def test_zero_tables_against_mpmath():
    for k in (0, 1, 5, 31):
        zs = bessel_zeros(k, 12)
        for i, z in enumerate(zs, start=1):
            assert abs(z - float(mp.besseljzero(k, i))) < 1e-10
            assert abs(_jn(k, float(z))) <= 1e-11


def test_zero_known_values():
    assert abs(bessel_zeros(0, 1)[0] - 2.404825557695773) < 1e-12
    assert abs(bessel_zeros(1, 1)[0] - 3.831705970207512) < 1e-12


def test_zeros_increasing_and_interlacing():
    tables = {k: bessel_zeros(k, 50) for k in range(5)}
    for k in range(4):
        a, b = tables[k], tables[k + 1]
        assert np.all(np.diff(a) > 0)
        # j_{k,i} < j_{k+1,i} < j_{k,i+1}
        assert np.all(a[:49] < b[:49])
        assert np.all(b[:49] < a[1:50])


def test_deep_zero_table():
    zs = bessel_zeros(2, 2000)
    assert np.all(np.diff(zs) > 3.0)
    i = 1999
    assert abs(zs[i] - float(mp.besseljzero(2, i + 1))) < 1e-9 * zs[i]


def test_zeros_of_many_orders_match_each_order_alone():
    ks = np.array(list(range(61)) + [100, 150, 200])
    for m in (1, 12, 50, 400):
        table = bessel_zeros(ks, m)
        assert table.shape == (ks.size, m)
        for row, k in zip(table, ks):
            assert np.array_equal(row, bessel_zeros(int(k), m)), (k, m)
            ref = sps.jn_zeros(int(k), m)
            assert np.max(np.abs(row - ref) / ref) <= 4.4e-16, (k, m)


def test_zeros_below_a_cutoff_match_the_count_form():
    ks = np.arange(201)
    m = 20  # j_{0,20} > 60 > j_{50,1} + 1e-9, so every count-form row reaches each cutoff
    table = bessel_zeros(ks, m)
    for k, i in ((0, 1), (1, 3), (50, 1)):
        z = table[k, i - 1]
        for cut in (z - 1e-9, z + 1e-9):
            got = bessel_zeros(ks, m, below=cut)
            assert got.shape == (ks.size, m)
            kept = np.isfinite(got)
            assert np.array_equal(got[kept], table[kept])  # bit for bit
            assert np.all(got[kept] <= cut)
            assert np.array_equal(kept, table <= cut)  # none below the cutoff missing
            assert np.isfinite(got[k, i - 1]) == (cut > z)
    at_zero = bessel_zeros(50, m, below=table[50, 0])  # a cutoff on a zero keeps it
    assert at_zero[0] == table[50, 0] and np.all(np.isinf(at_zero[1:]))
    assert np.all(np.isinf(bessel_zeros(ks, m, below=0.0)))
    for cut in (-1.0, math.nan, 2e6):
        with pytest.raises(RangeError):
            bessel_zeros(0, 3, below=cut)


def test_disk_zero_table_refines_in_few_table_calls(monkeypatch):
    # Newton with (J_k, J_k') from one table per step, from the Hermite root
    # of the grid's J_k and J_k': after the grid, the zeros of
    # disk_dirichlet_spectrum(1, 800) take at most 3 jk_pairs calls
    from elastica.fem.analytic import disk_dirichlet_spectrum
    from elastica.specfun import _backend

    calls = []
    jk_pairs = _backend.jk_pairs
    monkeypatch.setattr(_backend, "jk_pairs", lambda k, x: calls.append(np.size(x)) or jk_pairs(k, x))
    disk_dirichlet_spectrum(1.0, 800.0)
    assert 2 <= len(calls) <= 1 + 3


def test_zero_table_raises_without_enough_brackets(monkeypatch):
    # a J_k without m sign changes below (m + k/2)*pi must not give a short row
    from elastica.errors import BracketError
    from elastica.specfun import _backend

    monkeypatch.setattr(_backend, "jk_pairs", lambda k, x: (np.ones(np.size(x)), np.ones(np.size(x))))
    with pytest.raises(BracketError):
        bessel_zeros(np.arange(3), 5)


def test_jn_table_batch_equals_points_alone():
    # one batch mixes x = 0, the power series (x <= 0.5), Miller points with
    # different start orders, and Hankel points; each column must match the
    # point evaluated on its own, bit for bit
    rng = np.random.default_rng(11)
    xs = np.concatenate([[0.0, 0.5], rng.uniform(0.0, 0.5, 5), rng.uniform(0.5, 24.0, 8),
                         [24.999, 25.0, 70.0], rng.uniform(100.0, 3e3, 6), [9.9e5]])
    for nmax in (0, 1, 7, 40, 62):
        batch = jn_table(nmax, xs)
        assert batch.shape == (nmax + 1, xs.size)
        for i, x in enumerate(xs):
            alone = jn_table(nmax, [x])[:, 0]
            assert np.array_equal(batch[:, i], alone), (nmax, x)
    # one top order per argument: column i up to its own top equals the point alone
    tops = rng.integers(0, 63, xs.size)
    batch = jn_table(tops, xs)
    assert batch.shape == (tops.max() + 1, xs.size)
    for i, (top, x) in enumerate(zip(tops, xs)):
        assert np.array_equal(batch[: top + 1, i], jn_table(int(top), [x])[:, 0]), (top, x)


def _miller_errors(tops, points, rows_of):
    """Worst error of jn_table(top, x) against mpmath at 40 digits, over x in
    the Miller regime (0.5, max(25, 1.5*top)) and the rows rows_of(top):
    relative to max(|J_n|, sqrt(2/(pi x))) for n < x, else to |J_n|."""
    worst = 0.0
    with mp.workdps(40):
        for top in tops:
            xs = np.linspace(0.5, max(25.0, 1.5 * top), points + 2)[1:-1]
            table = jn_table(top, xs)
            for n in rows_of(top):
                for x, got in zip(xs.tolist(), table[n]):
                    ref = float(mp.besselj(n, mp.mpf(x)))
                    scale = max(abs(ref), math.sqrt(2.0 / (math.pi * x))) if n < x else abs(ref)
                    if scale > 1e-290:  # a J_n that underflows has no relative error
                        worst = max(worst, abs(got - ref) / scale)
    return worst


def test_miller_start_order_holds_full_accuracy():
    # the start order m0 + 20 + 3*sqrt(m0) is deep enough: m0 + 60 reads 4e-13
    # near x = 289 at top = 201.  The bound holds on these grids, not at
    # every x: near x = 300 at top = 201 the recurrence's own rounding reaches
    # 1.7e-14 from any start order, 200 orders deeper too
    tops = list(range(64)) + [80, 120, 201]
    assert _miller_errors(tops, 97, lambda top: [top]) <= 1e-14
    assert _miller_errors([201], 12, lambda top: range(top + 1)) <= 1e-14


def test_jn_table_argument_outside_its_domain_gives_nan():
    xs = np.array([-1.0, math.nan, 1.0, -math.inf, 0.0, math.inf, -1e-300, 30.0, 0.25])
    bad = np.array([True, True, False, True, False, True, True, False, False])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nmax in (0, 3, np.array([3, 0, 5, 2, 1, 4, 6, 3, 2])):
            t = jn_table(nmax, xs)
            assert np.all(np.isnan(t[:, bad]))
            assert not np.any(np.isnan(t[:, ~bad]))
            for i in np.flatnonzero(~bad):
                top = int(np.broadcast_to(nmax, xs.shape)[i])
                assert np.array_equal(t[:top + 1, i], jn_table(top, [xs[i]])[:, 0])
            assert t[0, 4] == 1.0 and np.all(t[1:, 4] == 0.0)  # x = 0 stays exact
        j, jd = jk_pairs(2, xs)
    assert np.array_equal(np.isnan(j), bad) and np.array_equal(np.isnan(jd), bad)


def test_det_grid_order_per_point_equals_one_order_at_a_time():
    from elastica.specfun._backend import det_grid

    rng = np.random.default_rng(5)
    ks = rng.integers(0, 61, 300)
    lams = rng.uniform(0.01, 3e3, 300)
    for free in (False, True):
        d, _, sc = det_grid(ks, lams, 1.0, 1.0, free)
        for k in np.unique(ks):
            sel = ks == k
            dk, _, sk = det_grid(int(k), lams[sel], 1.0, 1.0, free)
            assert np.all(np.abs(d[sel] - dk) <= 1e-14 * sk)
            assert np.all(np.abs(sc[sel] - sk) <= 1e-14 * sk)


def _written_out_det_mp(k, lam_ev, lam, free):
    """The disk determinant at mu = 1 written out in mpmath, clamped or free."""
    p, s = mp.sqrt(lam_ev / (lam + 2)), mp.sqrt(lam_ev)
    jp, jpp = mp.besselj(k, p), mp.besselj(k, p, derivative=1)
    js, jsp = mp.besselj(k, s), mp.besselj(k, s, derivative=1)
    if not free:
        return -p * s * jpp * jsp + k * k * jp * js
    a11 = (2 * k * k - s * s) * jp - 2 * p * jpp
    a22 = 2 * s * jsp + (s * s - 2 * k * k) * js
    return a11 * a22 + 4 * k * k * (s * jsp - js) * (p * jpp - jp)


@pytest.mark.parametrize("free", [False, True])
@pytest.mark.parametrize("lam", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("k", [0, 1, 5, 20, 60])
def test_det_grid_slope_against_differences_and_mpmath(k, lam, free):
    # dD/dL from one Bessel table, against a central difference of det_grid and
    # the mpmath derivative of the written-out determinant; the wavenumbers
    # reach the series (<= 0.5), Miller and Hankel (>= 25, >= 1.5 (k + 1)) regimes
    from elastica.specfun._backend import boundary_matrix, det_grid

    lams = np.array([0.05, 0.2, 3.0, 40.0, 700.0, 5000.0, 3e4])
    d, slope, sc = det_grid(k, lams, 1.0, lam, free)
    p, s = np.sqrt(lams / (lam + 2.0)), np.sqrt(lams)
    # the slope's own size: 2L dm/dL is about (z + k) times the entry m
    size = sc * (1.0 + k + p + s) / lams
    ref = np.array([float(mp.diff(lambda x: _written_out_det_mp(k, x, lam, free), mp.mpf(x))) for x in lams])
    assert np.max(np.abs(slope - ref) / size) <= 1e-13
    h = 1e-5 * lams
    central = (det_grid(k, lams + h, 1.0, lam, free)[0] - det_grid(k, lams - h, 1.0, lam, free)[0]) / (2.0 * h)
    assert np.max(np.abs(slope - central) / size) <= 1e-6
    # D and the scale are the entries' product and the envelope scale, bit for bit
    m11, m12, m21, m22, sc2 = boundary_matrix(k, lams, 1.0, lam, free)
    assert np.array_equal(d, m11 * m22 + m12 * m21) and np.array_equal(sc, sc2)
    (jp, jpp), (js, jsp) = jk_pairs(k, p), jk_pairs(k, s)
    ap, as_ = np.maximum(np.abs(jp), np.abs(jpp)), np.maximum(np.abs(js), np.abs(jsp))
    k2 = float(k * k)
    if free:
        envelope = (
            (np.abs(2.0 * k2 - s * s) + 2.0 * p) * ap * (2.0 * s + np.abs(s * s - 2.0 * k2)) * as_
            + 4.0 * k2 * (s + 1.0) * as_ * (p + 1.0) * ap
            + 1e-300
        )
    else:
        envelope = (p * s + k2) * ap * as_ + 1e-300
    assert np.array_equal(sc, envelope)


def test_jk_pairs_chunks_long_arrays():
    # a long array is evaluated in chunks whose temporaries stay bounded; the
    # values equal one unchunked table (checked on every 50th point: a
    # table's columns do not depend on the rest of its batch)
    import tracemalloc

    x = np.linspace(0.0, 2e3, 200_000)
    tracemalloc.start()
    try:
        j, jd = jk_pairs(0, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    t = jn_table(1, x[::50])
    scale = np.maximum(np.abs(t[0]), np.abs(t[1]))
    assert np.all(np.abs(j[::50] - t[0]) <= 1e-14 * scale)
    assert np.all(np.abs(jd[::50] + t[1]) <= 1e-14 * scale)


def _hankel_all_terms(nmax, x):
    """Oracle: the Hankel regime with all 41 terms made for every argument
    before each argument's stopping term is picked."""
    from elastica.specfun import _backend as B

    q = np.floor(x / B._TWOPI)
    r = ((x - q * B._TWOPI_P1) - q * B._TWOPI_P2) - q * B._TWOPI_P3
    r = np.where(r < 0.0, r + B._TWOPI, r)
    amp = np.sqrt(2.0 / (math.pi * x))
    out = np.empty((nmax + 1, x.size))
    j = np.arange(41.0)[:, None]
    sign = np.where((j + 1) % 4 < 2, 1.0, -1.0)
    even = j % 2 == 0
    j01 = []
    for k in (0, 1):
        mu4 = 4.0 * k * k
        term = np.cumprod((mu4 - (2.0 * j + 1.0) ** 2) / (8.0 * (j + 1.0) * x), axis=0)
        signed = sign * term
        p = np.cumsum(np.vstack([np.ones_like(x), np.where(even, 0.0, signed)]), axis=0)[1:]
        q = np.cumsum(np.vstack([np.zeros_like(x), np.where(even, signed, 0.0)]), axis=0)[1:]
        small = np.abs(term) < 1e-17 * (np.abs(p) + np.abs(q))
        small[-1] = True
        stop = np.argmax(small, axis=0), np.arange(x.size)
        m8 = (2 * k + 1) & 7
        chi = (r - B._PIO4_HI[m8]) - B._PIO4_LO[m8]
        j01.append(amp * (np.cos(chi) * p[stop] - np.sin(chi) * q[stop]))
    out[0] = j01[0]
    if nmax >= 1:
        out[1] = j01[1]
    for m in range(1, nmax):
        out[m + 1] = (2.0 * m / x) * out[m] - out[m - 1]
    return out


def test_hankel_in_chunks_equals_all_terms_at_once(monkeypatch):
    from elastica.specfun import _backend as B

    rng = np.random.default_rng(3)
    x = np.concatenate([[25.0, 1e4], np.geomspace(25.0, 1e4, 3000), rng.uniform(25.0, 1e4, 3000)])
    for nmax in (0, 1, 60, 200):
        chunked = B.jn_table(nmax, x)
        with monkeypatch.context() as m:
            m.setattr(B, "_hankel", _hankel_all_terms)
            oracle = B.jn_table(nmax, x)
        assert np.array_equal(chunked, oracle), nmax
    # the chunks stop early: at x >= 100 every series is done within 10 terms
    live = []
    real_cumprod = np.cumprod

    def cumprod(a, axis=None):
        live.append(a.shape)
        return real_cumprod(a, axis=axis)

    monkeypatch.setattr(B.np, "cumprod", cumprod)
    B._hankel_pq(np.geomspace(100.0, 1e4, 500))
    assert len(live) == -(-10 // B._HANKEL_CHUNK)
