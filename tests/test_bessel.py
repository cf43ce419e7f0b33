"""Bessel J, derivatives, zeros, and gamma against independent oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps

from elastica.errors import ParameterDomainError, RangeError
from elastica.specfun import (
    bessel_j,
    bessel_j_prime,
    bessel_j_sequence,
    bessel_zeros,
    gamma_fn,
)

mp.mp.dps = 30


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
    assert bessel_j(0, 0.0) == 1.0


@pytest.mark.parametrize("k", [1, 2, 5, 40, 200])
def test_jk_at_zero(k):
    assert bessel_j(k, 0.0) == 0.0


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
    assert abs(bessel_j(0, root)) < 1e-13


@pytest.mark.parametrize(
    "k,x",
    [(k, x) for k in (0, 1, 2, 3, 7, 20, 63, 120, 200)
     for x in (1e-7, 0.3, 0.5001, 2.1, 7.7, 12.0, 24.9, 25.1, 40.0, 180.0, 301.0,
               2.5e3, 9.9e5)],
)
def test_bessel_vs_mpmath(k, x):
    mine = bessel_j(k, x)
    ref = mp.besselj(k, mp.mpf(x))
    if abs(ref) < 1e-280:
        assert abs(mine) < 1e-270
        return
    envelope = math.sqrt(2.0 / (math.pi * x)) if x > max(1.0, k) else abs(float(ref))
    assert abs(mine - float(ref)) <= 1e-12 * max(abs(float(ref)), 1e-3 * envelope)


def test_prime_is_minus_j1():
    for x in (0.5, 1.0, 2.0):
        assert abs(bessel_j_prime(0, x) + bessel_j(1, x)) < 1e-13


def test_prime_at_origin():
    assert bessel_j_prime(1, 0.0) == 0.5
    assert bessel_j_prime(3, 0.0) == 0.0


def test_prime_at_first_j1_zero():
    j11 = bessel_zeros(1, 1)[0]
    assert abs(bessel_j_prime(0, j11) + bessel_j(1, j11)) < 1e-10
    assert abs(bessel_j(1, j11)) < 1e-11


def test_recurrence_residual_property():
    rng = np.random.default_rng(7)
    for _ in range(150):
        k = int(rng.integers(1, 150))
        x = float(rng.uniform(0.2, 400.0))
        jm, jc, jp = bessel_j(k - 1, x), bessel_j(k, x), bessel_j(k + 1, x)
        envelope = math.sqrt(2.0 / (math.pi * x)) if x > k else max(abs(jc), 1e-30)
        resid = jm + jp - (2.0 * k / x) * jc
        assert abs(resid) <= 1e-11 * max(1.0, 2.0 * k / x) * max(envelope, abs(jm), abs(jp))


def test_wronskian_style_identity():
    # J_k J_{k+1}' - J_k' J_{k+1} = J_k^2 + J_{k+1}^2 - ((2k+1)/x) J_k J_{k+1}
    for k in (0, 1, 4, 11):
        for x in (0.7, 3.3, 19.0, 77.0):
            lhs = bessel_j(k, x) * bessel_j_prime(k + 1, x) - bessel_j_prime(k, x) * bessel_j(k + 1, x)
            jk, jk1 = bessel_j(k, x), bessel_j(k + 1, x)
            rhs = jk**2 + jk1**2 - (2 * k + 1) / x * jk * jk1
            assert abs(lhs - rhs) < 1e-10


def test_crossover_overlap_agreement():
    # the backward-recurrence and asymptotic branches agree across the switch
    for k in (0, 1, 2, 5):
        for x in np.linspace(max(25.0, 1.5 * k) - 2.0, max(25.0, 1.5 * k) + 2.0, 9):
            ref = float(mp.besselj(k, mp.mpf(float(x))))
            assert abs(bessel_j(k, float(x)) - ref) <= 1e-11 * max(abs(ref), 1e-2)


def test_sequence_matches_scalar():
    # ulp-level wiggle allowed: the recurrence start order differs with nmax
    seq = bessel_j_sequence(12, 9.25)
    for k in range(13):
        assert abs(seq[k] - bessel_j(k, 9.25)) <= 1e-14 * max(abs(seq[k]), 0.01)


def test_range_errors():
    with pytest.raises(RangeError):
        bessel_j(201, 1.0)
    with pytest.raises(RangeError):
        bessel_j(0, 1.1e6)
    with pytest.raises(RangeError):
        bessel_j(0, -1.0)
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
            assert abs(bessel_j(k, float(z))) <= 1e-11


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


def test_zero_table_raises_without_enough_brackets(monkeypatch):
    # a J_k without m sign changes below (m + k/2)*pi must not give a short row
    from elastica.errors import BracketError
    from elastica.specfun import _backend

    monkeypatch.setattr(_backend, "jk_pairs", lambda k, x: (np.ones(np.size(x)), np.ones(np.size(x))))
    with pytest.raises(BracketError):
        bessel_zeros(np.arange(3), 5)


def test_gamma_values():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(2.0) == 1.0
    assert abs(gamma_fn(1.5) - math.sqrt(math.pi) / 2.0) < 1e-16
    assert abs(gamma_fn(2.5) - 3.0 * math.sqrt(math.pi) / 4.0) < 1e-15


def test_gamma_vs_mpmath_sweep():
    rng = np.random.default_rng(3)
    for x in np.concatenate([rng.uniform(0.05, 50.0, 60), np.arange(0.5, 50.0, 0.5)]):
        ref = float(mp.gamma(float(x)))
        assert abs(gamma_fn(float(x)) - ref) <= 1e-13 * abs(ref)


def test_gamma_domain_errors():
    with pytest.raises(ParameterDomainError):
        gamma_fn(0.0)
    with pytest.raises(ParameterDomainError):
        gamma_fn(-2.5)
    with pytest.raises(ParameterDomainError):
        gamma_fn(51.0)


def test_jn_table_batch_equals_points_alone():
    # one batch mixes x = 0, the power series (x <= 0.5), Miller points with
    # different start orders, and Hankel points; each column must match the
    # point evaluated on its own, bit for bit
    from elastica.specfun._backend import jn_table

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


def test_det_grid_order_per_point_equals_one_order_at_a_time():
    from elastica.specfun._backend import det_grid

    rng = np.random.default_rng(5)
    ks = rng.integers(0, 61, 300)
    lams = rng.uniform(0.01, 3e3, 300)
    for free in (False, True):
        d, sc = det_grid(ks, lams, 1.0, 1.0, free)
        for k in np.unique(ks):
            sel = ks == k
            dk, sk = det_grid(int(k), lams[sel], 1.0, 1.0, free)
            assert np.all(np.abs(d[sel] - dk) <= 1e-14 * sk)
            assert np.all(np.abs(sc[sel] - sk) <= 1e-14 * sk)


def test_jk_pairs_chunks_long_arrays():
    # a long array is evaluated in chunks whose temporaries stay bounded; the
    # values equal one unchunked table (checked on every 50th point: a
    # table's columns do not depend on the rest of its batch)
    import tracemalloc

    from elastica.specfun._backend import jk_pairs, jn_table

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
