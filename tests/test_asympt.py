"""Counting, remainder, heat trace, fits, and the half-sum cancellation."""

import math

import numpy as np
import pytest

from elastica.asympt import (
    CountingSeries,
    counting,
    default_heat_window,
    fit_heat_samples,
    fit_two_term,
    heat_trace,
    min_admissible_t,
    prop71_empirical,
    remainder_series,
)
from elastica.coeffs import weyl_a
from elastica.errors import ParameterDomainError, TailBoundError, WindowError
from elastica.fem import (
    disk_dirichlet_spectrum,
    square_dirichlet_spectrum,
    square_neumann_lattice_spectrum,
)
from elastica.params import BoundaryCondition as BC
from elastica.params import LameParams, UNIT_SQUARE
from elastica.spectrum import Method, Spectrum

PDEC = LameParams(1.0, -1.0)


def _spectrum_from_values(values, bc=BC.DIRICHLET, lambda_max=None, mults=None):
    values = np.asarray(values, dtype=float)
    return Spectrum(
        domain=UNIT_SQUARE,
        bc=bc,
        params=PDEC,
        eigenvalues=values,
        multiplicities=np.ones(len(values), dtype=int) if mults is None else np.asarray(mults),
        mode_tags=["x"] * len(values),
        lambda_max=lambda_max or float(values.max()) * 1.01,
        method=Method.ANALYTIC_DECOUPLED,
    )


def _two_term_spectrum(av, bl, lambda_max, bc=BC.DIRICHLET):
    """Eigenvalues placed at N^{-1}(k - 1/2) for the exact model N = av*L + bl*sqrt(L)."""
    total = av * lambda_max + bl * math.sqrt(lambda_max)
    ks = np.arange(1, int(total) + 1) - 0.5
    disc = bl * bl + 4.0 * av * ks
    roots = ((-bl + np.sqrt(disc)) / (2.0 * av)) ** 2
    return _spectrum_from_values(roots, bc=bc, lambda_max=lambda_max)


def test_counting_empty_and_strict():
    sp = _spectrum_from_values([1.0, 1.0, 2.0], lambda_max=4.0)
    cs = counting(sp, [0.5, 1.5, 2.0, 3.0])
    assert list(cs.values) == [0, 2, 2, 3]


def test_counting_range_error():
    sp = _spectrum_from_values([1.0], lambda_max=2.0)
    with pytest.raises(ParameterDomainError):
        counting(sp, [3.0])


def test_counting_leading_order_square():
    # N/lambda -> a*Vol; the boundary term decays like 1/sqrt(lambda), and at
    # lambda = 1e4 it still contributes 4% (the lattice count says so), so the
    # 2% agreement is checked where it genuinely holds
    a = weyl_a(PDEC, 2)
    sp4 = square_dirichlet_spectrum(1.0, 1.05e4)
    n4 = counting(sp4, [1e4]).values[0]
    assert abs(n4 / 1e4 - a * UNIT_SQUARE.volume) < 0.05 * a
    sp5 = square_dirichlet_spectrum(1.0, 1.05e5)
    n5 = counting(sp5, [1e5]).values[0]
    assert abs(n5 / 1e5 - a * UNIT_SQUARE.volume) < 0.02 * a
    # and the deviation shrinks like the boundary term predicts
    assert abs(n5 / 1e5 - a) < abs(n4 / 1e4 - a)


def test_remainder_exact_two_term_is_constant():
    # N(L) = av*L + bl*sqrt(L) given directly as series values
    av = 1.0 / (2.0 * math.pi)
    b = -1.0 / (2.0 * math.pi)
    grid = np.linspace(100.0, 5000.0, 40)
    fake = _spectrum_from_values([1.0], lambda_max=6000.0)
    series = CountingSeries(source=fake, grid=grid, values=av * grid + b * 4.0 * np.sqrt(grid))
    rem = remainder_series(series, a_coeff=av, geometry=UNIT_SQUARE)
    assert np.allclose(rem.raw, b, rtol=0, atol=1e-14)


def test_remainder_synthetic_spectrum_cesaro():
    av = 1.0 / (2.0 * math.pi)
    bl = -0.6
    sp = _two_term_spectrum(av, bl, 2e4)
    grid = np.linspace(5e3, 1.9e4, 32)
    rem = remainder_series(counting(sp, grid), a_coeff=av / UNIT_SQUARE.volume, geometry=UNIT_SQUARE)
    target = bl / UNIT_SQUARE.boundary_length
    assert abs(np.mean(rem.cesaro) - target) < 0.02 * abs(target)
    # smoothing suppresses the sawtooth of raw R
    assert np.std(rem.cesaro) < np.std(rem.raw)


def test_remainder_square_window():
    sp = square_dirichlet_spectrum(1.0, 1.05e4)
    grid = np.linspace(5e2, 1e4, 64)
    rem = remainder_series(counting(sp, grid), weyl_a(PDEC, 2), UNIT_SQUARE)
    b = -1.0 / (2.0 * math.pi)
    assert abs(rem.cesaro[-1] - b) < 0.1 * abs(b)


def _cesaro_integral_piecewise(spectrum, a_coeff, geometry, lams):
    """Reference: int_0^lambda R summed interval by interval between eigenvalues."""
    av = a_coeff * geometry.volume
    L = geometry.boundary_length
    taus = spectrum.eigenvalues
    cums = np.concatenate([[0], np.cumsum(spectrum.multiplicities)])

    def anti(nj, s):
        return (2.0 * nj * math.sqrt(s) - (2.0 / 3.0) * av * s**1.5) / L

    out = np.empty(len(lams))
    for i, lam in enumerate(lams):
        total = 0.0
        lo = 0.0
        for j, tau in enumerate(taus):
            hi = min(tau, lam)
            if hi > lo:
                total += anti(cums[j], hi) - anti(cums[j], lo)
                lo = hi
            if tau >= lam:
                break
        if lo < lam:
            total += anti(cums[len(taus)], lam) - anti(cums[len(taus)], lo)
        out[i] = total
    return out


def _random_spectrum():
    rng = np.random.default_rng(5)
    values = np.unique(rng.uniform(0.5, 400.0, 300))
    return _spectrum_from_values(values, lambda_max=401.0, mults=rng.integers(1, 5, values.size))


@pytest.mark.parametrize(
    "make",
    [
        lambda: square_dirichlet_spectrum(1.0, 5e3),
        lambda: square_neumann_lattice_spectrum(1.0, 5e3),
        lambda: disk_dirichlet_spectrum(1.0, 800.0),
        _random_spectrum,
    ],
    ids=["square_dirichlet", "square_neumann", "disk_dirichlet", "random"],
)
def test_cesaro_closed_form_matches_piecewise_integral(make):
    sp = make()
    evs = sp.eigenvalues
    first = evs[evs > 0][0]
    grid = np.sort(np.concatenate([
        np.linspace(0.1, 0.9, 3) * first,  # below the first (nonzero) eigenvalue
        evs[evs > 0][::7],  # exactly on eigenvalues
        np.linspace(first, sp.lambda_max, 41),
        [0.5 * (evs[-1] + sp.lambda_max), sp.lambda_max],  # above the last
    ]))
    assert grid[-1] > evs[-1] and np.isin(evs, grid).sum() > 10
    a_coeff = weyl_a(sp.params, 2)
    rem = remainder_series(counting(sp, grid), a_coeff, sp.domain)
    want = _cesaro_integral_piecewise(sp, a_coeff, sp.domain, grid) / grid
    np.testing.assert_allclose(rem.cesaro, want, rtol=1e-12, atol=0)

def test_heat_trace_singleton():
    sp = _spectrum_from_values([1.0], lambda_max=1e9)
    z = heat_trace(sp, [1.0]).values[0]
    assert abs(z - math.exp(-1.0)) < 1e-15


def test_heat_trace_decreasing_log_convex():
    sp = square_dirichlet_spectrum(1.0, 2e3)
    t = np.geomspace(min_admissible_t(sp), 1.0, 30)
    z = heat_trace(sp, t).values
    assert np.all(np.diff(z) < 0)
    # log Z convex: every interior sample sits below the chord of its neighbours
    lz = np.log(z)
    w = (t[1:-1] - t[:-2]) / (t[2:] - t[:-2])
    chord = lz[:-2] * (1 - w) + lz[2:] * w
    assert np.all(lz[1:-1] <= chord + 1e-12 * np.abs(chord))


def test_heat_trace_tail_error_names_minimum():
    sp = square_dirichlet_spectrum(1.0, 2e3)
    tmin = min_admissible_t(sp)
    with pytest.raises(TailBoundError) as exc:
        heat_trace(sp, [tmin / 10.0])
    assert exc.value.t_min == pytest.approx(tmin, rel=1e-6)
    # and the bound is honest: doubling the cutoff changes Z within the bound
    sp2 = square_dirichlet_spectrum(1.0, 4e3)
    ht = heat_trace(sp, [2.0 * tmin])
    z2 = heat_trace(sp2, [2.0 * tmin]).values[0]
    assert abs(z2 - ht.values[0]) <= ht.tail_bounds[0]


def test_heat_trace_two_term_model_square():
    sp = square_dirichlet_spectrum(1.0, 1e5)
    t = 1e-3
    z = heat_trace(sp, [t]).values[0]
    a_t = 2.0 / (4.0 * math.pi)
    b_t = -0.25 * 2.0 / math.sqrt(4.0 * math.pi)
    model = a_t / t + b_t * 4.0 / math.sqrt(t) + 0.5  # corner constant 2 * 4/16
    assert abs(z - model) / z < 0.005


def heat_trace_stieltjes(spectrum, t):
    """Oracle: heat_trace's truncated trace by summation by parts of int e^{-t L} dN.

    int_0^cutoff e^{-tL} dN = e^{-t cutoff} N(cutoff) + t int_0^cutoff N e^{-tL} dL,
    with the last integral summed exactly over the steps of N.
    """
    taus = spectrum.eigenvalues
    cums = np.concatenate([[0.0], np.cumsum(spectrum.multiplicities)])
    cutoff = spectrum.lambda_max
    total = math.exp(-t * cutoff) * cums[-1]
    lo = 0.0
    acc = 0.0
    for j, tau in enumerate(taus):
        hi = min(tau, cutoff)
        if hi > lo:
            acc += cums[j] * (math.exp(-t * lo) - math.exp(-t * hi))
            lo = hi
    if lo < cutoff:
        acc += cums[-1] * (math.exp(-t * lo) - math.exp(-t * cutoff))
    return total + acc


def test_stieltjes_consistency():
    sp = square_dirichlet_spectrum(1.0, 5e3)
    for t in (0.01, 0.05, 0.3):
        z_sum = heat_trace(sp, [max(t, min_admissible_t(sp))]).values[0]
        z_sbp = heat_trace_stieltjes(sp, max(t, min_admissible_t(sp)))
        assert abs(z_sum - z_sbp) <= 1e-12 * z_sum


def test_fit_exact_synthetic():
    t = np.geomspace(1e-4, 1e-3, 24)
    z = 3.0 / t + 0.5 / np.sqrt(t)
    c0, c1, resid, _ = fit_heat_samples(t, z)
    assert abs(c0 - 3.0) < 1e-10
    assert abs(c1 - 0.5) < 1e-10
    assert resid < 1e-12


def test_fit_noisy_synthetic():
    rng = np.random.default_rng(17)
    t = np.geomspace(1e-4, 1e-3, 48)
    z = (3.0 / t + 0.5 / np.sqrt(t)) * (1.0 + 1e-4 * rng.standard_normal(len(t)))
    c0, c1, _, _ = fit_heat_samples(t, z)
    assert abs(c0 - 3.0) / 3.0 < 1e-3
    assert abs(c1 - 0.5) / 0.5 < 0.3  # c1 is the small term; noise hits it harder


def test_fit_conditioning_error():
    t = np.full(10, 1e-4) * (1 + 1e-13 * np.arange(10))
    with pytest.raises(WindowError):
        fit_heat_samples(t, 1.0 / t)


def test_fit_report_square_dirichlet():
    sp = square_dirichlet_spectrum(1.0, 1e5)
    rep = fit_two_term(sp, "heat")
    target = -0.25 * 2.0 / math.sqrt(4.0 * math.pi) * 4.0
    assert abs(rep.estimates[1] - target) / abs(target) < 0.05
    assert rep.verdicts_emitted
    assert rep.discriminator["liu"]["distance"] < 0.05 * abs(target)


def test_fit_counting_model():
    sp = square_dirichlet_spectrum(1.0, 1.05e4)
    rep = fit_two_term(sp, "counting", window=np.linspace(5e3, 1e4, 64))
    b = -1.0 / (2.0 * math.pi)
    assert abs(rep.estimates[0] - b) < 0.1 * abs(b)


def test_prop71_synthetic_cancellation():
    av = 1.0 / (2.0 * math.pi)
    bl = -0.5
    sd = _two_term_spectrum(av, bl, 3e4, bc=BC.DIRICHLET)
    sf = _two_term_spectrum(av, -bl, 3e4, bc=BC.FREE)
    rep = prop71_empirical(sd, sf)
    assert rep.passed
    assert rep.ratio < 0.05


def test_prop71_square_analytic():
    sd = square_dirichlet_spectrum(1.0, 1e5)
    sf = square_neumann_lattice_spectrum(1.0, 1e5)
    rep = prop71_empirical(sd, sf)
    assert rep.passed
    assert abs(rep.b_minus_fit) > 0.3  # the Dirichlet term itself is visible


def test_prop71_disk_fem_exploratory():
    """Half-sum fit on coupled-disk FEM spectra: exploratory, reported not gated.

    At FEM-feasible cutoffs the admissible heat window [t_min, 10 t_min] sits
    outside the asymptotic regime (t_min = ln(2e6)/lambda_max ~ 0.2 here, where
    the free trace is already dominated by its three rigid modes), so the
    fitted half-sum coefficient measures window bias, not the cancellation.
    The machinery still runs end-to-end and the report documents the window
    and the measured ratio; the quantitative cancellation gate lives with the
    square analytic spectra at lambda_max = 1e5.
    """
    from elastica.fem import fem_extrapolated_spectrum
    from elastica.params import UNIT_DISK

    p = LameParams(1.0, 1.0)
    sd, _ = fem_extrapolated_spectrum(UNIT_DISK, p, BC.DIRICHLET, [16, 32, 64], 80.0)
    sf, exf = fem_extrapolated_spectrum(UNIT_DISK, p, BC.FREE, [16, 32, 64], 80.0)
    assert sf.eigenvalues[0] == 0.0 and sf.multiplicities[0] == 3
    rep = prop71_empirical(sd, sf, tolerance=0.25)
    assert rep.window[0] >= min_admissible_t(sd) * (1 - 1e-12)
    assert math.isfinite(rep.b_sum_fit) and math.isfinite(rep.b_minus_fit)
    print(
        f"[exploratory] disk FEM half-sum at cutoff 80: window {rep.window}, "
        f"b_sum_fit {rep.b_sum_fit:.4f}, b_minus_fit {rep.b_minus_fit:.4f}, "
        f"ratio {rep.ratio:.2f} (not gated; see notes)"
    )


def test_prop71_input_validation():
    sd = square_dirichlet_spectrum(1.0, 1e4)
    sf = square_neumann_lattice_spectrum(1.0, 2e4)
    with pytest.raises(ParameterDomainError):
        prop71_empirical(sd, sf)


def test_default_heat_window_is_admissible():
    sp = square_dirichlet_spectrum(1.0, 1e4)
    t = default_heat_window(sp)
    assert len(t) == 24
    heat_trace(sp, t)  # does not raise
    assert t[-1] / t[0] == pytest.approx(10.0)
