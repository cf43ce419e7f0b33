"""Resolvent-symbol trace, residue identity, and image-method integrals."""

import math

import numpy as np
import pytest

from elastica.errors import ParameterDomainError
from elastica.params import LameParams
from elastica.symbolcheck import (
    GapReport,
    boundary_layer,
    interior_coefficient,
    prop71_analytic,
    prop71_verdict,
    residue_heat,
    trace_q2,
)

P11 = LameParams(1.0, 1.0)
PDEC = LameParams(1.0, -1.0)


def test_trace_xi_zero():
    assert abs(trace_q2(0.0, 2.0 + 1.0j, P11, 3) - 3.0 / (2.0 + 1.0j)) < 1e-15


def test_trace_decoupled():
    assert abs(trace_q2(4.0, 9.0 + 0.5j, PDEC, 2) - 2.0 / (9.0 + 0.5j - 4.0)) < 1e-15


def test_trace_partial_fraction_identity():
    # n/(t-m) + (m+l)x/((t-m)(t-p)) == (n-1)/(t-m) + 1/(t-p), p=(2m+l)x, m=mx
    rng = np.random.default_rng(23)
    for _ in range(1000):
        mu = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(-mu, 3.0))
        n = int(rng.integers(2, 7))
        xi2 = float(rng.uniform(0.0, 9.0))
        tau = complex(rng.uniform(-6, 6), rng.uniform(0.2, 6))
        params = LameParams(mu, lam)
        d1 = tau - mu * xi2
        d2 = tau - (2 * mu + lam) * xi2
        alt = (n - 1) / d1 + 1.0 / d2
        val = trace_q2(xi2, tau, params, n)
        assert abs(val - alt) <= 1e-12 * max(abs(val), 1.0)


def test_trace_pole_error():
    with pytest.raises(ParameterDomainError):
        trace_q2(1.0, 1.0 + 0.0j, P11, 2)


def test_trace_array_matches_points_and_raises_on_a_pole():
    taus = np.array([2.0 + 1.0j, -3.0 + 0.5j, 7.5 - 2.0j, 4.0 + 0.0j])
    vals = trace_q2(1.5, taus, P11, 3)
    for tau, val in zip(taus, vals):
        assert val == trace_q2(1.5, complex(tau), P11, 3)
    # the pressure pole (2 mu + lambda)|xi|^2 = 4.5 in the middle of the array
    with pytest.raises(ParameterDomainError, match="tau=\\(4.5"):
        trace_q2(1.5, np.array([1.0j, 4.5 + 0.0j, 2.0 + 1.0j]), P11, 3)


@pytest.mark.parametrize("xi2, n", [(-1e-9, 2), (1.0, 1), (1.0, 11)])
def test_trace_and_residue_refuse_negative_xi2_and_unsupported_dimensions(xi2, n):
    with pytest.raises(ParameterDomainError):
        trace_q2(xi2, 2.0 + 1.0j, P11, n)
    with pytest.raises(ParameterDomainError):
        residue_heat(0.5, xi2, P11, n)


def test_integral_checks_compare_with_the_reported_heat_coefficients():
    # interior and boundary-layer closed forms are a~ t^{-n/2} and b~+ t^{-(n-1)/2}
    # of Liu's pair converted by to_heat_coeffs: the numbers ``elastica coeffs``
    # reports and the b_liu a fit's discriminator measures against
    from elastica.coeffs import Theory, to_heat_coeffs, weyl_two_term

    for params, n, t in [(P11, 2, 0.1), (LameParams(0.5, 10.0), 3, 1.0), (PDEC, 5, 0.01)]:
        h = to_heat_coeffs(weyl_two_term(params, n, Theory.LIU))
        assert interior_coefficient(t, params, n).closed_form == h.a_tilde * t ** (-n / 2.0)
        assert boundary_layer(t, params, n).closed_form == h.b_tilde_plus * t ** (-(n - 1) / 2.0)


def test_residue_xi_zero_gives_n():
    for n in (2, 3, 5):
        rep = residue_heat(0.5, 0.0, P11, n)
        assert abs(rep.value - n) < 1e-10
        assert rep.rel_gap <= 1e-8


def test_residue_grid():
    for t in (0.01, 0.1, 1.0):
        for xi2 in (0.0, 1.0, 10.0):
            rep = residue_heat(t, xi2, P11, 2)
            assert rep.passed, (t, xi2, rep.rel_gap)


@pytest.mark.parametrize("mu,lam", [(1, 1), (1, 0), (1, -0.5), (2, 5), (0.5, 10), (1, 3), (0.7, 0.2)])
def test_residue_circles_converge_across_parameters(mu, lam):
    # one circle per pole: at (0.5, 10), t = 1, |xi|^2 = 10 a circle around
    # both poles reached tau = -22.25, where e^{-t tau} ~ 5e9, and never converged
    for t in (0.1, 1.0, 10.0):
        for xi2 in (0.1, 1.0, 10.0):
            for n in (2, 3):
                rep = residue_heat(t, xi2, LameParams(mu, lam), n)
                assert rep.detail["contour_converged"] and rep.rel_gap <= 1e-12, (t, xi2, n, rep.rel_gap)


def test_residue_closed_form_does_not_underflow():
    # e^{-t mu |xi|^2} = e^{-1e4} is 0.0 in floating point; the gap is taken
    # on both sides scaled by e^{t mu |xi|^2}, where the closed form is >= n - 1
    rep = residue_heat(1.0, 10.0, LameParams(1000.0, 1e4), 3)
    assert rep.passed and rep.rel_gap <= 1e-12
    assert rep.value == 0.0 and rep.closed_form == 0.0  # reported unscaled


def test_residue_decoupled_single_pole():
    # lambda = -mu: the trace has one pole of order 1 with coefficient n
    for t, xi2 in [(0.1, 2.0), (0.5, 7.0)]:
        rep = residue_heat(t, xi2, PDEC, 4)
        assert abs(rep.value - 4.0 * math.exp(-t * xi2)) < 1e-9
        assert rep.passed


def test_interior_decoupled_value():
    rep = interior_coefficient(1.0, PDEC, 2)
    assert abs(rep.closed_form - 2.0 / (4.0 * math.pi)) < 1e-15
    assert rep.rel_gap <= 1e-9


def test_interior_grid():
    for t in (0.01, 0.1, 1.0):
        rep = interior_coefficient(t, P11, 2)
        assert rep.passed, (t, rep.rel_gap)


def test_interior_scaling_homogeneity():
    vals = [interior_coefficient(t, P11, 3).value * t**1.5 for t in (0.02, 0.2, 2.0)]
    assert max(vals) - min(vals) <= 1e-9 * max(vals)


def test_boundary_layer_gaussian_identity():
    for t, params, n in [(0.01, P11, 2), (0.4, PDEC, 3), (1.0, LameParams(2.0, 0.5), 4)]:
        rep = boundary_layer(t, params, n)
        assert rep.rel_gap <= 1e-10, (t, rep.rel_gap)


def test_boundary_layer_tail_single_speed():
    rep = boundary_layer(0.01, PDEC, 2, eps=0.5)
    assert rep.detail["tail_ratio"] <= 1e-8


def test_boundary_layer_tail_shape_bound_coupled():
    rep = boundary_layer(0.01, P11, 2, eps=0.5)
    assert rep.detail["tail_ratio"] <= rep.detail["tail_shape_bound"]


def test_boundary_layer_tail_beats_any_power():
    # the truncated tail decays faster than any power of t
    r1 = boundary_layer(0.02, P11, 2, eps=0.5)
    r2 = boundary_layer(0.01, P11, 2, eps=0.5)
    ratio = r2.detail["tail_ratio"] / r1.detail["tail_ratio"]
    assert ratio < (0.01 / 0.02) ** 6


def test_prop71_analytic_pass():
    v = prop71_analytic(P11, 2)
    assert v.passed
    assert "b1^- + b1^+ = 0" in v.conclusion
    v2 = prop71_analytic(LameParams(2.0, 0.0), 3)
    assert v2.passed
    assert prop71_analytic(P11, 3).passed


def test_prop71_verdict_reads_each_reports_passed():
    # the verdict is the conjunction of the reports' own verdicts: a report
    # that failed with gap 0 fails it, whatever the gaps say
    residue = [residue_heat(t, xi2, P11, 2) for t in (0.1, 1.0) for xi2 in (0.0, 1.0)]
    interior = [interior_coefficient(t, P11, 2) for t in (0.1, 1.0)]
    boundary = [boundary_layer(t, P11, 2) for t in (0.1, 1.0)]
    assert prop71_verdict(P11, 2, residue, interior, boundary).passed
    bad = GapReport(value=1.0, closed_form=1.0, rel_gap=0.0, passed=False)
    for lists in ([residue + [bad], interior, boundary], [residue, interior + [bad], boundary],
                  [residue, interior, boundary + [bad]]):
        w = prop71_verdict(P11, 2, *lists)
        assert w.passed is False
        assert max(w.residue_gaps + w.interior_gaps + w.boundary_gaps) <= 1e-8


def test_prop71_scaling_invariance():
    # all displayed quantities are homogeneous under (mu, lambda, t) -> (c mu, c lambda, t/c)
    c = 3.7
    scaled = LameParams(c * 1.0, c * 1.0)
    for t, xi2 in [(0.1, 1.0), (0.5, 4.0)]:
        a = residue_heat(t, xi2, P11, 2)
        b = residue_heat(t / c, xi2, scaled, 2)
        assert abs(a.value - b.value) < 1e-10 * max(abs(a.value), 1.0)
    assert prop71_analytic(scaled, 2).passed

