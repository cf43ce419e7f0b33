"""Resolvent-symbol trace, residue identity, and image-method integrals."""

import math

import numpy as np
import pytest

from elastica.errors import ParameterDomainError
from elastica.params import LameParams
from elastica.symbolcheck import (
    SymbolPoint,
    boundary_layer,
    interior_coefficient,
    prop71_analytic,
    remark72_contrast,
    residue_heat,
    trace_q2,
)

P11 = LameParams(1.0, 1.0)
PDEC = LameParams(1.0, -1.0)


def test_trace_xi_zero():
    pt = SymbolPoint(xi_norm2=0.0, tau=2.0 + 1.0j, params=P11, n=3)
    assert abs(trace_q2(pt) - 3.0 / (2.0 + 1.0j)) < 1e-15


def test_trace_decoupled():
    pt = SymbolPoint(xi_norm2=4.0, tau=9.0 + 0.5j, params=PDEC, n=2)
    assert abs(trace_q2(pt) - 2.0 / (9.0 + 0.5j - 4.0)) < 1e-15


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
        pt = SymbolPoint(xi_norm2=xi2, tau=tau, params=params, n=n)
        d1 = tau - mu * xi2
        d2 = tau - (2 * mu + lam) * xi2
        alt = (n - 1) / d1 + 1.0 / d2
        val = trace_q2(pt)
        assert abs(val - alt) <= 1e-12 * max(abs(val), 1.0)


def test_trace_pole_error():
    with pytest.raises(ParameterDomainError):
        trace_q2(SymbolPoint(xi_norm2=1.0, tau=1.0 + 0.0j, params=P11, n=2))


def test_trace_array_matches_points_and_raises_on_a_pole():
    taus = np.array([2.0 + 1.0j, -3.0 + 0.5j, 7.5 - 2.0j, 4.0 + 0.0j])
    vals = trace_q2(SymbolPoint(xi_norm2=1.5, tau=taus, params=P11, n=3))
    for tau, val in zip(taus, vals):
        assert val == trace_q2(SymbolPoint(xi_norm2=1.5, tau=complex(tau), params=P11, n=3))
    # the pressure pole (2 mu + lambda)|xi|^2 = 4.5 in the middle of the array
    with pytest.raises(ParameterDomainError, match="tau=\\(4.5"):
        trace_q2(SymbolPoint(xi_norm2=1.5, tau=np.array([1.0j, 4.5 + 0.0j, 2.0 + 1.0j]), params=P11, n=3))


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


def test_prop71_scaling_invariance():
    # all displayed quantities are homogeneous under (mu, lambda, t) -> (c mu, c lambda, t/c)
    c = 3.7
    scaled = LameParams(c * 1.0, c * 1.0)
    for t, xi2 in [(0.1, 1.0), (0.5, 4.0)]:
        a = residue_heat(t, xi2, P11, 2)
        b = residue_heat(t / c, xi2, scaled, 2)
        assert abs(a.value - b.value) < 1e-10 * max(abs(a.value), 1.0)
    assert prop71_analytic(scaled, 2).passed


def test_remark72_contradiction():
    rep = remark72_contrast(P11, 3)
    assert rep["contradiction_reproduced"]
    assert abs(rep["cflv_sum"]) > 1e-3
