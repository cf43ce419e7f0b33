"""Closed-form coefficients: examples, conversions, and cross-theory checks.

Frozen reference values were computed with an independent 40-digit
evaluation of the defining formulas (mpmath quadrature of the arctan
integrals and polynomial root refinement); the quadrature route under test
never sees them.
"""

import math

import numpy as np
import pytest

from elastica.coeffs import (
    RayleighRoot,
    Theory,
    b_cflv,
    b_liu,
    rayleigh_cubic,
    rayleigh_root,
    sum_test,
    to_heat_coeffs,
    weyl_a,
    weyl_two_term,
)
from elastica.errors import ParameterDomainError, SingularLimitError
from elastica.params import BoundaryCondition as BC
from elastica.params import LameParams

P11 = LameParams(1.0, 1.0)
P1M1 = LameParams(1.0, -1.0)

# 40-digit oracle values (see module docstring)
B_CFLV_D_112 = -0.142779234678964412
B_CFLV_F_112 = 0.165802506330631823
B_CFLV_D_113 = -0.0530516476972984453
B_CFLV_F_113 = 0.0663145596216230566
B_CFLV_D_122 = -0.144194828770761822
B_CFLV_F_122 = 0.158987289262217206
W1_THIRD = 0.84529946162074847098
GAMMA_R_THIRD = 0.91940168676196612196


def test_weyl_a_alpha1_collapse():
    assert abs(weyl_a(P1M1, 2) - 1.0 / (2.0 * math.pi)) < 1e-16


def test_weyl_a_examples():
    assert abs(weyl_a(P11, 2) - 1.0 / (3.0 * math.pi)) < 1e-16
    assert abs(weyl_a(P1M1, 3) - 0.050660591821168886) < 1e-15


def test_weyl_a_positive_and_monotone():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 7, 10):
        c = 3.0  # lambda + 2 mu fixed
        mus = np.sort(rng.uniform(0.4, 1.45, 6))  # mu + lambda >= 0 needs mu <= c/... kept valid
        vals = []
        for mu in mus:
            lam = c - 2.0 * mu
            if mu + lam < 0:
                continue
            vals.append(weyl_a(LameParams(float(mu), float(lam)), n))
        assert all(v > 0 for v in vals)
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_rayleigh_bracket_signs():
    assert rayleigh_cubic(0.5, 0.0) == -8.0
    assert rayleigh_cubic(0.5, 1.0) == 1.0


def test_rayleigh_root_alpha1_exact():
    r = rayleigh_root(1.0)
    assert r.w1 == 0.0 and r.gamma_r == 0.0 and r.residual == 0.0


def test_rayleigh_root_third():
    r = rayleigh_root(1.0 / 3.0)
    assert abs(r.w1 - W1_THIRD) < 1e-14
    assert abs(r.gamma_r - GAMMA_R_THIRD) < 1e-14
    assert r.residual <= 1e-12


def test_rayleigh_root_grid_residuals():
    for alpha in np.linspace(0.01, 1.0, 100):
        r = rayleigh_root(float(alpha))
        assert r.residual <= 1e-12
        assert 0.0 <= r.w1 < 1.0


def test_rayleigh_root_matches_40_digit_root():
    # Newton from w = 0 climbs to the root: checked against an independent
    # 40-digit root, from alpha near 0 to alpha within an ulp of 1
    mp = pytest.importorskip("mpmath")
    edges = [1e-300, 1e-16, 1e-8, 1 - 1e-8, 1 - 1e-12, 1 - 1e-15, np.nextafter(1.0, 0.0)]
    alphas = np.concatenate([np.linspace(0.0, 1.0, 241)[1:-1], edges])
    for alpha in alphas.tolist():
        with mp.workdps(40):
            a = mp.mpf(alpha)
            cubic = lambda w: w**3 - 8 * w**2 + 8 * (3 - 2 * a) * w + 16 * (a - 1)
            want = mp.findroot(cubic, (mp.mpf(0), mp.mpf(1)), solver="anderson")
        r = rayleigh_root(alpha)
        assert abs(r.w1 - want) <= 2e-15 * want, alpha


def test_rayleigh_root_unique_sign_change():
    for alpha in (0.1, 0.33, 0.6, 0.9):
        ws = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        vals = rayleigh_cubic(alpha, ws)
        assert int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)) == 1


def test_rayleigh_root_domain():
    with pytest.raises(ParameterDomainError):
        rayleigh_root(0.0)
    with pytest.raises(ParameterDomainError):
        rayleigh_root(1.2)


def test_b_cflv_dirichlet_alpha1_closed_form():
    # empty integration interval: b^- = -mu^{(1-n)/2} n / (2^{n+1} pi^{(n-1)/2} Gamma((n+1)/2))
    assert abs(b_cflv(P1M1, 2, BC.DIRICHLET) + 1.0 / (2.0 * math.pi)) < 1e-15


def test_b_cflv_against_riemann_oracle():
    # brute-force midpoint oracle with 1e6 panels on the Dirichlet integrand
    alpha = P11.alpha
    lo, hi = math.sqrt(alpha), 1.0
    n_panels = 1_000_000
    mids = lo + (hi - lo) * (np.arange(n_panels) + 0.5) / n_panels
    integral = float(
        np.sum(np.arctan(np.sqrt((1 - alpha / mids**2) * (1 / mids**2 - 1)))) * (hi - lo) / n_panels
    )
    pref = 1.0 / (4.0 * math.pi)
    oracle = -pref * (4.0 / math.pi * integral + math.sqrt(alpha) + 1.0)
    val = b_cflv(P11, 2, BC.DIRICHLET)
    assert abs(val - oracle) < 1e-9
    assert 0.0 < abs(val) < 1.0 / (2.0 * math.pi)


def test_b_cflv_frozen_values():
    assert abs(b_cflv(P11, 2, BC.DIRICHLET) - B_CFLV_D_112) < 1e-10
    assert abs(b_cflv(P11, 2, BC.FREE) - B_CFLV_F_112) < 1e-10
    assert abs(b_cflv(P11, 3, BC.DIRICHLET) - B_CFLV_D_113) < 1e-10
    assert abs(b_cflv(P11, 3, BC.FREE) - B_CFLV_F_113) < 1e-10
    assert abs(b_cflv(LameParams(1, 2), 2, BC.DIRICHLET) - B_CFLV_D_122) < 1e-10
    assert abs(b_cflv(LameParams(1, 2), 2, BC.FREE) - B_CFLV_F_122) < 1e-10


def test_b_cflv_free_uses_rayleigh_root():
    # the free coefficient at (1,1) is finite and requires gamma_R(1/3)
    val = b_cflv(P11, 2, BC.FREE)
    assert math.isfinite(val) and val > 0


def test_b_cflv_free_alpha1_singular():
    with pytest.raises(SingularLimitError):
        b_cflv(P1M1, 2, BC.FREE)


def test_b_liu_values_and_symmetry():
    assert abs(b_liu(P1M1, 2, BC.DIRICHLET) + 1.0 / (2.0 * math.pi)) < 1e-16
    assert abs(b_liu(P1M1, 2, BC.FREE) - 1.0 / (2.0 * math.pi)) < 1e-16
    rng = np.random.default_rng(5)
    for _ in range(50):
        mu = float(rng.uniform(0.1, 5.0))
        lam = float(rng.uniform(-mu, 5.0))
        n = int(rng.integers(2, 11))
        p = LameParams(mu, lam)
        assert b_liu(p, n, BC.DIRICHLET) + b_liu(p, n, BC.FREE) == 0.0


def test_b_cflv_equals_b_liu_at_alpha1_dirichlet():
    for n in (2, 3, 4):
        bc_ = b_cflv(P1M1, n, BC.DIRICHLET)
        bl = b_liu(P1M1, n, BC.DIRICHLET)
        assert abs(bc_ - bl) <= 1e-12 * abs(bl)


def test_to_heat_coeffs_gamma_factors():
    w = weyl_two_term(P11, 2, Theory.LIU)
    h = to_heat_coeffs(w)
    assert h.a_tilde == w.a  # Gamma(2) = 1
    assert abs(h.b_tilde_minus - math.sqrt(math.pi) / 2.0 * w.b_minus) < 1e-16
    w3 = weyl_two_term(P11, 3, Theory.LIU)
    h3 = to_heat_coeffs(w3)
    assert abs(h3.a_tilde - 3.0 * math.sqrt(math.pi) / 4.0 * w3.a) < 1e-16


def test_sum_test_liu_identically_zero():
    rng = np.random.default_rng(9)
    for _ in range(25):
        mu = float(rng.uniform(0.2, 4.0))
        lam = float(rng.uniform(-mu, 4.0))
        n = int(rng.integers(2, 11))
        res = sum_test(weyl_two_term(LameParams(mu, lam), n, Theory.LIU))
        assert res.passed and res.total == 0.0


def test_sum_test_cflv_fails():
    for params, n in [(P11, 3), (LameParams(1, 2), 2)]:
        res = sum_test(weyl_two_term(params, n, Theory.CFLV))
        assert not res.passed
        assert abs(res.total) > 1e-3 * max(abs(res.b_minus), abs(res.b_plus))


def test_sum_test_cflv_propagates_singular_limit():
    with pytest.raises(SingularLimitError):
        sum_test(weyl_two_term(P1M1, 2, Theory.CFLV))


def test_params_validation():
    with pytest.raises(ParameterDomainError):
        LameParams(0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        LameParams(1.0, -1.5)
    assert LameParams(1.0, -1.0).alpha == 1.0
    assert 0.0 < P11.alpha < 1.0


def test_rayleigh_root_is_dataclass_with_certificate():
    r = rayleigh_root(0.77)
    assert isinstance(r, RayleighRoot)
    assert abs(rayleigh_cubic(0.77, r.w1)) == r.residual
