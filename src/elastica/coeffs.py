"""Closed-form Weyl / heat-trace coefficients and their consistency checks.

Two competing boundary-term formulas are implemented side by side:

* ``b_cflv``: the counting-function coefficients with the arctan integrals
  over [sqrt(alpha), 1] and, for the traction-free case, the Rayleigh-root
  term 4*gamma_R**(1-n).
* ``b_liu``: the heat-trace-derived coefficients, sign-symmetric between the
  two boundary conditions by construction.

The leading coefficient ``weyl_a`` and the Gamma-factor conversion to heat
coefficients are common to both theories.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, SingularLimitError
from .params import BoundaryCondition, LameParams, check_dimension
from .specfun import QuadratureSpec, find_root, gamma_fn, integrate


class Theory(enum.Enum):
    CFLV = "cflv"
    LIU = "liu"


@dataclass(frozen=True)
class RayleighRoot:
    """Distinguished root w1 of R_alpha on [0, 1) and gamma_R = sqrt(w1)."""

    alpha: float
    w1: float
    gamma_r: float
    residual: float


@dataclass(frozen=True)
class WeylTwoTerm:
    """Counting-function coefficient pair under a named theory."""

    theory: Theory
    dimension: int
    a: float
    b_minus: float
    b_plus: float


@dataclass(frozen=True)
class HeatTwoTerm:
    """Heat-trace coefficients: a_tilde * t^{-n/2} + b_tilde * t^{-(n-1)/2}."""

    dimension: int
    a_tilde: float
    b_tilde_minus: float
    b_tilde_plus: float


def rayleigh_cubic(alpha: float, w: float) -> float:
    """R_alpha(w) = w^3 - 8 w^2 + 8(3 - 2 alpha) w + 16(alpha - 1)."""
    return w**3 - 8.0 * w**2 + 8.0 * (3.0 - 2.0 * alpha) * w + 16.0 * (alpha - 1.0)


def rayleigh_root(alpha: float) -> RayleighRoot:
    """Certified root of the Rayleigh cubic in [0, 1).

    For alpha < 1 the bracket is [0, 1]: R(0) = 16(alpha-1) < 0 and
    R(1) = 1 > 0.  Bisection plus Newton polish; alpha = 1 returns 0 exactly.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterDomainError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha == 1.0:
        return RayleighRoot(alpha=1.0, w1=0.0, gamma_r=0.0, residual=0.0)
    f = lambda w: rayleigh_cubic(alpha, w)
    fp = lambda w: 3.0 * w**2 - 16.0 * w + 8.0 * (3.0 - 2.0 * alpha)
    w1 = find_root(f, 0.0, 1.0, tol=1e-15, fprime=fp)
    w1 -= f(w1) / fp(w1)
    return RayleighRoot(alpha=alpha, w1=w1, gamma_r=math.sqrt(w1), residual=abs(f(w1)))


def weyl_a(params: LameParams, n: int) -> float:
    """Leading counting coefficient.

    a = ((n-1)/mu^{n/2} + 1/(lambda+2mu)^{n/2}) / ((4 pi)^{n/2} Gamma(1+n/2))
    """
    check_dimension(n)
    return (
        ((n - 1) / params.mu ** (n / 2.0) + 1.0 / params.pressure_speed2 ** (n / 2.0))
        / ((4.0 * math.pi) ** (n / 2.0) * gamma_fn(1.0 + n / 2.0))
    )


def _prefactor(params: LameParams, n: int) -> float:
    """mu^{(1-n)/2} / (2^{n+1} pi^{(n-1)/2} Gamma((n+1)/2))."""
    return params.mu ** ((1.0 - n) / 2.0) / (
        2.0 ** (n + 1) * math.pi ** ((n - 1) / 2.0) * gamma_fn((n + 1) / 2.0)
    )


_BD_QUAD = QuadratureSpec(rel_tol=1e-10, max_refinements=12)


def _dirichlet_integral(alpha: float, n: int) -> float:
    if alpha >= 1.0:
        return 0.0

    def f(tau):
        arg = (1.0 - alpha / tau**2) * (1.0 / tau**2 - 1.0)
        return tau ** (n - 2) * np.arctan(np.sqrt(np.maximum(arg, 0.0)))

    return integrate(f, math.sqrt(alpha), 1.0, _BD_QUAD).value


def _free_integral(alpha: float, n: int) -> float:
    if alpha >= 1.0:
        return 0.0

    def f(tau):
        it2 = 1.0 / tau**2
        den = 4.0 * np.sqrt(np.maximum((1.0 - alpha * it2) * (it2 - 1.0), 0.0))
        num = (it2 - 2.0) ** 2
        # atan(num / 0) is pi/2, or 0 where num vanishes too
        flat = den == 0.0
        limit = np.where(num == 0.0, 0.0, math.pi / 2.0)
        return tau ** (n - 2) * np.where(flat, limit, np.arctan(num / np.where(flat, 1.0, den)))

    # the integrand dips to zero at tau = 1/sqrt(2); split there when interior
    sa = math.sqrt(alpha)
    mid = 1.0 / math.sqrt(2.0)
    if sa < mid:
        return integrate(f, sa, mid, _BD_QUAD).value + integrate(f, mid, 1.0, _BD_QUAD).value
    return integrate(f, sa, 1.0, _BD_QUAD).value


def b_cflv(params: LameParams, n: int, bc: BoundaryCondition) -> float:
    """Counting-theory boundary coefficient with the arctan integrals.

    Raises SingularLimitError for the traction-free case at alpha = 1, where
    gamma_R = 0 makes the 4*gamma_R^{1-n} term diverge (n >= 2) although the
    published alpha -> 1 limit reads (n-4); the formula as printed is
    evaluated, never that limit.
    """
    check_dimension(n)
    alpha = params.alpha
    pref = _prefactor(params, n)
    if bc is BoundaryCondition.DIRICHLET:
        integral = _dirichlet_integral(alpha, n)
        return -pref * (4.0 * (n - 1) / math.pi * integral + alpha ** ((n - 1) / 2.0) + n - 1)
    root = rayleigh_root(alpha)
    if root.gamma_r == 0.0:
        raise SingularLimitError(
            "free-boundary coefficient is singular at alpha = 1: gamma_R = 0 makes "
            f"4*gamma_R^(1-n) diverge for n = {n}; the printed limit (n-4) drops that term "
            "and is not evaluated here"
        )
    integral = _free_integral(alpha, n)
    return pref * (
        4.0 * (n - 1) / math.pi * integral
        + alpha ** ((n - 1) / 2.0)
        + n
        - 5.0
        + 4.0 * root.gamma_r ** (1.0 - n)
    )


def b_liu(params: LameParams, n: int, bc: BoundaryCondition) -> float:
    """Heat-trace-derived boundary coefficient; odd under Dirichlet <-> Free."""
    check_dimension(n)
    mag = _prefactor(params, n) * (params.alpha ** ((n - 1) / 2.0) + n - 1)
    return bc.sign * mag


def boundary_coefficient(params: LameParams, n: int, bc: BoundaryCondition, theory: Theory) -> float:
    return (b_cflv if theory is Theory.CFLV else b_liu)(params, n, bc)


def weyl_two_term(params: LameParams, n: int, theory: Theory) -> WeylTwoTerm:
    return WeylTwoTerm(
        theory=theory,
        dimension=n,
        a=weyl_a(params, n),
        b_minus=boundary_coefficient(params, n, BoundaryCondition.DIRICHLET, theory),
        b_plus=boundary_coefficient(params, n, BoundaryCondition.FREE, theory),
    )


def to_heat_coeffs(w: WeylTwoTerm) -> HeatTwoTerm:
    """Gamma-factor conversion: a~ = Gamma(1+n/2) a, b~ = Gamma(1+(n-1)/2) b."""
    n = w.dimension
    ga = gamma_fn(1.0 + n / 2.0)
    gb = gamma_fn(1.0 + (n - 1) / 2.0)
    return HeatTwoTerm(
        dimension=n,
        a_tilde=ga * w.a,
        b_tilde_minus=gb * w.b_minus,
        b_tilde_plus=gb * w.b_plus,
    )


def heat_two_term(params: LameParams, n: int) -> HeatTwoTerm:
    """Heat-trace coefficients straight from the closed forms.

    a~ = ((n-1)/mu^{n/2} + 1/(lambda+2mu)^{n/2}) / (4 pi)^{n/2},
    b~-/+ = -/+ (1/4) ((n-1)/mu^{(n-1)/2} + 1/(lambda+2mu)^{(n-1)/2}) / (4 pi)^{(n-1)/2}
    """
    check_dimension(n)
    mu, cp2 = params.mu, params.pressure_speed2
    a_t = ((n - 1) / mu ** (n / 2.0) + cp2 ** (-n / 2.0)) / (4.0 * math.pi) ** (n / 2.0)
    b_mag = 0.25 * ((n - 1) / mu ** ((n - 1) / 2.0) + cp2 ** (-(n - 1) / 2.0)) / (
        (4.0 * math.pi) ** ((n - 1) / 2.0)
    )
    return HeatTwoTerm(dimension=n, a_tilde=a_t, b_tilde_minus=-b_mag, b_tilde_plus=b_mag)


@dataclass(frozen=True)
class SumTestResult:
    theory: Theory
    b_minus: float
    b_plus: float
    total: float
    passed: bool


def sum_test(params: LameParams, n: int, theory: Theory, rel_tol: float = 1e-12) -> SumTestResult:
    """Does b^- + b^+ vanish?  PASS iff |sum| <= rel_tol * max(|b^-|, |b^+|).

    Identically PASS for the sign-symmetric theory; the counting theory's
    sum is generically nonzero, which is exactly the cancellation dispute.
    """
    bm = boundary_coefficient(params, n, BoundaryCondition.DIRICHLET, theory)
    bp = boundary_coefficient(params, n, BoundaryCondition.FREE, theory)
    total = bm + bp
    return SumTestResult(
        theory=theory,
        b_minus=bm,
        b_plus=bp,
        total=total,
        passed=abs(total) <= rel_tol * max(abs(bm), abs(bp)),
    )
