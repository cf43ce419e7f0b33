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
from .specfun import QuadratureSpec, integrate


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
    """Root w1 of the Rayleigh cubic in [0, 1), by Newton's method from w = 0.

    R(0) = 16(alpha - 1) <= 0, R(1) = 1 > 0 and R'' = 6w - 16 < 0 on [0, 1]:
    R is concave there, so it has one root w1 in [0, 1), its slope is positive
    on [0, w1], and every tangent lies above the graph.  A Newton step from a w < w1
    therefore lands in (w, w1], and the iterates climb monotonically to w1;
    the iteration stops at the first step that no longer moves w up (a zero
    step, or a step down from a rounding-level residual).  alpha = 1 gives
    R(0) = 0 and returns w1 = 0.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterDomainError(f"alpha must lie in (0, 1], got {alpha}")
    w = 0.0
    while True:
        step = rayleigh_cubic(alpha, w) / (3.0 * w**2 - 16.0 * w + 8.0 * (3.0 - 2.0 * alpha))
        if not w - step > w:
            break
        w -= step
    return RayleighRoot(alpha=alpha, w1=w, gamma_r=math.sqrt(w), residual=abs(rayleigh_cubic(alpha, w)))


def weyl_a(params: LameParams, n: int) -> float:
    """Leading counting coefficient.

    a = ((n-1)/mu^{n/2} + 1/(lambda+2mu)^{n/2}) / ((4 pi)^{n/2} Gamma(1+n/2))
    """
    check_dimension(n)
    return (
        ((n - 1) / params.mu ** (n / 2.0) + 1.0 / params.pressure_speed2 ** (n / 2.0))
        / ((4.0 * math.pi) ** (n / 2.0) * math.gamma(1.0 + n / 2.0))
    )


def _prefactor(params: LameParams, n: int) -> float:
    """mu^{(1-n)/2} / (2^{n+1} pi^{(n-1)/2} Gamma((n+1)/2))."""
    return params.mu ** ((1.0 - n) / 2.0) / (
        2.0 ** (n + 1) * math.pi ** ((n - 1) / 2.0) * math.gamma((n + 1) / 2.0)
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


def heat_gamma(order: int) -> float:
    """Gamma(1 + order/2): the factor from a counting coefficient of lambda^{order/2}
    to the heat coefficient of t^{-order/2}."""
    return math.gamma(1.0 + order / 2.0)


def to_heat_coeffs(w: WeylTwoTerm) -> HeatTwoTerm:
    """Gamma-factor conversion: a~ = Gamma(1+n/2) a, b~ = Gamma(1+(n-1)/2) b.

    Of Liu's pair this is the two-Gaussian heat closed form
    a~ = ((n-1)/mu^{n/2} + 1/(lambda+2mu)^{n/2}) / (4 pi)^{n/2},
    b~-/+ = -/+ (1/4) ((n-1)/mu^{(n-1)/2} + 1/(lambda+2mu)^{(n-1)/2}) / (4 pi)^{(n-1)/2}.
    """
    n = w.dimension
    ga, gb = heat_gamma(n), heat_gamma(n - 1)
    return HeatTwoTerm(
        dimension=n,
        a_tilde=ga * w.a,
        b_tilde_minus=gb * w.b_minus,
        b_tilde_plus=gb * w.b_plus,
    )


@dataclass(frozen=True)
class SumTestResult:
    theory: Theory
    b_minus: float
    b_plus: float
    total: float
    passed: bool


# relative size of b^- + b^+ below which the sum test passes
SUM_TEST_REL_TOL = 1e-12


def sum_test(w: WeylTwoTerm) -> SumTestResult:
    """Does b^- + b^+ of the pair vanish?  PASS iff |sum| <= SUM_TEST_REL_TOL * max(|b^-|, |b^+|).

    Identically PASS for the sign-symmetric theory; the counting theory's
    sum is generically nonzero, which is exactly the cancellation dispute.
    """
    total = w.b_minus + w.b_plus
    return SumTestResult(
        theory=w.theory,
        b_minus=w.b_minus,
        b_plus=w.b_plus,
        total=total,
        passed=abs(total) <= SUM_TEST_REL_TOL * max(abs(w.b_minus), abs(w.b_plus)),
    )
