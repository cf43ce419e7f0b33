"""Numerical verification of the resolvent-symbol and image-method steps.

Each operation compares a quadrature evaluation against the closed form it
is supposed to equal:

* ``trace_q2``: the leading resolvent-symbol trace at a flat point.
* ``residue_heat``: its contour integral against the two-exponential form.
* ``interior_coefficient``: the full-space momentum integral against the
  two-Gaussian heat coefficient a~ of Liu's pair (``to_heat_coeffs``).
* ``boundary_layer``: the reflected-kernel normal integral against the
  quarter-sum of boundary Gaussians, b~+ of Liu's pair, plus the
  exponentially small truncation tail.
* ``prop71_analytic``: chains the three into the cancellation verdict for
  the averaged Dirichlet/free kernel (``prop71_verdict`` builds it from
  the GapReports of checks already run).

So the integral checks test the numbers ``elastica coeffs`` reports and
the ``b_liu`` that a fit's discriminator measures against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import Theory, heat_gamma, to_heat_coeffs, weyl_two_term
from .errors import ParameterDomainError
from .params import LameParams, check_dimension
from .specfun import ContourSpec, QuadratureSpec, contour_integral, integrate

_POLE_TOL = 1e-10
# contour quadrature target of residue_heat
_CONTOUR_REL_TOL = 1e-10
# verdict tolerances on the relative gaps: the residue check, and the
# interior and boundary-layer momentum integrals
RESIDUE_GAP_TOL = 1e-8
INTEGRAL_GAP_TOL = 1e-9


def _poles(params: LameParams, xi2: float) -> tuple[float, float]:
    """The symbol's shear and pressure poles mu|xi|^2 and (2mu+lambda)|xi|^2."""
    return params.mu * xi2, (2.0 * params.mu + params.lam) * xi2


def trace_q2(xi_norm2: float, tau, params: LameParams, n: int) -> complex | np.ndarray:
    """Trace of the leading resolvent symbol at a flat point.

    n/(tau - mu|xi|^2) + (mu+lambda)|xi|^2 /
    ((tau - mu|xi|^2)(tau - (2mu+lambda)|xi|^2)), elementwise over an array
    ``tau`` (a contour's points); raises if xi_norm2 < 0, n lies outside
    the supported dimensions or any tau lies within the pole tolerance.
    """
    if xi_norm2 < 0:
        raise ParameterDomainError("xi_norm2 must be >= 0")
    check_dimension(n)
    tau = np.asarray(tau, dtype=complex)
    p1, p2 = _poles(params, xi_norm2)
    scale = np.maximum(np.abs(tau), max(p1, p2, 1.0))
    d1, d2 = tau - p1, tau - p2
    near = np.minimum(np.abs(d1), np.abs(d2)) < _POLE_TOL * scale
    if np.any(near):
        raise ParameterDomainError(
            f"tau={complex(tau.flat[np.argmax(near)])} within {_POLE_TOL}*scale of a symbol pole "
            f"({p1:g} or {p2:g})"
        )
    return n / d1 + (params.mu + params.lam) * xi_norm2 / (d1 * d2)


@dataclass(frozen=True)
class GapReport:
    value: float
    closed_form: float
    rel_gap: float
    passed: bool
    detail: dict = field(default_factory=dict)


def residue_heat(t: float, xi_norm2: float, params: LameParams, n: int) -> GapReport:
    """Contour integral of e^{-t tau} * trace_q2 vs its residue closed form.

    Closed form: (n-1) e^{-t mu |xi|^2} + e^{-t (2mu+lambda) |xi|^2}.
    The gap compares both sides times e^{t p1} (p1 = mu |xi|^2, the smaller
    pole), so the closed form (n-1) + e^{-t (p2-p1)} >= 1 cannot underflow
    to 0; ``value`` and ``closed_form`` are reported unscaled.

    Each pole gets its own circle of radius min(half the pole gap, 1/t), and
    the circles' integrals are summed; poles less than 1/t apart (coincident
    ones too: lambda = -mu or xi = 0) share one circle of radius 1/t about
    their midpoint.  On a circle of radius at most 1/t, e^{-t tau} varies by
    at most a factor e^2, so no circle sums large terms of opposite sign.
    """
    if t <= 0:
        raise ParameterDomainError("t must be positive")
    check_dimension(n)
    p1, p2 = _poles(params, xi_norm2)
    spread = abs(p2 - p1)
    if spread <= 1.0 / t:
        circles = [ContourSpec(center=0.5 * (p1 + p2), radius=1.0 / t)]
    else:
        circles = [ContourSpec(center=p, radius=min(0.5 * spread, 1.0 / t)) for p in (p1, p2)]

    def g(tau):
        return np.exp(-t * (tau - p1)) * trace_q2(xi_norm2, tau, params, n)

    parts = [contour_integral(g, spec, rel_tol=_CONTOUR_REL_TOL) for spec in circles]
    total = sum(r.value for r in parts)
    converged = all(r.converged for r in parts)
    closed = (n - 1) + math.exp(-t * (p2 - p1))
    gap = abs(total - closed) / closed
    scale = math.exp(-t * p1)
    return GapReport(
        value=total.real * scale,
        closed_form=closed * scale,
        rel_gap=gap,
        passed=converged and gap <= RESIDUE_GAP_TOL,
        detail={"imag": total.imag * scale, "panels": sum(r.panels for r in parts),
                "contour_converged": converged},
    )


_QUAD = QuadratureSpec(rel_tol=1e-12, max_refinements=14)


def interior_coefficient(t: float, params: LameParams, n: int) -> GapReport:
    """Radial momentum integral of the two-Gaussian symbol vs the closed form.

    (2 pi)^{-n} int ((n-1) e^{-t mu |xi|^2} + e^{-t(2mu+lambda)|xi|^2}) d xi
    = a~ t^{-n/2}, with a~ of Liu's pair (``to_heat_coeffs``).
    """
    if t <= 0:
        raise ParameterDomainError("t must be positive")
    check_dimension(n)
    c1, c2 = _poles(params, 1.0)
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    rmax = math.sqrt(50.0 / (t * min(c1, c2)))

    def f(r):
        return r ** (n - 1) * (
            (n - 1) * np.exp(-t * c1 * r * r) + np.exp(-t * c2 * r * r)
        )

    val = sphere / (2.0 * math.pi) ** n * integrate(f, 0.0, rmax, _QUAD).value
    closed = to_heat_coeffs(weyl_two_term(params, n, Theory.LIU)).a_tilde * t ** (-n / 2.0)
    gap = abs(val - closed) / closed
    return GapReport(value=val, closed_form=closed, rel_gap=gap, passed=gap <= INTEGRAL_GAP_TOL)


def boundary_layer(t: float, params: LameParams, n: int, eps: float | None = None) -> GapReport:
    """Normal integral of the reflected-kernel Gaussians vs the quarter closed form.

    int_0^inf [(n-1)(4 pi mu t)^{-n/2} e^{-(2s)^2/(4 mu t)}
               + (4 pi (2mu+lambda) t)^{-n/2} e^{-(2s)^2/(4(2mu+lambda)t)}] ds
    = (1/4) [(n-1)(4 pi mu t)^{-(n-1)/2} + (4 pi (2mu+lambda) t)^{-(n-1)/2}]
    = b~+ t^{-(n-1)/2}, with b~+ = Gamma(1+(n-1)/2) b_liu of the free boundary.

    With ``eps`` the truncated tail int_eps^inf is also evaluated and its
    ratio to the full value reported (it is exponentially small in 1/t).
    """
    if t <= 0:
        raise ParameterDomainError("t must be positive")
    check_dimension(n)
    c1, c2 = _poles(params, 1.0)

    def f(s):
        return (n - 1) / (4.0 * math.pi * c1 * t) ** (n / 2.0) * np.exp(
            -(2.0 * s) ** 2 / (4.0 * c1 * t)
        ) + 1.0 / (4.0 * math.pi * c2 * t) ** (n / 2.0) * np.exp(
            -(2.0 * s) ** 2 / (4.0 * c2 * t)
        )

    smax = math.sqrt(50.0 * t * max(c1, c2))
    val = integrate(f, 0.0, smax, _QUAD).value
    closed = to_heat_coeffs(weyl_two_term(params, n, Theory.LIU)).b_tilde_plus * t ** (-(n - 1) / 2.0)
    gap = abs(val - closed) / closed
    detail = {}
    if eps is not None:
        tail = integrate(f, eps, max(smax, 2.0 * eps), _QUAD).value
        detail["tail"] = tail
        detail["tail_ratio"] = tail / closed
        # shape bound C * t^{1-n/2} e^{-eps^2/((2mu+lambda) t)} with C from the prefactors
        detail["tail_shape_bound"] = (
            n * t ** (1.0 - n / 2.0) * math.exp(-eps * eps / (max(c1, c2) * t))
        )
    return GapReport(
        value=val, closed_form=closed, rel_gap=gap, passed=gap <= INTEGRAL_GAP_TOL, detail=detail
    )


@dataclass
class Prop71Verdict:
    params: LameParams
    n: int
    residue_gaps: list[float]
    interior_gaps: list[float]
    boundary_gaps: list[float]
    passed: bool
    premises: tuple = (
        "higher symbol terms contribute O(t^{l-n/2}), l >= 1 (order bound, not computed)",
        "the odd-in-xi parity of the next symbol trace is a stated premise",
    )
    conclusion: str = ""


STANDARD_T = (0.01, 0.1, 1.0)
STANDARD_XI2 = (0.0, 1.0, 10.0)


def prop71_analytic(params: LameParams, n: int) -> Prop71Verdict:
    """Chain the residue, interior, and boundary-layer checks into the verdict.

    Runs each check on the standard grids (``STANDARD_T`` x ``STANDARD_XI2``)
    and hands the reports to ``prop71_verdict``.
    """
    check_dimension(n)
    return prop71_verdict(
        params,
        n,
        [residue_heat(t, xi2, params, n) for t in STANDARD_T for xi2 in STANDARD_XI2],
        [interior_coefficient(t, params, n) for t in STANDARD_T],
        [boundary_layer(t, params, n) for t in STANDARD_T],
    )


def prop71_verdict(params: LameParams, n: int, residue, interior, boundary) -> Prop71Verdict:
    """The cancellation verdict from the GapReports of checks already run.

    It passes iff every report passed.  When it does, the averaged
    Dirichlet/free kernel has no interior-origin t^{-(n-1)/2} term, so the
    heat half-sum coefficients cancel; the Gamma-factor conversion carries
    that to the counting coefficients: d1^- + d1^+ = 0 implies b1^- + b1^+ = 0.
    """
    gb = heat_gamma(n - 1)
    conclusion = (
        "interior expansion carries integer powers t^{l-n/2} only, so the "
        "t^{-(n-1)/2} term of (Z^- + Z^+)/2 vanishes: d1^- + d1^+ = 0, and "
        f"dividing by Gamma(1+(n-1)/2) = {gb:.12g} gives b1^- + b1^+ = 0"
    )
    return Prop71Verdict(
        params=params,
        n=n,
        residue_gaps=[r.rel_gap for r in residue],
        interior_gaps=[r.rel_gap for r in interior],
        boundary_gaps=[r.rel_gap for r in boundary],
        passed=all(r.passed for r in (*residue, *interior, *boundary)),
        conclusion=conclusion,
    )
