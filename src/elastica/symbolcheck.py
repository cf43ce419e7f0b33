"""Numerical verification of the resolvent-symbol and image-method steps.

Each operation compares a quadrature evaluation against the closed form it
is supposed to equal:

* ``trace_q2``: the leading resolvent-symbol trace at a flat point.
* ``residue_heat``: its contour integral against the two-exponential form.
* ``interior_coefficient``: the full-space momentum integral against the
  two-Gaussian heat coefficient.
* ``boundary_layer``: the reflected-kernel normal integral against the
  quarter-sum of boundary Gaussians, plus the exponentially small
  truncation tail.
* ``prop71_analytic``: chains the three into the cancellation verdict for
  the averaged Dirichlet/free kernel (``prop71_verdict`` builds it from
  gaps already computed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import to_heat_coeffs, weyl_two_term, Theory
from .errors import ParameterDomainError
from .params import LameParams, check_dimension
from .specfun import (
    QuadratureSpec,
    contour_integral,
    enclosing_contour,
    gamma_fn,
    integrate,
)

_POLE_TOL = 1e-10


@dataclass(frozen=True)
class SymbolPoint:
    """Momentum/resolvent evaluation point for the symbol trace.

    ``tau`` is one complex number or an array of them (a contour's points).
    """

    xi_norm2: float
    tau: complex
    params: LameParams
    n: int

    def __post_init__(self):
        if self.xi_norm2 < 0:
            raise ParameterDomainError("xi_norm2 must be >= 0")
        check_dimension(self.n)

    @property
    def pole_shear(self) -> float:
        return self.params.mu * self.xi_norm2

    @property
    def pole_pressure(self) -> float:
        return (2.0 * self.params.mu + self.params.lam) * self.xi_norm2


def trace_q2(point: SymbolPoint) -> complex | np.ndarray:
    """Trace of the leading resolvent symbol at a flat point.

    n/(tau - mu|xi|^2) + (mu+lambda)|xi|^2 /
    ((tau - mu|xi|^2)(tau - (2mu+lambda)|xi|^2)), elementwise over an array
    ``tau``; raises if any tau lies within the pole tolerance.
    """
    tau = np.asarray(point.tau, dtype=complex)
    mu, lam, n = point.params.mu, point.params.lam, point.n
    xi2 = point.xi_norm2
    scale = np.maximum(np.abs(tau), max(mu * xi2, (2 * mu + lam) * xi2, 1.0))
    d1 = tau - mu * xi2
    d2 = tau - (2.0 * mu + lam) * xi2
    near = np.minimum(np.abs(d1), np.abs(d2)) < _POLE_TOL * scale
    if np.any(near):
        raise ParameterDomainError(
            f"tau={complex(tau.flat[np.argmax(near)])} within {_POLE_TOL}*scale of a symbol pole "
            f"({mu * xi2:g} or {(2 * mu + lam) * xi2:g})"
        )
    return n / d1 + (mu + lam) * xi2 / (d1 * d2)


@dataclass(frozen=True)
class GapReport:
    value: float
    closed_form: float
    rel_gap: float
    passed: bool
    detail: dict = field(default_factory=dict)


def residue_heat(t: float, xi_norm2: float, params: LameParams, n: int, rel_tol: float = 1e-10) -> GapReport:
    """Contour integral of e^{-t tau} * trace_q2 vs its residue closed form.

    Closed form: (n-1) e^{-t mu |xi|^2} + e^{-t (2mu+lambda) |xi|^2}.
    """
    if t <= 0:
        raise ParameterDomainError("t must be positive")
    check_dimension(n)
    mu, lam = params.mu, params.lam
    p1 = mu * xi_norm2
    p2 = (2.0 * mu + lam) * xi_norm2
    spec = enclosing_contour(min(p1, p2), max(p1, p2))

    def g(tau):
        pt = SymbolPoint(xi_norm2=xi_norm2, tau=tau, params=params, n=n)
        return np.exp(-t * tau) * trace_q2(pt)

    res = contour_integral(g, spec, rel_tol=rel_tol)
    closed = (n - 1) * math.exp(-t * p1) + math.exp(-t * p2)
    value = res.value.real
    gap = abs(res.value - closed) / abs(closed)
    return GapReport(
        value=value,
        closed_form=closed,
        rel_gap=gap,
        passed=res.converged and gap <= 1e-8,
        detail={"imag": res.value.imag, "panels": res.panels, "contour_converged": res.converged},
    )


_QUAD = QuadratureSpec(rel_tol=1e-12, max_refinements=14)


def interior_coefficient(t: float, params: LameParams, n: int) -> GapReport:
    """Radial momentum integral of the two-Gaussian symbol vs the closed form.

    (2 pi)^{-n} int ((n-1) e^{-t mu |xi|^2} + e^{-t(2mu+lambda)|xi|^2}) d xi
    = (n-1)/(4 pi mu t)^{n/2} + 1/(4 pi (2mu+lambda) t)^{n/2}.
    """
    if t <= 0:
        raise ParameterDomainError("t must be positive")
    check_dimension(n)
    mu, lam = params.mu, params.lam
    c1, c2 = mu, 2.0 * mu + lam
    sphere = 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)
    rmax = math.sqrt(50.0 / (t * min(c1, c2)))

    def f(r):
        return r ** (n - 1) * (
            (n - 1) * np.exp(-t * c1 * r * r) + np.exp(-t * c2 * r * r)
        )

    val = sphere / (2.0 * math.pi) ** n * integrate(f, 0.0, rmax, _QUAD).value
    closed = (n - 1) / (4.0 * math.pi * c1 * t) ** (n / 2.0) + 1.0 / (
        4.0 * math.pi * c2 * t
    ) ** (n / 2.0)
    gap = abs(val - closed) / closed
    return GapReport(value=val, closed_form=closed, rel_gap=gap, passed=gap <= 1e-9)


def boundary_layer(t: float, params: LameParams, n: int, eps: float | None = None) -> GapReport:
    """Normal integral of the reflected-kernel Gaussians vs the quarter closed form.

    int_0^inf [(n-1)(4 pi mu t)^{-n/2} e^{-(2s)^2/(4 mu t)}
               + (4 pi (2mu+lambda) t)^{-n/2} e^{-(2s)^2/(4(2mu+lambda)t)}] ds
    = (1/4) [(n-1)(4 pi mu t)^{-(n-1)/2} + (4 pi (2mu+lambda) t)^{-(n-1)/2}].

    With ``eps`` the truncated tail int_eps^inf is also evaluated and its
    ratio to the full value reported (it is exponentially small in 1/t).
    """
    if t <= 0:
        raise ParameterDomainError("t must be positive")
    check_dimension(n)
    mu, lam = params.mu, params.lam
    c1, c2 = mu, 2.0 * mu + lam

    def f(s):
        return (n - 1) / (4.0 * math.pi * c1 * t) ** (n / 2.0) * np.exp(
            -(2.0 * s) ** 2 / (4.0 * c1 * t)
        ) + 1.0 / (4.0 * math.pi * c2 * t) ** (n / 2.0) * np.exp(
            -(2.0 * s) ** 2 / (4.0 * c2 * t)
        )

    smax = math.sqrt(50.0 * t * max(c1, c2))
    val = integrate(f, 0.0, smax, _QUAD).value
    closed = 0.25 * (
        (n - 1) / (4.0 * math.pi * c1 * t) ** ((n - 1) / 2.0)
        + 1.0 / (4.0 * math.pi * c2 * t) ** ((n - 1) / 2.0)
    )
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
    return GapReport(value=val, closed_form=closed, rel_gap=gap, passed=gap <= 1e-9, detail=detail)


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
    and hands the gaps to ``prop71_verdict``.
    """
    check_dimension(n)
    return prop71_verdict(
        params,
        n,
        [residue_heat(t, xi2, params, n).rel_gap for t in STANDARD_T for xi2 in STANDARD_XI2],
        [interior_coefficient(t, params, n).rel_gap for t in STANDARD_T],
        [boundary_layer(t, params, n).rel_gap for t in STANDARD_T],
    )


def prop71_verdict(params: LameParams, n: int, residue_gaps, interior_gaps, boundary_gaps) -> Prop71Verdict:
    """The cancellation verdict from the gaps of checks already run.

    When every numeric sub-check passes, the averaged Dirichlet/free kernel
    has no interior-origin t^{-(n-1)/2} term, so the heat half-sum
    coefficients cancel; the Gamma-factor conversion carries that to the
    counting coefficients: d1^- + d1^+ = 0 implies b1^- + b1^+ = 0.
    """
    ok = max(residue_gaps) <= 1e-8 and max(interior_gaps) <= 1e-9 and max(boundary_gaps) <= 1e-9
    gb = gamma_fn(1.0 + (n - 1) / 2.0)
    conclusion = (
        "interior expansion carries integer powers t^{l-n/2} only, so the "
        "t^{-(n-1)/2} term of (Z^- + Z^+)/2 vanishes: d1^- + d1^+ = 0, and "
        f"dividing by Gamma(1+(n-1)/2) = {gb:.12g} gives b1^- + b1^+ = 0"
    )
    return Prop71Verdict(
        params=params,
        n=n,
        residue_gaps=list(residue_gaps),
        interior_gaps=list(interior_gaps),
        boundary_gaps=list(boundary_gaps),
        passed=ok,
        conclusion=conclusion,
    )


def remark72_contrast(params: LameParams, n: int) -> dict:
    """The documented contradiction: counting-theory b^- + b^+ vs the cancellation."""
    from .coeffs import sum_test

    cflv = sum_test(params, n, Theory.CFLV)
    verdict = prop71_analytic(params, n)
    return {
        "cflv_sum": cflv.total,
        "cflv_sum_passes_cancellation": cflv.passed,
        "analytic_cancellation_passed": verdict.passed,
        "contradiction_reproduced": verdict.passed and not cflv.passed,
    }
