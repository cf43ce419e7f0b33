"""Complex contour quadrature on circles.

Trapezoidal rule on a circle is spectrally accurate for integrands analytic
in a neighbourhood of the contour, which covers every resolvent-symbol
integral used here (poles strictly inside).  Integrands take a complex
array of points tau and return an array of the same shape: each doubling is
one call, on the new midpoints only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterDomainError


@dataclass(frozen=True)
class ContourSpec:
    """Circle |tau - center| = radius traversed once counterclockwise."""

    center: float
    radius: float
    panels: int = 32

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ParameterDomainError("contour radius must be positive")
        if self.panels < 4:
            raise ParameterDomainError("need at least 4 panels")


@dataclass(frozen=True)
class ContourResult:
    value: complex
    converged: bool
    est_rel_error: float
    panels: int

    def __complex__(self):
        return self.value


def _circle_mean(g, spec: ContourSpec, k, n: int) -> complex:
    """mean of g(tau) * z over the points z = radius * exp(2 pi i k / n)."""
    z = spec.radius * np.exp(1j * (2.0 * np.pi * k / n))
    return complex(np.mean(g(spec.center + z) * z))


def contour_integral(g, spec: ContourSpec, rel_tol: float = 1e-10, max_doublings: int = 12) -> ContourResult:
    """(1/(2*pi*i)) * closed integral of g(tau) over the circle.

    Panels double until two successive trapezoid values agree to ``rel_tol``;
    a non-converged result is returned flagged, never silently.  g maps a
    complex array of points to an array of values; a doubling evaluates it
    once, on the n new midpoints, and reuses the previous n-point sum.
    """
    # d tau = i z d theta; (1/2 pi i) * sum g * i z * (2 pi / n) = mean(g * z)
    n = spec.panels
    value = _circle_mean(g, spec, np.arange(n), n)
    err = np.inf
    for _ in range(max_doublings):
        prev = value
        value = 0.5 * (prev + _circle_mean(g, spec, np.arange(1, 2 * n, 2), 2 * n))
        n *= 2
        err = abs(value - prev) / max(abs(value), 1e-300)
        if err <= rel_tol:
            return ContourResult(value, True, err, n)
    return ContourResult(value, False, err, n)


def enclosing_contour(pole_lo: float, pole_hi: float, panels: int = 32) -> ContourSpec:
    """Circle guaranteed to enclose both real poles.

    Center at the midpoint, radius 1.5x the half-spread plus 1.
    """
    center = 0.5 * (pole_lo + pole_hi)
    radius = 1.5 * abs(pole_hi - pole_lo) / 2.0 + 1.0
    return ContourSpec(center=center, radius=radius, panels=panels)
