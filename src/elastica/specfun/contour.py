"""Complex contour quadrature on circles.

Trapezoidal rule on a circle is spectrally accurate for integrands analytic
in a neighbourhood of the contour, which covers every resolvent-symbol
integral used here (poles strictly inside).  Integrands take a complex
array of points tau and return an array of the same shape: each doubling is
one call, on the new midpoints only.  ``contour_integral`` returns
``(value, converged)``; its one caller, ``symbolcheck.residue_heat``, runs
every circle with the panel count and stopping rule below.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterDomainError

# starting panels, the cap on their doublings, and the relative agreement of
# two successive trapezoid values that stops the doubling
_PANELS = 32
_MAX_DOUBLINGS = 12
_REL_TOL = 1e-10


def _circle_mean(g, center: float, radius: float, k, n: int) -> complex:
    """mean of g(tau) * z over the points z = radius * exp(2 pi i k / n)."""
    z = radius * np.exp(1j * (2.0 * np.pi * k / n))
    return complex(np.mean(g(center + z) * z))


def contour_integral(g, center: float, radius: float) -> tuple[complex, bool]:
    """(1/(2*pi*i)) * closed integral of g(tau) over |tau - center| = radius.

    The circle is traversed once counterclockwise.  Panels double from
    ``_PANELS`` until two successive trapezoid values agree to ``_REL_TOL``;
    after ``_MAX_DOUBLINGS`` doublings the last value is returned with
    ``converged`` False, never silently.  g maps a complex array of points
    to an array of values; a doubling evaluates it once, on the n new
    midpoints, and reuses the previous n-point sum.
    """
    if radius <= 0.0:
        raise ParameterDomainError("contour radius must be positive")
    # d tau = i z d theta; (1/2 pi i) * sum g * i z * (2 pi / n) = mean(g * z)
    n = _PANELS
    value = _circle_mean(g, center, radius, np.arange(n), n)
    for _ in range(_MAX_DOUBLINGS):
        prev = value
        value = 0.5 * (prev + _circle_mean(g, center, radius, np.arange(1, 2 * n, 2), 2 * n))
        n *= 2
        if abs(value - prev) / max(abs(value), 1e-300) <= _REL_TOL:
            return value, True
    return value, False
