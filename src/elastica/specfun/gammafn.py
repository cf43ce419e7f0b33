"""Gamma function on (0, 50]."""

from __future__ import annotations

import math

from ..errors import ParameterDomainError

# Lanczos g=7, n=9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma(x), exact on integers/half-integers, Lanczos elsewhere."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0.0:
        raise ParameterDomainError(f"gamma_fn needs x > 0, got {x!r}")
    if x > 50.0:
        raise ParameterDomainError(f"gamma_fn supports x <= 50, got {x!r}")
    x = float(x)
    if 2.0 * x == math.floor(2.0 * x):
        # integer or half-integer: exact recurrence from 1 or sqrt(pi)
        if x == math.floor(x):
            v = 1.0
            for i in range(2, int(x)):
                v *= i
            return v
        v = math.sqrt(math.pi)
        z = 0.5
        while z + 1.0 <= x:
            v *= z
            z += 1.0
        return v
    z = x - 1.0
    s = _LANCZOS[0]
    for i in range(1, 9):
        s += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * s
