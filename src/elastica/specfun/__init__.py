"""Self-contained special functions and numeric kernels.

Bessel J and derivatives, Bessel zeros, Gamma, 1-D quadrature with
endpoint-singular support, bracketed root finding, and circle contour
quadrature.  The Bessel/determinant kernels are numpy code that works on a
whole array of arguments at once (``_backend``); there is no compiled
extension, and ``COMPILED`` is always False.
"""

from .bessel import bessel_j, bessel_j_prime, bessel_j_sequence, bessel_zeros
from .contour import ContourResult, ContourSpec, contour_integral
from .gammafn import gamma_fn
from .quadrature import IntegrationResult, QuadratureSpec, integrate
from .roots import find_root

COMPILED = False  # run records name the kernel backend; numpy is the only one

__all__ = [
    "COMPILED",
    "bessel_j",
    "bessel_j_prime",
    "bessel_j_sequence",
    "bessel_zeros",
    "gamma_fn",
    "integrate",
    "IntegrationResult",
    "QuadratureSpec",
    "find_root",
    "contour_integral",
    "ContourResult",
    "ContourSpec",
]
