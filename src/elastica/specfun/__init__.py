"""Self-contained special functions and numeric kernels.

Bessel tables (``_backend.jn_table`` for J_0..J_n, ``_backend.jk_pairs``
for J_k and J_k'), Bessel zeros (``bessel_zeros``), 1-D quadrature with
endpoint-singular support, lockstep safeguarded Newton refinement over many
brackets from values and slopes (``roots.refine_brackets``), and circle
contour quadrature.  Gamma values come from ``math.gamma``: the library
needs them only at integers and half-integers, where it is exact or within
an ulp.  The Bessel/determinant kernels are numpy code that works on a
whole array of arguments at once (``_backend``); there is no compiled
extension, and ``COMPILED`` is always False.
"""

from .bessel import bessel_zeros
from .contour import ContourResult, ContourSpec, contour_integral
from .quadrature import IntegrationResult, QuadratureSpec, integrate

COMPILED = False  # run records name the kernel backend; numpy is the only one

__all__ = [
    "COMPILED",
    "bessel_zeros",
    "integrate",
    "IntegrationResult",
    "QuadratureSpec",
    "contour_integral",
    "ContourResult",
    "ContourSpec",
]
