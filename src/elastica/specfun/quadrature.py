"""1-D quadrature: tanh-sinh (double exponential).

The rule suits the boundary-coefficient integrands, whose arctan arguments
are endpoint-singular (value finite, derivative not).
Nodes are generated from their distance to the interval endpoints so that
integrands are never evaluated at the endpoints themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParameterDomainError


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    max_refinements: int = 12

    def __post_init__(self):
        if not 1e-14 <= self.rel_tol <= 1e-4:
            raise ParameterDomainError(f"rel_tol must lie in [1e-14, 1e-4], got {self.rel_tol}")
        if self.max_refinements < 1:
            raise ParameterDomainError("max_refinements must be >= 1")


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    converged: bool
    est_rel_error: float
    evaluations: int

    def __float__(self):
        return self.value


def _tanh_sinh_level(level):
    """Nodes for refinement `level` as (offset-from-endpoint, weight) pairs.

    Level 0 is the base mesh h=1 (all j); level l>0 contributes the odd
    multiples of h = 2**-l.  Offsets q = 1 - |tanh((pi/2) sinh(jh))| are
    computed in a cancellation-free form.
    """
    h = 2.0 ** (-level)
    js = range(0, 400) if level == 0 else range(1, 400 * 2 ** level, 2)
    nodes = []
    for j in js:
        t = j * h
        st = math.pi / 2.0 * math.sinh(t)
        if st > 350.0:
            break
        ch = math.cosh(t)
        sech2 = 1.0 / math.cosh(st) ** 2
        w = (math.pi / 2.0) * ch * sech2 * h
        if w < 1e-300:
            break
        q = 2.0 / (1.0 + math.exp(2.0 * st))  # 1 - tanh(st)
        nodes.append((j == 0, q, w))
    return nodes


def _tanh_sinh(f, a, b, spec):
    half = 0.5 * (b - a)
    total = 0.0
    evals = 0
    prev = None
    err = math.inf
    for level in range(spec.max_refinements + 1):
        acc = 0.0
        for center, q, w in _tanh_sinh_level(level):
            if center:
                acc += w * f(a + half)
                evals += 1
            else:
                d = half * q
                acc += w * (f(a + d) + f(b - d))
                evals += 2
        # node weights already carry their level's step size
        total = acc * half if level == 0 else 0.5 * total + acc * half
        if prev is not None:
            err = abs(total - prev) / max(abs(total), 1e-300)
            if err <= spec.rel_tol and level >= 2:
                return IntegrationResult(total, True, err, evals)
        prev = total
    return IntegrationResult(total, False, err, evals)


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None) -> IntegrationResult:
    """Integrate f over [a, b] to the spec's relative tolerance.

    Returns a flagged result; ``converged`` is False when the refinement cap
    was hit before the tolerance.  The empty interval integrates to 0.
    f must be finite on the open interval; endpoint-singular derivatives are
    fine.
    """
    if spec is None:
        spec = QuadratureSpec()
    if a > b:
        raise ParameterDomainError(f"need a <= b, got [{a}, {b}]")
    if a == b:
        return IntegrationResult(0.0, True, 0.0, 0)
    return _tanh_sinh(f, a, b, spec)
