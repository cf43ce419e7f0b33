"""1-D quadrature: tanh-sinh (double exponential).

The rule suits the boundary-coefficient integrands, whose arctan arguments
are endpoint-singular (value finite, derivative not).
Nodes are generated from their distance to the interval endpoints so that
integrands are never evaluated at the endpoints themselves.

Integrands take a float array of abscissae and return an array of the same
shape: each refinement level is one call on all of its nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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


@functools.cache
def _tanh_sinh_level(level):
    """Nodes of refinement `level`: (offsets q, weights w, centre weight).

    Level 0 is the base mesh h=1 (all j); level l>0 contributes the odd
    multiples of h = 2**-l.  Offsets q = 1 - |tanh((pi/2) sinh(jh))| are
    computed in a cancellation-free form; j = 0 is the interval centre,
    whose weight is returned apart (0.0 above level 0, which has no centre).
    The nodes stop at the first j with (pi/2) sinh(jh) > 350 or w < 1e-300,
    so only the surviving nodes are stored (49,829 at level 14).  They are
    built once per level with libm's sinh, cosh and exp (numpy's differ in
    the last bit) and returned read-only, since every caller shares them.
    """
    h = 2.0 ** (-level)
    q, w = [], []
    for j in range(1, 400 * 2**level, 1 if level == 0 else 2):
        t = j * h
        st = math.pi / 2.0 * math.sinh(t)
        if st > 350.0:
            break
        ch = math.cosh(t)
        sech2 = 1.0 / math.cosh(st) ** 2
        wj = (math.pi / 2.0) * ch * sech2 * h
        if wj < 1e-300:
            break
        q.append(2.0 / (1.0 + math.exp(2.0 * st)))  # 1 - tanh(st)
        w.append(wj)
    q, w = np.array(q), np.array(w)
    q.flags.writeable = w.flags.writeable = False
    centre = math.pi / 2.0 if level == 0 else 0.0  # the j = 0 weight at h = 1
    return q, w, centre


def _tanh_sinh(f, a, b, spec):
    half = 0.5 * (b - a)
    total = 0.0
    evals = 0
    prev = None
    err = math.inf
    for level in range(spec.max_refinements + 1):
        q, w, centre = _tanh_sinh_level(level)
        d = half * q
        fx = f(np.concatenate(([a + half] if level == 0 else [], a + d, b - d)))
        evals += fx.size
        m = q.size
        acc = float(w @ (fx[-2 * m : -m] + fx[-m:]))
        if level == 0:
            acc += centre * float(fx[0])
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
    f maps a float array of abscissae to an array of values of the same
    shape, and must be finite on the open interval; endpoint-singular
    derivatives are fine.
    """
    if spec is None:
        spec = QuadratureSpec()
    if a > b:
        raise ParameterDomainError(f"need a <= b, got [{a}, {b}]")
    if a == b:
        return IntegrationResult(0.0, True, 0.0, 0)
    return _tanh_sinh(f, a, b, spec)
