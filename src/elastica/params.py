"""Material parameters, boundary conditions, and model domains."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import ParameterDomainError


# |alpha - 1| up to which lambda = -mu: the decoupled case, where the disk's
# potential split degenerates (p = s) and the traction-free problem has no
# discrete spectrum
ALPHA_DECOUPLED_TOL = 1e-12


class BoundaryCondition(enum.Enum):
    """Clamped displacement (Dirichlet) or zero traction (Free).

    Free means 2*mu*(Def u)#nu + lambda*(div u)*nu = 0; in the flat 2-D case
    this is sigma(u).nu = 0 with sigma = 2*mu*eps(u) + lambda*(div u)*I.
    """

    DIRICHLET = "dirichlet"
    FREE = "free"

    @property
    def sign(self) -> int:
        """-1 for Dirichlet, +1 for Free (the -/+ convention of the coefficients)."""
        return -1 if self is BoundaryCondition.DIRICHLET else +1


@dataclass(frozen=True)
class LameParams:
    """Lame parameters (mu, lambda), admissible when mu > 0 and mu + lambda >= 0.

    ``alpha`` is the squared shear/compressional wave-speed ratio
    mu / (lambda + 2*mu); it is always derived, never stored independently,
    and lies in (0, 1] with alpha = 1 iff lambda + mu = 0.  ``decoupled``
    is the one test of lambda = -mu that every route reads:
    |alpha - 1| <= ALPHA_DECOUPLED_TOL.
    """

    mu: float
    lam: float

    def __post_init__(self):
        if not (self.mu > 0.0 and math.isfinite(self.mu) and math.isfinite(self.lam)):
            raise ParameterDomainError(f"need mu > 0 and finite lambda, got mu={self.mu}, lambda={self.lam}")
        if self.mu + self.lam < 0.0:
            raise ParameterDomainError(f"need mu + lambda >= 0, got mu={self.mu}, lambda={self.lam}")

    @property
    def alpha(self) -> float:
        return self.mu / (self.lam + 2.0 * self.mu)

    @property
    def decoupled(self) -> bool:
        """True at lambda = -mu (alpha = 1 to ALPHA_DECOUPLED_TOL)."""
        return abs(self.alpha - 1.0) <= ALPHA_DECOUPLED_TOL

    @property
    def pressure_speed2(self) -> float:
        """Squared compressional wave speed, lambda + 2*mu."""
        return self.lam + 2.0 * self.mu


class DomainName(enum.Enum):
    UNIT_DISK = "unit_disk"
    UNIT_SQUARE = "unit_square"


@dataclass(frozen=True)
class DomainGeometry:
    """One of the two model planar domains with its exact measures."""

    name: DomainName
    volume: float = field(init=False)
    boundary_length: float = field(init=False)
    dimension: int = field(init=False, default=2)

    def __post_init__(self):
        if self.name is DomainName.UNIT_DISK:
            vol, per = math.pi, 2.0 * math.pi
        elif self.name is DomainName.UNIT_SQUARE:
            vol, per = 1.0, 4.0
        else:  # pragma: no cover
            raise ParameterDomainError(f"unknown domain {self.name}")
        object.__setattr__(self, "volume", vol)
        object.__setattr__(self, "boundary_length", per)


UNIT_DISK = DomainGeometry(DomainName.UNIT_DISK)
UNIT_SQUARE = DomainGeometry(DomainName.UNIT_SQUARE)


def check_dimension(n: int) -> int:
    """Validate the spatial dimension for the coefficient formulas (2..10)."""
    if not isinstance(n, int) or not 2 <= n <= 10:
        raise ParameterDomainError(f"dimension must be an integer in [2, 10], got {n!r}")
    return n


def check_cutoff(lambda_max: float) -> None:
    """Validate a spectrum cutoff: a finite number > 0."""
    if not (math.isfinite(lambda_max) and lambda_max > 0.0):
        raise ParameterDomainError(f"lambda_max must be a finite positive number, got {lambda_max!r}")
