"""Exact decoupled spectra at lambda = -mu.

With lambda + mu = 0 the operator acts as mu times the componentwise
Laplacian; under clamped boundary conditions the two components decouple
exactly (the mixed term is a null Lagrangian on H^1_0), so the elastic
spectrum is the scalar Dirichlet spectrum doubled.  The scalar Neumann
lattice (doubled) is the classical image-method partner used by the
half-sum cancellation experiments.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterDomainError
from ..params import BoundaryCondition, DomainGeometry, DomainName, LameParams, UNIT_DISK, UNIT_SQUARE, check_cutoff
from ..specfun import bessel_zeros
from ..specfun.bessel import _MAX_ORDER
from ..spectrum import Method, Spectrum


def _square_lattice(mu, lambda_max, include_zero):
    """mu*pi^2*(p^2+q^2) with each component doubled; p,q >= 1 or >= 0."""
    check_cutoff(lambda_max)
    nmax = int(math.sqrt(lambda_max / (mu * math.pi**2))) + 1
    p = np.arange(0 if include_zero else 1, nmax + 1)
    s = (p[:, None] ** 2 + p**2).ravel()
    s, counts = np.unique(s[mu * math.pi**2 * s <= lambda_max], return_counts=True)
    return mu * math.pi**2 * s, 2 * counts, np.char.add("pq", s.astype(str)).tolist()


def square_dirichlet_spectrum(mu: float, lambda_max: float) -> Spectrum:
    params = LameParams(mu, -mu)
    values, mults, tags = _square_lattice(params.mu, lambda_max, include_zero=False)
    return Spectrum(
        domain=UNIT_SQUARE,
        bc=BoundaryCondition.DIRICHLET,
        params=params,
        eigenvalues=values,
        multiplicities=mults,
        mode_tags=tags,
        lambda_max=lambda_max,
        method=Method.ANALYTIC_DECOUPLED,
    )


def square_neumann_lattice_spectrum(mu: float, lambda_max: float) -> Spectrum:
    """Scalar Neumann lattice mu*pi^2*(p^2+q^2), p,q >= 0, doubled."""
    params = LameParams(mu, -mu)
    values, mults, tags = _square_lattice(params.mu, lambda_max, include_zero=True)
    return Spectrum(
        domain=UNIT_SQUARE,
        bc=BoundaryCondition.FREE,
        params=params,
        eigenvalues=values,
        multiplicities=mults,
        mode_tags=tags,
        lambda_max=lambda_max,
        method=Method.ANALYTIC_DECOUPLED,
    )


def disk_dirichlet_spectrum(mu: float, lambda_max: float) -> Spectrum:
    """mu*j_{k,m}^2; multiplicity 2 for k = 0 and 4 for k >= 1 (pairs +-k, doubled).

    One ``bessel_zeros`` call over every order that can have a zero below
    jmax = sqrt(lambda_max/mu), with the cutoff jmax: only the zeros kept are
    made, each bit for bit the one the count form would give.  A cutoff that
    needs an order above the zero table's bound is refused before any zero
    is made.
    """
    params = LameParams(mu, -mu)
    check_cutoff(lambda_max)
    jmax = math.sqrt(lambda_max / params.mu)
    # j_{k,1} > k + 1.8557*k^(1/3) (Qu & Wong 1999), so no other order has a zero below jmax
    ks = np.arange(int(jmax) + 1)
    ks = ks[ks + 1.85 * np.cbrt(ks) <= jmax]
    if ks[-1] > _MAX_ORDER:
        raise ParameterDomainError(f"lambda_max = {lambda_max:g} needs Bessel orders up to {ks[-1]} "
                                   f"at mu = {params.mu:g}, above the supported {_MAX_ORDER}")
    zeros = bessel_zeros(ks, int(jmax / math.pi) + 2, below=jmax)
    k, m = np.nonzero(zeros <= jmax)
    values = params.mu * zeros[k, m] * zeros[k, m]
    order = np.argsort(values, kind="stable")
    k, m = k[order], m[order] + 1
    return Spectrum(
        domain=UNIT_DISK,
        bc=BoundaryCondition.DIRICHLET,
        params=params,
        eigenvalues=values[order],
        multiplicities=np.where(k == 0, 2, 4),
        mode_tags=np.char.add(np.char.add("k", k.astype(str)), np.char.add("m", m.astype(str))).tolist(),
        lambda_max=lambda_max,
        method=Method.ANALYTIC_DECOUPLED,
    )


def analytic_decoupled_spectrum(
    domain: DomainGeometry, mu: float, lambda_max: float, bc: BoundaryCondition = BoundaryCondition.DIRICHLET
) -> Spectrum:
    """Exact decoupled spectrum (implicitly lambda = -mu) below lambda_max."""
    if domain.name is DomainName.UNIT_SQUARE:
        if bc is BoundaryCondition.DIRICHLET:
            return square_dirichlet_spectrum(mu, lambda_max)
        return square_neumann_lattice_spectrum(mu, lambda_max)
    if domain.name is DomainName.UNIT_DISK and bc is BoundaryCondition.DIRICHLET:
        return disk_dirichlet_spectrum(mu, lambda_max)
    raise ParameterDomainError(
        f"no analytic decoupled spectrum for {domain.name.value} with bc={bc.value}"
    )
