"""Variational (P1 finite element) eigensolver for the flat elastic operator.

Serves as the independent oracle for the disk potential method and as the
spectrum generator for coupled parameters on both model domains.

scipy is imported inside the functions that use it (``assemble``,
``symmetry_blocks`` and the solvers in ``eigs``), so that importing the
package, and every command that runs no FEM solve, does not load it.
"""

from __future__ import annotations

import numpy as np

from ..errors import SingularLimitError
from ..params import BoundaryCondition, DomainGeometry, LameParams, check_cutoff
from ..spectrum import Method, Spectrum, merge_close
from .analytic import (
    analytic_decoupled_spectrum,
    disk_dirichlet_spectrum,
    square_dirichlet_spectrum,
    square_neumann_lattice_spectrum,
)
from .assemble import Operators, assemble
from .eigs import _ZERO_REL, EigResult, solve_eigs
from .mesh import Mesh, unit_disk_mesh, unit_square_mesh
from .refine import ExtrapolationResult, build_mesh, refine_and_extrapolate

__all__ = [
    "Mesh",
    "unit_square_mesh",
    "unit_disk_mesh",
    "Operators",
    "assemble",
    "EigResult",
    "solve_eigs",
    "ExtrapolationResult",
    "refine_and_extrapolate",
    "build_mesh",
    "analytic_decoupled_spectrum",
    "square_dirichlet_spectrum",
    "square_neumann_lattice_spectrum",
    "disk_dirichlet_spectrum",
    "fem_spectrum",
    "fem_extrapolated_spectrum",
]


def _refuse_free_decoupled(params: LameParams, bc: BoundaryCondition) -> None:
    """Traction free at lambda = -mu there is no spectrum to approximate.

    The energy density 2 mu |eps|^2 + lambda (div u)^2 is then
    mu [(eps_11 - eps_22)^2 + 4 eps_12^2], which vanishes on every u with
    u_1 + i u_2 holomorphic: an infinite-dimensional kernel, so the P1 count
    below a fixed cutoff grows without bound under refinement.
    """
    if bc is BoundaryCondition.FREE and params.decoupled:
        raise SingularLimitError(
            "traction-free spectrum at lambda = -mu: every displacement with u_1 + i u_2 holomorphic "
            "has zero energy, so the FEM count below a cutoff grows with refinement"
        )


def _finish(vals: np.ndarray, bc: BoundaryCondition, lambda_max: float):
    """(values, multiplicities) below lambda_max of ascending FEM values,
    multiplets merged by ``merge_close``; traction free, the numerically zero
    rigid modes are set to 0 and rounding below 0 is clamped."""
    if bc is BoundaryCondition.FREE:
        vals = np.where(np.abs(vals) < _ZERO_REL * vals.max(initial=1.0), 0.0, vals)
        vals = np.maximum(vals, 0.0)
    return merge_close(vals[vals < lambda_max])


def _block_label(sizes) -> str:
    """Unknowns of the symmetry blocks m = 0..N//2 of one solve, as in 2256/2257/2256/2256."""
    return "/".join(str(n) for n in sizes)


def fem_extrapolated_spectrum(
    domain: DomainGeometry,
    params: LameParams,
    bc: BoundaryCondition,
    resolutions: list[int],
    lambda_max: float,
) -> tuple[Spectrum, ExtrapolationResult]:
    """Richardson-extrapolated FEM spectrum below lambda_max.

    Runs the refinement study of ``refine_and_extrapolate``, which raises
    its one shift until the extrapolated values reach the cutoff, and
    assembles a Spectrum whose per-eigenvalue discretization-error
    estimates ride along in the ExtrapolationResult.  A study cannot reach
    the cutoff once a level returns every eigenvalue of its problem; it then
    raises SolverError, before any finer level is solved, rather than label
    a truncated spectrum complete.  Traction free at lambda = -mu raises
    SingularLimitError.
    """
    check_cutoff(lambda_max)
    _refuse_free_decoupled(params, bc)
    ex = refine_and_extrapolate(domain, params, bc, resolutions, lambda_max)
    order = np.argsort(ex.extrapolated)
    vals = ex.extrapolated[order]
    errs = ex.error_estimate[order][vals < lambda_max]
    reps, mults = _finish(vals, bc, lambda_max)
    spectrum = Spectrum(
        domain=domain,
        bc=bc,
        params=params,
        eigenvalues=reps,
        multiplicities=mults,
        mode_tags=["fem_extrap"] * len(reps),
        lambda_max=lambda_max,
        method=Method.FEM,
        meta={
            "resolutions": "/".join(str(r) for r in resolutions),
            "max_error_estimate": repr(float(errs.max(initial=0.0))),
            "symmetry": f"C{ex.rotation_order}",
            "blocks": ",".join(_block_label(b) for b in ex.block_sizes),
        },
    )
    return spectrum, ex


def fem_spectrum(
    domain: DomainGeometry,
    params: LameParams,
    bc: BoundaryCondition,
    resolution: int,
    lambda_max: float,
) -> Spectrum:
    """FEM spectrum below lambda_max on a structured mesh.

    lambda_max is capped at the discretization trust threshold
    sqrt(lambda)*h <= 0.5; nearby discrete eigenvalues are merged into
    multiplicities (``merge_close``).  Traction free at lambda = -mu
    raises SingularLimitError.
    """
    check_cutoff(lambda_max)
    _refuse_free_decoupled(params, bc)
    mesh = build_mesh(domain, resolution)
    trust = (0.5 / mesh.h) ** 2
    lam_cap = min(lambda_max, trust)
    sol = solve_eigs(assemble(mesh, params, bc), lambda_max=lam_cap)
    reps, mults = _finish(sol.values, bc, lam_cap)
    return Spectrum(
        domain=domain,
        bc=bc,
        params=params,
        eigenvalues=reps,
        multiplicities=mults,
        mode_tags=["fem"] * len(reps),
        lambda_max=lam_cap,
        method=Method.FEM,
        meta={
            "h": repr(mesh.h),
            "resolution": str(resolution),
            "symmetry": f"C{mesh.rotation_order}",
            "blocks": _block_label(sol.block_sizes),
        },
    )
