"""Mesh-refinement studies: Richardson extrapolation and observed order."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterDomainError, SolverError
from ..params import BoundaryCondition, DomainGeometry, DomainName, LameParams, check_cutoff
from .assemble import assemble
from .eigs import solve_eigs
from .mesh import Mesh, unit_disk_mesh, unit_square_mesh

# first shift of a Richardson study, as a multiple of its cutoff, and the
# factor it grows by while the study falls short.  Conforming P1 values are
# upper bounds, so the coarsest level sets the count; the first shift reached
# the cutoff on 12- to 64-ring disks at cutoffs 80-100 (lambda from -0.5 to
# 10, both BCs), and the lambda = -mu square on 4-16 cells at 60 needs one raise
_FIRST_SHIFT = 1.5
_SHIFT_GROWTH = 1.5


def build_mesh(domain: DomainGeometry, resolution: int) -> Mesh:
    """Structured mesh at an integer resolution (cells per side / rings)."""
    if domain.name is DomainName.UNIT_SQUARE:
        return unit_square_mesh(resolution)
    return unit_disk_mesh(resolution)


@dataclass
class ExtrapolationResult:
    resolutions: list[int]
    raw: np.ndarray  # (3, count) lowest eigenvalues per level, ascending
    extrapolated: np.ndarray
    observed_order: np.ndarray
    flagged: np.ndarray  # True where convergence was non-monotone
    error_estimate: np.ndarray  # |extrapolated - finest|
    rotation_order: int = 1  # order N of the meshes' rotation group
    block_sizes: list[tuple[int, ...]] = field(default_factory=list)  # per level


def refine_and_extrapolate(
    domain: DomainGeometry,
    params: LameParams,
    bc: BoundaryCondition,
    resolutions: list[int],
    lambda_max: float,
) -> ExtrapolationResult:
    """Per-eigenvalue Richardson extrapolation over exactly 3 geometric mesh
    levels, of enough eigenvalues to reach the cutoff lambda_max.

    Every level is solved below one shift tau, and the lowest count values
    of the levels are paired by index, count being the fewest values any
    level returned.  While there is no pair, or the largest extrapolated
    value lies below the cutoff, tau grows and every level is solved again.
    As soon as a level returns every eigenvalue of its problem, SolverError
    is raised before any finer level is solved: no higher tau can add a
    pair, and the top of a P1 spectrum is a mesh artefact.
    """
    check_cutoff(lambda_max)
    if len(resolutions) != 3:
        raise ParameterDomainError(f"need exactly 3 mesh resolutions, got {len(resolutions)}")
    r = resolutions[1] / resolutions[0]
    if abs(resolutions[2] / resolutions[1] - r) > 1e-12:
        raise ParameterDomainError("resolutions must be in geometric progression")

    tau = _FIRST_SHIFT * lambda_max
    while True:
        levels, blocks = [], []
        for res in resolutions:
            mesh = build_mesh(domain, res)
            ops = assemble(mesh, params, bc)
            sol = solve_eigs(ops, lambda_max=tau)
            if len(sol.values) == ops.n:
                raise SolverError(
                    f"every eigenvalue of the resolution-{res} level ({ops.n} unknowns) lies below "
                    f"the shift {tau:g}, so no shift reaches the cutoff {lambda_max:g}"
                )
            levels.append(sol.values)  # every value below tau, ascending
            blocks.append(sol.block_sizes)
        count = min(len(v) for v in levels)
        raw = np.vstack([v[:count] for v in levels])
        e1, e2, e3 = raw
        d12, d23 = e1 - e2, e2 - e3
        # extrapolate where convergence is monotone and not yet complete; the rest
        # keep e3, and the non-monotone ones (corner-singularity suspects) are flagged
        fit = (d12 * d23 > 0) & (np.abs(d23) >= 1e-14 * np.maximum(np.abs(e3), 1.0))
        order = np.full(count, np.nan)
        order[fit] = np.log(d12[fit] / d23[fit]) / math.log(r)
        extrapolated = e3.copy()
        # e_h = e + C h^p  =>  e = e3 - (e2 - e3)/(r^p - 1)
        extrapolated[fit] = e3[fit] - d23[fit] / (r ** order[fit] - 1.0)
        if count and extrapolated.max() >= lambda_max:
            break
        tau *= _SHIFT_GROWTH
    return ExtrapolationResult(
        resolutions=list(resolutions),
        raw=raw,
        extrapolated=extrapolated,
        observed_order=order,
        flagged=d12 * d23 < 0,
        error_estimate=np.abs(extrapolated - raw[-1]),
        rotation_order=mesh.rotation_order,
        block_sizes=blocks,
    )
