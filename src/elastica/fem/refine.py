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
    h_values: list[float]
    raw: np.ndarray  # (n_levels, count) lowest eigenvalues per level, ascending
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
    """Per-eigenvalue Richardson extrapolation over >= 3 geometric mesh
    levels, of enough eigenvalues to reach the cutoff lambda_max.

    Every level is solved below one shift tau, and the lowest count values
    of the levels are paired by index, count being the fewest values any
    level returned.  While there is no pair, or the largest extrapolated
    value lies below the cutoff, tau grows and every level is solved again;
    once the level with the fewest values holds every eigenvalue of its
    problem, SolverError is raised.
    """
    check_cutoff(lambda_max)
    if len(resolutions) < 3:
        raise ParameterDomainError("need at least 3 mesh resolutions")
    ratios = [resolutions[i + 1] / resolutions[i] for i in range(len(resolutions) - 1)]
    if any(abs(r - ratios[0]) > 1e-12 for r in ratios):
        raise ParameterDomainError("resolutions must be in geometric progression")
    r = ratios[0]

    tau = _FIRST_SHIFT * lambda_max
    while True:
        levels, unknowns, hs, blocks = [], [], [], []
        for res in resolutions:
            mesh = build_mesh(domain, res)
            hs.append(mesh.h)
            ops = assemble(mesh, params, bc)
            sol = solve_eigs(ops, lambda_max=tau)
            levels.append(sol.values)  # every value below tau, ascending
            unknowns.append(ops.n)
            blocks.append(sol.block_sizes)
        count = min(len(v) for v in levels)
        raw = np.vstack([v[:count] for v in levels])
        e1, e2, e3 = raw[-3], raw[-2], raw[-1]
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
        if any(len(v) == count == n for v, n in zip(levels, unknowns)):
            raise SolverError(
                f"{count} extrapolated eigenvalues reach only {extrapolated.max():.6g}, "
                f"below the cutoff {lambda_max:g}"
            )
        tau *= _SHIFT_GROWTH
    return ExtrapolationResult(
        resolutions=list(resolutions),
        h_values=hs,
        raw=raw,
        extrapolated=extrapolated,
        observed_order=order,
        flagged=d12 * d23 < 0,
        error_estimate=np.abs(extrapolated - raw[-1]),
        rotation_order=mesh.rotation_order,
        block_sizes=blocks,
    )
