"""Mesh-refinement studies: Richardson extrapolation and observed order."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterDomainError
from ..params import BoundaryCondition, DomainGeometry, DomainName, LameParams
from .assemble import assemble
from .eigs import solve_eigs
from .mesh import Mesh, unit_disk_mesh, unit_square_mesh


def build_mesh(domain: DomainGeometry, resolution: int) -> Mesh:
    """Structured mesh at an integer resolution (cells per side / rings)."""
    if domain.name is DomainName.UNIT_SQUARE:
        return unit_square_mesh(resolution)
    return unit_disk_mesh(resolution)


@dataclass
class ExtrapolationResult:
    resolutions: list[int]
    h_values: list[float]
    raw: np.ndarray  # (n_levels, count) sorted eigenvalues per level
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
    count: int,
) -> ExtrapolationResult:
    """Per-eigenvalue Richardson extrapolation over >= 3 geometric mesh levels."""
    if len(resolutions) < 3:
        raise ParameterDomainError("need at least 3 mesh resolutions")
    ratios = [resolutions[i + 1] / resolutions[i] for i in range(len(resolutions) - 1)]
    if any(abs(r - ratios[0]) > 1e-12 for r in ratios):
        raise ParameterDomainError("resolutions must be in geometric progression")
    r = ratios[0]

    levels = []
    hs = []
    blocks = []
    for res in resolutions:
        mesh = build_mesh(domain, res)
        hs.append(mesh.h)
        ops = assemble(mesh, params, bc)
        sol = solve_eigs(ops, count)
        levels.append(sol.values)  # count mode: exactly count values, ascending
        blocks.append(sol.block_sizes)
    raw = np.vstack(levels)

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
