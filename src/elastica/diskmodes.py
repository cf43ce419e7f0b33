"""Elastic spectrum of the unit disk via the Helmholtz-potential ansatz.

Displacements are sought as u = grad(psi1) + curl(z psi2) with Bessel-series
potentials; per angular index k the admissible eigenvalues are the roots of
a 2x2 boundary determinant in the trial eigenvalue.  This is the method
whose completeness the FEM oracle adjudicates, so nothing here presupposes
the answer: the scan is implemented as published (homogeneous Helmholtz
potentials) and every found root carries a residual certificate: a root
whose determinant residual exceeds ``_RESIDUAL_REL`` is refused, not returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDecompositionError, ParameterDomainError, SolverError
from .params import BoundaryCondition, LameParams, UNIT_DISK, check_cutoff
from .coeffs import rayleigh_root
from .spectrum import Method, Spectrum
from .specfun import _backend
from .specfun.roots import refine_brackets

_BISECT_REL_TOL = 1e-12
_RESIDUAL_REL = 1e-9
_MAX_STEP_HALVINGS = 6


def _check_alpha(params: LameParams, bc: BoundaryCondition):
    if params.decoupled:
        if bc is BoundaryCondition.FREE:
            # no other route has a spectrum here either (fem._refuse_free_decoupled)
            hint = ("traction free, every displacement with u_1 + i u_2 holomorphic has zero energy, "
                    "so there is no discrete spectrum to compute")
        else:
            hint = "use the FEM path or the exact decoupled Bessel spectrum instead"
        raise DegenerateDecompositionError(f"potential split is degenerate at alpha = 1 (p = s); {hint}")


def _dhat(k, lams, params, bc):
    """Scaled determinants D_k/scale and slopes (dD_k/dL)/scale over an array
    of trial eigenvalues L (k per point or one k); a Newton step on these is
    one on D_k."""
    d, dd, sc = _backend.det_grid(k, lams, params.mu, params.lam, bc is BoundaryCondition.FREE)
    return d / sc, dd / sc


def _scan_floor(ks, params):
    """Scan start per angular mode: below the Rayleigh floor mu*w1*k^2 (no
    eigenvalue sits under it) for k >= 2."""
    ks = np.asarray(ks, dtype=float)
    w1 = rayleigh_root(params.alpha).w1
    floor = np.where(ks >= 2, 0.45 * params.mu * w1 * ks * ks, 0.0)
    return np.maximum(1e-3 * min(params.mu, params.pressure_speed2), floor)


def _grids(params, lam_lo, lam_hi, factors):
    """Scan grids of several modes, each from its start lam_lo[i] up to lam_hi.

    A step is factors[i] (a power of two) times 0.25 / (local root density of
    one angular mode): roots of either Bessel family are asymptotically
    spaced pi in the wavenumber, i.e. 2*pi*sqrt(c*Lambda) in the eigenvalue
    for speed c.  Each grid is stepped in floats; the last point is capped at
    lam_hi, and a start at or above lam_hi is the grid's only point.

    Returns (points, owner): every mode's grid ascending and contiguous, and
    the index into lam_lo of the mode each point belongs to.
    """
    mu, cp, lam_hi = params.mu, params.pressure_speed2, float(lam_hi)
    c = 1.0 / (2.0 * math.pi)
    pts, sizes = [], []
    for lam, f in zip(np.asarray(lam_lo, dtype=float).tolist(), np.asarray(factors, dtype=float).tolist()):
        n = len(pts)
        pts.append(lam)
        while lam < lam_hi:
            lam += f * (0.25 / (c * (1.0 / math.sqrt(mu * lam) + 1.0 / math.sqrt(cp * lam))))
            pts.append(lam)
        if len(pts) - n > 1:
            pts[-1] = lam_hi  # the step that ends the loop reaches lam_hi or passes it
        sizes.append(len(pts) - n)
    return np.array(pts), np.repeat(np.arange(len(sizes)), sizes)


@dataclass(frozen=True)
class _ScanPass:
    """Root brackets found by one scan pass over several angular modes.

    Entry i brackets one root of mode ``k[i]`` in [lo[i], hi[i]]; lo == hi
    marks a root already located exactly.  flo[i], fhi[i] are the
    determinant D at the two ends and glo[i], ghi[i] its slopes dD/dL there,
    all four divided by one scale, the determinant's scale at lo[i]: D over
    its own scale at each end is not smooth in L, because the scale's
    envelopes are not, so the ends' slopes would not fit the values.  Exact
    roots have NaN slopes.
    ``counts`` holds the roots per scanned mode.
    """

    k: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    flo: np.ndarray
    fhi: np.ndarray
    glo: np.ndarray
    ghi: np.ndarray
    counts: np.ndarray

    def brackets_of(self, ks):
        """(k, lo, hi, flo, fhi, glo, ghi) of the entries that belong to the modes ks."""
        sel = np.isin(self.k, ks)
        return tuple(v[sel] for v in (self.k, self.lo, self.hi, self.flo, self.fhi, self.glo, self.ghi))


def _scan_angular_mode(ks, params, bc, lambda_max, *, halvings=0):
    """Scan passes over the angular modes ks in (0, lambda_max], coarse first:
    the pass at step 0.5**halvings and, for halvings = 0, its verification
    pass at step 0.5 too.

    Every mode's grid starts below its Rayleigh floor, and the grids of all
    the passes go through one determinant evaluation; each point's value
    depends on that point alone, so every pass is what a call for it alone
    returns.  Roots are counted from sign changes (plus exact zeros) without
    refining them.  A root is not certified where both Bessel factors have
    underflowed (the determinant is exponentially small but nonzero there,
    so a 0.0 sample carries no sign information).
    """
    ks = np.asarray(ks, dtype=np.int64)
    steps = [1.0, 0.5] if halvings == 0 else [0.5**halvings]
    # lane j*ks.size + i is mode ks[i] at step steps[j]
    lanes = np.tile(ks, len(steps))
    starts = np.tile(_scan_floor(ks, params), len(steps))
    grid, owner = _grids(params, starts, lambda_max, np.repeat(steps, ks.size))
    d, dd, sc = _backend.det_grid(lanes[owner], grid, params.mu, params.lam, bc is BoundaryCondition.FREE)
    dhat = d / sc
    alive = sc > 1e-200
    same = owner[:-1] == owner[1:]
    pair = same & alive[:-1] & alive[1:]
    exact = pair & (dhat[:-1] == 0.0)
    last = np.flatnonzero(np.append(~same, True))
    last = last[alive[last] & (dhat[last] == 0.0)]
    i_exact = np.concatenate([np.flatnonzero(exact), last])
    i_cross = np.flatnonzero(pair & ~exact & (dhat[:-1] * dhat[1:] < 0.0))
    nan = np.full(i_exact.size, math.nan)
    s_lo = sc[i_cross]
    rows = [  # (owner, lo, hi, flo, fhi, glo, ghi) of every root
        (owner[i_exact], grid[i_exact], grid[i_exact], np.zeros(i_exact.size), np.zeros(i_exact.size), nan, nan),
        (owner[i_cross], grid[i_cross], grid[i_cross + 1], dhat[i_cross], d[i_cross + 1] / s_lo,
         dd[i_cross] / s_lo, dd[i_cross + 1] / s_lo),
    ]
    own, lo, hi, flo, fhi, glo, ghi = (np.concatenate(col) for col in zip(*rows))
    counts = np.bincount(own, minlength=lanes.size)
    passes = []
    for j in range(len(steps)):
        sel = own // ks.size == j
        passes.append(_ScanPass(lanes[own[sel]], lo[sel], hi[sel], flo[sel], fhi[sel], glo[sel], ghi[sel],
                                counts[j * ks.size:(j + 1) * ks.size]))
    return tuple(passes)


def _k0_family_tags(lams, params, bc):
    """compressional_k0 / shear_k0 for k = 0 roots: the factor of the diagonal
    boundary matrix that vanishes, m11 = -p*J_1(p) or -(p/alpha)*(p*J_0(p) -
    2*alpha*J_1(p)) and m22 = s*J_1(s) or s*(s*J_0(s) - 2*J_1(s)) (clamped or
    free), compared without their prefactors -p, -p/alpha and s."""
    free = bc is BoundaryCondition.FREE
    m11, _, _, m22, _ = _backend.boundary_matrix(0, lams, params.mu, params.lam, free)
    comp = np.abs(m11 / np.sqrt(lams / params.pressure_speed2)) * (params.alpha if free else 1.0)
    shear = np.abs(m22 / np.sqrt(lams / params.mu))
    return np.where(comp < shear, "compressional_k0", "shear_k0")


def _active_k_max(params, lambda_max, k_max):
    """Angular modes that can contribute below the cutoff, and the cutoff
    below which the k-truncated union is certainly complete.

    The lowest mode-k eigenvalue is bounded below by the Rayleigh surface
    branch mu*w1*k^2 (free boundary; clamped modes sit higher still), so
    frequencies below mu*w1*(k_cap+1)^2 cannot come from truncated modes.
    """
    w1 = rayleigh_root(params.alpha).w1
    floor = params.mu * max(w1, 1e-3)
    need = int(math.sqrt(lambda_max / floor)) + 2
    k_cap = min(k_max, need)
    complete_below = lambda_max if need <= k_max else 0.95 * floor * (k_max + 1) ** 2
    return k_cap, min(lambda_max, complete_below)


def disk_spectrum_potential(
    params: LameParams,
    bc: BoundaryCondition,
    k_max: int = 60,
    lambda_max: float = 1e4,
) -> Spectrum:
    """Potential-method Spectrum of the unit disk: every determinant root up
    to the completeness cutoff, ascending, tagged ``k<k>_<family>``, with
    multiplicity 1 at k = 0 and 2 (the pair +-k) otherwise; free spectra
    start with the three rigid-motion zero modes (``k0_rigid``).

    Every angular mode is scanned twice (the verification pass halves the
    step; both passes of all modes are one determinant evaluation) and keeps
    halving, up to six times, until its root count is stable; only the
    accepted pass of each mode is refined, all brackets in lockstep.  A root
    whose |D/scale| exceeds ``_RESIDUAL_REL`` has no certificate: SolverError,
    and no spectrum.  k_max is an integer in [0, 60]; when lambda_max would
    need modes beyond k_max, the cutoff drops to the bound below which the
    truncated union is provably complete.
    """
    _check_alpha(params, bc)
    check_cutoff(lambda_max)
    if not isinstance(k_max, (int, np.integer)) or not 0 <= k_max <= 60:
        raise ParameterDomainError(f"k_max must be an integer in [0, 60], got {k_max!r}")
    if lambda_max > 1e5:
        raise ParameterDomainError(f"lambda_max capped at 1e5, got {lambda_max}")
    k_cap, cutoff = _active_k_max(params, lambda_max, k_max)
    pending = np.arange(k_cap + 1)
    pending = pending[_scan_floor(pending, params) < cutoff]

    # (k, lo, hi, flo, fhi, glo, ghi) of the accepted pass of every mode
    accepted = [(np.empty(0, dtype=np.int64),) + (np.empty(0),) * 6]
    if pending.size:
        coarse, cur = _scan_angular_mode(pending, params, bc, cutoff, halvings=0)
        counts = coarse.counts
    for h in range(1, _MAX_STEP_HALVINGS + 1):
        if not pending.size:
            break
        if h > 1:
            (cur,) = _scan_angular_mode(pending, params, bc, cutoff, halvings=h)
        settled = (cur.counts == counts) | (h == _MAX_STEP_HALVINGS)
        accepted.append(cur.brackets_of(pending[settled]))
        pending, counts = pending[~settled], cur.counts[~settled]

    kk, lo, hi, flo, fhi, glo, ghi = (np.concatenate(col) for col in zip(*accepted))
    roots = refine_brackets(lambda x, i: _dhat(kk[i], x, params, bc), lo, hi, flo, fhi, _BISECT_REL_TOL,
                            glo, ghi)
    resid = np.abs(_dhat(kk, roots, params, bc)[0])
    bad = np.flatnonzero(~(resid <= _RESIDUAL_REL))  # a NaN residual certifies nothing
    if bad.size:
        i = bad[0]
        raise SolverError(f"root {roots[i]!r} of angular mode k = {kk[i]} has determinant residual "
                          f"{resid[i]:.3g} > {_RESIDUAL_REL:g} ({bad.size} uncertified)")
    order = np.lexsort((kk, roots))
    kk, roots = kk[order], roots[order]
    family = np.full(roots.size, "coupled", dtype=object)
    family[kk == 0] = _k0_family_tags(roots[kk == 0], params, bc)
    tags = [f"k{k}_{f}" for k, f in zip(kk.tolist(), family)]
    mults = np.where(kk == 0, 1, 2)
    if bc is BoundaryCondition.FREE:
        roots, mults, tags = np.append(0.0, roots), np.append(3, mults), ["k0_rigid"] + tags
    return Spectrum(domain=UNIT_DISK, bc=bc, params=params, eigenvalues=roots, multiplicities=mults,
                    mode_tags=tags, lambda_max=cutoff, method=Method.POTENTIAL, meta={"k_max": str(k_max)})
