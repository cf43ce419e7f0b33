"""Generalized symmetric eigensolver: ARPACK shift-invert on a symmetric-mode LU.

Up to ``_DENSE_LIMIT`` unknowns LAPACK computes just the requested
eigenvalues.  Larger problems factor ``A - sigma M`` once with SuperLU,
ordered by minimum degree on ``A^T + A`` with diagonal pivots only
(symmetric mode), and hand the factor to ARPACK's implicitly restarted
Lanczos method (``scipy.sparse.linalg.eigsh``) as the shift-invert
operator.  sigma sits below the spectrum, so ``A - sigma M`` is positive
definite and diagonal pivoting is stable.  The ordering must not be used
with SuperLU's default partial pivoting: on an indefinite matrix, such as
the inertia check's below, row interchanges break the symmetric structure
the ordering was computed for and the fill grows tenfold.

Each returned set carries two certificates: the residual of every pair, and
an inertia count.  By Sylvester's law the negative pivots of a symmetric-mode
LU of ``A - tau M`` count the eigenvalues below tau; tau is put in a gap
above the returned set, so a multiplet copy the iteration dropped (which no
residual can reveal) shows as a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from ..errors import ParameterDomainError, SolverError
from ..params import BoundaryCondition
from .assemble import Operators

# dense is allowed up to 4000 unknowns, but LAPACK's solve is already
# slower than shift-invert ARPACK well before that on one core
_DENSE_LIMIT = 1200
_RESID_TOL = 1e-8
# values asked for beyond the needed ones, so that the gap above the last
# needed value is seen even when it opens a fourfold multiplet
_EXTRA = 4
# neighbours closer than this (relative) are copies of one multiplet
_GAP_REL = 1e-6
# values below this share of the largest one are numerically zero (rigid modes)
_ZERO_REL = 1e-8
# ARPACK start vectors: a failed attempt retries with the next seed
_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class EigResult:
    values: np.ndarray  # ascending, with multiplicity (discrete, unmerged)
    residuals: np.ndarray  # ||A x - lam M x|| / ||M x||
    method: str


def _dense_eigs(ops: Operators, count: int | None, lambda_max: float | None) -> EigResult:
    A = ops.stiffness.toarray()
    M = ops.mass.toarray()
    if count is not None:
        vals, vecs = sla.eigh(A, M, subset_by_index=[0, min(count, ops.n) - 1])
    else:
        # subset_by_value is the half-open interval (lo, hi]
        vals, vecs = sla.eigh(A, M, subset_by_value=[-np.inf, lambda_max])
        keep = vals < lambda_max
        vals, vecs = vals[keep], vecs[:, keep]
    res = _residuals(ops, vals, vecs)
    return EigResult(values=vals, residuals=res, method="dense")


def _residuals(ops, vals, vecs):
    mx = ops.mass @ vecs
    return np.linalg.norm(ops.stiffness @ vecs - mx * vals, axis=0) / np.linalg.norm(mx, axis=0)


def _factor(ops: Operators, shift: float):
    """Symmetric-mode SuperLU of A - shift M: MMD on A^T + A, diagonal pivots only."""
    return spla.splu(
        (ops.stiffness - shift * ops.mass).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _gap_above(vals: np.ndarray, last: int):
    """(tau, number of values below tau) for the first genuine gap at or above
    ``vals[last]``, tau being its midpoint; None if the values show none.

    Gaps inside a multiplet or inside the numerically zero rigid-mode cluster
    are not genuine: an inertia count there would hinge on rounding.
    """
    zero = np.abs(vals) <= _ZERO_REL * np.abs(vals).max()
    for i in range(last, len(vals) - 1):
        lo, hi = vals[i], vals[i + 1]
        if hi - lo > _GAP_REL * abs(hi) and not (zero[i] and zero[i + 1]):
            return 0.5 * (lo + hi), i + 1
    return None


def solve_eigs(
    ops: Operators,
    count: int | None = None,
    lambda_max: float | None = None,
) -> EigResult:
    """Eigenvalues of A x = lambda M x with residual and inertia certificates.

    Either the lowest ``count`` eigenvalues, or (with ``lambda_max``) every
    eigenvalue below the cutoff.  Dense path (LAPACK) up to 1200 unknowns;
    otherwise ARPACK in shift-invert mode on one sparse factorization, which
    is reused across seeds and across growth of the requested number (only a
    failed inertia certificate, which frees it, makes a retry factor again).  In
    cutoff mode that number starts from the two-term Weyl estimate and grows
    by 1.6x until the largest returned value reaches the cutoff.  A failed
    iteration or certificate triggers a retry with the next deterministic
    seed.
    """
    if count is None and lambda_max is None:
        raise ParameterDomainError("need count or lambda_max")
    if ops.n <= _DENSE_LIMIT:
        return _dense_eigs(ops, count, lambda_max)

    A, M, n = ops.stiffness, ops.mass, ops.n
    # shift just below the spectrum: the wanted eigenvalues must remain the
    # extreme end of 1/(lambda - sigma), and A - sigma M positive definite
    sigma = 0.0 if ops.bc is BoundaryCondition.DIRICHLET else -0.2 * ops.params.mu
    if count is not None:
        k = count + _EXTRA
    else:
        from . import weyl_count_estimate  # the package imports this module

        k = int(1.05 * weyl_count_estimate(ops.params, ops.mesh.domain, lambda_max, ops.bc)) + _EXTRA
        if ops.bc is BoundaryCondition.FREE:
            k += 3  # rigid motions
    k_cap = n - 2  # eigsh needs k < n - 1 on a sparse matrix

    op_inv = None
    last_err = None
    for seed in _SEEDS:
        if op_inv is None:
            try:
                lu = _factor(ops, sigma)
            except RuntimeError as exc:  # SuperLU reports a singular factor this way
                raise SolverError(f"factorization of A - {sigma:g} M failed: {exc}") from exc
            op_inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
            del lu
        v0 = np.random.default_rng(seed).standard_normal(n)
        try:
            while True:
                k = min(k, k_cap)
                vals, vecs = spla.eigsh(A, k, M=M, sigma=sigma, OPinv=op_inv, v0=v0)
                order = np.argsort(vals)
                vals, vecs = vals[order], vecs[:, order]
                take = count if count is not None else int(np.sum(vals < lambda_max))
                gap = _gap_above(vals, max(take - 1, 0))
                reached = count is not None or vals[-1] >= lambda_max
                if (reached and gap is not None) or k == k_cap:
                    break
                k = int(1.6 * k)
        except spla.ArpackError as exc:  # includes ArpackNoConvergence
            last_err = exc
            continue
        if gap is None or not reached:
            last_err = f"{k} values reach {vals[-1]:.6g} without a certifiable gap"
            continue
        res = _residuals(ops, vals[:take], vecs[:, :take])
        if not np.all(res <= _RESID_TOL):
            last_err = f"residual {res.max():.2e} above {_RESID_TOL:g} (seed {seed})"
            continue
        # the shift factor and the basis go before the inertia factor is made,
        # so the two factors never coexist; a retry factors the shift again
        op_inv = vecs = None
        tau, below = gap
        negative = int(np.sum(_factor(ops, tau).U.diagonal() < 0))
        if negative != below:
            last_err = f"{below} values below {tau:.6g} but inertia counts {negative} (seed {seed})"
            continue
        return EigResult(values=vals[:take], residuals=res, method="lanczos")
    raise SolverError(f"ARPACK failed to certify the requested set (last error: {last_err})")
