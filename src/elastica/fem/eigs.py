"""Generalized symmetric eigensolver: ARPACK shift-invert on a symmetric-mode LU,
one symmetry block at a time.

A mesh that records a rotation group C_N splits K x = lambda M x into the
blocks m = 0..N//2 of ``symmetry.symmetry_blocks`` (the C6 disk into four
of about n/6 unknowns, the C2 square into two of n/2); a mesh without one is
a single block, the operators themselves.  Blocks with 0 < 2m < N are
complex Hermitian and their values count twice, once for m and once for
N - m.  Each block is solved and certified on its own.

Up to ``_DENSE_LIMIT`` unknowns (400) LAPACK computes just the requested
eigenvalues of a block.  Larger blocks factor ``A - sigma M`` once with
SuperLU, ordered by minimum degree on ``A^T + A`` with diagonal pivots only
(symmetric mode), and hand the factor to ARPACK's implicitly restarted
Lanczos method (``scipy.sparse.linalg.eigsh``; Arnoldi on a complex block)
as the shift-invert operator.  sigma sits below the spectrum, so
``A - sigma M`` is positive definite and diagonal pivoting is stable.  The
ordering must not be used with SuperLU's default partial pivoting: on an
indefinite matrix, such as the inertia check's below, row interchanges
break the symmetric structure the ordering was computed for and the fill
grows tenfold.

Each returned set carries two certificates: the residual of every pair, and
an inertia count.  Residuals are measured on the full A and M after the
block's vectors are lifted back by Q_m, so they check the reduction too.  By
Sylvester's law the negative pivots of a symmetric-mode LU of
``A_m - tau M_m`` count the block's eigenvalues below tau; tau is put in a
gap above the block's returned set, so a multiplet copy the iteration
dropped (which no residual can reveal) shows as a mismatch.  The blocks'
counts add up to the inertia of the whole problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterDomainError, SolverError
from ..params import BoundaryCondition
from .assemble import Operators
from .symmetry import symmetry_blocks

# unknowns of a block up to which LAPACK is used.  Timed with certificates on
# disk blocks (2-vCPU VM): LAPACK is up to 3.7x faster at 240 unknowns, the
# two are within 2x either way at 380, and ARPACK is 1.3-13x faster at 550-1060
_DENSE_LIMIT = 400
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
    block_sizes: tuple[int, ...] = ()  # unknowns of each symmetry block solved


@dataclass
class _BlockResult:
    values: np.ndarray  # ascending: every value of the block below tau
    residuals: np.ndarray
    tau: float  # inertia-certified bound: the block has no other value below it
    method: str


def _dense_block(ops, blk, count, lambda_max) -> _BlockResult:
    import scipy.linalg as sla

    A = blk.stiffness.toarray()
    M = blk.mass.toarray()
    if count is not None:
        vals, vecs = sla.eigh(A, M, subset_by_index=[0, min(count, blk.n) - 1])
    else:
        # subset_by_value is the half-open interval (lo, hi]
        vals, vecs = sla.eigh(A, M, subset_by_value=[-np.inf, lambda_max])
        keep = vals < lambda_max
        vals, vecs = vals[keep], vecs[:, keep]
    res = _residuals(ops, blk, vals, vecs)
    return _BlockResult(vals, res, np.inf, "dense")


def _residuals(ops, blk, vals, vecs):
    """||A x - lam M x|| / ||M x|| on the full operators, x = Q_m v lifted
    from the block; column by column and a complex x by its real and
    imaginary parts, so that no complex copy of A or M is made."""
    res = np.empty(len(vals))
    for j, lam in enumerate(vals):
        x = vecs[:, j] if blk.basis is None else blk.basis @ vecs[:, j]
        num = den = 0.0
        for part in (x.real, x.imag) if np.iscomplexobj(x) else (x,):
            mx = ops.mass @ part
            num += np.sum((ops.stiffness @ part - lam * mx) ** 2)
            den += np.sum(mx**2)
        res[j] = np.sqrt(num / den)
    return res


def _factor(A, M, shift: float):
    """Symmetric-mode SuperLU of A - shift M: MMD on A^T + A, diagonal pivots only."""
    import scipy.sparse.linalg as spla

    return spla.splu(
        (A - shift * M).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _gaps_above(vals: np.ndarray, last: int):
    """(tau, number of values below tau) for each genuine gap at or above
    ``vals[last]``, ascending, tau being the gap's midpoint.

    Gaps inside a multiplet or inside the numerically zero rigid-mode cluster
    are not genuine: an inertia count there would hinge on rounding.
    """
    zero = np.abs(vals) <= _ZERO_REL * np.abs(vals).max()
    return [
        (0.5 * (vals[i] + vals[i + 1]), i + 1)
        for i in range(last, len(vals) - 1)
        if vals[i + 1] - vals[i] > _GAP_REL * abs(vals[i + 1]) and not (zero[i] and zero[i + 1])
    ]


def _lanczos_block(ops, blk, sigma: float, k: int, count, lambda_max) -> _BlockResult:
    """ARPACK shift-invert on one block, certified by residuals and inertia.

    Returns every value below the certified gap tau: the highest gap the
    computed values show at or above the ``count``-th value, or the first
    one at the cutoff.
    """
    import scipy.sparse.linalg as spla

    A, M, n = blk.stiffness, blk.mass, blk.n
    k_cap = n - 2  # eigsh needs k < n - 1 on a sparse matrix
    op_inv = None
    last_err = None
    for seed in _SEEDS:
        if op_inv is None:
            try:
                lu = _factor(A, M, sigma)
            except RuntimeError as exc:  # SuperLU reports a singular factor this way
                raise SolverError(f"factorization of A - {sigma:g} M failed: {exc}") from exc
            op_inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=A.dtype)
            del lu
        v0 = np.random.default_rng(seed).standard_normal(n).astype(A.dtype)
        try:
            while True:
                k = min(k, k_cap)
                vals, vecs = spla.eigsh(A, k, M=M, sigma=sigma, OPinv=op_inv, v0=v0)
                order = np.argsort(vals)
                vals, vecs = vals[order], vecs[:, order]
                take = count if count is not None else int(np.sum(vals < lambda_max))
                gaps = _gaps_above(vals, max(take - 1, 0))
                # a count is certified as far as the values go, which spares
                # the union of the blocks growing this one; a cutoff no further
                gap = (gaps[-1] if count is not None else gaps[0]) if gaps else None
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
        tau, below = gap
        res = _residuals(ops, blk, vals[:below], vecs[:, :below])
        if not np.all(res <= _RESID_TOL):
            last_err = f"residual {res.max():.2e} above {_RESID_TOL:g} (seed {seed})"
            continue
        # the shift factor and the basis go before the inertia factor is made,
        # so the two factors never coexist; a retry factors the shift again
        op_inv = vecs = None
        # Sylvester: U's diagonal is the D of A - tau M = L D L^H (real up to rounding)
        negative = int(np.sum(_factor(A, M, tau).U.diagonal().real < 0))
        if negative != below:
            last_err = f"{below} values below {tau:.6g} but inertia counts {negative} (seed {seed})"
            continue
        return _BlockResult(vals[:below], res, tau, "lanczos")
    raise SolverError(f"ARPACK failed to certify the requested set (last error: {last_err})")


def _union(blocks, parts):
    """All block values with their conjugate copies, ascending, and their residuals."""
    vals = np.concatenate([np.repeat(p.values, b.weight) for b, p in zip(blocks, parts)])
    res = np.concatenate([np.repeat(p.residuals, b.weight) for b, p in zip(blocks, parts)])
    order = np.argsort(vals, kind="stable")
    return vals[order], res[order]


def solve_eigs(
    ops: Operators,
    count: int | None = None,
    lambda_max: float | None = None,
) -> EigResult:
    """Eigenvalues of A x = lambda M x with residual and inertia certificates.

    Either the lowest ``count`` eigenvalues, or (with ``lambda_max``) every
    eigenvalue below the cutoff.  The problem is split into the symmetry
    blocks of the mesh's rotation group, each solved on its own: dense
    (LAPACK) up to ``_DENSE_LIMIT`` unknowns; otherwise ARPACK in
    shift-invert mode on one sparse factorization, which is reused across
    seeds and across growth of the requested number (only a failed inertia
    certificate, which frees it, makes a retry factor again).  In cutoff
    mode a block's number starts from its share n_m/n of the two-term Weyl
    estimate and grows by 1.6x until the largest returned value reaches the
    cutoff.  In count mode a block starts from its share of ``count``; the
    lowest ``count`` values of the union stand once every block's certified
    gap lies above the ``count``-th of them, and until then the block with
    the lowest gap grows by 1.6x.  A failed iteration or certificate
    triggers a retry with the next deterministic seed.
    """
    if count is None and lambda_max is None:
        raise ParameterDomainError("need count or lambda_max")
    # shift just below the spectrum: the wanted eigenvalues must remain the
    # extreme end of 1/(lambda - sigma), and A - sigma M positive definite
    sigma = 0.0 if ops.bc is BoundaryCondition.DIRICHLET else -0.2 * ops.params.mu
    if count is None:
        from . import weyl_count_estimate  # the package imports this module

        estimate = weyl_count_estimate(ops.params, ops.mesh.domain, lambda_max, ops.bc)

    def solve(blk, want):
        if blk.n <= _DENSE_LIMIT:
            return _dense_block(ops, blk, want, lambda_max)
        if count is not None:
            k = want + _EXTRA
        else:
            k = int(1.05 * estimate * (blk.n / ops.n)) + _EXTRA
            if ops.bc is BoundaryCondition.FREE:
                k += 3  # rigid motions
        return _lanczos_block(ops, blk, sigma, k, want, lambda_max)

    blocks = symmetry_blocks(ops)
    if count is None:
        parts = [solve(blk, None) for blk in blocks]
        vals, res = _union(blocks, parts)
        keep = vals < lambda_max
        vals, res = vals[keep], res[keep]
    else:
        # a dense block is asked for enough values to supply all ``count`` alone
        wants = [
            -(-count // blk.weight) if blk.n <= _DENSE_LIMIT else -(-count * blk.n // ops.n)
            for blk in blocks
        ]
        parts = [solve(blk, want) for blk, want in zip(blocks, wants)]
        while True:
            vals, res = _union(blocks, parts)
            target = vals[count - 1] if vals.size >= count else np.inf
            short = [i for i, p in enumerate(parts) if p.tau <= target]
            if not short:
                break
            i = min(short, key=lambda i: parts[i].tau)
            wants[i] = max(int(1.6 * wants[i]), wants[i] + 1)
            parts[i] = solve(blocks[i], wants[i])
        vals, res = vals[:count], res[:count]
    method = "lanczos" if any(p.method == "lanczos" for p in parts) else "dense"
    return EigResult(vals, res, method, tuple(blk.n for blk in blocks))
