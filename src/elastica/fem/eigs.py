"""Generalized symmetric eigensolver: ARPACK shift-invert on a symmetric-mode LU,
one symmetry block at a time.

A mesh that records a rotation group C_N splits K x = lambda M x into the
blocks m = 0..N//2 of ``symmetry.symmetry_blocks`` (the C6 disk into four
of about n/6 unknowns, the C2 square into two of n/2); a mesh without one is
a single block, the operators themselves.  Blocks with 0 < 2m < N are
complex Hermitian and their values count twice, once for m and once for
N - m.  Each block is solved and certified on its own.

A block solve computes the lowest k eigenvalues of the block, by LAPACK up
to ``_DENSE_LIMIT`` unknowns (400).  Larger blocks factor ``A - sigma M``
once with SuperLU, ordered by minimum degree on ``A^T + A`` with diagonal
pivots only (symmetric mode), and hand the factor to ARPACK's implicitly
restarted Lanczos method (``scipy.sparse.linalg.eigsh``; Arnoldi on a
complex block) as the shift-invert operator.  sigma sits below the
spectrum, so ``A - sigma M`` is positive definite and diagonal pivoting is
stable.  The ordering must not be used with SuperLU's default partial
pivoting: on an indefinite matrix, such as the inertia check's below, row
interchanges break the symmetric structure the ordering was computed for
and the fill grows tenfold.

Each returned set carries two certificates: the residual of every pair, and
an inertia count.  Residuals are measured on the full A and M after the
block's vectors are lifted back by Q_m, so they check the reduction too.
The gate is the normwise backward error of the pair (Higham and Higham,
SIAM J. Matrix Anal. Appl. 20, 1998),

    ||A x - lambda M x|| / ((||A|| + |lambda| ||M||) ||x||),

with the infinity norm of A and M (an upper bound on their 2-norm), so that
it does not change when A, or A and M, are scaled: the units of mu and
lambda do not move it.  By
Sylvester's law the negative pivots of a symmetric-mode LU of
``A_m - tau M_m`` count the block's eigenvalues below tau; tau is put in a
gap of the computed values and the block returns those below it, so a
multiplet copy the iteration dropped (which no residual can reveal) shows
as a mismatch.  The blocks' counts add up to the inertia of the whole
problem.

One rule places tau in both request modes: the lowest genuine gap above a
cap, otherwise the highest one.  The cap is the cutoff in cutoff mode, so
every block is certified through the cutoff; in count mode it is infinite.
While some block's tau does not exceed the target (the cutoff, or the
``count``-th value of the union of the blocks), the block with the lowest
tau is solved again, on a new factor, for 1.6x as many values.

At most one SuperLU factor is alive at a time: a block's shift factor is
freed before its inertia factor is made, and on every way out of the block
solve.  The factor is therefore held apart from the ``LinearOperator``
handed to ARPACK, which reaches it only through a list the block empties.
Dropping the operator is not enough: on a complex block ``eigsh`` calls
``eigs``, whose ``_UnsymmetricArpackParams`` holds a lambda that refers
back to it, and that reference cycle keeps the operator (and with it the
factor) alive until the cyclic garbage collector happens to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..coeffs import Theory, boundary_coefficient, weyl_a
from ..errors import ParameterDomainError, SingularLimitError, SolverError
from ..params import BoundaryCondition, DomainGeometry, LameParams
from ..spectrum import MULTIPLET_REL_GAP as _GAP_REL
from .assemble import Operators
from .symmetry import symmetry_blocks

# unknowns of a block up to which LAPACK is used.  Timed with certificates on
# disk blocks (2-vCPU VM): LAPACK is up to 3.7x faster at 240 unknowns, the
# two are within 2x either way at 380, and ARPACK is 1.3-13x faster at 550-1060
_DENSE_LIMIT = 400
# largest normwise backward error of a certified pair.  Certified pairs read
# 4e-16 to 8e-16 on 12- to 51-ring disks, 1.5e-15 on 160 rings, and up to
# 1.1e-14 on the 256-cell free square at cutoff 1000 (2-vCPU VM)
_RESID_TOL = 1e-13
# values asked for beyond the needed ones, so that the gap above the last
# needed value is seen even when it opens a fourfold multiplet
_EXTRA = 4
# boundary coefficient assumed where a theory's is infinite (CFLV, traction
# free, alpha = 1): there the discrete count depends on the mesh, and 12- to
# 48-ring disks at cutoffs 30-100 show an effective b of 0.6-1.1
_SINGULAR_B = 1.0
# values below this share of the largest one are numerically zero (rigid modes)
_ZERO_REL = 1e-8
# ARPACK start vectors: a failed attempt retries with the next seed
_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class EigResult:
    values: np.ndarray  # ascending, with multiplicity (discrete, unmerged)
    residuals: np.ndarray  # backward errors ||A x - lam M x|| / ((||A|| + |lam| ||M||) ||x||)
    method: str
    block_sizes: tuple[int, ...] = ()  # unknowns of each symmetry block solved


@dataclass
class _BlockResult:
    values: np.ndarray  # ascending: every value of the block below tau
    residuals: np.ndarray
    tau: float  # inertia-certified bound: the block has no other value below it
    method: str


def _norms(ops):
    """Infinity norms of the full A and M (max absolute row sums)."""
    return tuple(float(abs(a).sum(axis=1).max()) for a in (ops.stiffness, ops.mass))


def _residuals(ops, norms, blk, vals, vecs):
    """Backward errors ||A x - lam M x|| / ((||A|| + |lam| ||M||) ||x||) on the
    full operators, x = Q_m v lifted from the block; column by column and a
    complex x by its real and imaginary parts, so that no complex copy of A
    or M is made."""
    res = np.empty(len(vals))
    for j, lam in enumerate(vals):
        x = vecs[:, j] if blk.basis is None else blk.basis @ vecs[:, j]
        num = den = 0.0
        for part in (x.real, x.imag) if np.iscomplexobj(x) else (x,):
            num += np.sum((ops.stiffness @ part - lam * (ops.mass @ part)) ** 2)
            den += np.sum(part**2)
        res[j] = np.sqrt(num / den) / (norms[0] + abs(lam) * norms[1])
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


def _cut(vals: np.ndarray, cap: float):
    """(tau, number of values below tau): tau is the midpoint of the lowest
    genuine gap above ``cap``, otherwise of the highest genuine gap, and
    (-inf, 0) if the ascending ``vals`` show none.

    Gaps inside a multiplet or inside the numerically zero rigid-mode cluster
    are not genuine: an inertia count there would hinge on rounding.
    """
    zero = np.abs(vals) <= _ZERO_REL * np.abs(vals).max()
    gaps = [
        (0.5 * (vals[i] + vals[i + 1]), i + 1)
        for i in range(len(vals) - 1)
        if vals[i + 1] - vals[i] > _GAP_REL * abs(vals[i + 1]) and not (zero[i] and zero[i + 1])
    ]
    return next((g for g in gaps if g[0] > cap), gaps[-1] if gaps else (-np.inf, 0))


def _dense_block(ops, norms, blk, k: int, cap: float) -> _BlockResult:
    """LAPACK's lowest k values of a block, cut by ``_cut``; with all n of
    them nothing is left above, so tau is infinite."""
    import scipy.linalg as sla

    vals, vecs = sla.eigh(blk.stiffness.toarray(), blk.mass.toarray(), subset_by_index=[0, k - 1])
    tau, below = (np.inf, k) if k == blk.n else _cut(vals, cap)
    res = _residuals(ops, norms, blk, vals[:below], vecs[:, :below])
    return _BlockResult(vals[:below], res, tau, "dense")


def _lanczos_block(ops, norms, blk, sigma: float, k: int, cap: float) -> _BlockResult:
    """ARPACK's lowest k values of a block, cut by ``_cut`` and certified by
    residuals and inertia; a failed attempt retries with the next seed."""
    import scipy.sparse.linalg as spla

    A, M, n = blk.stiffness, blk.mass, blk.n
    # the shift factor, held apart from the operator ARPACK keeps (see the
    # module docstring); empty while no shift factor is live
    held = []
    op_inv = spla.LinearOperator((n, n), matvec=lambda b: held[0].solve(b), dtype=A.dtype)
    last_err = None
    try:
        for seed in _SEEDS:
            if not held:
                try:
                    held.append(_factor(A, M, sigma))
                except RuntimeError as exc:  # SuperLU reports a singular factor this way
                    raise SolverError(f"factorization of A - {sigma:g} M failed: {exc}") from exc
            v0 = np.random.default_rng(seed).standard_normal(n).astype(A.dtype)
            try:
                vals, vecs = spla.eigsh(A, k, M=M, sigma=sigma, OPinv=op_inv, v0=v0)
            except spla.ArpackError as exc:  # includes ArpackNoConvergence
                last_err = exc
                continue
            order = np.argsort(vals)
            vals, vecs = vals[order], vecs[:, order]
            tau, below = _cut(vals, cap)
            if below == 0:  # no gap, nothing certified: the caller asks for more
                return _BlockResult(vals[:0], vals[:0], tau, "lanczos")
            res = _residuals(ops, norms, blk, vals[:below], vecs[:, :below])
            if not np.all(res <= _RESID_TOL):
                last_err = f"residual {res.max():.2e} above {_RESID_TOL:g} (seed {seed})"
                continue
            # the shift factor and the basis go before the inertia factor is
            # made, so the two factors never coexist; a retry factors the shift
            # again.  Emptying held frees the factor even where op_inv lives on
            # in the cycle that eigsh -> eigs -> _UnsymmetricArpackParams
            # leaves on a complex block
            held.clear()
            vecs = None
            # Sylvester: U's diagonal is the D of A - tau M = L D L^H (real up to rounding)
            negative = int(np.sum(_factor(A, M, tau).U.diagonal().real < 0))
            if negative != below:
                last_err = f"{below} values below {tau:.6g} but inertia counts {negative} (seed {seed})"
                continue
            return _BlockResult(vals[:below], res, tau, "lanczos")
        raise SolverError(f"ARPACK failed to certify the requested set (last error: {last_err})")
    finally:
        held.clear()


def _rigid_modes(blk, order: int) -> int:
    """Rigid motions among block m's zero eigenvalues (traction free): the
    rotation in m = 0 and the translations in m = 1 and N - 1 (mod N), one
    each for N >= 3, both in the real block m = 1 for N = 2, and all three
    in the one block m = 0 for N = 1."""
    return int(blk.m == 0) + (2 // blk.weight if blk.m == 1 % order else 0)


def _union(blocks, parts):
    """All block values with their conjugate copies, ascending, and their residuals."""
    vals = np.concatenate([np.repeat(p.values, b.weight) for b, p in zip(blocks, parts)])
    res = np.concatenate([np.repeat(p.residuals, b.weight) for b, p in zip(blocks, parts)])
    order = np.argsort(vals, kind="stable")
    return vals[order], res[order]


def weyl_count_estimate(params: LameParams, domain: DomainGeometry, lambda_max: float,
                        bc: BoundaryCondition) -> float:
    """Two-term estimate of N(lambda_max), used to size eigensolves.

    The leading term is common to both theories.  The boundary term takes
    the largest b of the theories, so that the estimate presupposes neither,
    and ``_SINGULAR_B`` for a theory whose b is infinite.
    """
    bs = []
    for theory in Theory:
        try:
            bs.append(boundary_coefficient(params, 2, bc, theory))
        except SingularLimitError:
            bs.append(_SINGULAR_B)
    lead = weyl_a(params, 2) * domain.volume * lambda_max
    est = lead + max(bs) * domain.boundary_length * np.sqrt(lambda_max)
    return max(est, 0.5 * lead)


def solve_eigs(ops: Operators, count: int | None = None, lambda_max: float | None = None) -> EigResult:
    """Eigenvalues of A x = lambda M x with residual and inertia certificates.

    Either the lowest ``count`` eigenvalues, or (with ``lambda_max``) every
    eigenvalue below the cutoff.  Each symmetry block first asks for
    ``_EXTRA`` values beyond its share: n_m/n of the two-term Weyl estimate
    (plus the rigid motions the block holds, traction free) in cutoff mode,
    of ``count`` in count mode (a dense block enough to supply all ``count``
    alone).  Blocks are cut and grown by the one rule of the module
    docstring; the shift factor of an ARPACK block is reused across its
    seeds and freed when the block is done, so that at most one SuperLU
    factor is alive at a time.  A block that cannot grow, or that no seed
    certifies, raises SolverError.
    """
    if count is None and lambda_max is None:
        raise ParameterDomainError("need count or lambda_max")
    # shift just below the spectrum: the wanted eigenvalues must remain the
    # extreme end of 1/(lambda - sigma), and A - sigma M positive definite
    sigma = 0.0 if ops.bc is BoundaryCondition.DIRICHLET else -0.2 * ops.params.mu
    # abs copies of A and M are made here, before any block or factor exists,
    # so that they never add to a factor's memory peak
    norms = _norms(ops)
    blocks = symmetry_blocks(ops)
    if count is None:
        estimate = weyl_count_estimate(ops.params, ops.mesh.domain, lambda_max, ops.bc)
        free = ops.bc is BoundaryCondition.FREE
        wants = [
            int(1.05 * estimate * (blk.n / ops.n))
            + (_rigid_modes(blk, ops.mesh.rotation_order) if free else 0)
            for blk in blocks
        ]
        cap = lambda_max
    else:
        wants = [
            -(-count // blk.weight) if blk.n <= _DENSE_LIMIT else -(-count * blk.n // ops.n)
            for blk in blocks
        ]
        cap = np.inf

    def size(i):  # eigsh needs k < n - 1 on a sparse matrix
        n = blocks[i].n
        return min(wants[i] + _EXTRA, n if n <= _DENSE_LIMIT else n - 2)

    def solve(i):
        if blocks[i].n <= _DENSE_LIMIT:
            return _dense_block(ops, norms, blocks[i], size(i), cap)
        return _lanczos_block(ops, norms, blocks[i], sigma, size(i), cap)

    parts = [solve(i) for i in range(len(blocks))]
    while True:
        vals, res = _union(blocks, parts)
        target = lambda_max if count is None else vals[count - 1] if vals.size >= count else np.inf
        i = min(range(len(parts)), key=lambda i: parts[i].tau)
        if parts[i].tau > target:
            break
        k = size(i)
        wants[i] = max(int(1.6 * wants[i]), wants[i] + 1)
        if size(i) == k:
            raise SolverError(f"block m = {blocks[i].m} cannot grow past {k} values, certified "
                              f"only below {parts[i].tau:.6g} (target {target:.6g})")
        parts[i] = solve(i)
    keep = vals < lambda_max if count is None else slice(count)
    method = "lanczos" if any(p.method == "lanczos" for p in parts) else "dense"
    return EigResult(vals[keep], res[keep], method, tuple(blk.n for blk in blocks))
