"""Generalized symmetric eigensolver: every value below one shift tau, one
symmetry block at a time, from one symmetric-mode LU per block.

A mesh that records a rotation group C_N splits K x = lambda M x into the
blocks m = 0..N//2 of ``symmetry.symmetry_blocks`` (the C6 disk into four
of about n/6 unknowns, the C2 square into two of n/2); a mesh without one is
a single block, the operators themselves.  Blocks with 0 < 2m < N are
complex Hermitian and their values count twice, once for m and once for
N - m.  Each block is solved and certified on its own.

A block solve returns every eigenvalue of the block below tau.  Up to
``_DENSE_LIMIT`` unknowns (400) LAPACK computes them by value.  A larger
block factors ``A - tau M`` once with SuperLU, ordered by minimum degree on
``A^T + A`` with diagonal pivots only (symmetric mode).  By Sylvester's law
the negative pivots of that factor count the block's eigenvalues below tau,
N_m of them, and the same factor is ARPACK's shift-invert operator
(``scipy.sparse.linalg.eigsh``; Arnoldi on a complex block): asked for
exactly N_m values of 1/(lambda - tau), the algebraically smallest, it
returns the eigenvalues below tau (Grimes, Lewis and Simon, SIAM J. Matrix
Anal. Appl. 15, 1994, take the count from the factor they invert in the
same way).  A - tau M is indefinite; diagonal pivoting in symmetric mode
keeps the minimum-degree ordering, where SuperLU's default partial pivoting
would break the symmetric structure the ordering was computed for and grow
the fill tenfold.

Each returned set carries two certificates: the residual of every pair, and
the inertia count.  The values are the Rayleigh quotients
x^H A x / x^H M x of the Ritz vectors lifted back by Q_m, and residuals are
measured on the full A and M, so they check the reduction too.  The gate is
the normwise backward error of the pair (Higham and Higham, SIAM J. Matrix
Anal. Appl. 20, 1998),

    ||A x - lambda M x|| / ((||A|| + |lambda| ||M||) ||x||),

with the infinity norm of A and M (an upper bound on their 2-norm), so that
it does not change when A, or A and M, are scaled: the units of mu and
lambda do not move it.  A block must return exactly N_m values, all below
tau, so a multiplet copy the iteration dropped (which no residual can
reveal) shows as a mismatch with the inertia.  The blocks' counts add up to
the inertia of the whole problem.

ARPACK at tau stops where its Ritz estimates fall to ``_RESID_TOL``
relative to the Ritz values (``eigsh``'s ``tol``; its default, 0, runs to
machine precision).  That stop decides nothing: ARPACK's estimate is not the
gate's measure, and a set it stops on too early fails the certificate, so
the block falls back as below.  On 24- to 51-ring disk blocks the stop took
7-22% of the solves off a clean start, and no pair read a backward error
above 6.8e-15 that did not read the same at full precision (2-core VM).

A Ritz value within ``_NUDGE`` of tau, or an exactly singular factor, means
tau sits on an eigenvalue to within rounding, where the inertia count hinges
on the last bits; tau then moves up by a few ``_NUDGE`` and the block is
factored again.  If the one ARPACK start at tau certifies nothing (the
traction-free disk at lambda = -mu reads backward errors of 4.5e-13 on its
cluster of near-zero modes there), the tau factor is freed and the block is
factored once below the spectrum, where A - sigma M is positive definite,
and ARPACK asks for the N_m values of largest 1/(lambda - sigma), with
every seed of ``_SEEDS``, at full precision: stopped at ``_RESID_TOL``
there, each of the five seeds dropped one copy of a multiplet on the
15-ring disk at lambda = -mu without its rotation group, and the inertia
count refused them all.

tau is the cutoff, and the solve returns every certified value below it.
It sizes nothing: a caller that needs a number of values, such as the
Richardson study of ``refine.refine_and_extrapolate``, raises the cutoff
itself and reads the count off what comes back.

At most one SuperLU factor is alive at a time: a block's factor is freed
before the next one is made, and on every way out of the block solve.  The
factor is therefore held apart from the ``LinearOperator`` handed to
ARPACK, which reaches it only through a list the block empties.  Dropping
the operator is not enough: on a complex block ``eigsh`` calls ``eigs``,
whose ``_UnsymmetricArpackParams`` holds a lambda that refers back to it,
and that reference cycle keeps the operator (and with it the factor) alive
until the cyclic garbage collector happens to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SolverError
from ..params import BoundaryCondition, check_cutoff
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
# a Ritz value within this share of tau puts tau on an eigenvalue to within
# rounding; tau then moves up by three times this share
_NUDGE = 1e-9
# moves of tau a block makes before it gives up
_NUDGES = 3
# values below this share of the largest one are numerically zero (rigid modes)
_ZERO_REL = 1e-8
# ARPACK start vectors: tau tries the first, the fallback below the spectrum
# each in turn
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


def _residuals(ops, norms, blk, vecs):
    """(Rayleigh quotients x^H A x / x^H M x, backward errors
    ||A x - lam M x|| / ((||A|| + |lam| ||M||) ||x||)), ascending, on the full
    operators, x = Q_m v lifted from the block; column by column and a
    complex x by its real and imaginary parts (A and M are real symmetric),
    so that no complex copy of A or M is made."""
    vals, res = np.empty(vecs.shape[1]), np.empty(vecs.shape[1])
    for j in range(vecs.shape[1]):
        x = vecs[:, j] if blk.basis is None else blk.basis @ vecs[:, j]
        parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
        ax = [ops.stiffness @ p for p in parts]
        mx = [ops.mass @ p for p in parts]
        # np.sum of products, not BLAS dots: with dots this loop took 97 ms
        # instead of 18 ms on the 48-ring disk at cutoff 100 (2-core VM)
        lam = sum(np.sum(p * a) for p, a in zip(parts, ax)) / sum(np.sum(p * m) for p, m in zip(parts, mx))
        num = sum(np.sum((a - lam * m) ** 2) for a, m in zip(ax, mx))
        den = sum(np.sum(p**2) for p in parts)
        vals[j], res[j] = lam, np.sqrt(num / den) / (norms[0] + abs(lam) * norms[1])
    order = np.argsort(vals)
    return vals[order], res[order]


def _factor(A, M, shift: float):
    """Symmetric-mode SuperLU of A - shift M: MMD on A^T + A, diagonal pivots only."""
    import scipy.sparse.linalg as spla

    return spla.splu(
        (A - shift * M).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _dense_block(ops, norms, blk, tau: float) -> _BlockResult:
    """LAPACK's values of a block below tau."""
    import scipy.linalg as sla

    _, vecs = sla.eigh(blk.stiffness.toarray(), blk.mass.toarray(), subset_by_value=(-np.inf, tau))
    return _BlockResult(*_residuals(ops, norms, blk, vecs), tau, "dense")


def _lanczos_block(ops, norms, blk, tau: float, sigma: float) -> _BlockResult:
    """ARPACK's values of a block below tau, as many as the factor of
    A - tau M has negative pivots, certified by residuals and that count;
    the tau start stops at the gate's tolerance, tau moves up off an
    eigenvalue, and a tau start that certifies nothing falls back to one
    factor below the spectrum (sigma) and every seed, at full precision."""
    import scipy.sparse.linalg as spla

    A, M, n = blk.stiffness, blk.mass, blk.n
    # the block's one live factor, held apart from the operator ARPACK keeps
    # (see the module docstring); emptying it frees the factor even where
    # op_inv lives on in the cycle that eigsh -> eigs -> _UnsymmetricArpackParams
    # leaves on a complex block
    held = []
    op_inv = spla.LinearOperator((n, n), matvec=lambda b: held[0].solve(b), dtype=A.dtype)

    def factor(shift):
        held.clear()
        held.append(_factor(A, M, shift))

    def attempt(shift, which, seed, tol):
        """(values, residuals, why they are not certified or None), of ARPACK's
        count values at shift, stopped at relative Ritz estimate tol (0: full
        precision); why is "nudge" where a value sits on tau."""
        v0 = np.random.default_rng(seed).standard_normal(n).astype(A.dtype)
        try:
            _, vecs = spla.eigsh(A, count, M=M, sigma=shift, OPinv=op_inv, which=which, v0=v0, tol=tol)
        except spla.ArpackError as exc:  # includes ArpackNoConvergence
            return None, None, exc
        vals, res = _residuals(ops, norms, blk, vecs)
        if np.any(np.abs(vals - tau) <= _NUDGE * abs(tau)):
            return vals, res, "nudge"
        below = int(np.sum(vals < tau))
        if below != count:
            return vals, res, f"{below} values below {tau:.6g} but inertia counts {count} (seed {seed})"
        if not np.all(res <= _RESID_TOL):
            return vals, res, f"residual {res.max():.2e} above {_RESID_TOL:g} (seed {seed})"
        return vals, res, None

    try:
        for _ in range(_NUDGES + 1):
            try:
                factor(tau)
            except RuntimeError:  # SuperLU reports an exactly singular factor this way
                tau += 3 * _NUDGE * abs(tau)
                continue
            # Sylvester: U's diagonal is the D of A - tau M = L D L^H (real up to rounding)
            count = int(np.sum(held[0].U.diagonal().real < 0))
            if count == 0:
                return _BlockResult(np.empty(0), np.empty(0), tau, "lanczos")
            if count > n - 2:  # eigsh needs k < n - 1 on a sparse matrix
                raise SolverError(f"block m = {blk.m} cannot return more than {n - 2} values: "
                                  f"{count} lie below {tau:.6g}")
            vals, res, why = attempt(tau, "SA", _SEEDS[0], _RESID_TOL)
            if why is None:
                return _BlockResult(vals, res, tau, "lanczos")
            if why != "nudge":
                break
            tau += 3 * _NUDGE * abs(tau)
        else:
            raise SolverError(f"block m = {blk.m}: tau {tau:.6g} still sits on an eigenvalue "
                              f"after {_NUDGES} moves")
        try:
            factor(sigma)
        except RuntimeError as exc:
            raise SolverError(f"factorization of A - {sigma:g} M failed: {exc}") from exc
        last_err = why
        for seed in _SEEDS:
            vals, res, why = attempt(sigma, "LM", seed, 0)
            if why is None:
                return _BlockResult(vals, res, tau, "lanczos")
            last_err = "a value on tau" if why == "nudge" else why
        raise SolverError(f"ARPACK failed to certify the requested set (last error: {last_err})")
    finally:
        held.clear()


def _union(blocks, parts):
    """All block values with their conjugate copies, ascending, and their residuals."""
    vals = np.concatenate([np.repeat(p.values, b.weight) for b, p in zip(blocks, parts)])
    res = np.concatenate([np.repeat(p.residuals, b.weight) for b, p in zip(blocks, parts)])
    order = np.argsort(vals, kind="stable")
    return vals[order], res[order]


def solve_eigs(ops: Operators, *, lambda_max: float) -> EigResult:
    """Every eigenvalue of A x = lambda M x below the cutoff ``lambda_max``,
    with residual and inertia certificates.

    Every symmetry block returns all of its values below tau = lambda_max
    (module docstring).  An ARPACK block makes one SuperLU factor in a clean
    solve, and at most one is alive at a time.  A block with more values
    below the cutoff than ARPACK can return, or that no seed certifies,
    raises SolverError.
    """
    check_cutoff(lambda_max)
    # shift of the fallback factor, just below the spectrum: the wanted
    # eigenvalues are the extreme end of 1/(lambda - sigma), and A - sigma M
    # is positive definite
    sigma = 0.0 if ops.bc is BoundaryCondition.DIRICHLET else -0.2 * ops.params.mu
    # abs copies of A and M are made here, before any block or factor exists,
    # so that they never add to a factor's memory peak
    norms = _norms(ops)
    blocks = symmetry_blocks(ops)
    parts = [
        _dense_block(ops, norms, blk, lambda_max) if blk.n <= _DENSE_LIMIT
        else _lanczos_block(ops, norms, blk, lambda_max, sigma)
        for blk in blocks
    ]
    vals, res = _union(blocks, parts)
    # a value within _NUDGE of the cutoff sits on it, and is not below it
    keep = vals < lambda_max - _NUDGE * lambda_max
    method = "lanczos" if any(p.method == "lanczos" for p in parts) else "dense"
    return EigResult(vals[keep], res[keep], method, tuple(blk.n for blk in blocks))
