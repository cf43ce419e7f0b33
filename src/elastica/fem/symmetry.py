"""Rotation-symmetry blocks of the FEM eigenproblem.

A mesh invariant under the rotation group C_N (order N, generating rotation
R by 2*pi/N) makes the operators commute with the dof action
(T u)_{sigma(v)} = R u_v, sigma being the vertex image.  The eigenspaces
V_m = {T w = omega^m w}, omega = exp(2*pi*i/N), are then invariant and
mutually orthogonal, so K x = lambda M x splits into one block per m
(Bossavit 1986; Fassler and Stiefel 1992).  Block m is spanned by the
columns of an isometry Q_m: over each vertex orbit v_g = sigma^g(v_0),

    q = N^(-1/2) * sum_g omega^(-m g) (R^g e_c at v_g),   c = x, y,

and a fixed vertex (the centre) contributes the eigenvectors of R:
(1, -i)/sqrt(2) to m = 1 when N >= 3, or both of e_x, e_y to m = 1 when
N = 2 (R = -I).  Block N - m is the complex conjugate of block m, so only
m = 0..N//2 are built.  Blocks m = 0 and m = N/2 are real; the others are
complex Hermitian, and their eigenvalues count twice (m and N - m).

The block matrices are S_m A Q_m, S_m picking the representative dofs of
each orbit scaled by its size: for w in V_m, q^H w = sqrt(N) e_c^H w, which
holds because A and M commute with T.  That avoids the full Q_m^H A
product.  A mesh without a recorded group (N = 1) gives one block, the
operators themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import MeshError
from .assemble import Operators

if TYPE_CHECKING:  # scipy loads with the first split, not with the package
    import scipy.sparse as sp


@dataclass
class SymmetryBlock:
    m: int
    weight: int  # 1 if 2m is 0 or N, else 2 (the block and its conjugate N - m)
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    basis: sp.csc_matrix | None  # Q_m (n x n_m isometry); None for the whole problem

    @property
    def n(self) -> int:
        return self.stiffness.shape[0]


def _snap(x):
    """Round away the last-bit residue of exact zeros (sin(pi), cos(pi/2))."""
    return np.where(np.abs(x) < 1e-15, 0.0, x)


def _orbits(mesh, kept):
    """(representatives' orbits as an (N, O) vertex array, fixed kept vertices)."""
    n_rot = mesh.rotation_order
    nv = mesh.n_vertices
    images = np.empty((n_rot, nv), dtype=np.int64)
    images[0] = np.arange(nv)
    for g in range(1, n_rot):
        images[g] = mesh.rotation[images[g - 1]]
    if not np.array_equal(mesh.rotation[images[-1]], images[0]):
        raise MeshError(f"the recorded rotation is not of order {n_rot}")
    fixed = np.flatnonzero(kept & (mesh.rotation == images[0]))
    reps = np.flatnonzero(kept & (mesh.rotation != images[0]) & (images.min(axis=0) == images[0]))
    orbits = images[:, reps]
    moved = np.count_nonzero(kept) - fixed.size
    if moved != n_rot * reps.size or np.unique(orbits).size != moved or not kept[orbits].all():
        raise MeshError("the kept vertices do not fall into full orbits of the rotation")
    return orbits, fixed


def symmetry_blocks(ops: Operators) -> list[SymmetryBlock]:
    """The blocks Q_m^H A Q_m, Q_m^H M Q_m for m = 0..N//2 (one block if N = 1)."""
    import scipy.sparse as sp

    mesh = ops.mesh
    n_rot = mesh.rotation_order
    if n_rot == 1:
        return [SymmetryBlock(0, 1, ops.stiffness, ops.mass, None)]
    # reduced index of each full dof, -1 where a Dirichlet row was eliminated
    red = np.full(2 * mesh.n_vertices, -1, dtype=np.int64)
    red[ops.free_dofs] = np.arange(ops.n)
    orbits, fixed = _orbits(mesh, red[0::2] >= 0)
    n_orb = orbits.shape[1]
    g = np.arange(n_rot)
    ang = 2.0 * np.pi * g / n_rot
    cos, sin = _snap(np.cos(ang)), _snap(np.sin(ang))
    # rot[g, d, c] = (R^g)[d, c]
    rot = np.stack([np.stack([cos, -sin], axis=1), np.stack([sin, cos], axis=1)], axis=1)
    # entry (g, d, o, c): row dof d of vertex orbits[g, o], column 2o + c
    rows = red[2 * orbits[:, None, :, None] + np.arange(2)[None, :, None, None]]
    rows = np.broadcast_to(rows, (n_rot, 2, n_orb, 2)).ravel()
    cols = np.broadcast_to(2 * np.arange(n_orb)[:, None] + np.arange(2), (n_rot, 2, n_orb, 2)).ravel()
    rep_rows = red[2 * orbits[0][:, None] + np.arange(2)].ravel()
    blocks = []
    for m in range(n_rot // 2 + 1):
        real = 2 * m in (0, n_rot)
        phase = np.exp(-2j * np.pi * m * g / n_rot)
        phase = _snap(phase.real) if real else _snap(phase.real) + 1j * _snap(phase.imag)
        vals = np.broadcast_to(
            (phase[:, None, None] * rot / np.sqrt(n_rot))[:, :, None, :], (n_rot, 2, n_orb, 2)
        ).ravel()
        q_rows, q_cols, q_vals = [rows], [cols], [vals]
        s_rows = [np.arange(2 * n_orb)]
        s_cols = [rep_rows]
        s_vals = [np.full(2 * n_orb, np.sqrt(n_rot))]
        if m == 1 and fixed.size:
            # the centre's (u_x, u_y): e_x, e_y for the half turn, else (1, -i)/sqrt(2)
            fr = red[2 * fixed[:, None] + np.arange(2)].ravel()
            if n_rot == 2:
                fc = 2 * n_orb + np.arange(fr.size)
                fv = np.ones(fr.size)
            else:
                fc = np.repeat(2 * n_orb + np.arange(fixed.size), 2)
                fv = np.tile([1.0, -1j], fixed.size) / np.sqrt(2.0)
            q_rows.append(fr)
            q_cols.append(fc)
            q_vals.append(fv)
            s_rows.append(fc)
            s_cols.append(fr)
            s_vals.append(np.conj(fv))
        n_m = 2 * n_orb + (fixed.size * (2 if n_rot == 2 else 1) if m == 1 else 0)
        q_vals = np.concatenate(q_vals)
        q = sp.csc_matrix((q_vals, (np.concatenate(q_rows), np.concatenate(q_cols))), shape=(ops.n, n_m))
        q.eliminate_zeros()
        pick = sp.csr_matrix(
            (np.concatenate(s_vals).astype(q.dtype), (np.concatenate(s_rows), np.concatenate(s_cols))),
            shape=(n_m, ops.n),
        )

        def project(a):
            b = ((pick @ a) @ q).tocsr()
            return (0.5 * (b + b.conj().T)).tocsr()

        blocks.append(SymmetryBlock(m, 1 if real else 2, project(ops.stiffness), project(ops.mass), q))
    return blocks
