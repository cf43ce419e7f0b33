"""P1 vector-element assembly of the elastic stiffness and consistent mass.

Bilinear form a(u, v) = int 2*mu*eps(u):eps(v) + lambda*(div u)(div v); the
traction-free condition is natural, Dirichlet rows/columns are eliminated.

Element entries.  On a triangle of area Delta with vertices 0, 1, 2 the
gradient of the hat function of vertex i is (b_i, c_i)/(2 Delta), where
b_i = y_{i+1} - y_{i+2} and c_i = x_{i+2} - x_{i+1} (indices mod 3).  The
element stiffness Delta B^T D B, written out for a vertex pair (i, j), is

    K[x_i, x_j] = ((lambda + 2 mu) b_i b_j + mu c_i c_j) / (4 Delta)
    K[x_i, y_j] = (lambda b_i c_j + mu c_i b_j) / (4 Delta)
    K[y_i, x_j] = (lambda c_i b_j + mu b_i c_j) / (4 Delta)
    K[y_i, y_j] = ((lambda + 2 mu) c_i c_j + mu b_i b_j) / (4 Delta)

and the consistent mass M[x_i, x_j] = M[y_i, y_j] = Delta (1 + delta_ij) / 12,
M[x_i, y_j] = 0.

Shared pattern.  Both operators are built on one CSR pattern: the sorted
unique (row, column) pairs of kept vertices that share an element, each
expanded into its 2x2 block of interleaved dofs (u_x, u_y).  Dirichlet
vertices are dropped before the pattern is built, so nothing is sliced
afterwards.  The entries of every vertex pair are summed over its elements
by ``np.bincount`` and written into the block's four slots; M keeps its
x-y slots as explicit zeros, so that the two patterns are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import MeshError
from ..params import BoundaryCondition, LameParams
from .mesh import Mesh

if TYPE_CHECKING:  # scipy loads with the first assembly, not with the package
    import scipy.sparse as sp


@dataclass
class Operators:
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    free_dofs: np.ndarray  # reduced index -> full dof index
    mesh: Mesh
    params: LameParams
    bc: BoundaryCondition

    @property
    def n(self) -> int:
        return self.stiffness.shape[0]


def assemble(mesh: Mesh, params: LameParams, bc: BoundaryCondition) -> Operators:
    import scipy.sparse as sp

    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    del p, x, y
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    if np.any(area <= 0):
        raise MeshError("non-positively-oriented or degenerate element")

    # kept vertices, numbered in order; -1 marks an eliminated one
    keep = ~mesh.boundary if bc is BoundaryCondition.DIRICHLET else np.ones(mesh.n_vertices, dtype=bool)
    nk = int(np.count_nonzero(keep))
    red = np.full(mesh.n_vertices, -1, dtype=np.int64)
    red[keep] = np.arange(nk)
    free = np.flatnonzero(np.repeat(keep, 2))

    # one key per element vertex pair (i, j), i-major; a pair touching an
    # eliminated vertex gets the key nk^2, above every kept pair's
    tv = red[mesh.triangles]
    rows, cols = np.repeat(tv, 3, axis=1), np.tile(tv, (1, 3))
    key = rows * nk + cols
    key[(rows < 0) | (cols < 0)] = nk * nk
    del tv, rows, cols
    pairs, pair_of = np.unique(key.ravel(), return_inverse=True)
    del key
    n_keys, n_pairs = pairs.size, int(np.searchsorted(pairs, nk * nk))

    def pair_sums(w):  # (nt, 3, 3) element entries -> their sums per kept pair
        return np.bincount(pair_of, w.ravel(), minlength=n_keys)[:n_pairs]

    # CSR layout: the kept pairs of row vertex v are pairs[start[v]:start[v + 1]]
    # (columns ascending); dof row 2v holds their x-y column pairs from slot
    # 4 start[v] on, dof row 2v + 1 the same from 4 start[v] + 2 deg[v] on
    row_v, col_v = np.divmod(pairs[:n_pairs], nk)
    del pairs
    deg = np.bincount(row_v, minlength=nk)
    start = np.zeros(nk + 1, dtype=np.int64)
    np.cumsum(deg, out=start[1:])
    nnz = 4 * n_pairs
    indptr = np.empty(2 * nk + 1, dtype=np.int32)
    indptr[0:-1:2] = 4 * start[:-1]
    indptr[1::2] = 4 * start[:-1] + 2 * deg
    indptr[-1] = nnz
    # slot of each pair's (x, x) entry; (y, x) sits 2 deg[v] further on
    at_x = 2 * (np.arange(n_pairs) + start[row_v])
    at_y = at_x + 2 * deg[row_v]
    del start, deg, row_v
    indices = np.empty(nnz, dtype=np.int32)
    for at in (at_x, at_y):
        indices[at] = 2 * col_v
        indices[at + 1] = 2 * col_v + 1
    del col_v

    # per-pair sums of b_i b_j, c_i c_j, b_i c_j, c_i b_j over 4 Delta; the
    # closed forms are linear in them
    q = 0.25 / area[:, None, None]
    bb, cc, b_c, c_b = (pair_sums(u[:, :, None] * v[:, None, :] * q) for u, v in ((b, b), (c, c), (b, c), (c, b)))
    del q
    lam, mu = params.lam, params.mu
    stiff = np.empty(nnz)
    stiff[at_x] = (lam + 2 * mu) * bb + mu * cc
    stiff[at_x + 1] = lam * b_c + mu * c_b
    stiff[at_y] = lam * c_b + mu * b_c
    stiff[at_y + 1] = (lam + 2 * mu) * cc + mu * bb

    mass = np.zeros(nnz)
    m = pair_sums(area[:, None, None] / 12.0 * (1.0 + np.eye(3)))
    mass[at_x] = m
    mass[at_y + 1] = m

    shape = (2 * nk, 2 * nk)
    A = sp.csr_matrix((stiff, indices, indptr), shape=shape)
    # M gets its own index arrays, so that an in-place edit of one operator
    # (eliminate_zeros, sort_indices) cannot reach the other
    M = sp.csr_matrix((mass, indices.copy(), indptr.copy()), shape=shape)
    return Operators(stiffness=A, mass=M, free_dofs=free, mesh=mesh, params=params, bc=bc)
