"""P1 vector-element assembly of the elastic stiffness and consistent mass.

Bilinear form a(u, v) = int 2*mu*eps(u):eps(v) + lambda*(div u)(div v); the
traction-free condition is natural, Dirichlet rows/columns are eliminated.
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

# consistent P1 mass of a unit-area triangle on the interleaved dofs (u_x, u_y)
# of its three vertices
_UNIT_MASS = np.kron(np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0, np.eye(2))


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

    v = mesh.vertices
    t = mesh.triangles
    p = v[t]  # (nt, 3, 2)
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    if np.any(area <= 0):
        raise MeshError("non-positively-oriented or degenerate element")

    nt = t.shape[0]
    # B is 3 x 6 per element (rows exx, eyy, gxy), entries b/2A and c/2A
    inv2a = 1.0 / (2.0 * area)
    B = np.zeros((nt, 3, 6))
    for i in range(3):
        B[:, 0, 2 * i] = b[:, i] * inv2a
        B[:, 1, 2 * i + 1] = c[:, i] * inv2a
        B[:, 2, 2 * i] = c[:, i] * inv2a
        B[:, 2, 2 * i + 1] = b[:, i] * inv2a
    lam, mu = params.lam, params.mu
    D = np.array(
        [[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]]
    )
    Ke = B.transpose(0, 2, 1) @ (D @ B) * area[:, None, None]
    Me = _UNIT_MASS * area[:, None, None]

    dofs = np.empty((nt, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * t
    dofs[:, 1::2] = 2 * t + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    ndof = 2 * mesh.n_vertices
    A = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    M = sp.coo_matrix((Me.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()

    if bc is BoundaryCondition.DIRICHLET:
        keep_vertex = ~mesh.boundary
        free = np.where(np.repeat(keep_vertex, 2))[0]
        A = A[free][:, free].tocsr()
        M = M[free][:, free].tocsr()
    else:
        free = np.arange(ndof)
    return Operators(stiffness=A, mass=M, free_dofs=free, mesh=mesh, params=params, bc=bc)
