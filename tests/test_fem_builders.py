"""Vectorised mesh and element builders against their loop formulations."""

import math
import tracemalloc

import numpy as np
import pytest

import scipy.sparse as sp

from elastica.fem import assemble, unit_disk_mesh, unit_square_mesh
from elastica.fem.mesh import _orient_ccw
from elastica.params import BoundaryCondition as BC
from elastica.params import LameParams


def _loop_disk(n_rings):
    """Vertices, triangles (before orientation) and sixth turn, vertex by vertex."""
    verts = [(0.0, 0.0)]
    ring_start = [0]
    for i in range(1, n_rings + 1):
        ring_start.append(len(verts))
        r = i / n_rings
        cnt = 6 * i
        for j in range(cnt):
            th = 2.0 * math.pi * j / cnt
            verts.append((r * math.cos(th), r * math.sin(th)))
    tris = []
    for i in range(1, n_rings + 1):
        out0, n_out = ring_start[i], 6 * i
        if i == 1:
            for j in range(n_out):
                tris.append((0, out0 + j, out0 + (j + 1) % n_out))
            continue
        in0, n_in = ring_start[i - 1], 6 * (i - 1)
        j = l = 0
        while j < n_out or l < n_in:
            adv_out = j < n_out and (l >= n_in or (j + 1) / n_out <= (l + 1) / n_in)
            if adv_out:
                tris.append((in0 + l % n_in, out0 + j, out0 + (j + 1) % n_out))
                j += 1
            else:
                tris.append((in0 + l % n_in, out0 + j % n_out, in0 + (l + 1) % n_in))
                l += 1
    boundary = np.zeros(len(verts), dtype=bool)
    boundary[ring_start[n_rings]:] = True
    sixth_turn = np.zeros(len(verts), dtype=np.int64)
    for i in range(1, n_rings + 1):
        for j in range(6 * i):
            sixth_turn[ring_start[i] + j] = ring_start[i] + (j + i) % (6 * i)
    return np.array(verts), np.array(tris), boundary, sixth_turn


def _loop_square(m):
    tris = []
    for i in range(m):
        for j in range(m):
            v00, v10 = i * (m + 1) + j, (i + 1) * (m + 1) + j
            v01, v11 = i * (m + 1) + j + 1, (i + 1) * (m + 1) + j + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return np.array(tris)


@pytest.mark.parametrize("n_rings", list(range(2, 21)) + [48, 51])
def test_disk_mesh_equals_vertex_loops(n_rings):
    verts, tris, boundary, sixth_turn = _loop_disk(n_rings)
    mesh = unit_disk_mesh(n_rings)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, _orient_ccw(verts, tris.astype(np.int32)))
    assert np.array_equal(mesh.boundary, boundary)
    assert np.array_equal(mesh.rotation, sixth_turn)


@pytest.mark.parametrize("m", range(2, 18))
def test_square_mesh_equals_cell_loop(m):
    mesh = unit_square_mesh(m)
    xs = np.linspace(0.0, 1.0, m + 1)
    verts = np.array([(x, y) for x in xs for y in xs])
    on_edge = (verts == 0.0) | (verts == 1.0)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, _orient_ccw(verts, _loop_square(m).astype(np.int32)))
    assert np.array_equal(mesh.boundary, on_edge.any(axis=1))
    assert np.array_equal(mesh.rotation, np.arange(len(verts))[::-1])


def _einsum_operators(mesh, params, bc):
    """Stiffness and mass by the three-operand einsum and the per-entry mass loop."""
    p = mesh.vertices[mesh.triangles]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    nt = len(area)
    B = np.zeros((nt, 3, 6))
    for i in range(3):
        B[:, 0, 2 * i] = b[:, i] / (2.0 * area)
        B[:, 1, 2 * i + 1] = c[:, i] / (2.0 * area)
        B[:, 2, 2 * i] = c[:, i] / (2.0 * area)
        B[:, 2, 2 * i + 1] = b[:, i] / (2.0 * area)
    lam, mu = params.lam, params.mu
    D = np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]])
    Ke = np.einsum("eji,jk,ekl->eil", B, D, B) * area[:, None, None]
    m_scalar = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    Me = np.zeros((nt, 6, 6))
    for i in range(3):
        for j in range(3):
            Me[:, 2 * i, 2 * j] = m_scalar[i, j] * area
            Me[:, 2 * i + 1, 2 * j + 1] = m_scalar[i, j] * area
    ndof = 2 * mesh.n_vertices
    K, M = np.zeros((ndof, ndof)), np.zeros((ndof, ndof))
    dofs = np.empty((nt, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    for e in range(nt):
        K[np.ix_(dofs[e], dofs[e])] += Ke[e]
        M[np.ix_(dofs[e], dofs[e])] += Me[e]
    free = np.arange(ndof) if bc is BC.FREE else np.flatnonzero(np.repeat(~mesh.boundary, 2))
    return K[np.ix_(free, free)], M[np.ix_(free, free)]


MESHES = [unit_disk_mesh(9), unit_square_mesh(10)]


@pytest.mark.parametrize("mesh", MESHES, ids=["disk", "square"])
@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.FREE])
def test_assembly_equals_einsum_formulas(mesh, bc):
    # lambda/mu from the incompressible side to lambda = -mu
    for lam in (0.7, 130.0, 0.0, -1.3):
        params = LameParams(1.3, lam)
        ops = assemble(mesh, params, bc)
        K, M = _einsum_operators(mesh, params, bc)
        for got, want in ((ops.stiffness.toarray(), K), (ops.mass.toarray(), M)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), lam


def _coo_pattern(mesh, bc):
    """CSR pattern and free dofs of the element-by-element COO assembly with
    the Dirichlet rows and columns sliced out afterwards."""
    nt = mesh.n_triangles
    dofs = np.empty((nt, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    ndof = 2 * mesh.n_vertices
    rows, cols = np.repeat(dofs, 6, axis=1).ravel(), np.tile(dofs, (1, 6)).ravel()
    full = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(ndof, ndof)).tocsr()
    free = np.arange(ndof) if bc is BC.FREE else np.flatnonzero(np.repeat(~mesh.boundary, 2))
    return full[free][:, free].tocsr(), free


@pytest.mark.parametrize("mesh", MESHES, ids=["disk", "square"])
@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.FREE])
def test_operators_are_canonical_csr_on_the_coo_pattern(mesh, bc):
    ops = assemble(mesh, LameParams(1.3, 0.7), bc)
    want, free = _coo_pattern(mesh, bc)
    assert np.array_equal(ops.free_dofs, free)
    for a in (ops.stiffness, ops.mass):
        assert isinstance(a, sp.csr_matrix) and a.shape == want.shape
        assert np.array_equal(a.indptr, want.indptr) and np.array_equal(a.indices, want.indices)
        # columns strictly ascending within every row: sorted, no duplicates
        step = np.diff(a.indices)
        row_start = np.zeros(a.nnz, dtype=bool)
        row_start[a.indptr[1:-1]] = True
        assert np.all((step > 0) | row_start[1:])
    # the mass keeps its x-y entries as stored zeros
    row = np.repeat(np.arange(ops.n), np.diff(ops.mass.indptr))
    assert np.all(ops.mass.data[ops.mass.indices % 2 != row % 2] == 0)


@pytest.mark.parametrize("n_rings,bc", [(48, BC.DIRICHLET), (51, BC.FREE)])
def test_assembly_memory_peak_is_bounded_by_its_output(n_rings, bc):
    # traced numpy allocations, so the bound does not depend on the allocator
    mesh = unit_disk_mesh(n_rings)
    params = LameParams(1.0, 1.0)
    assemble(mesh, params, bc)
    tracemalloc.start()
    try:
        ops = assemble(mesh, params, bc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(arr.nbytes for a in (ops.stiffness, ops.mass) for arr in (a.data, a.indices, a.indptr))
    assert peak <= 4 * out
