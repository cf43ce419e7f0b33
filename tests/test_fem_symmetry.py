"""Rotation-symmetry blocks of the FEM eigenproblem."""

import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from elastica.errors import SolverError
from elastica.fem import (
    assemble,
    fem_extrapolated_spectrum,
    fem_spectrum,
    solve_eigs,
    unit_disk_mesh,
    unit_square_mesh,
)
from elastica.fem import eigs as eigs_mod
from elastica.fem.mesh import Mesh
from elastica.fem.symmetry import symmetry_blocks
from elastica.params import BoundaryCondition as BC
from elastica.params import LameParams, UNIT_DISK, UNIT_SQUARE
from elastica.spectrum import merge_close, read_spectrum, write_spectrum

PDEC = LameParams(1.0, -1.0)
P11 = LameParams(1.0, 1.0)


def _whole(mesh):
    """The mesh without its rotation group: one block, the whole operator."""
    return Mesh(mesh.domain, mesh.h, mesh.vertices, mesh.triangles, mesh.boundary)


@pytest.mark.parametrize(
    "mesh, order, centre",
    [
        (unit_disk_mesh(7), 6, (0.0, 0.0)),
        (unit_square_mesh(6), 2, (0.5, 0.5)),
        (unit_square_mesh(7), 2, (0.5, 0.5)),
    ],
)
def test_rotation_maps_the_mesh_onto_itself(mesh, order, centre):
    assert mesh.rotation_order == order
    th = 2.0 * np.pi / order
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    c = np.array(centre)
    image = (mesh.vertices - c) @ rot.T + c
    assert np.max(np.abs(image - mesh.vertices[mesh.rotation])) <= 1e-12
    assert np.array_equal(mesh.boundary[mesh.rotation], mesh.boundary)
    tris = {tuple(sorted(t)) for t in mesh.triangles.tolist()}
    assert {tuple(sorted(t)) for t in mesh.rotation[mesh.triangles].tolist()} == tris
    # the generator has order N exactly
    v = np.arange(mesh.n_vertices)
    for _ in range(order):
        v = mesh.rotation[v]
    assert np.array_equal(v, np.arange(mesh.n_vertices))


def test_mesh_without_symmetry_is_one_block():
    ops = assemble(_whole(unit_disk_mesh(6)), P11, BC.DIRICHLET)
    (blk,) = symmetry_blocks(ops)
    assert blk.basis is None and blk.weight == 1
    assert blk.stiffness is ops.stiffness and blk.mass is ops.mass


@pytest.mark.parametrize("mesh", [unit_disk_mesh(6), unit_square_mesh(6), unit_square_mesh(7)])
@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.FREE])
def test_blocks_are_an_isometric_split(mesh, bc):
    ops = assemble(mesh, P11, bc)
    blocks = symmetry_blocks(ops)
    assert len(blocks) == mesh.rotation_order // 2 + 1
    assert sum(b.weight * b.n for b in blocks) == ops.n
    A, M = ops.stiffness.toarray(), ops.mass.toarray()
    for b in blocks:
        q = b.basis.toarray()
        assert np.max(np.abs(q.conj().T @ q - np.eye(b.n))) <= 1e-14
        assert np.max(np.abs(q.conj().T @ A @ q - b.stiffness.toarray())) <= 1e-13 * np.abs(A).max()
        assert np.max(np.abs(q.conj().T @ M @ q - b.mass.toarray())) <= 1e-13 * np.abs(M).max()
        assert np.iscomplexobj(q) == (b.weight == 2)


def _assert_same_spectrum(got, want):
    """<= 1e-12 relative; numerically zero values to 1e-12 of the largest."""
    assert len(got) == len(want)
    scale = np.abs(want).max()
    floor = np.where(np.abs(want) > 1e-8 * scale, np.abs(want), scale)
    assert np.max(np.abs(got - want) / floor) <= 1e-12
    assert np.array_equal(merge_close(got)[1], merge_close(want)[1])


@pytest.mark.parametrize("mesh", [unit_disk_mesh(8), unit_square_mesh(8), unit_square_mesh(9)])
@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.FREE])
@pytest.mark.parametrize("mode", [{"count": 30}, {"lambda_max": 150.0}])
def test_block_spectra_match_full_eigh(mesh, bc, mode):
    ops = assemble(mesh, P11, bc)
    r = solve_eigs(ops, **mode)
    assert r.method == "dense" and len(r.block_sizes) == mesh.rotation_order // 2 + 1
    full = sla.eigh(ops.stiffness.toarray(), ops.mass.toarray(), eigvals_only=True)
    want = full[: mode["count"]] if "count" in mode else full[full < mode["lambda_max"]]
    _assert_same_spectrum(r.values, want)


@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.FREE])
@pytest.mark.parametrize("mode", [{"count": 40}, {"lambda_max": 100.0}])
def test_arpack_blocks_match_the_whole_operator(bc, mode):
    mesh = unit_disk_mesh(24)
    reduced = solve_eigs(assemble(mesh, P11, bc), **mode)
    whole = solve_eigs(assemble(_whole(mesh), P11, bc), **mode)
    assert min(reduced.block_sizes) > eigs_mod._DENSE_LIMIT
    assert reduced.method == whole.method == "lanczos"
    assert len(whole.block_sizes) == 1
    _assert_same_spectrum(reduced.values, whole.values)
    assert reduced.residuals.max() <= eigs_mod._RESID_TOL


def test_free_disk_zero_modes_sit_in_blocks_0_and_pm1():
    # rotation in m = 0; the translations in m = 1 and its conjugate m = 5 on
    # the C6 disk, both in the real block m = 1 of the C2 square (R = -I), and
    # all three in the one block of a mesh without a group
    cases = [
        (unit_disk_mesh(8), {0: 1, 1: 1, 2: 0, 3: 0}),
        (unit_square_mesh(8), {0: 1, 1: 2}),
        (_whole(unit_disk_mesh(6)), {0: 3}),
    ]
    for mesh, want in cases:
        ops = assemble(mesh, P11, BC.FREE)
        r = solve_eigs(ops, count=8)
        assert np.sum(np.abs(r.values) <= 1e-8 * r.values[-1]) == 3
        zeros = {}
        for b in symmetry_blocks(ops):
            vals = sla.eigh(b.stiffness.toarray(), b.mass.toarray(), eigvals_only=True)
            zeros[b.m] = int(np.sum(np.abs(vals) <= 1e-8 * vals.max()))
        assert zeros == want


def _count_live_factors(monkeypatch):
    """Replace ``_factor`` by one whose factors are proxies held in a WeakSet:
    (the live proxies, the number live at each ``_factor`` entry, the
    (block m, shift) of each factor)."""
    live, at_entry, made = weakref.WeakSet(), [], []
    current = []
    real_factor, real_block = eigs_mod._factor, eigs_mod._lanczos_block

    class Factor:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, b):  # a bound method: what holds it holds the proxy
            return self._lu.solve(b)

        @property
        def U(self):
            return self._lu.U

    def factor(A, M, shift):
        at_entry.append(len(live))
        made.append((current[-1], shift))
        f = Factor(real_factor(A, M, shift))
        live.add(f)
        return f

    def block(ops, norms, blk, tau, sigma):
        current.append(blk.m)
        return real_block(ops, norms, blk, tau, sigma)

    monkeypatch.setattr(eigs_mod, "_factor", factor)
    monkeypatch.setattr(eigs_mod, "_lanczos_block", block)
    return live, at_entry, made


def _fail_residuals_on_m1(monkeypatch, times):
    """``_residuals`` reports 1.0 for every pair of block m = 1, ``times`` times."""
    real = eigs_mod._residuals
    failed = []

    def residuals(ops, norms, blk, vecs):
        vals, res = real(ops, norms, blk, vecs)
        if blk.m == 1 and len(failed) < times:
            failed.append(blk.m)
            return vals, np.ones(len(vals))
        return vals, res

    monkeypatch.setattr(eigs_mod, "_residuals", residuals)
    return failed


@pytest.mark.parametrize(
    "bc, mode",
    [(BC.DIRICHLET, {"lambda_max": 100.0}), (BC.FREE, {"lambda_max": 100.0}), (BC.DIRICHLET, {"count": 40})],
)
def test_a_clean_solve_makes_one_factor_per_block(monkeypatch, bc, mode):
    # the factor that ARPACK inverts also counts the block's values: one splu
    # call per sparse block, where a separate inertia factor made two
    ops = assemble(unit_disk_mesh(24), P11, bc)
    blocks = symmetry_blocks(ops)
    assert min(b.n for b in blocks) > eigs_mod._DENSE_LIMIT
    real_splu = spla.splu
    factors = []

    def splu(*args, **kwargs):
        factors.append(args[0].shape[0])
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    r = solve_eigs(ops, **mode)
    assert r.method == "lanczos" and r.residuals.max() <= eigs_mod._RESID_TOL
    assert factors == [b.n for b in blocks]


def test_count_mode_raises_tau_until_the_union_holds_count(monkeypatch):
    # a first tau at half its place holds too few values: every block is
    # factored again at one higher tau, and the result is the whole operator's
    mesh = unit_disk_mesh(24)
    want = solve_eigs(assemble(_whole(mesh), P11, BC.DIRICHLET), count=40).values
    real_first = eigs_mod._first_tau
    monkeypatch.setattr(eigs_mod, "_first_tau", lambda ops, count: 0.5 * real_first(ops, count))
    _, _, made = _count_live_factors(monkeypatch)
    r = solve_eigs(assemble(mesh, P11, BC.DIRICHLET), count=40)
    assert [m for m, _ in made] == [0, 1, 2, 3, 0, 1, 2, 3]
    first, second = {s for _, s in made[:4]}, {s for _, s in made[4:]}
    assert len(first) == len(second) == 1 and min(second) > max(first)
    _assert_same_spectrum(r.values, want)


def test_cutoff_mode_needs_no_estimate(monkeypatch):
    # tau is the cutoff itself, so no Weyl estimate sizes a block and no block
    # grows: each is factored once, at the cutoff
    mesh = unit_disk_mesh(24)
    want = solve_eigs(assemble(_whole(mesh), P11, BC.DIRICHLET), lambda_max=100.0).values

    def estimate(*args):
        raise AssertionError("cutoff mode read the Weyl estimate")

    monkeypatch.setattr(eigs_mod, "weyl_count_estimate", estimate)
    monkeypatch.setattr(eigs_mod, "_weyl_terms", estimate)
    _, _, made = _count_live_factors(monkeypatch)
    r = solve_eigs(assemble(mesh, P11, BC.DIRICHLET), lambda_max=100.0)
    assert made == [(0, 100.0), (1, 100.0), (2, 100.0), (3, 100.0)]
    _assert_same_spectrum(r.values, want)


def test_a_block_that_cannot_grow_raises():
    # more values than unknowns: every dense block is complete and still short
    ops = assemble(unit_disk_mesh(3), P11, BC.DIRICHLET)
    with pytest.raises(SolverError, match="cannot grow"):
        solve_eigs(ops, count=ops.n + 1)


@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.FREE])
def test_cutoff_mode_certifies_every_block_through_the_cutoff(monkeypatch, bc):
    # every factor's shift, whose negative pivots count the block's values,
    # is the cutoff or above, so no block can hide a value between its
    # certified bound and the cutoff
    ops = assemble(unit_disk_mesh(24), P11, bc)
    shifts, bounds = [], []
    real_factor, real_block = eigs_mod._factor, eigs_mod._lanczos_block

    def factor(A, M, shift):
        shifts.append(shift)
        return real_factor(A, M, shift)

    def block(*args):
        part = real_block(*args)
        bounds.append(part.tau)
        return part

    monkeypatch.setattr(eigs_mod, "_factor", factor)
    monkeypatch.setattr(eigs_mod, "_lanczos_block", block)
    solve_eigs(ops, lambda_max=100.0)
    assert len(shifts) == len(bounds) == len(symmetry_blocks(ops))
    assert min(shifts) >= 100.0 and min(bounds) >= 100.0


@pytest.mark.parametrize("drops", [1, None])
def test_inertia_catches_a_copy_dropped_inside_a_block(monkeypatch, drops):
    # lambda = -mu: block m = 0 of the 24-ring disk opens with j11^2 twice;
    # its first ARPACK answer loses one copy, residuals stay tiny
    ops = assemble(unit_disk_mesh(24), PDEC, BC.DIRICHLET)
    blocks = symmetry_blocks(ops)
    assert min(b.n for b in blocks) > eigs_mod._DENSE_LIMIT
    real_eigsh, real_splu = spla.eigsh, spla.splu
    calls, factors = [], []

    def eigsh(*args, **kwargs):
        calls.append(args[0].shape[0])
        vals, vecs = real_eigsh(*args, **kwargs)
        if drops is None or len(calls) <= drops:
            keep = np.delete(np.argsort(vals), 0)
            vals, vecs = vals[keep], vecs[:, keep]
        return vals, vecs

    def splu(*args, **kwargs):
        factors.append(args[0].shape[0])
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", eigsh)
    monkeypatch.setattr(spla, "splu", splu)
    if drops is None:
        with pytest.raises(SolverError, match="inertia"):
            solve_eigs(ops, count=10)
        return
    r = solve_eigs(ops, count=10)
    # block 0 twice (the tau start, then the fallback), then one call per block
    assert len(calls) == 5
    # block 0: tau (its count refuses the answer), then one factor below the
    # spectrum; one for each other block
    assert len(factors) == 5
    reps, mults = merge_close(r.values)
    assert list(mults) == [2, 4, 4]


def test_singular_free_cutoff_needs_no_growth(monkeypatch):
    # lambda = -mu, traction free: CFLV's b is infinite, and a Weyl estimate
    # that took Liu's b_plus alone once sized every block too small.  Every
    # block is factored once at the cutoff; a tau start that is not certified
    # adds one factor below the spectrum, and nothing else is factored
    ops = assemble(unit_disk_mesh(48), PDEC, BC.FREE)
    _, _, made = _count_live_factors(monkeypatch)
    r = solve_eigs(ops, lambda_max=60.0)
    assert r.method == "lanczos" and min(r.block_sizes) > eigs_mod._DENSE_LIMIT
    assert [m for m, s in made if s == 60.0] == [0, 1, 2, 3]
    fallback = [m for m, s in made if s != 60.0]
    assert all(s == -0.2 * PDEC.mu for _, s in made if s != 60.0)
    assert len(set(fallback)) == len(fallback)
    assert np.sum(np.abs(r.values) <= 1e-8 * r.values[-1]) >= 3


@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.FREE])
@pytest.mark.parametrize("mode", [{"count": 40}, {"lambda_max": 100.0}])
@pytest.mark.parametrize("retries", [0, 1, None])
def test_one_superlu_factor_is_alive_at_a_time(monkeypatch, bc, mode, retries):
    # the cyclic collector is off, so a factor that only a reference cycle
    # frees (eigsh -> eigs on a complex block) stays counted; retries = 1
    # refuses block m = 1's tau start, None refuses it and every seed after
    ops = assemble(unit_disk_mesh(24), P11, bc)
    assert min(b.n for b in symmetry_blocks(ops)) > eigs_mod._DENSE_LIMIT
    live, at_entry, made = _count_live_factors(monkeypatch)
    failed = _fail_residuals_on_m1(monkeypatch, 1 + len(eigs_mod._SEEDS) if retries is None else retries)
    enabled = gc.isenabled()
    gc.disable()
    try:
        if retries is None:
            with pytest.raises(SolverError, match="residual"):
                solve_eigs(ops, **mode)
        else:
            r = solve_eigs(ops, **mode)
        alive_after = len(live)
    finally:
        if enabled:
            gc.enable()
    assert len(at_entry) >= 2 and max(at_entry) == 0
    assert alive_after == 0
    m1 = [s for m, s in made if m == 1]
    if retries is None:
        # the tau start, then every seed on the one factor below the spectrum
        assert len(failed) == 1 + len(eigs_mod._SEEDS) and len(m1) == 2
        return
    assert r.method == "lanczos" and len(failed) == retries
    # the tau factor, and after a refused start one factor below the spectrum
    assert len(m1) == 1 + retries


@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.FREE])
def test_a_refused_tau_start_falls_back_to_one_factor_below_the_spectrum(monkeypatch, bc):
    ops = assemble(unit_disk_mesh(24), P11, bc)
    want = solve_eigs(ops, lambda_max=100.0)
    sigma = 0.0 if bc is BC.DIRICHLET else -0.2 * P11.mu
    _, at_entry, made = _count_live_factors(monkeypatch)
    failed = _fail_residuals_on_m1(monkeypatch, 1)
    r = solve_eigs(ops, lambda_max=100.0)
    assert failed == [1]
    assert made == [(0, 100.0), (1, 100.0), (1, sigma), (2, 100.0), (3, 100.0)]
    assert max(at_entry) == 0
    _assert_same_spectrum(r.values, want.values)
    assert r.residuals.max() <= eigs_mod._RESID_TOL


@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.FREE])
def test_a_cutoff_on_an_eigenvalue_moves_tau_off_it(monkeypatch, bc):
    # the cutoff set to a value v of a first solve: the inertia count at v
    # hinges on rounding, so where a Ritz value lands on v, tau moves up off
    # it and is factored again; v itself is on the cutoff, not below it
    ops = assemble(unit_disk_mesh(24), P11, bc)
    first = solve_eigs(ops, lambda_max=100.0).values
    sigma = 0.0 if bc is BC.DIRICHLET else -0.2 * P11.mu
    _, _, made = _count_live_factors(monkeypatch)
    moved = 0
    for v in np.unique(first)[-8:]:
        made.clear()
        r = solve_eigs(ops, lambda_max=float(v))
        _assert_same_spectrum(r.values, first[first < v])
        assert r.residuals.max() <= eigs_mod._RESID_TOL
        assert [m for m, s in made if s == v] == [0, 1, 2, 3]
        # any other factor is a moved tau, or a fallback below the spectrum
        assert all(s > v or s == sigma for _, s in made if s != v)
        moved += any(s > v for _, s in made)
    assert moved >= 1


def test_fem_spectrum_records_its_reduction(tmp_path):
    sp = fem_spectrum(UNIT_DISK, P11, BC.DIRICHLET, 8, 100.0)
    assert sp.meta["symmetry"] == "C6"
    sizes = [int(n) for n in sp.meta["blocks"].split("/")]
    assert len(sizes) == 4 and sizes[0] + 2 * sizes[1] + 2 * sizes[2] + sizes[3] == 2 * (1 + 3 * 7 * 8)
    write_spectrum(sp, tmp_path / "s.fem.csv")
    back = read_spectrum(tmp_path / "s.fem.csv")
    assert back.meta["symmetry"] == "C6" and back.meta["blocks"] == sp.meta["blocks"]
    # a Richardson spectrum lists the blocks of each level
    sq, _ = fem_extrapolated_spectrum(UNIT_SQUARE, PDEC, BC.DIRICHLET, [4, 8, 16], 60.0)
    assert sq.meta["symmetry"] == "C2"
    assert sq.meta["blocks"] == "8/10,48/50,224/226"


def test_residual_gate_does_not_depend_on_units():
    # mu = lambda = 1e3 scales A by 1e3 and leaves M alone; the old gate on
    # ||A x - lam M x|| / ||M x|| refused this solve on every seed
    mesh = unit_disk_mesh(24)
    unit = solve_eigs(assemble(mesh, P11, BC.DIRICHLET), count=41)
    big = solve_eigs(assemble(mesh, LameParams(1e3, 1e3), BC.DIRICHLET), count=41)
    assert big.method == "lanczos" and len(big.values) == 41
    np.testing.assert_allclose(big.values, 1e3 * unit.values, rtol=1e-10)
    assert big.residuals.max() <= eigs_mod._RESID_TOL


def test_residual_gate_rejects_a_perturbed_vector(monkeypatch):
    # every ARPACK answer has its lowest vector replaced by itself plus 1e-4
    # of the vector of its highest value
    ops = assemble(unit_disk_mesh(24), P11, BC.DIRICHLET)
    real_eigsh = spla.eigsh

    def eigsh(*args, **kwargs):
        vals, vecs = real_eigsh(*args, **kwargs)
        vecs[:, np.argmin(vals)] += 1e-4 * vecs[:, np.argmax(vals)]
        return vals, vecs

    monkeypatch.setattr(spla, "eigsh", eigsh)
    with pytest.raises(SolverError, match=rf"residual \S+ above {eigs_mod._RESID_TOL:g} \(seed 4\)"):
        solve_eigs(ops, count=10)
