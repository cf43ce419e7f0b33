"""Mesh, assembly, eigensolver, analytic spectra, extrapolation."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from elastica.errors import MeshError, ParameterDomainError, SingularLimitError, SolverError
from elastica.fem import (
    EigResult,
    analytic_decoupled_spectrum,
    assemble,
    disk_dirichlet_spectrum,
    fem_extrapolated_spectrum,
    fem_spectrum,
    min_angle_deg,
    refine_and_extrapolate,
    solve_eigs,
    square_dirichlet_spectrum,
    square_neumann_lattice_spectrum,
    unit_disk_mesh,
    unit_square_mesh,
)
from elastica.fem import eigs as eigs_mod
from elastica.fem.mesh import Mesh, _signed_areas
from elastica.params import BoundaryCondition as BC
from elastica.params import LameParams, UNIT_DISK, UNIT_SQUARE
from elastica.specfun import bessel_zeros
from elastica.spectrum import merge_close

PDEC = LameParams(1.0, -1.0)
P11 = LameParams(1.0, 1.0)


def test_square_mesh_quality():
    m = unit_square_mesh(8)
    assert min_angle_deg(m) >= 20.0
    assert np.all(_signed_areas(m.vertices, m.triangles) > 0)
    assert abs(_signed_areas(m.vertices, m.triangles).sum() - 1.0) < 1e-12
    on_edge = (
        (np.abs(m.vertices[:, 0]) < 1e-12) | (np.abs(m.vertices[:, 0] - 1) < 1e-12)
        | (np.abs(m.vertices[:, 1]) < 1e-12) | (np.abs(m.vertices[:, 1] - 1) < 1e-12)
    )
    assert np.array_equal(on_edge, m.boundary)


def test_disk_mesh_quality():
    m = unit_disk_mesh(10)
    assert min_angle_deg(m) >= 20.0
    r = np.linalg.norm(m.vertices[m.boundary], axis=1)
    assert np.max(np.abs(r - 1.0)) < 1e-12
    # inscribed polygon area approaches pi from below
    area = _signed_areas(m.vertices, m.triangles).sum()
    assert 0.99 * math.pi < area < math.pi


def test_mesh_validation():
    with pytest.raises(MeshError):
        unit_square_mesh(1)
    with pytest.raises(MeshError):
        unit_disk_mesh(1)


def test_rigid_motions_have_zero_energy():
    mesh = unit_square_mesh(10)
    ops = assemble(mesh, P11, BC.FREE)
    nv = mesh.n_vertices
    scale = abs(ops.stiffness).sum()
    for u in (
        np.tile([1.0, 0.0], nv),
        np.tile([0.0, 1.0], nv),
        np.column_stack([-mesh.vertices[:, 1], mesh.vertices[:, 0]]).ravel(),
    ):
        assert abs(u @ (ops.stiffness @ u)) <= 1e-12 * scale


def test_stiffness_symmetric():
    ops = assemble(unit_disk_mesh(8), P11, BC.DIRICHLET)
    d = ops.stiffness - ops.stiffness.T
    norm = np.abs(ops.stiffness).max()
    assert np.abs(d.toarray()).max() <= 1e-13 * norm


def test_energy_identity_at_decoupling():
    # u = (phi, 0), phi in H^1_0: a(u,u) with lambda=-mu equals mu * int |grad phi|^2
    mesh = unit_square_mesh(12)
    ops_e = assemble(mesh, PDEC, BC.DIRICHLET)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    phi = np.sin(math.pi * x) * np.sin(math.pi * y) * x * (1 - x)
    u_full = np.zeros(2 * mesh.n_vertices)
    u_full[0::2] = phi
    u = u_full[ops_e.free_dofs]
    energy = u @ (ops_e.stiffness @ u)
    # P1 gradient energy of the scalar field on the same mesh
    p = mesh.vertices[mesh.triangles]
    b = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], axis=1)
    c = np.stack([p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    vals = phi[mesh.triangles]
    gx = np.sum(vals * b, axis=1) / (2 * area)
    gy = np.sum(vals * c, axis=1) / (2 * area)
    scalar_energy = np.sum(area * (gx**2 + gy**2))
    assert abs(energy - scalar_energy) < 1e-10 * scalar_energy


def test_square_dirichlet_lowest_doublet():
    ops = assemble(unit_square_mesh(16), PDEC, BC.DIRICHLET)
    r = solve_eigs(ops, lambda_max=30.0)
    exact = 2.0 * math.pi**2
    assert len(r.values) == 2  # the next value is 5 pi^2 or above
    assert abs(r.values[0] - exact) / exact < 2e-2  # O(h^2)
    assert abs(r.values[1] - r.values[0]) < 1e-8 * exact  # multiplicity 2
    assert r.residuals.max() <= eigs_mod._RESID_TOL


def test_disk_dirichlet_lowest():
    ops = assemble(unit_disk_mesh(16), PDEC, BC.DIRICHLET)
    r = solve_eigs(ops, lambda_max=10.0)
    exact = bessel_zeros(0, 1)[0] ** 2
    assert len(r.values) == 2  # the next value is j11^2 or above
    assert abs(r.values[0] - exact) / exact < 2e-2
    assert abs(r.values[1] - r.values[0]) < 1e-6 * exact


def test_free_kernel_dimension_exactly_three():
    for mesh in (unit_square_mesh(10), unit_disk_mesh(8)):
        ops = assemble(mesh, P11, BC.FREE)
        r = solve_eigs(ops, lambda_max=20.0)
        assert len(r.values) > 3
        scale = abs(r.values[-1])
        zeros = np.sum(np.abs(r.values) <= 1e-8 * scale)
        assert zeros == 3


def test_domain_monotonicity_dirichlet():
    # eigenvalues of a shrunk square dominate the unit square's
    mesh = unit_square_mesh(12)
    sub = Mesh(
        domain=mesh.domain,
        h=0.9 * mesh.h,
        vertices=0.9 * mesh.vertices,
        triangles=mesh.triangles,
        boundary=mesh.boundary,
    )
    r_unit = solve_eigs(assemble(mesh, P11, BC.DIRICHLET), lambda_max=150.0)
    r_sub = solve_eigs(assemble(sub, P11, BC.DIRICHLET), lambda_max=150.0)
    k = len(r_sub.values)
    assert 5 <= k <= len(r_unit.values)
    assert np.all(r_sub.values >= r_unit.values[:k] - 1e-9)


def _whole(mesh):
    """The mesh without its rotation group: one block, the whole operator."""
    return Mesh(mesh.domain, mesh.h, mesh.vertices, mesh.triangles, mesh.boundary)


def test_sparse_lanczos_matches_dense():
    mesh = _whole(unit_disk_mesh(18))  # above the dense limit
    ops = assemble(mesh, P11, BC.DIRICHLET)
    assert ops.n > 1200
    cut = 45.0
    r_sparse = solve_eigs(ops, lambda_max=cut)
    assert r_sparse.method == "lanczos"
    dense = sla.eigh(ops.stiffness.toarray(), ops.mass.toarray(), eigvals_only=True)
    dense = dense[dense < cut]
    assert len(r_sparse.values) == len(dense) == 8
    assert np.max(np.abs(r_sparse.values - dense) / dense) < 1e-9


def test_refine_and_extrapolate_square():
    # the ten lowest values, through 10 pi^2, of a study cut at 100
    r = refine_and_extrapolate(UNIT_SQUARE, PDEC, BC.DIRICHLET, [8, 16, 32], 100.0)
    exact = np.repeat(
        np.array(sorted(math.pi**2 * (p * p + q * q) for p in range(1, 8) for q in range(1, 8))), 2
    )[:10]
    assert r.extrapolated.max() >= 100.0
    rel = np.abs(r.extrapolated[:10] - exact) / exact
    assert np.max(rel) < 1e-3
    orders = r.observed_order[:10]
    orders = orders[~np.isnan(orders)]
    assert np.all((orders > 1.7) & (orders < 2.3))


def test_richardson_step_matches_the_per_eigenvalue_rule(monkeypatch):
    # planted levels: monotone (extrapolated), non-monotone (flagged, kept),
    # converged to 1e-14 (kept), and a first level pair that does not move (kept)
    from elastica.fem import refine

    levels = iter([
        np.array([1.2, 2.0, 3.0 + 4e-14, 4.0, 5.3]),
        np.array([1.05, 2.1, 3.0 + 2e-14, 4.0, 5.1]),
        np.array([1.01, 2.05, 3.0, 3.9, 5.02]),
    ])
    monkeypatch.setattr(refine, "solve_eigs", lambda ops, lambda_max: EigResult(next(levels), None, "dense", (1,)))
    r = refine_and_extrapolate(UNIT_SQUARE, PDEC, BC.DIRICHLET, [2, 4, 8], 4.0)
    e1, e2, e3 = r.raw
    want, order, flagged = e3.copy(), np.full(5, np.nan), np.zeros(5, dtype=bool)
    for i in range(5):
        d12, d23 = e1[i] - e2[i], e2[i] - e3[i]
        if d12 * d23 <= 0 or abs(d23) < 1e-14 * max(abs(e3[i]), 1.0):
            flagged[i] = d12 * d23 < 0
            continue
        order[i] = math.log(d12 / d23) / math.log(2.0)
        want[i] = e3[i] - d23 / (2.0 ** order[i] - 1.0)
    assert list(r.flagged) == list(flagged) == [False, True, False, False, False]
    np.testing.assert_allclose(r.observed_order, order, rtol=1e-14)
    np.testing.assert_allclose(r.extrapolated, want, rtol=1e-15)
    assert not np.isnan(order[[0, 4]]).any() and np.isnan(order[1:4]).all()


def test_refine_validation():
    with pytest.raises(ParameterDomainError):
        refine_and_extrapolate(UNIT_SQUARE, PDEC, BC.DIRICHLET, [8, 16], 4)
    with pytest.raises(ParameterDomainError):
        refine_and_extrapolate(UNIT_SQUARE, PDEC, BC.DIRICHLET, [8, 16, 30], 4)


def test_square_lattice_spectrum():
    sp = square_dirichlet_spectrum(1.0, 100.0)
    assert abs(sp.eigenvalues[0] - 2 * math.pi**2) < 1e-12
    assert sp.multiplicities[0] == 2
    assert abs(sp.eigenvalues[1] - 5 * math.pi**2) < 1e-12
    assert sp.multiplicities[1] == 4  # (1,2) and (2,1), doubled


def test_square_lattice_count_brute_force():
    sp = square_dirichlet_spectrum(1.0, 1e4)
    brute = sum(
        2
        for p in range(1, 40)
        for q in range(1, 40)
        if math.pi**2 * (p * p + q * q) < 1e4
    )
    assert sp.count_below(1e4) == brute


def test_neumann_lattice_includes_zero():
    sp = square_neumann_lattice_spectrum(1.0, 50.0)
    assert sp.eigenvalues[0] == 0.0
    assert sp.multiplicities[0] == 2  # (0,0) doubled
    assert abs(sp.eigenvalues[1] - math.pi**2) < 1e-12
    assert sp.multiplicities[1] == 4  # (0,1), (1,0) doubled


def test_disk_analytic_smallest_four():
    sp = disk_dirichlet_spectrum(1.0, 60.0)
    z01, z11, z21, z02 = (
        bessel_zeros(0, 2)[0],
        bessel_zeros(1, 1)[0],
        bessel_zeros(2, 1)[0],
        bessel_zeros(0, 2)[1],
    )
    expect = sorted([z01**2, z11**2, z21**2, z02**2])
    got = sp.eigenvalues[:4]
    assert np.allclose(got, expect, rtol=1e-12)
    assert list(sp.multiplicities[:4]) == [2, 4, 4, 2]


def _square_lattice_loop(mu, lambda_max, include_zero):
    """Oracle: the lattice counted cell by cell."""
    nmax = int(math.sqrt(lambda_max / (mu * math.pi**2))) + 1
    lo = 0 if include_zero else 1
    counts = {}
    for p in range(lo, nmax + 1):
        for q in range(lo, nmax + 1):
            s = p * p + q * q
            if mu * math.pi**2 * s <= lambda_max:
                counts[s] = counts.get(s, 0) + 1
    items = sorted(counts.items())
    values = np.array([mu * math.pi**2 * s for s, _ in items])
    return values, np.array([2 * c for _, c in items], dtype=int), [f"pq{s}" for s, _ in items]


def test_square_lattice_matches_cell_loop():
    for mu in (0.7, 1.0):
        for lam_max in (50.0, 3e4, 1e5):
            for sp, zero in ((square_dirichlet_spectrum(mu, lam_max), False),
                             (square_neumann_lattice_spectrum(mu, lam_max), True)):
                values, mults, tags = _square_lattice_loop(mu, lam_max, zero)
                assert np.array_equal(sp.eigenvalues, values)
                assert np.array_equal(sp.multiplicities, mults)
                assert list(sp.mode_tags) == tags


def test_disk_analytic_one_zero_call_matches_order_loop(monkeypatch):
    from elastica.fem import analytic

    calls = []

    def counted(k, m, **kw):
        calls.append(k)
        return bessel_zeros(k, m, **kw)

    monkeypatch.setattr(analytic, "bessel_zeros", counted)
    for mu in (0.98, 1.0, 1.02):
        for lam_max in (50.0, 800.0, 5e3):
            calls.clear()
            sp = disk_dirichlet_spectrum(mu, lam_max)
            assert len(calls) == 1
            # oracle: one zero table per order until an order has no zero below jmax
            jmax = math.sqrt(lam_max / mu)
            entries, k = [], 0
            while True:
                zeros = bessel_zeros(k, int(jmax / math.pi) + 2)
                zeros = zeros[zeros <= jmax]
                if zeros.size == 0:
                    break
                entries += [(mu * z * z, 2 if k == 0 else 4, f"k{k}m{m}") for m, z in enumerate(zeros, start=1)]
                k += 1
            entries.sort()
            assert np.array_equal(sp.eigenvalues, [e[0] for e in entries])
            assert np.array_equal(sp.multiplicities, [e[1] for e in entries])
            assert list(sp.mode_tags) == [e[2] for e in entries]


_CUTOFF_BUILDERS = {
    "fem_spectrum": lambda lm: fem_spectrum(UNIT_SQUARE, LameParams(1.0, 1.0), BC.DIRICHLET, 4, lm),
    "fem_extrapolated_spectrum": lambda lm: fem_extrapolated_spectrum(
        UNIT_SQUARE, LameParams(1.0, 1.0), BC.DIRICHLET, [2, 4, 8], lm),
    "square_dirichlet_spectrum": lambda lm: square_dirichlet_spectrum(1.0, lm),
    "square_neumann_lattice_spectrum": lambda lm: square_neumann_lattice_spectrum(1.0, lm),
    "disk_dirichlet_spectrum": lambda lm: disk_dirichlet_spectrum(1.0, lm),
    "solve_eigs": lambda lm: solve_eigs(assemble(unit_disk_mesh(6), P11, BC.DIRICHLET), lambda_max=lm),
    "refine_and_extrapolate": lambda lm: refine_and_extrapolate(UNIT_SQUARE, P11, BC.DIRICHLET, [2, 4, 8], lm),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -5.0])
@pytest.mark.parametrize("builder", list(_CUTOFF_BUILDERS))
def test_non_finite_or_non_positive_cutoff_is_refused(builder, bad):
    # no math-domain, NaN-conversion or overflow error and no sqrt warning first
    with pytest.raises(ParameterDomainError, match="lambda_max must be a finite positive number"):
        _CUTOFF_BUILDERS[builder](bad)


def test_analytic_unsupported_combo():
    with pytest.raises(ParameterDomainError):
        analytic_decoupled_spectrum(UNIT_DISK, 1.0, 50.0, BC.FREE)


def test_fem_spectrum_trust_threshold():
    sp = fem_spectrum(UNIT_SQUARE, PDEC, BC.DIRICHLET, 20, 1e4)
    h = math.sqrt(2.0) / 20
    assert sp.lambda_max <= (0.5 / h) ** 2 * (1 + 1e-12)
    assert sp.method.value == "fem"
    # degenerate doublets are merged
    assert sp.multiplicities[0] == 2


def test_free_decoupled_dilation_has_zero_energy():
    # u = (x, y), i.e. u_1 + i u_2 = z: no energy at lambda = -mu, 4 mu |Omega| otherwise
    mesh = unit_disk_mesh(6)
    u = mesh.vertices.ravel()
    assert abs(u @ (assemble(mesh, PDEC, BC.FREE).stiffness @ u)) < 1e-12
    assert u @ (assemble(mesh, LameParams(1.0, -0.5), BC.FREE).stiffness @ u) > 1.0


@pytest.mark.parametrize("domain", [UNIT_DISK, UNIT_SQUARE], ids=["disk", "square"])
def test_free_decoupled_fem_spectra_refused(domain):
    with pytest.raises(SingularLimitError, match="holomorphic"):
        fem_spectrum(domain, PDEC, BC.FREE, 8, 60.0)
    with pytest.raises(SingularLimitError, match="holomorphic"):
        fem_extrapolated_spectrum(domain, PDEC, BC.FREE, [4, 8, 16], 60.0)


def test_dirichlet_decoupled_fem_spectrum_still_solves():
    sp = fem_spectrum(UNIT_DISK, PDEC, BC.DIRICHLET, 24, 60.0)
    exact = disk_dirichlet_spectrum(1.0, sp.lambda_max)
    assert sp.total_count == exact.total_count == 16
    assert abs(sp.eigenvalues[0] / exact.eigenvalues[0] - 1.0) < 0.02


def _sparse_ops(rings, params, bc):
    ops = assemble(_whole(unit_disk_mesh(rings)), params, bc)
    assert ops.n > eigs_mod._DENSE_LIMIT
    return ops


def test_sparse_decoupled_disk_multiplets():
    # lambda = -mu: two copies of the scalar Dirichlet Laplacian, so the
    # lowest ten are j01^2 twice, then j11^2 and j21^2 four times each
    r = solve_eigs(_sparse_ops(15, PDEC, BC.DIRICHLET), lambda_max=29.0)
    assert r.method == "lanczos"
    reps, mults = merge_close(r.values)
    assert list(mults) == [2, 4, 4]
    exact = np.array([bessel_zeros(0, 1)[0], bessel_zeros(1, 1)[0], bessel_zeros(2, 1)[0]]) ** 2
    assert np.max(np.abs(reps - exact) / exact) < 3e-2


def test_sparse_free_disk_cutoff_matches_dense():
    ops = _sparse_ops(14, P11, BC.FREE)
    cut = 60.0
    r = solve_eigs(ops, lambda_max=cut)
    assert r.method == "lanczos"
    dense = sla.eigh(ops.stiffness.toarray(), ops.mass.toarray(), eigvals_only=True)
    scale = dense[dense < cut].max()
    assert np.sum(np.abs(r.values) <= 1e-8 * scale) == 3
    assert len(r.values) == np.sum(dense < cut)
    assert np.max(np.abs(r.values - dense[: len(r.values)])) <= 1e-9 * scale


@pytest.mark.parametrize("mode", [{"lambda_max": 10.0}, {"lambda_max": 40.0}])
def test_dense_subset_matches_full_eigh(mode):
    ops = assemble(unit_disk_mesh(7), P11, BC.FREE)
    assert ops.n <= eigs_mod._DENSE_LIMIT
    r = solve_eigs(ops, **mode)
    full = sla.eigh(ops.stiffness.toarray(), ops.mass.toarray(), eigvals_only=True)
    want = full[full < mode["lambda_max"]]
    assert r.method == "dense" and len(r.values) == len(want)
    assert np.max(np.abs(r.values - want)) <= 1e-10 * want.max()


def test_one_shift_factor_survives_a_failed_arpack_seed(monkeypatch):
    # the tau start and the fallback's first seed do not converge: the next
    # seed reuses the fallback's factor below the spectrum.  The tau start
    # stops at the certificate's tolerance; the fallback, run only where that
    # start failed, keeps ARPACK's full precision (tol 0, its default)
    ops = _sparse_ops(15, PDEC, BC.DIRICHLET)
    real_splu, real_eigsh = spla.splu, spla.eigsh
    factors, starts = [], []

    def splu(*args, **kwargs):
        factors.append(args[0].shape)
        return real_splu(*args, **kwargs)

    def eigsh(*args, **kwargs):
        starts.append((kwargs["sigma"], kwargs["v0"][0], kwargs.get("tol", 0)))
        if len(starts) <= 2:
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((ops.n, 0)))
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    monkeypatch.setattr(spla, "eigsh", eigsh)
    r = solve_eigs(ops, lambda_max=29.0)
    assert len(starts) == 3 and starts[0][0] > 0.0
    assert starts[0][2] == eigs_mod._RESID_TOL
    (s1, v1, t1), (s2, v2, t2) = starts[1:]
    assert s1 == s2 == 0.0 and v1 != v2  # the retry used the next seed
    assert t1 == t2 == 0
    # the tau factor, then one factor below the spectrum for both seeds
    assert len(factors) == 2
    assert list(merge_close(r.values)[1]) == [2, 4, 4]


@pytest.mark.parametrize("drops", [1, None])
def test_inertia_catches_a_dropped_multiplet_copy(monkeypatch, drops):
    # residuals cannot see a missing copy: ARPACK's answer with one copy of
    # the j11^2 quadruplet removed still has tiny residuals
    ops = _sparse_ops(15, PDEC, BC.DIRICHLET)
    real_eigsh = spla.eigsh
    calls = []

    def eigsh(*args, **kwargs):
        calls.append(1)
        vals, vecs = real_eigsh(*args, **kwargs)
        if drops is None or len(calls) <= drops:
            order = np.argsort(vals)
            keep = np.delete(order, 3)
            vals, vecs = vals[keep], vecs[:, keep]
        return vals, vecs

    monkeypatch.setattr(spla, "eigsh", eigsh)
    if drops is None:
        with pytest.raises(SolverError, match="inertia"):
            solve_eigs(ops, lambda_max=29.0)
    else:
        r = solve_eigs(ops, lambda_max=29.0)
        assert len(calls) == 2
        assert list(merge_close(r.values)[1]) == [2, 4, 4]




def _record_shifts(monkeypatch):
    """The cutoff of every level solve a Richardson study makes, in order."""
    from elastica.fem import refine

    real, shifts = refine.solve_eigs, []

    def solve(ops, *, lambda_max):
        shifts.append(lambda_max)
        return real(ops, lambda_max=lambda_max)

    monkeypatch.setattr(refine, "solve_eigs", solve)
    return shifts


def test_adjudication_study_solves_each_level_once_below_one_and_a_half_cutoffs(monkeypatch):
    # the criterion-7 pair at its benchmark size: every level solved once at
    # 1.5 times the cutoff, one SuperLU factor per sparse block, and the
    # spectrum and its error estimate as they were under the count rule
    real_splu = spla.splu
    factors = []

    def splu(*args, **kwargs):
        factors.append(args[0].shape[0])
        return real_splu(*args, **kwargs)

    shifts = _record_shifts(monkeypatch)
    monkeypatch.setattr(spla, "splu", splu)
    sp, ex = fem_extrapolated_spectrum(UNIT_DISK, P11, BC.DIRICHLET, [12, 24, 48], 100.0)
    assert shifts == [150.0] * 3
    assert sp.total_count == 25 and int(ex.flagged.sum()) == 0
    assert abs(float(sp.meta["max_error_estimate"]) / 0.49878151632161405 - 1.0) <= 1e-8
    sparse = [n for sizes in ex.block_sizes for n in sizes if n > eigs_mod._DENSE_LIMIT]
    assert factors == sparse and len(factors) == 8


def test_a_short_study_raises_one_shift_for_every_level(monkeypatch):
    # lambda = -mu square cut at 60: 1.5 cutoffs leave the extrapolated
    # values short of 60, so every level is solved again at 2.25 cutoffs,
    # and the study is the one that starts there
    from elastica.fem import refine

    shifts = _record_shifts(monkeypatch)
    r = refine_and_extrapolate(UNIT_SQUARE, PDEC, BC.DIRICHLET, [4, 8, 16], 60.0)
    assert shifts == [90.0] * 3 + [135.0] * 3
    shifts.clear()
    monkeypatch.setattr(refine, "_FIRST_SHIFT", 2.25)
    want = refine_and_extrapolate(UNIT_SQUARE, PDEC, BC.DIRICHLET, [4, 8, 16], 60.0)
    assert shifts == [135.0] * 3
    for got, ref in ((r.raw, want.raw), (r.extrapolated, want.extrapolated),
                     (r.observed_order, want.observed_order), (r.flagged, want.flagged)):
        assert np.array_equal(got, ref, equal_nan=True)
    assert r.block_sizes == want.block_sizes == [(8, 10), (48, 50), (224, 226)]


def test_a_first_shift_below_every_value_is_raised(monkeypatch):
    # the lowest value of the mu = lambda = 1 Dirichlet disk is 11.32: cut at
    # 5, the shifts 7.5 and 11.25 hold no value on any level, and the third
    # one finishes the study
    shifts = _record_shifts(monkeypatch)
    r = refine_and_extrapolate(UNIT_DISK, P11, BC.DIRICHLET, [6, 12, 24], 5.0)
    assert shifts == [7.5] * 3 + [11.25] * 3 + [16.875] * 3
    assert r.raw.shape[1] >= 2 and r.extrapolated.min() > 11.0


def test_extrapolated_spectrum_short_of_cutoff_raises(monkeypatch):
    # the 4-cell square has 18 unknowns: once all 18 lie below the shift, no
    # higher shift adds a pair, and the study refuses the cutoff (at 200
    # after one raise, at 1e4 at once)
    shifts = _record_shifts(monkeypatch)
    for cut, tried in ((200.0, [300.0, 450.0]), (1e4, [1.5e4])):
        shifts.clear()
        with pytest.raises(SolverError, match=rf"18 extrapolated eigenvalues reach only 164.293, below the cutoff {cut:g}$"):
            fem_extrapolated_spectrum(UNIT_SQUARE, PDEC, BC.DIRICHLET, [4, 8, 16], cut)
        assert shifts == [t for t in tried for _ in range(3)]
