"""Disk potential-method modes: determinants, scans, and PDE verification."""

import math

import numpy as np
import pytest
import scipy.special as sps
from scipy.optimize import brentq

from elastica.diskmodes import (
    WaveNumbers,
    characteristic_det,
    disk_modes_potential,
    disk_spectrum_potential,
    verify_mode_pde,
)
from elastica.errors import DegenerateDecompositionError, ParameterDomainError
from elastica.params import BoundaryCondition as BC
from elastica.params import LameParams
from elastica.specfun import bessel_j, bessel_j_prime, bessel_zeros

P11 = LameParams(1.0, 1.0)


def test_wavenumbers_ordering():
    wn = WaveNumbers.from_eigenvalue(12.0, P11)
    assert 0 < wn.p < wn.s
    wn_eq = WaveNumbers.from_eigenvalue(12.0, LameParams(1.0, -1.0))
    assert wn_eq.p == wn_eq.s


def test_k0_dirichlet_factorizes_into_bessel_products():
    # D_0 proportional to p*s*J_1(p)*J_1(s)
    for lam_ev in (3.7, 20.0, 90.0):
        wn = WaveNumbers.from_eigenvalue(lam_ev, P11)
        d = characteristic_det(0, lam_ev, P11, BC.DIRICHLET)
        product = -wn.p * wn.s * bessel_j(1, wn.p) * bessel_j(1, wn.s)
        assert abs(d - product) < 1e-12 * max(abs(product), 1e-3)


def test_k0_free_factorizes():
    # radial factor p J_0(p) - 2 alpha J_1(p), torsional factor s J_0(s) - 2 J_1(s)
    alpha = P11.alpha
    for lam_ev in (5.0, 33.0):
        wn = WaveNumbers.from_eigenvalue(lam_ev, P11)
        d = characteristic_det(0, lam_ev, P11, BC.FREE)
        radial = wn.p * bessel_j(0, wn.p) - 2.0 * alpha * bessel_j(1, wn.p)
        torsional = wn.s * bessel_j(0, wn.s) - 2.0 * bessel_j(1, wn.s)
        # the determinant equals (s^2/alpha-ish scalings) * radial * torsional:
        # compare zero sets via sign, and ratio stability away from zeros
        ratio = d / (radial * torsional)
        wn2 = WaveNumbers.from_eigenvalue(lam_ev * 1.001, P11)
        d2 = characteristic_det(0, lam_ev * 1.001, P11, BC.FREE)
        radial2 = wn2.p * bessel_j(0, wn2.p) - 2.0 * alpha * bessel_j(1, wn2.p)
        torsional2 = wn2.s * bessel_j(0, wn2.s) - 2.0 * bessel_j(1, wn2.s)
        ratio2 = d2 / (radial2 * torsional2)
        assert abs(ratio - ratio2) < 1e-2 * abs(ratio)


def test_k0_dirichlet_normal_form_matches_spec_shape():
    lam_ev = 17.3
    wn = WaveNumbers.from_eigenvalue(lam_ev, P11)
    d = characteristic_det(2, lam_ev, P11, BC.DIRICHLET)
    manual = (
        -wn.p * wn.s * bessel_j_prime(2, wn.p) * bessel_j_prime(2, wn.s)
        + 4.0 * bessel_j(2, wn.p) * bessel_j(2, wn.s)
    )
    assert abs(d - manual) < 1e-13 * max(1.0, abs(manual))


def test_alpha_one_degenerate():
    with pytest.raises(DegenerateDecompositionError):
        characteristic_det(1, 5.0, LameParams(1.0, -1.0), BC.DIRICHLET)
    with pytest.raises(DegenerateDecompositionError):
        disk_spectrum_potential(LameParams(1.0, -1.0), BC.DIRICHLET, lambda_max=50.0)


def test_nonpositive_trial_eigenvalue():
    with pytest.raises(ParameterDomainError):
        characteristic_det(0, 0.0, P11, BC.DIRICHLET)


def test_k0_scan_equals_bessel_zero_families():
    modes = disk_modes_potential(P11, BC.DIRICHLET, lambda_max=200.0)
    z1 = bessel_zeros(1, 10)
    shear = sorted(m.lambda_ev for m in modes if m.family_tag == "shear_k0")
    comp = sorted(m.lambda_ev for m in modes if m.family_tag == "compressional_k0")
    expect_shear = [z * z for z in z1 if z * z <= 200.0]
    expect_comp = [3.0 * z * z for z in z1 if 3.0 * z * z <= 200.0]
    assert len(shear) == len(expect_shear)
    assert len(comp) == len(expect_comp)
    for got, exp in zip(shear, expect_shear):
        assert abs(got - exp) < 1e-8 * exp
    for got, exp in zip(comp, expect_comp):
        assert abs(got - exp) < 1e-8 * exp


# Strict xfail pins of a known scan defect: they fail once the scan finds
# every root, and the fix deletes their markers and re-records the fingerprint.
_SCAN_PAIR_DEFECT = (
    "ROADMAP item 1: the disk scan drops close root pairs; the seed-0 fingerprint "
    "potential_sweep/l1_free.potential (count 94) records the dropped k = 0 pair "
    "218.920 / 220.633, where the exact factors give 96"
)


def _positive_zeros(f, top):
    """Zeros of f in (0, top], bracketed on a 0.01 grid and refined by brentq."""
    x = np.append(np.arange(0.01, top, 0.01), top)
    v = f(x)
    return np.array([brentq(f, x[i], x[i + 1], xtol=1e-14) for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)])


def _k0_roots(params, bc, lambda_max):
    modes = disk_modes_potential(params, bc, lambda_max=lambda_max)
    return np.sort([m.lambda_ev for m in modes if m.k == 0 and m.family_tag != "rigid"])


@pytest.mark.xfail(strict=True, reason=_SCAN_PAIR_DEFECT)
def test_k0_free_scan_finds_every_factor_root():
    # the k = 0 free roots are the zeros of p J_0(p) - 2 alpha J_1(p) and of
    # s J_0(s) - 2 J_1(s); the scan returns 5 of these 7
    lam_max, c_p = 250.0, P11.lam + 2.0 * P11.mu
    p = _positive_zeros(lambda x: x * sps.j0(x) - 2.0 * P11.alpha * sps.j1(x), math.sqrt(lam_max / c_p))
    s = _positive_zeros(lambda x: x * sps.j0(x) - 2.0 * sps.j1(x), math.sqrt(lam_max / P11.mu))
    exact = np.sort(np.concatenate([c_p * p * p, P11.mu * s * s]))
    assert exact.size == 7
    got = _k0_roots(P11, BC.FREE, lam_max)
    assert got.size == exact.size
    assert np.allclose(got, exact, rtol=1e-8, atol=0.0)


@pytest.mark.xfail(strict=True, reason=_SCAN_PAIR_DEFECT)
def test_k0_dirichlet_scan_finds_every_factor_root():
    # D_0 = -p s J_1(p) J_1(s): the roots are mu j_{1,m}^2 and (lam + 2 mu) j_{1,m}^2;
    # the scan returns 8 of these 10, missing the pair 517.497 / 518.021
    params, lam_max = LameParams(1.0, 3.0), 600.0
    j1 = sps.jn_zeros(1, 20)
    exact = np.sort(np.concatenate([params.mu * j1 * j1, (params.lam + 2.0 * params.mu) * j1 * j1]))
    exact = exact[exact <= lam_max]
    assert exact.size == 10
    got = _k0_roots(params, BC.DIRICHLET, lam_max)
    assert got.size == exact.size
    assert np.allclose(got, exact, rtol=1e-8, atol=0.0)


def test_smallest_k0_shear_root():
    modes = disk_modes_potential(P11, BC.DIRICHLET, lambda_max=20.0)
    shear = [m.lambda_ev for m in modes if m.family_tag == "shear_k0"]
    assert abs(min(shear) - bessel_zeros(1, 1)[0] ** 2) < 1e-8 * 14.7


def test_residual_certificates():
    modes = disk_modes_potential(P11, BC.DIRICHLET, lambda_max=300.0)
    assert all(m.determinant_residual <= 1e-9 for m in modes)


def test_multiplicity_rule():
    modes = disk_modes_potential(P11, BC.DIRICHLET, lambda_max=100.0)
    for m in modes:
        assert m.multiplicity == (1 if m.k == 0 else 2)


def test_free_spectrum_rigid_modes():
    sp = disk_spectrum_potential(P11, BC.FREE, lambda_max=50.0)
    assert sp.eigenvalues[0] == 0.0
    assert sp.multiplicities[0] == 3
    assert sp.mode_tags[0] == "k0_rigid"
    assert np.all(sp.eigenvalues[1:] > 0)


def test_dirichlet_spectrum_strictly_positive():
    sp = disk_spectrum_potential(P11, BC.DIRICHLET, lambda_max=60.0)
    assert np.all(sp.eigenvalues > 0)
    assert np.all(np.diff(sp.eigenvalues) >= 0)


def test_counting_monotone_in_lambda_max():
    # extending the scan never loses roots below the earlier cutoff
    sp1 = disk_spectrum_potential(P11, BC.DIRICHLET, lambda_max=120.0)
    sp2 = disk_spectrum_potential(P11, BC.DIRICHLET, lambda_max=240.0)
    for lam in (30.0, 60.0, 90.0, 119.0):
        assert sp1.count_below(lam) == sp2.count_below(lam)


def test_verify_mode_pde_k0_families():
    modes = disk_modes_potential(P11, BC.DIRICHLET, lambda_max=120.0)
    shear = next(m for m in modes if m.family_tag == "shear_k0")
    comp = next(m for m in modes if m.family_tag == "compressional_k0")
    chk_s = verify_mode_pde(shear, P11, BC.DIRICHLET)
    chk_c = verify_mode_pde(comp, P11, BC.DIRICHLET)
    assert chk_s.pde_residual <= 1e-6
    assert chk_c.pde_residual <= 1e-6
    assert chk_s.div_s <= 1e-8
    assert chk_c.curl_p <= 1e-8


def test_verify_mode_pde_coupled():
    modes = disk_modes_potential(P11, BC.FREE, lambda_max=40.0)
    coupled = next(m for m in modes if m.family_tag == "coupled")
    chk = verify_mode_pde(coupled, P11, BC.FREE)
    assert chk.pde_residual <= 1e-6
    assert chk.curl_p <= 1e-8
    assert chk.div_s <= 1e-8


def test_d1_sign_change_between_fem_k1_eigenvalues():
    # the FEM oracle locates the k=1 doublets; D_1 must change sign across
    # each of them
    from elastica.fem import assemble, solve_eigs, unit_disk_mesh

    roots = [m.lambda_ev for m in disk_modes_potential(P11, BC.DIRICHLET, lambda_max=60.0) if m.k == 1]
    ops = assemble(unit_disk_mesh(28), P11, BC.DIRICHLET)
    sol = solve_eigs(ops, lambda_max=60.0)
    fem_k1 = []
    for r in roots[:2]:
        nearest = sol.values[np.argmin(np.abs(sol.values - r))]
        assert abs(nearest - r) / r < 5e-3  # the doublet exists in the FEM spectrum
        fem_k1.append(nearest)
    lo, hi = fem_k1[0], fem_k1[1]
    d_before = characteristic_det(1, lo * 0.98, P11, BC.DIRICHLET)
    d_between = characteristic_det(1, 0.5 * (lo + hi), P11, BC.DIRICHLET)
    d_after = characteristic_det(1, hi * 1.02, P11, BC.DIRICHLET)
    assert d_before * d_between < 0
    assert d_between * d_after < 0


def test_every_emitted_mode_satisfies_pde():
    modes = disk_modes_potential(P11, BC.DIRICHLET, lambda_max=80.0)
    for m in modes:
        chk = verify_mode_pde(m, P11, BC.DIRICHLET)
        assert chk.pde_residual <= 1e-5, (m, chk)


def test_k_truncation_lowers_validity_cutoff():
    # requesting a cutoff that needs angular modes beyond k_max shrinks the
    # spectrum's own lambda_max to the provable completeness bound
    sp = disk_spectrum_potential(P11, BC.DIRICHLET, k_max=60, lambda_max=2e4)
    assert sp.lambda_max < 2e4
    w1 = 0.8452994616207485  # Rayleigh root at alpha = 1/3
    assert sp.lambda_max == pytest.approx(0.95 * w1 * 61**2, rel=1e-12)
    assert sp.eigenvalues.max() <= sp.lambda_max
    # and a cutoff inside the k-range is untouched
    sp2 = disk_spectrum_potential(P11, BC.DIRICHLET, k_max=60, lambda_max=200.0)
    assert sp2.lambda_max == 200.0


def test_discriminator_fit_on_potential_spectrum():
    # deep potential spectrum -> heat fit -> distances to both theories are
    # reported; by design no side is asserted
    from elastica.asympt import fit_two_term

    sp = disk_spectrum_potential(P11, BC.DIRICHLET, k_max=60, lambda_max=2e4)
    rep = fit_two_term(sp, "heat")
    d_cflv = rep.discriminator["cflv"]["distance"]
    d_liu = rep.discriminator["liu"]["distance"]
    assert math.isfinite(d_cflv) and math.isfinite(d_liu)
    assert rep.window[0] > 0
    print(
        f"[discriminator] disk potential cutoff {sp.lambda_max:.0f}: "
        f"|b_hat - b_cflv| = {d_cflv:.4f}, |b_hat - b_liu| = {d_liu:.4f} (reported, not gated)"
    )


def test_pde_residual_homogeneity():
    # u(sqrt(2) x) is an eigenfunction of the same operator with 2*Lambda on
    # the shrunk disk; the scan of the scaled problem reproduces the mode and
    # the finite-difference residual stays at the same level
    modes = disk_modes_potential(P11, BC.DIRICHLET, lambda_max=40.0)
    m0 = modes[0]
    from elastica.diskmodes import DiskMode

    scaled = DiskMode(
        k=m0.k,
        family_tag=m0.family_tag,
        lambda_ev=2.0 * m0.lambda_ev,
        multiplicity=m0.multiplicity,
        determinant_residual=m0.determinant_residual,
    )
    base = verify_mode_pde(m0, P11, BC.DIRICHLET)
    shrunk = verify_mode_pde(scaled, P11, BC.DIRICHLET, r_max=1.0 / math.sqrt(2.0))
    assert shrunk.pde_residual <= 10.0 * max(base.pde_residual, 1e-9)


def test_scan_pass_resolves_a_tangent_double_root(monkeypatch):
    # a double root next to a grid point: the determinant keeps its sign on
    # the grid and only dips there; the pass must count the root twice and
    # locate it without a bracket to refine
    from elastica import diskmodes
    from elastica.specfun import _backend

    grid, _ = diskmodes._grids(P11, diskmodes._scan_floor([1], P11), 60.0, 0)
    r = grid[5] - 1e-4

    def fake_det_grid(k, lams, mu, lam, free):
        lams = np.asarray(lams, dtype=float)
        return (lams - r) ** 2, np.ones_like(lams)

    monkeypatch.setattr(_backend, "det_grid", fake_det_grid)
    scan = diskmodes._scan_angular_mode([1], P11, BC.DIRICHLET, 60.0, halvings=0)
    assert list(scan.counts) == [2]
    assert np.array_equal(scan.lo, scan.hi)
    assert np.allclose(scan.lo, r, rtol=1e-6)
