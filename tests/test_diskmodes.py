"""Disk potential-method modes: determinants, scans, and boundary tractions."""

import math
from collections import namedtuple

import numpy as np
import pytest
import scipy.special as sps
from scipy.optimize import brentq

from elastica.diskmodes import disk_spectrum_potential
from elastica.errors import DegenerateDecompositionError, ParameterDomainError, SolverError
from elastica.params import BoundaryCondition as BC
from elastica.params import LameParams
from elastica.specfun import _backend, bessel_zeros

P11 = LameParams(1.0, 1.0)

Mode = namedtuple("Mode", "k family lam mult")


def _modes(params, bc, lambda_max):
    """(k, family, eigenvalue, multiplicity) of each spectrum entry, k and
    family read from its tag k<k>_<family>."""
    sp = disk_spectrum_potential(params, bc, lambda_max=lambda_max)
    out = []
    for tag, lam, mult in zip(sp.mode_tags, sp.eigenvalues.tolist(), sp.multiplicities.tolist()):
        k, family = tag[1:].split("_", 1)
        out.append(Mode(int(k), family, lam, mult))
    return out


def _wavenumbers(lams, params):
    return np.sqrt(lams / (params.lam + 2.0 * params.mu)), np.sqrt(lams / params.mu)


_K0_GRID = np.geomspace(0.5, 3000.0, 4001)


def test_k0_dirichlet_factorizes_into_bessel_products():
    # D_0 = -p*s*J_1(p)*J_1(s) exactly: the k = 0 boundary matrix is diagonal
    for lam in (0.0, 1.0, 3.0):
        params = LameParams(1.0, lam)
        d, _, sc = _backend.det_grid(0, _K0_GRID, params.mu, params.lam, False)
        p, s = _wavenumbers(_K0_GRID, params)
        product = -p * s * sps.j1(p) * sps.j1(s)
        assert np.max(np.abs(d - product) / sc) <= 1e-13, lam


def test_k0_free_factorizes():
    # D_0 = -(p*s/alpha) * (p J_0(p) - 2 alpha J_1(p)) * (s J_0(s) - 2 J_1(s)) exactly
    for lam in (0.0, 1.0, 3.0):
        params = LameParams(1.0, lam)
        alpha = params.alpha
        d, _, sc = _backend.det_grid(0, _K0_GRID, params.mu, params.lam, True)
        p, s = _wavenumbers(_K0_GRID, params)
        radial = p * sps.j0(p) - 2.0 * alpha * sps.j1(p)
        torsional = s * sps.j0(s) - 2.0 * sps.j1(s)
        product = -(p * s / alpha) * radial * torsional
        assert np.max(np.abs(d - product) / sc) <= 1e-13, lam


def test_k0_dirichlet_normal_form_matches_spec_shape():
    lam_ev = 17.3
    (p,), (s,) = _wavenumbers(np.array([lam_ev]), P11)
    d, _ = _backend.det_dirichlet(2, lam_ev, P11.mu, P11.lam)
    manual = (
        -p * s * _backend.jk_pairs(2, [p])[1][0] * _backend.jk_pairs(2, [s])[1][0]
        + 4.0 * _backend.jn_table(2, [p])[2, 0] * _backend.jn_table(2, [s])[2, 0]
    )
    assert abs(d - manual) < 1e-13 * max(1.0, abs(manual))


def _det_formulas_before_boundary_matrix(k, lams, mu, lam, free):
    """The clamped and free determinants written out in full, over the
    kernel's Bessel values: the reference for m11*m22 + m12*m21."""
    p, s = np.sqrt(lams / (lam + 2.0 * mu)), np.sqrt(lams / mu)
    (jp, jpp), (js, jsp) = _backend.jk_pairs(k, p), _backend.jk_pairs(k, s)
    k2 = (k * k).astype(float)
    if not free:
        return -p * s * jpp * jsp + k2 * jp * js
    a11 = (2.0 * k2 - s * s) * jp - 2.0 * p * jpp
    a22 = 2.0 * s * jsp + (s * s - 2.0 * k2) * js
    return a11 * a22 + 4.0 * k2 * (s * jsp - js) * (p * jpp - jp)


@pytest.mark.parametrize("free", [False, True])
@pytest.mark.parametrize("lam", [0.0, 1.0, 3.0])
def test_det_grid_equals_the_written_out_determinants(lam, free):
    rng = np.random.default_rng(16)
    k = rng.integers(0, 61, 3000)
    lams = rng.uniform(0.5, 3000.0, 3000)
    d, _, sc = _backend.det_grid(k, lams, 1.0, lam, free)
    ref = _det_formulas_before_boundary_matrix(k, lams, 1.0, lam, free)
    assert np.max(np.abs(d - ref) / sc) <= 1e-15
    assert np.array_equal(np.sign(d), np.sign(ref))
    # and the entries multiply out to the determinant in the same rounding
    m11, m12, m21, m22, sc2 = _backend.boundary_matrix(k, lams, 1.0, lam, free)
    assert np.array_equal(sc, sc2) and np.array_equal(d, m11 * m22 + m12 * m21)


def _free_traction(k, lam_ev, params, h=1e-3):
    """max(|sigma_rr|, |sigma_rtheta|) at r = 1 of the field the free boundary
    matrix picks out at trial eigenvalue lam_ev, over the field's own size.

    u = grad(psi1) + curl(z psi2), psi1 = A J_k(pr) e^{ik theta} and
    psi2 = B J_k(sr) e^{ik theta}, with (A, B) the null vector of the larger
    row of the matrix.  The stresses are built from u alone (d/dr by a
    5-point stencil on r = 1 + j h, j = -2..2), not from the matrix entries.
    """
    mu, lam = params.mu, params.lam
    m11, m12, m21, m22, _ = (x[0] for x in _backend.boundary_matrix(k, [lam_ev], mu, lam, True))
    if max(abs(m11), abs(m12)) >= max(abs(m21), abs(m22)):
        a, b = 1j * m12, -m11
    else:
        a, b = m22, -1j * m21
    p, s = math.sqrt(lam_ev / (lam + 2.0 * mu)), math.sqrt(lam_ev / mu)
    r = 1.0 + h * np.arange(-2, 3)
    (jp, jpd), (js, jsd) = _backend.jk_pairs(k, p * r), _backend.jk_pairs(k, s * r)
    ik = 1j * k
    ur = a * p * jpd + (ik / r) * b * js
    ut = (ik / r) * a * jp - b * s * jsd
    d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    dur, dut = d1 @ ur, d1 @ ut
    srr = lam * (dur + ur[2] + ik * ut[2]) + 2.0 * mu * dur
    srt = mu * (ik * ur[2] + dut - ut[2])
    envelope = np.abs(np.concatenate([jp, jpd, js, jsd])).max()
    return max(abs(srr), abs(srt)) / ((lam + 2.0 * mu) * (abs(a) * p * p + abs(b) * s * s) * envelope)


@pytest.mark.parametrize("lam", [0.0, 1.0, 3.0])
def test_free_boundary_entries_are_the_traction_of_the_potential_field(lam):
    # the traction vanishes at every free root and not halfway between two
    # roots of one mode, so a wrong free entry fails here; a residual of the
    # Navier equation inside the disk cannot, as each potential solves it at
    # every trial eigenvalue.  Clamped rows are u(1) itself, no stencil needed.
    params = LameParams(1.0, lam)
    modes = _modes(params, BC.FREE, 3000.0)
    for k in (0, 1, 5, 20):
        roots = [m.lam for m in modes if m.k == k and m.lam > 0.0]
        assert len(roots) >= 10
        for lam_ev in roots:
            assert _free_traction(k, lam_ev, params) <= 1e-6, (k, lam_ev)
        for lo, hi in zip(roots, roots[1:]):
            assert _free_traction(k, 0.5 * (lo + hi), params) >= 1e-5, (k, lo, hi)


def test_alpha_one_degenerate():
    with pytest.raises(DegenerateDecompositionError):
        disk_spectrum_potential(LameParams(1.0, -1.0), BC.DIRICHLET, lambda_max=50.0)


def test_alpha_one_free_recommends_no_other_route():
    # traction free at lambda = -mu neither FEM nor a closed form has a spectrum
    with pytest.raises(DegenerateDecompositionError, match="holomorphic") as exc:
        disk_spectrum_potential(LameParams(1.0, -1.0), BC.FREE, lambda_max=50.0)
    assert "FEM" not in str(exc.value) and "Bessel" not in str(exc.value)
    with pytest.raises(DegenerateDecompositionError, match="FEM path"):
        disk_spectrum_potential(LameParams(1.0, -1.0), BC.DIRICHLET, lambda_max=50.0)


# (count with multiplicity, entries, k = 0 compressional roots, k = 0 shear
# roots, sha256 prefix of the "tag:multiplicity" lines) of each spectrum:
# a change to the boundary entries that moves a root across the cutoff or
# changes a multiplicity or a k = 0 tag shows here.  The scan still drops
# close pairs (the strict xfails above); fixing that changes these pins.
_SPECTRUM_PINS = {
    (0.0, BC.DIRICHLET, 250.0): (77, 42, 3, 4, "9faf89ddfb8debce"),
    (0.0, BC.DIRICHLET, 3000.0): (955, 490, 10, 15, "4fb7046688f84e46"),
    (0.0, BC.FREE, 250.0): (112, 59, 3, 4, "2738a35916486ff5"),
    (0.0, BC.FREE, 3000.0): (1071, 548, 11, 15, "834ac1ae7df59601"),
    (1.0, BC.DIRICHLET, 250.0): (70, 38, 2, 4, "492a7d343699f1eb"),
    (1.0, BC.DIRICHLET, 3000.0): (938, 481, 8, 16, "1ee99a8790e4a2b3"),
    (1.0, BC.FREE, 250.0): (94, 49, 2, 3, "48ad36c72c547429"),
    (1.0, BC.FREE, 3000.0): (1055, 540, 10, 16, "fab451d92a88441f"),
    (3.0, BC.DIRICHLET, 250.0): (62, 34, 2, 4, "d9ed0af434c75050"),
    (3.0, BC.DIRICHLET, 3000.0): (848, 435, 6, 16, "6cbbc15a5245bfb4"),
    (3.0, BC.FREE, 250.0): (91, 48, 2, 4, "2ce63befb006c9f0"),
    (3.0, BC.FREE, 3000.0): (959, 491, 8, 16, "a2fa99e5360b5c05"),
}


@pytest.mark.parametrize("case", list(_SPECTRUM_PINS), ids=lambda c: f"{c[0]:g}-{c[1].value}-{c[2]:g}")
def test_spectrum_counts_and_tags_are_pinned(case):
    import hashlib

    lam, bc, lambda_max = case
    sp = disk_spectrum_potential(LameParams(1.0, lam), bc, lambda_max=lambda_max)
    lines = "\n".join(f"{t}:{m}" for t, m in zip(sp.mode_tags, sp.multiplicities))
    got = (
        sp.total_count,
        len(sp.mode_tags),
        sum(t == "k0_compressional_k0" for t in sp.mode_tags),
        sum(t == "k0_shear_k0" for t in sp.mode_tags),
        hashlib.sha256(lines.encode()).hexdigest()[:16],
    )
    assert got == _SPECTRUM_PINS[case]


def test_k0_scan_equals_bessel_zero_families():
    modes = _modes(P11, BC.DIRICHLET, 200.0)
    z1 = bessel_zeros(1, 10)
    shear = sorted(m.lam for m in modes if m.family == "shear_k0")
    comp = sorted(m.lam for m in modes if m.family == "compressional_k0")
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
    "ROADMAP item 3: the disk scan drops close root pairs; the seed-0 fingerprint "
    "potential_sweep/l1_free.potential (count 94) records the dropped k = 0 pair "
    "218.920 / 220.633, where the exact factors give 96"
)


def _positive_zeros(f, top):
    """Zeros of f in (0, top], bracketed on a 0.01 grid and refined by brentq."""
    x = np.append(np.arange(0.01, top, 0.01), top)
    v = f(x)
    return np.array([brentq(f, x[i], x[i + 1], xtol=1e-14) for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)])


def _k0_roots(params, bc, lambda_max):
    return np.sort([m.lam for m in _modes(params, bc, lambda_max) if m.k == 0 and m.family != "rigid"])


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
    shear = [m.lam for m in _modes(P11, BC.DIRICHLET, 20.0) if m.family == "shear_k0"]
    assert abs(min(shear) - bessel_zeros(1, 1)[0] ** 2) < 1e-8 * 14.7


@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.FREE])
@pytest.mark.parametrize("lam", [0.0, 1.0, 3.0])
def test_refinement_takes_few_lockstep_determinant_calls(lam, bc, monkeypatch):
    # the potential_sweep spectra: Newton with dD/dL, from the Hermite root of
    # the scan's values and slopes, refines all brackets of a spectrum in at
    # most 3 lockstep det_grid calls
    from elastica import diskmodes

    calls = []
    det_grid, refine = _backend.det_grid, diskmodes.refine_brackets
    monkeypatch.setattr(_backend, "det_grid", lambda *a: calls.append(np.size(a[1])) or det_grid(*a))
    during = []

    def counted_refine(*args):
        before = len(calls)
        roots = refine(*args)
        during.append(len(calls) - before)
        return roots

    monkeypatch.setattr(diskmodes, "refine_brackets", counted_refine)
    disk_spectrum_potential(LameParams(1.0, lam), bc, lambda_max=250.0)
    assert len(during) == 1 and 1 <= during[0] <= 3


def test_residual_certificates():
    modes = _modes(P11, BC.DIRICHLET, 300.0)
    d, _, sc = _backend.det_grid(np.array([m.k for m in modes]), np.array([m.lam for m in modes]), 1.0, 1.0, False)
    assert np.all(np.abs(d / sc) <= 1e-9)


def test_uncertified_root_is_refused(monkeypatch):
    # a determinant that jumps from -1 to +1 at 20 has a bracketed "root" there
    # whose residual stays 1: no spectrum may carry it
    def step(k, lams, mu, lam, free):
        lams = np.asarray(lams, dtype=float)
        return np.where(lams < 20.0, -1.0, 1.0), np.zeros_like(lams), np.ones_like(lams)

    monkeypatch.setattr(_backend, "det_grid", step)
    with pytest.raises(SolverError, match=r"k = 0 has determinant residual 1 > 1e-09"):
        disk_spectrum_potential(P11, BC.DIRICHLET, lambda_max=50.0)


def test_multiplicity_rule():
    for m in _modes(P11, BC.DIRICHLET, 100.0):
        assert m.mult == (1 if m.k == 0 else 2)


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


def test_d1_sign_change_between_fem_k1_eigenvalues():
    # the FEM oracle locates the k=1 doublets; D_1 must change sign across
    # each of them
    from elastica.fem import assemble, solve_eigs, unit_disk_mesh

    roots = [m.lam for m in _modes(P11, BC.DIRICHLET, 60.0) if m.k == 1]
    ops = assemble(unit_disk_mesh(28), P11, BC.DIRICHLET)
    sol = solve_eigs(ops, lambda_max=60.0)
    fem_k1 = []
    for r in roots[:2]:
        nearest = sol.values[np.argmin(np.abs(sol.values - r))]
        assert abs(nearest - r) / r < 5e-3  # the doublet exists in the FEM spectrum
        fem_k1.append(nearest)
    lo, hi = fem_k1[0], fem_k1[1]
    d_before, d_between, d_after = _backend.det_grid(1, [lo * 0.98, 0.5 * (lo + hi), hi * 1.02], 1.0, 1.0, False)[0]
    assert d_before * d_between < 0
    assert d_between * d_after < 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -5.0])
def test_non_finite_or_non_positive_cutoff_is_refused(bad):
    with pytest.raises(ParameterDomainError, match="lambda_max must be a finite positive number"):
        disk_spectrum_potential(P11, BC.DIRICHLET, lambda_max=bad)


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


@pytest.mark.parametrize("k_max", [-5, -1, 61, 2.5, 2.0])
def test_k_max_outside_its_range_is_refused(k_max):
    # (k_max + 1)^2 in the completeness bound would turn k_max = -5 into a
    # cutoff of 12.85 on a file holding only the rigid modes, and k_max = 2.5
    # into one from 3.5^2 while modes 0..3 are scanned
    with pytest.raises(ParameterDomainError, match="k_max"):
        disk_spectrum_potential(P11, BC.FREE, k_max=k_max, lambda_max=50.0)


def test_k_max_zero_gives_its_own_completeness_cutoff():
    sp = disk_spectrum_potential(P11, BC.FREE, k_max=0, lambda_max=50.0)
    w1 = 0.8452994616207485  # Rayleigh root at alpha = 1/3
    assert sp.lambda_max == pytest.approx(0.95 * w1, rel=1e-12)
    assert list(sp.eigenvalues) == [0.0] and list(sp.multiplicities) == [3]


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


def _lockstep_grids(params, lam_lo, lam_hi, halvings):
    """Reference scan grids: every mode stepped in lockstep as numpy arrays."""
    factor = 0.5**halvings
    owner = np.arange(lam_lo.size)
    lam = np.asarray(lam_lo, dtype=float)
    pts, owners = [lam], [owner]
    while True:
        keep = lam < lam_hi
        owner, lam = owner[keep], lam[keep]
        if not owner.size:
            break
        rho = (1.0 / (2.0 * math.pi)) * (
            1.0 / np.sqrt(params.mu * lam) + 1.0 / np.sqrt(params.pressure_speed2 * lam)
        )
        lam = lam + factor * (0.25 / rho)
        pts.append(np.minimum(lam, lam_hi))
        owners.append(owner)
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    return np.concatenate(pts)[order], owner[order]


@pytest.mark.parametrize("lam", [0.0, 1.0, 3.0, -0.5])
@pytest.mark.parametrize("mu", [1.0, 0.7])
def test_grids_equal_the_lockstep_recursion_bit_for_bit(lam, mu):
    from elastica import diskmodes

    params = LameParams(mu, lam)
    for cutoff in (30.0, 250.0, 3e4):
        # the last start lies above the cutoff: its grid is that start alone
        starts = np.append(diskmodes._scan_floor(np.arange(61), params), [cutoff, 2.0 * cutoff])
        for h in range(4):
            ref, ref_owner = _lockstep_grids(params, starts, cutoff, h)
            grid, owner = diskmodes._grids(params, starts, cutoff, [0.5**h] * starts.size)
            assert grid.tobytes() == ref.tobytes(), (cutoff, h)
            assert np.array_equal(owner, ref_owner), (cutoff, h)


@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.FREE])
@pytest.mark.parametrize("lam", [0.0, 3.0])
def test_first_call_returns_the_verification_pass_of_a_call_alone(bc, lam):
    from elastica import diskmodes

    params = LameParams(1.0, lam)
    ks = np.arange(0, 16)
    coarse, fine = diskmodes._scan_angular_mode(ks, params, bc, 250.0, halvings=0)
    (alone,) = diskmodes._scan_angular_mode(ks, params, bc, 250.0, halvings=1)
    assert fine.counts.sum() > 0
    for name in ("k", "lo", "hi", "flo", "fhi", "glo", "ghi", "counts"):
        a, b = getattr(fine, name), getattr(alone, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert not np.array_equal(coarse.lo, fine.lo)
