"""Quadrature, root finding, and contour integration."""

import math

import numpy as np
import pytest

from elastica.errors import BracketError, ParameterDomainError
from elastica.specfun import (
    ContourSpec,
    QuadratureSpec,
    bessel_j,
    contour_integral,
    enclosing_contour,
    find_root,
    integrate,
)

DE = QuadratureSpec(rel_tol=1e-12)


def test_empty_interval():
    r = integrate(lambda t: 1.0 / t, 1.0, 1.0, DE)
    assert r.value == 0.0 and r.converged


def test_linear():
    assert abs(integrate(lambda t: t, 0.0, 1.0, DE).value - 0.5) < 1e-14


def test_endpoint_singular_derivative():
    r = integrate(lambda t: np.sqrt(t), 0.0, 1.0, DE)
    assert abs(r.value - 2.0 / 3.0) < 1e-12


def test_inverse_sqrt_singularity():
    r = integrate(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0, DE)
    assert abs(r.value - 2.0) < 1e-11
    assert r.converged


def test_arctan_integrand_vs_riemann_oracle():
    # the clamped-boundary integrand at alpha = 1/3 against a brute-force
    # midpoint rule with 1e6 panels
    alpha = 1.0 / 3.0
    lo, hi = math.sqrt(alpha), 1.0

    def f(tau):
        return np.arctan(np.sqrt((1.0 - alpha / tau**2) * (1.0 / tau**2 - 1.0)))

    n = 1_000_000
    mids = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    oracle = float(np.sum(f(mids)) * (hi - lo) / n)
    r = integrate(f, lo, hi, DE)
    assert r.converged
    assert abs(r.value - oracle) < 1e-9


def test_refinement_cap_flags_not_raises():
    slow = QuadratureSpec(rel_tol=1e-12, max_refinements=1)
    r = integrate(lambda t: np.sin(103.0 * t) ** 2 / np.sqrt(t), 0.0, 1.0, slow)
    assert not r.converged


def test_spec_validation():
    with pytest.raises(ParameterDomainError):
        QuadratureSpec(rel_tol=1e-15)
    with pytest.raises(ParameterDomainError):
        QuadratureSpec(rel_tol=1e-3)
    with pytest.raises(ParameterDomainError):
        integrate(lambda t: t, 1.0, 0.0)


def _scalar_level(level):
    """The scalar node loop the cached arrays replace: (is_centre, q, w) per node."""
    h = 2.0 ** (-level)
    js = range(0, 400) if level == 0 else range(1, 400 * 2 ** level, 2)
    nodes = []
    for j in js:
        t = j * h
        st = math.pi / 2.0 * math.sinh(t)
        if st > 350.0:
            break
        ch = math.cosh(t)
        sech2 = 1.0 / math.cosh(st) ** 2
        w = (math.pi / 2.0) * ch * sech2 * h
        if w < 1e-300:
            break
        q = 2.0 / (1.0 + math.exp(2.0 * st))
        nodes.append((j == 0, q, w))
    return nodes


@pytest.mark.parametrize("level", range(15))
def test_node_arrays_equal_scalar_loop(level):
    from elastica.specfun.quadrature import _tanh_sinh_level

    q, w, centre = _tanh_sinh_level(level)
    nodes = _scalar_level(level)
    if level == 0:
        assert nodes[0][0] and centre == nodes[0][2]
        nodes = nodes[1:]
    else:
        assert centre == 0.0
    assert np.array_equal(q, [n[1] for n in nodes]) and np.array_equal(w, [n[2] for n in nodes])
    assert w.min() >= 1e-300 and not (q.flags.writeable or w.flags.writeable)
    assert _tanh_sinh_level(level)[0] is q


def test_integrate_calls_f_once_per_level():
    from elastica.specfun.quadrature import _tanh_sinh_level

    for spec, converged in ((DE, True), (QuadratureSpec(rel_tol=1e-12, max_refinements=1), False)):
        sizes = []

        def f(t):
            sizes.append(t.size)
            return np.sin(103.0 * t) ** 2 / np.sqrt(t)

        r = integrate(f, 0.0, 1.0, spec)
        levels = [_tanh_sinh_level(level)[0].size for level in range(len(sizes))]
        assert sizes == [1 + 2 * levels[0]] + [2 * m for m in levels[1:]]
        assert r.converged == converged and sum(sizes) == r.evaluations
    assert len(sizes) == 2


def test_contour_calls_g_once_per_doubling():
    sizes = []

    def counted(g):
        def inner(tau):
            sizes.append(tau.size)
            return g(tau)
        return inner

    r = contour_integral(counted(lambda tau: 1.0 / (tau - 1.999999)),
                         ContourSpec(center=1.0, radius=1.0, panels=8), max_doublings=2)
    assert not r.converged and sizes == [8, 8, 16] and r.panels == 32
    sizes.clear()
    r = contour_integral(counted(lambda tau: np.exp(-tau) / (tau - 2.0)),
                         ContourSpec(center=2.0, radius=4.0, panels=8))
    assert r.converged and len(sizes) > 2
    assert sizes == [8] + [8 * 2**i for i in range(len(sizes) - 1)] and sum(sizes) == r.panels


def test_find_root_sqrt2():
    assert abs(find_root(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-14) - math.sqrt(2.0)) < 1e-13


def test_find_root_rayleigh_cubic_unique():
    alpha = 0.5
    f = lambda w: w**3 - 8 * w**2 + 8 * (3 - 2 * alpha) * w + 16 * (alpha - 1)
    # dense scan certifies a single sign change on (0, 1)
    ws = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    signs = np.sign([f(w) for w in ws])
    changes = np.sum(signs[:-1] * signs[1:] < 0)
    assert changes == 1
    root = find_root(f, 0.0, 1.0, tol=1e-14)
    assert abs(f(root)) < 1e-12
    assert abs(root - 0.7639320225002103) < 1e-12


def test_find_root_bessel_zero():
    root = find_root(lambda x: bessel_j(0, x), 2.0, 3.0, tol=1e-14)
    assert abs(root - 2.404825557695773) < 1e-12


def test_refine_brackets_lockstep():
    # several functions refined together: a smooth root, a flat-sided one on
    # which plain false position stalls, a root at a bracket end and a
    # bracket of zero width
    from elastica.specfun.roots import refine_brackets

    funcs = [np.cos, lambda x: x**9 - 0.25, lambda x: x - 2.0, np.sin]
    f = lambda x, i: np.array([funcs[j](xj) for xj, j in zip(x, i)])
    a = np.array([1.0, 0.0, 2.0, 0.3])
    b = np.array([2.0, 1.0, 3.0, 0.3])
    idx = np.arange(a.size)
    roots = refine_brackets(f, a, b, f(a, idx), f(b, idx), 1e-12)
    expect = [math.pi / 2, 0.25 ** (1 / 9), 2.0, 0.3]
    assert np.allclose(roots, expect, rtol=1e-12, atol=0.0)


def test_find_root_bracket_error():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_contour_cauchy():
    r = contour_integral(lambda t: 1.0 / (t - 1.0), ContourSpec(center=1.0, radius=0.5))
    assert r.converged
    assert abs(r.value - 1.0) < 1e-12


def test_contour_single_residue():
    t = 0.7
    mu_xi2 = 2.0
    r = contour_integral(
        lambda tau: np.exp(-t * tau) / (tau - mu_xi2),
        ContourSpec(center=mu_xi2, radius=1.0),
    )
    assert abs(r.value - math.exp(-t * mu_xi2)) < 1e-12


def test_contour_rational_residue_sum():
    # 1/((tau-1)(tau-3)) has residues 1/(1-3) and 1/(3-1) -> enclosing both gives 0,
    # enclosing only tau=1 gives -1/2
    g = lambda tau: 1.0 / ((tau - 1.0) * (tau - 3.0))
    both = contour_integral(g, enclosing_contour(1.0, 3.0))
    assert abs(both.value - 0.0) < 1e-10
    one = contour_integral(g, ContourSpec(center=1.0, radius=0.5))
    assert abs(one.value + 0.5) < 1e-10


def test_contour_nonconvergence_flagged():
    # pole nearly on the contour: trapezoid cannot settle in few doublings
    g = lambda tau: 1.0 / (tau - 1.999999)
    r = contour_integral(g, ContourSpec(center=1.0, radius=1.0, panels=8), max_doublings=2)
    assert not r.converged


def test_enclosing_contour_geometry():
    spec = enclosing_contour(2.0, 10.0)
    assert spec.center == 6.0
    assert spec.radius == 1.5 * 4.0 + 1.0
    assert spec.radius > abs(10.0 - spec.center)
