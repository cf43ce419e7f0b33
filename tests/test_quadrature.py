"""Quadrature, lockstep bracket refinement, and contour integration."""

import math

import numpy as np
import pytest
import scipy.special as sps

from elastica.errors import ParameterDomainError
from elastica.specfun import (
    ContourSpec,
    QuadratureSpec,
    contour_integral,
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


_REFINE_CASES = (  # (function, slope, a, b)
    (np.cos, lambda x: -np.sin(x), 1.0, 2.0),  # a smooth root
    (lambda x: x**9 - 0.25, lambda x: 9.0 * x**8, 0.0, 1.0),  # flat-sided: Newton overshoots from the left
    (lambda x: x - 2.0, lambda x: np.ones_like(x), 2.0, 3.0),  # a root at a bracket end
    (np.sin, np.cos, 0.3, 0.3),  # a bracket of zero width
)
_REFINE_ROOTS = [math.pi / 2, 0.25 ** (1 / 9), 2.0, 0.3]


def _refine_cases(slope_of=None, trace=None, end_slope_of=lambda g: np.full_like(g, np.nan)):
    """refine_brackets over _REFINE_CASES; slope_of(true slope) replaces the
    slopes, end_slope_of(true end slopes) gives the end slopes (NaN, for the
    secant start, by default), and trace collects (bracket, iterate, value)
    of every evaluation."""
    from elastica.specfun.roots import refine_brackets

    def f(x, i):
        fx = np.array([_REFINE_CASES[j][0](xj) for xj, j in zip(x, i)])
        gx = np.array([_REFINE_CASES[j][1](xj) for xj, j in zip(x, i)])
        if trace is not None:
            trace.append((i.copy(), x.copy(), fx))
        return fx, gx if slope_of is None else slope_of(gx)

    a = np.array([c[2] for c in _REFINE_CASES])
    b = np.array([c[3] for c in _REFINE_CASES])
    idx = np.arange(a.size)
    fa = np.array([c[0](x) for c, x in zip(_REFINE_CASES, a)])
    fb = np.array([c[0](x) for c, x in zip(_REFINE_CASES, b)])
    ga = end_slope_of(np.array([c[1](x) for c, x in zip(_REFINE_CASES, a)], dtype=float))
    gb = end_slope_of(np.array([c[1](x) for c, x in zip(_REFINE_CASES, b)], dtype=float))
    return refine_brackets(f, a, b, fa, fb, 1e-12, ga, gb)


def _assert_iterates_inside(trace, roots):
    """Every traced iterate lies inside its bracket as the signs shrink it."""
    lo = np.array([c[2] for c in _REFINE_CASES])
    hi = np.array([c[3] for c in _REFINE_CASES])
    sign_lo = np.sign([c[0](c[2]) for c in _REFINE_CASES])
    for i, x, fx in trace:
        assert np.all((lo[i] <= x) & (x <= hi[i]))
        right = np.sign(fx) == sign_lo[i]
        lo[i] = np.where(right, x, lo[i])
        hi[i] = np.where(right, hi[i], x)
    assert np.all(lo <= roots) and np.all(roots <= hi)


def test_refine_brackets_lockstep():
    # several functions refined together with their slopes, in few lockstep calls
    trace = []
    roots = _refine_cases(trace=trace)
    assert np.allclose(roots, _REFINE_ROOTS, rtol=1e-12, atol=0.0)
    assert len(trace) <= 12


def test_refine_brackets_from_end_slopes():
    # the Hermite start from the ends' slopes saves lockstep calls
    without, trace = [], []
    _refine_cases(trace=without)
    roots = _refine_cases(trace=trace, end_slope_of=lambda g: g)
    assert np.allclose(roots, _REFINE_ROOTS, rtol=1e-12, atol=0.0)
    assert len(trace) < len(without)
    _assert_iterates_inside(trace, roots)


_BAD_SLOPES = {
    "zero": np.zeros_like,
    "nan": lambda g: np.full_like(g, np.nan),
    "wrong_sign": np.negative,
    "huge": lambda g: np.full_like(g, 1e300),
    "inf": lambda g: np.full_like(g, np.inf),
}


@pytest.mark.parametrize("bad", list(_BAD_SLOPES))
def test_refine_brackets_survives_bad_slopes(bad):
    # a slope that is zero, NaN, of the wrong sign, 1e300 or inf leaves every
    # iterate inside its bracket, and bisection still converges; the last two
    # give Newton steps too small to move, which must not end a bracket
    trace = []
    roots = _refine_cases(_BAD_SLOPES[bad], trace)
    assert np.allclose(roots, _REFINE_ROOTS, rtol=1e-12, atol=0.0)
    _assert_iterates_inside(trace, roots)


@pytest.mark.parametrize("bad", list(_BAD_SLOPES))
def test_refine_brackets_survives_bad_end_slopes(bad):
    # bad end slopes give a Hermite start that is NaN, outside the bracket, or
    # inside it but poor: the start falls back or costs steps, not accuracy,
    # with true slopes along the way and with the same bad slopes
    for slope_of in (None, _BAD_SLOPES[bad]):
        trace = []
        roots = _refine_cases(slope_of, trace, end_slope_of=_BAD_SLOPES[bad])
        assert np.allclose(roots, _REFINE_ROOTS, rtol=1e-12, atol=0.0), slope_of
        _assert_iterates_inside(trace, roots)


def test_refine_brackets_one_bracket_alone_equals_it_in_a_batch():
    # a bracket's iterates depend on nothing else in the batch: bessel_zeros(below=)
    # refines only some of the count form's brackets and must give its zeros bit for bit
    from elastica.specfun._backend import jk_pairs
    from elastica.specfun.roots import refine_brackets

    k = np.array([0, 0, 1, 7, 30, 30, 120])
    m = np.array([1, 2, 1, 3, 1, 2, 4])  # brackets around the zeros j_{k,m}
    a = np.array([math.floor(sps.jn_zeros(kj, mj)[-1]) for kj, mj in zip(k, m)], dtype=float)
    b = a + 1.0
    (fa, ga), (fb, gb) = jk_pairs(k, a), jk_pairs(k, b)
    assert np.all(fa * fb < 0.0)
    f = lambda x, i: jk_pairs(k[i], x)
    for slopes in (False, True):  # the secant start from NaN slopes, and the Hermite start
        ends = (ga, gb) if slopes else (np.full_like(ga, np.nan), np.full_like(gb, np.nan))
        batch = refine_brackets(f, a, b, fa, fb, 1e-10, *ends)
        for j in range(k.size):
            one = slice(j, j + 1)
            alone = refine_brackets(lambda x, i: jk_pairs(k[j], x), a[one], b[one], fa[one], fb[one], 1e-10,
                                    *(e[one] for e in ends))
            assert np.array_equal(alone, batch[one]), (slopes, j)


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
    both = contour_integral(g, ContourSpec(center=2.0, radius=4.0))
    assert abs(both.value - 0.0) < 1e-10
    one = contour_integral(g, ContourSpec(center=1.0, radius=0.5))
    assert abs(one.value + 0.5) < 1e-10


def test_contour_nonconvergence_flagged():
    # pole nearly on the contour: trapezoid cannot settle in few doublings
    g = lambda tau: 1.0 / (tau - 1.999999)
    r = contour_integral(g, ContourSpec(center=1.0, radius=1.0, panels=8), max_doublings=2)
    assert not r.converged
