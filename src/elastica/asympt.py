"""From spectra to asymptotic diagnostics.

Counting function, Weyl remainder with Cesaro smoothing, truncated heat
trace with certified tail bounds, two-term least-squares fits, and the
half-sum cancellation experiment.  Every fit carries its window and
residual; verdicts are only emitted when the fit is trustworthy, and the
window dependence is always reported rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import Theory, boundary_coefficient, heat_gamma, weyl_a
from .errors import ParameterDomainError, SingularLimitError, TailBoundError, WindowError
from .spectrum import Spectrum

TAIL_FRACTION = 1e-6


def _grid_below_cutoff(spectrum: Spectrum, lambda_grid) -> np.ndarray:
    grid = np.asarray(lambda_grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ParameterDomainError("grid must be finite")
    if grid.size and grid.max() > spectrum.lambda_max * (1 + 1e-12):
        raise ParameterDomainError(
            f"grid exceeds the spectrum cutoff lambda_max={spectrum.lambda_max}"
        )
    return grid


def counting(spectrum: Spectrum, lambda_grid) -> np.ndarray:
    """Exact N(lambda) = #{tau < lambda} with multiplicity; the grid must respect the cutoff."""
    return spectrum.count_below(_grid_below_cutoff(spectrum, lambda_grid))


@dataclass
class RemainderSeries:
    grid: np.ndarray
    raw: np.ndarray  # R(lambda)
    cesaro: np.ndarray  # (1/lambda) int_0^lambda R


def remainder_series(spectrum: Spectrum, lambda_grid, a_coeff: float) -> RemainderSeries:
    """R(lambda) = (N - a Vol lambda) / (Vol_1 sqrt(lambda)) plus its Cesaro mean.

    The grid must be positive and respect the cutoff.  The running integral
    mean suppresses the step oscillation of N.  For step N it is exact in
    closed form: int_0^lambda N(s) s^{-1/2} ds
    = 2 (N(lambda) sqrt(lambda) - sum_{tau < lambda} mult sqrt(tau)).
    """
    grid = _grid_below_cutoff(spectrum, lambda_grid)
    if np.any(grid <= 0):
        raise ParameterDomainError("remainder grid must be positive")
    av = a_coeff * spectrum.domain.volume
    L = spectrum.domain.boundary_length
    root = np.sqrt(grid)
    idx = np.searchsorted(spectrum.eigenvalues, grid, side="left")  # tau < lambda, as in N
    mults = spectrum.multiplicities
    counts = np.concatenate([[0], np.cumsum(mults)])[idx]
    root_sums = np.concatenate([[0.0], np.cumsum(mults * np.sqrt(spectrum.eigenvalues))])[idx]
    raw = (counts - av * grid) / (L * root)
    integral = (2.0 * (counts * root - root_sums) - (2.0 / 3.0) * av * grid * root) / L
    return RemainderSeries(grid=grid, raw=raw, cesaro=integral / grid)


@dataclass
class HeatTrace:
    t: np.ndarray
    values: np.ndarray
    tail_bounds: np.ndarray


def _tail_bound(spectrum: Spectrum, a_coeff: float, t):
    """Weyl-majorant tail with safety factor 2: int_cutoff^inf e^{-t L} d(2 a V L)."""
    av = a_coeff * spectrum.domain.volume
    return 2.0 * av * np.exp(-t * spectrum.lambda_max) / t


def _tail_test(spectrum: Spectrum, a_coeff: float, t):
    """The tail test at each t of an array, in log form: (excess, Z).

    excess = log tail(t) - log(TAIL_FRACTION * Z(t)), and t is admissible iff
    excess <= 0.  Z = e^{-t tau_min} S with S = sum mult e^{-t (tau - tau_min)}
    summed relative to the lowest eigenvalue, so S >= 1 never underflows and
    the test holds its meaning where Z and the tail both underflow.  Each row
    of S is summed alone: a matrix product's row sums (BLAS gemv) depend on
    how many rows there are, so a window could reject a t that passes alone.
    An empty spectrum has S = 0 and excess = +inf: no t is admissible.
    """
    evs = spectrum.eigenvalues
    shift = float(evs.min()) if evs.size else 0.0
    terms = np.outer(-t, evs - shift)
    np.exp(terms, out=terms)
    terms *= spectrum.multiplicities
    s = terms.sum(axis=1)
    const = math.log(2.0 * a_coeff * spectrum.domain.volume / TAIL_FRACTION)
    with np.errstate(divide="ignore"):
        excess = const - t * (spectrum.lambda_max - shift) - np.log(t) - np.log(s)
    return excess, np.exp(-t * shift) * s


def min_admissible_t(spectrum: Spectrum) -> float:
    """Smallest t in [1e-12, 1e3] that passes the tail test (``_tail_test``).

    The log excess g(t) has derivative -1/t - (lambda_max - <lambda>_t) < 0,
    so it has one root.  It is bracketed from the Weyl guess
    t = ln(2e6)/lambda_max outward by factors of 4 and solved to 1e-14 by
    Illinois false position; t is then stepped up until the test itself
    passes.  TailBoundError (t_min = inf) when even t = 1e3 fails, as it
    does for an empty spectrum.
    """
    a_coeff = weyl_a(spectrum.params, 2)
    t_lo, t_hi = 1e-12, 1e3
    if _tail_test(spectrum, a_coeff, np.array([t_hi]))[0][0] > 0.0:
        raise TailBoundError("spectrum cutoff too small for any reasonable t", t_min=math.inf)
    evs, mults = spectrum.eigenvalues, spectrum.multiplicities
    shift = float(evs.min())
    gaps = shift - evs
    slope = spectrum.lambda_max - shift
    const = math.log(2.0 * a_coeff * spectrum.domain.volume / TAIL_FRACTION)

    def g(t):
        return const - t * slope - math.log(t) - math.log(mults @ np.exp(t * gaps))

    a = b = min(max(math.log(2.0 / TAIL_FRACTION) / spectrum.lambda_max, t_lo), t_hi)
    ga = gb = g(a)
    while ga <= 0.0 and a > t_lo:
        b, gb = a, ga
        a = max(a / 4.0, t_lo)
        ga = g(a)
    while gb > 0.0 and b < t_hi:
        a, ga = b, gb
        b = min(4.0 * b, t_hi)
        gb = g(b)
    if ga <= 0.0:
        b = a
    moved = 0  # end replaced by the last step: -1 = a, +1 = b
    for _ in range(200):
        if not (ga > 0.0 > gb and b - a > 1e-14 * b):
            break
        # a step that would land within 1e-14/4 of an end stops that far
        # inside, so a root that close to the end is crossed, not crept up on
        gap = 0.25e-14 * b
        t = min(max(b - gb * (b - a) / (gb - ga), a + gap), b - gap)
        gt = g(t)
        if gt > 0.0:
            a, ga = t, gt
            gb = 0.5 * gb if moved == -1 else gb  # Illinois: an end kept twice is halved
            moved = -1
        else:
            b, gb = t, gt
            ga = 0.5 * ga if moved == 1 else ga
            moved = 1
    t, step = b, 2.0**-52
    while _tail_test(spectrum, a_coeff, np.array([t]))[0][0] > 0.0:
        t, step = min(t * (1.0 + step), t_hi), 2.0 * step
    return t


def heat_trace(spectrum: Spectrum, t_grid) -> HeatTrace:
    """Z(t) = sum mult * exp(-t tau) over the truncated spectrum.

    Every requested t must pass the tail test tail(t) <= 1e-6 * Z(t), taken
    in log form (``_tail_test``); otherwise a TailBoundError names the
    smallest admissible t for this cutoff.
    """
    t = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ParameterDomainError("t grid must be finite")
    if np.any(t <= 0):
        raise ParameterDomainError("t grid must be positive")
    a_coeff = weyl_a(spectrum.params, 2)
    excess, z = _tail_test(spectrum, a_coeff, t)
    bad = excess > 0.0
    if np.any(bad):
        t_min = min_admissible_t(spectrum)
        raise TailBoundError(
            f"t={t[bad].min():g} too small for cutoff lambda_max={spectrum.lambda_max:g}; "
            f"minimal admissible t is {t_min:g}",
            t_min=t_min,
        )
    return HeatTrace(t=t, values=z, tail_bounds=_tail_bound(spectrum, a_coeff, t))


def fit_window(model: str, lo: float, hi: float) -> np.ndarray:
    """The fit samples on [lo, hi]: 24 log-spaced t (heat) or 64 evenly spaced lambda (counting)."""
    if model == "heat":
        return np.geomspace(lo, hi, 24)
    return np.linspace(lo, hi, 64)


def default_heat_window(*spectra: Spectrum) -> np.ndarray:
    """The heat window [t0, 10*t0] from the smallest t admissible for every
    given spectrum: the deepest admissible regime."""
    t0 = max(min_admissible_t(sp) for sp in spectra)
    return fit_window("heat", t0, 10.0 * t0)


@dataclass
class FitReport:
    model: str  # "heat" or "counting"
    window: tuple[float, float]
    estimates: tuple  # heat: (leading, boundary) raw coefficients of t^{-1}, t^{-1/2}
    residual_norm: float
    condition: float
    discriminator: dict = field(default_factory=dict)
    verdicts_emitted: bool = False


# relative fit-residual gates for emitting discriminator verdicts; the
# counting remainder keeps O(1%) oscillation even when the mean is solid
_VERDICT_RESIDUAL_MAX = {"heat": 1e-3, "counting": 0.1}


def fit_heat_samples(t, z) -> tuple[float, float, float, float]:
    """LS fit of Z*t = c0 + c1*sqrt(t): returns (c0, c1, residual_norm, condition)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(z, dtype=float) * t
    if not np.any(y):
        raise WindowError(
            f"heat trace is zero on the window [{t.min():g}, {t.max():g}]; "
            "the spectrum has no eigenvalue to fit"
        )
    X = np.column_stack([np.ones_like(t), np.sqrt(t)])
    cond = np.linalg.cond(X)
    if cond > 1e8:
        raise WindowError(
            f"fit window [{t.min():g}, {t.max():g}] ill-conditioned "
            f"(cond={cond:.2g}); widen the window span"
        )
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = float(np.linalg.norm(y - X @ coef) / np.linalg.norm(y))
    return float(coef[0]), float(coef[1]), resid, float(cond)


def fit_two_term(spectrum: Spectrum, model: str, window=None) -> FitReport:
    """Two-term fit of the heat trace or the counting remainder.

    heat: Z(t)*t against (1, sqrt(t)); estimates are the raw coefficients,
    i.e. a~*Vol and b~*Vol_1.  counting: the Cesaro-averaged remainder
    against a constant; the estimate is b-hat directly.  Either window needs
    at least 8 samples and a positive span, and a counting window at least
    one eigenvalue below its top (WindowError otherwise).  Discriminator
    distances compare against both theories' closed forms; verdicts are
    only emitted when the fit residual is small enough to mean anything.
    """
    if model not in ("heat", "counting"):
        raise ParameterDomainError(f"unknown model {model!r}; use 'heat' or 'counting'")
    params = spectrum.params
    if window is not None:
        samples = np.asarray(window, dtype=float)
    elif model == "heat":
        samples = default_heat_window(spectrum)
    else:
        samples = fit_window(model, 0.5 * spectrum.lambda_max, spectrum.lambda_max)
    lo, hi = (float(samples.min()), float(samples.max())) if samples.size else (math.nan, math.nan)
    if samples.size < 8 or lo == hi:
        raise WindowError("the fit window needs >= 8 samples and a positive span, "
                          f"got {samples.size} on [{lo:g}, {hi:g}]")
    if model == "heat":
        c0, c1, resid, cond = fit_heat_samples(samples, heat_trace(spectrum, samples).values)
        estimates = (c0, c1)
        b_hat_per_length = c1 / spectrum.domain.boundary_length
        factor = heat_gamma(1)  # b~ = Gamma(3/2) b in two dimensions
    else:
        rem = remainder_series(spectrum, samples, weyl_a(params, 2))
        if not np.any(spectrum.eigenvalues < hi):
            raise WindowError(f"no eigenvalue below the counting window's top {hi:g}; "
                              "the remainder would be the Weyl term alone")
        b_hat_per_length = float(np.mean(rem.cesaro))
        resid = float(np.std(rem.cesaro) / max(abs(b_hat_per_length), 1e-300))
        estimates = (b_hat_per_length,)
        cond, factor = 1.0, 1.0

    emitted = resid <= _VERDICT_RESIDUAL_MAX[model]
    targets = {}
    for theory in Theory:
        try:
            targets[theory.value] = factor * boundary_coefficient(params, 2, spectrum.bc, theory)
        except SingularLimitError as exc:  # the free CFLV coefficient at alpha = 1
            targets[theory.value] = exc
    dists = {k: abs(b_hat_per_length - b) for k, b in targets.items() if not isinstance(b, Exception)}
    # a verdict needs both distances; ties (the theories coincide at alpha = 1) mark both
    best = min(dists.values()) * (1.0 + 1e-12) if len(dists) == len(targets) else None
    discriminator = {k: {"error": str(b)} for k, b in targets.items() if k not in dists}
    for k, dist in dists.items():
        entry = discriminator[k] = {"target": targets[k], "distance": dist}
        if emitted:
            entry["closer"] = None if best is None else dist <= best
    return FitReport(
        model=model,
        window=(lo, hi),
        estimates=estimates,
        residual_norm=resid,
        condition=cond,
        discriminator=discriminator,
        verdicts_emitted=emitted,
    )


def shifted_window(rep: FitReport, spectrum: Spectrum) -> np.ndarray:
    """The window of the stability refit of ``rep``: shifted up by sqrt(10)
    in t (heat), or by half its width in lambda, capped at the cutoff (counting)."""
    lo, hi = rep.window
    if rep.model == "heat":
        return fit_window(rep.model, lo * math.sqrt(10.0), hi * math.sqrt(10.0))
    width = hi - lo
    return fit_window(rep.model, lo + 0.5 * width, min(hi + 0.5 * width, spectrum.lambda_max))


def write_columns_csv(path, names, *columns) -> None:
    """Plot-ready CSV: a header of ``names``, then one row per index of the
    equal-length ``columns``, each number as the repr of its float, so it
    reads back to the same float."""
    lines = [",".join(names)]
    lines += [",".join(repr(float(x)) for x in row) for row in zip(*columns)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class Prop71Report:
    window: tuple[float, float]
    b_sum_fit: float  # boundary coefficient of (Z^- + Z^+)/2 (raw, per full boundary)
    b_minus_fit: float
    ratio: float
    passed: bool
    tolerance: float


# PASS bound of the half-sum test on |b_sum| / |b^-|
PROP71_TOLERANCE = 0.1


def prop71_empirical(spec_dirichlet: Spectrum, spec_free: Spectrum) -> Prop71Report:
    """Fit the boundary term of the half-sum (Z^- + Z^+)/2.

    The cancellation prediction is that this term vanishes; PASS when the
    fitted coefficient is below ``PROP71_TOLERANCE`` times the fitted
    Dirichlet boundary coefficient in magnitude.
    """
    sd, sf = spec_dirichlet, spec_free
    if (sd.bc.value, sf.bc.value) != ("dirichlet", "free"):
        raise ParameterDomainError(f"need a Dirichlet then a free spectrum, got {sd.bc.value}, {sf.bc.value}")
    if sd.domain.name != sf.domain.name:
        raise ParameterDomainError("spectra must share the domain")
    if (sd.params.mu, sd.params.lam) != (sf.params.mu, sf.params.lam):
        raise ParameterDomainError("spectra must share the material parameters")
    if abs(sd.lambda_max - sf.lambda_max) > 1e-9 * max(sd.lambda_max, sf.lambda_max):
        raise ParameterDomainError("spectra must share lambda_max")
    t = default_heat_window(sd, sf)
    zd = heat_trace(sd, t).values
    zf = heat_trace(sf, t).values
    _, c1_sum, *_ = fit_heat_samples(t, 0.5 * (zd + zf))
    _, c1_d, *_ = fit_heat_samples(t, zd)
    ratio = abs(c1_sum) / max(abs(c1_d), 1e-300)
    return Prop71Report(
        window=(float(t.min()), float(t.max())),
        b_sum_fit=c1_sum,
        b_minus_fit=c1_d,
        ratio=ratio,
        passed=ratio <= PROP71_TOLERANCE,
        tolerance=PROP71_TOLERANCE,
    )
