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

from .coeffs import Theory, boundary_coefficient, weyl_a
from .errors import ParameterDomainError, TailBoundError, WindowError
from .params import DomainGeometry
from .specfun import gamma_fn
from .spectrum import Spectrum

TAIL_FRACTION = 1e-6


@dataclass
class CountingSeries:
    source: Spectrum
    grid: np.ndarray
    values: np.ndarray  # exact counts with multiplicity


def counting(spectrum: Spectrum, lambda_grid) -> CountingSeries:
    """Exact N(lambda) = #{tau < lambda} on the grid; grid must respect the cutoff."""
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size and grid.max() > spectrum.lambda_max * (1 + 1e-12):
        raise ParameterDomainError(
            f"grid exceeds the spectrum cutoff lambda_max={spectrum.lambda_max}"
        )
    return CountingSeries(source=spectrum, grid=grid, values=spectrum.count_below(grid))


@dataclass
class RemainderSeries:
    grid: np.ndarray
    raw: np.ndarray  # R(lambda)
    cesaro: np.ndarray  # (1/lambda) int_0^lambda R


def remainder_series(series: CountingSeries, a_coeff: float, geometry: DomainGeometry) -> RemainderSeries:
    """R(lambda) = (N - a Vol lambda) / (Vol_1 sqrt(lambda)) plus its Cesaro mean.

    The running integral mean suppresses the step oscillation of N.  For step
    N it is exact in closed form: int_0^lambda N(s) s^{-1/2} ds
    = 2 (N(lambda) sqrt(lambda) - sum_{tau < lambda} mult sqrt(tau)).
    """
    grid = series.grid
    if np.any(grid <= 0):
        raise ParameterDomainError("remainder grid must be positive")
    av = a_coeff * geometry.volume
    L = geometry.boundary_length
    root = np.sqrt(grid)
    raw = (series.values - av * grid) / (L * root)
    sp = series.source
    idx = np.searchsorted(sp.eigenvalues, grid, side="left")  # tau < lambda, as in N
    counts = np.concatenate([[0], np.cumsum(sp.multiplicities)])[idx]
    root_sums = np.concatenate([[0.0], np.cumsum(sp.multiplicities * np.sqrt(sp.eigenvalues))])[idx]
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


def _z_values(spectrum: Spectrum, t):
    evs = spectrum.eigenvalues
    mults = spectrum.multiplicities
    return np.exp(-np.outer(t, evs)) @ mults


def min_admissible_t(spectrum: Spectrum) -> float:
    """Smallest t whose truncation tail is below the declared fraction of Z."""
    a_coeff = weyl_a(spectrum.params, 2)

    def ok(t):
        z = _z_values(spectrum, np.array([t]))[0]
        return _tail_bound(spectrum, a_coeff, t) <= TAIL_FRACTION * z

    lo, hi = 1e-12, 1e3
    if not ok(hi):
        raise TailBoundError("spectrum cutoff too small for any reasonable t", t_min=math.inf)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return hi


def heat_trace(spectrum: Spectrum, t_grid) -> HeatTrace:
    """Z(t) = sum mult * exp(-t tau) over the truncated spectrum.

    Every requested t must satisfy the tail criterion
    tail(t) <= 1e-6 * Z(t); otherwise a TailBoundError names the smallest
    admissible t for this cutoff.
    """
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0):
        raise ParameterDomainError("t grid must be positive")
    a_coeff = weyl_a(spectrum.params, 2)
    z = _z_values(spectrum, t)
    tails = _tail_bound(spectrum, a_coeff, t)
    bad = tails > TAIL_FRACTION * z
    if np.any(bad):
        t_min = min_admissible_t(spectrum)
        raise TailBoundError(
            f"t={t[bad].min():g} too small for cutoff lambda_max={spectrum.lambda_max:g}; "
            f"minimal admissible t is {t_min:g}",
            t_min=t_min,
        )
    return HeatTrace(t=t, values=z, tail_bounds=tails)


def default_heat_window(spectrum: Spectrum, points: int = 24, span: float = 10.0) -> np.ndarray:
    """Log-spaced t window [t_min, span*t_min]: the deepest admissible regime."""
    t0 = min_admissible_t(spectrum)
    return np.geomspace(t0, span * t0, points)


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
    if cond > 1e8 or len(t) < 8:
        raise WindowError(
            f"fit window [{t.min():g}, {t.max():g}] ill-conditioned or too small "
            f"(cond={cond:.2g}, n={len(t)}); widen the window span"
        )
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = float(np.linalg.norm(y - X @ coef) / np.linalg.norm(y))
    return float(coef[0]), float(coef[1]), resid, float(cond)


def fit_two_term(spectrum: Spectrum, model: str, window=None) -> FitReport:
    """Two-term fit of the heat trace or the counting remainder.

    heat: Z(t)*t against (1, sqrt(t)); estimates are the raw coefficients,
    i.e. a~*Vol and b~*Vol_1.  counting: the Cesaro-averaged remainder
    against a constant; the estimate is b-hat directly.  Discriminator
    distances compare against both theories' closed forms; verdicts are
    only emitted when the fit residual is small enough to mean anything.
    """
    params = spectrum.params
    geometry = spectrum.domain
    if model == "heat":
        t = np.asarray(window) if window is not None else default_heat_window(spectrum)
        if t.size < 8:
            raise WindowError("need >= 8 samples in the fit window")
        z = heat_trace(spectrum, t).values
        c0, c1, resid, cond = fit_heat_samples(t, z)
        estimates = (c0, c1)
        b_hat_per_length = c1 / geometry.boundary_length
        window_out = (float(t.min()), float(t.max()))
    elif model == "counting":
        if window is None:
            hi = spectrum.lambda_max
            window = np.linspace(0.5 * hi, hi, 64)
        lam = np.asarray(window, dtype=float)
        if lam.size < 8:
            raise WindowError("need >= 8 samples in the fit window")
        series = counting(spectrum, lam)
        rem = remainder_series(series, weyl_a(params, 2), geometry)
        b_hat = float(np.mean(rem.cesaro))
        resid = float(np.std(rem.cesaro) / max(abs(b_hat), 1e-300))
        estimates = (b_hat,)
        b_hat_per_length = b_hat
        cond = 1.0
        window_out = (float(lam.min()), float(lam.max()))
    else:
        raise ParameterDomainError(f"unknown model {model!r}; use 'heat' or 'counting'")

    discriminator = {}
    emitted = resid <= _VERDICT_RESIDUAL_MAX[model]
    for theory in Theory:
        try:
            b_theory = boundary_coefficient(params, 2, spectrum.bc, theory)
        except Exception as exc:  # the free counting coefficient at alpha = 1
            discriminator[theory.value] = {"error": str(exc)}
            continue
        if model == "heat":
            b_theory *= gamma_fn(1.5)
        dist = abs(b_hat_per_length - b_theory)
        entry = {"target": b_theory, "distance": dist}
        if emitted:
            entry["closer"] = None  # filled below once both distances exist
        discriminator[theory.value] = entry
    dists = {
        k: v["distance"] for k, v in discriminator.items() if "distance" in v
    }
    if emitted and len(dists) == 2:
        best = min(dists.values())
        for k in discriminator:
            if "distance" in discriminator[k]:
                # ties (the theories coincide at alpha = 1) mark both
                discriminator[k]["closer"] = dists[k] <= best * (1.0 + 1e-12)
    return FitReport(
        model=model,
        window=window_out,
        estimates=estimates,
        residual_norm=resid,
        condition=cond,
        discriminator=discriminator,
        verdicts_emitted=emitted,
    )


def write_remainder_csv(path, rem: RemainderSeries) -> None:
    """Plot-ready columns: lambda, remainder, cesaro_mean."""
    lines = ["lambda,remainder,cesaro_mean"]
    for lam, r, c in zip(rem.grid, rem.raw, rem.cesaro):
        lines.append(f"{float(lam)!r},{float(r)!r},{float(c)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_heat_csv(path, ht: HeatTrace) -> None:
    """Plot-ready columns: t, trace, tail_bound."""
    lines = ["t,trace,tail_bound"]
    for t, z, tb in zip(ht.t, ht.values, ht.tail_bounds):
        lines.append(f"{float(t)!r},{float(z)!r},{float(tb)!r}")
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


def prop71_empirical(
    spec_dirichlet: Spectrum,
    spec_free: Spectrum,
    tolerance: float = 0.1,
) -> Prop71Report:
    """Fit the boundary term of the half-sum (Z^- + Z^+)/2.

    The cancellation prediction is that this term vanishes; PASS when the
    fitted coefficient is below `tolerance` times the fitted Dirichlet
    boundary coefficient in magnitude.
    """
    sd, sf = spec_dirichlet, spec_free
    if sd.domain.name != sf.domain.name:
        raise ParameterDomainError("spectra must share the domain")
    if (sd.params.mu, sd.params.lam) != (sf.params.mu, sf.params.lam):
        raise ParameterDomainError("spectra must share the material parameters")
    if abs(sd.lambda_max - sf.lambda_max) > 1e-9 * max(sd.lambda_max, sf.lambda_max):
        raise ParameterDomainError("spectra must share lambda_max")
    t_min = max(min_admissible_t(sd), min_admissible_t(sf))
    t = np.geomspace(t_min, 10.0 * t_min, 24)
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
        passed=ratio <= tolerance,
        tolerance=tolerance,
    )
