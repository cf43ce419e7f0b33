"""The benchmark workloads: inputs from a seed, one pass, and output checks.

Each workload turns ``--seed`` into its inputs (seed 0 gives the nominal
inputs; other seeds perturb lambda, or mu on the decoupled closed-form
spectra, by at most 2%), runs one pass of public ``elastica`` calls, and
reduces the outputs to a fingerprint per operation.  Checks come in two
kinds:

* reference-free checks, run on every seed: determinant residual
  certificates of potential-method roots, potential-vs-FEM pairing, counts
  against the two-term Weyl estimate, write/read round trips, exit codes;
* the seed-0 fingerprints recorded in ``fingerprints.json``.

Every library call goes through a module attribute looked up at call time,
so the traced run's wrappers (``tracing.LAYER_WRAPS``) see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from elastica import adjudicate, asympt, cli, diskmodes, fem, spectrum
from elastica.coeffs import Theory, boundary_coefficient, weyl_a
from elastica.errors import SingularLimitError
from elastica.fem import analytic
from elastica.params import UNIT_DISK, BoundaryCondition, LameParams
from elastica.specfun import _backend

DIRICHLET = BoundaryCondition.DIRICHLET
FREE = BoundaryCondition.FREE

PERTURBATION = 0.02
# library's own certificate level for determinant roots (diskmodes._RESIDUAL_REL)
RESIDUAL_MAX = 1e-9
# counts must lie within this share of the two-term Weyl estimates
WEYL_BAND = 0.05
# seed-0 floats must match the recorded fingerprint to this relative tolerance
FINGERPRINT_RTOL = 1e-8

# adjudicate_disk: the criterion-7 problem on coarser meshes, so that a run holds
# several passes
ADJ_LAMBDA_MAX = 100.0
ADJ_RINGS = (12, 24, 48)
# cli_disk_free: one FEM level in cutoff mode (--h 0.035 gives 51 rings)
CLI_LAMBDA_MAX = 80.0
CLI_H = 0.035
# potential_sweep: the lambda x boundary-condition table
SWEEP_LAMBDAS = (0.0, 1.0, 3.0)
SWEEP_LAMBDA_MAX = 250.0
SWEEP_K_MAX = 60
# asymptotics_closed_form
# the half-sum test needs Lambda >= 3e4 on the square to pass its 0.1 tolerance
SQUARE_LAMBDA_MAX = 3e4
DISK_LAMBDA_MAX = 800.0


def _perturbed(rng, value, scale):
    return value + PERTURBATION * scale * rng.uniform(-1.0, 1.0)


def _rng(name, seed):
    return random.Random(f"{name}/{seed}")


# --------------------------------------------------------------------------
# reference-free checks


def _mode_k(tag):
    return int(tag.split("_", 1)[0][1:])


def residual_problems(sp):
    """Determinant certificates of every nonzero potential-method root."""
    det = _backend.det_free if sp.bc is FREE else _backend.det_dirichlet
    worst = 0.0
    for ev, tag in zip(sp.eigenvalues, sp.mode_tags):
        if ev == 0.0:
            continue
        d, scale = det(_mode_k(tag), float(ev), sp.params.mu, sp.params.lam)
        worst = max(worst, abs(d / scale))
    return [f"determinant residual {worst:.2e} > {RESIDUAL_MAX:g}"] if worst > RESIDUAL_MAX else []


def weyl_problems(sp):
    """Count below the cutoff against the two-term estimates of both theories."""
    lam = sp.lambda_max
    lead = weyl_a(sp.params, 2) * sp.domain.volume * lam
    estimates = []
    for theory in Theory:
        try:
            b = boundary_coefficient(sp.params, 2, sp.bc, theory)
        except SingularLimitError:  # the free counting coefficient at alpha = 1
            continue
        estimates.append(lead + b * sp.domain.boundary_length * math.sqrt(lam))
    n = int(sp.count_below(lam))
    lo, hi = (1 - WEYL_BAND) * min(estimates), (1 + WEYL_BAND) * max(estimates)
    return [] if lo <= n <= hi else [f"count {n} outside Weyl band [{lo:.1f}, {hi:.1f}]"]


def adjudication_problems(cmp_, spa, spb):
    """Counts must agree; a divergence is allowed only at the comparison cutoff
    and only where an eigenvalue of either list straddles it within the
    pairing tolerance (then no mode is lost, it sits on the edge)."""
    cut = cmp_.lambda_cut
    width = 2.0 * max(cmp_.pair_tol, cmp_.max_rel_diff) * cut
    both = np.concatenate([spa.eigenvalues, spb.eigenvalues])
    straddle = bool(np.any(np.abs(both - cut) <= width))
    problems = [
        f"count divergence at {lam:g}: {a} vs {b}"
        for lam, a, b in cmp_.divergences
        if not (lam == cut and straddle)
    ]
    if cmp_.count_a != cmp_.count_b and not straddle:
        problems.append(f"counts {cmp_.count_a} vs {cmp_.count_b}")
    return problems


def fit_problems(rep):
    if not all(math.isfinite(v) for v in rep.estimates) or not math.isfinite(rep.residual_norm):
        return [f"non-finite {rep.model} fit"]
    return []


# --------------------------------------------------------------------------
# reference fingerprints


def fingerprint_problems(expected, actual, rtol=FINGERPRINT_RTOL):
    """Operations whose fingerprint differs from the reference, with reasons."""
    bad = {}
    for op, ref in expected.items():
        got = actual.get(op)
        if got is None:
            bad[op] = ["missing"]
            continue
        for key, want in ref.items():
            have = got.get(key)
            if isinstance(want, float) and isinstance(have, (int, float)) and not isinstance(have, bool):
                ok = abs(have - want) <= rtol * max(abs(want), 1e-300)
            else:
                ok = have == want
            if not ok:
                bad.setdefault(op, []).append(f"{key}: {have!r} != {want!r}")
    return bad


def load_fingerprints(path):
    return json.loads(Path(path).read_text())


# --------------------------------------------------------------------------
# workloads


@dataclass
class Outcome:
    """One pass: the fingerprint and reference-free problems of each operation."""

    fingerprints: dict
    problems: dict


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_pass: int
    make_inputs: Callable[[int], dict]
    run: Callable[[dict, Path], dict]  # inputs, working directory -> raw outputs (timed)
    inspect: Callable[[dict, dict], Outcome]  # inputs, raw outputs -> outcome (untimed)


def _spectrum_fp(sp):
    return {"count": sp.total_count, "cutoff": float(sp.lambda_max)}


def _compare_fp(c):
    return {"count_a": c.count_a, "count_b": c.count_b, "divergences": len(c.divergences)}


# adjudicate_disk ---------------------------------------------------------


def _adj_inputs(seed):
    lam = 1.0 if seed == 0 else _perturbed(_rng("adjudicate_disk", seed), 1.0, 1.0)
    return {"mu": 1.0, "lambda": lam}


def _adj_run(inp, work):
    params = LameParams(inp["mu"], inp["lambda"])
    sp = diskmodes.disk_spectrum_potential(params, DIRICHLET, lambda_max=ADJ_LAMBDA_MAX)
    sf, ex = fem.fem_extrapolated_spectrum(UNIT_DISK, params, DIRICHLET, list(ADJ_RINGS), ADJ_LAMBDA_MAX)
    # criterion 7's pair tolerance, from the extrapolation's error estimates
    pair_rtol = max(0.05 * float(sf.meta["max_error_estimate"]) / ADJ_LAMBDA_MAX, 3e-5)
    cmp_ = adjudicate.compare_spectra(sp, sf, pair_rtol=pair_rtol)
    return {"potential": sp, "fem": sf, "extrapolation": ex, "compare": cmp_}


def _adj_inspect(inp, out):
    sp, sf, cmp_ = out["potential"], out["fem"], out["compare"]
    return Outcome(
        fingerprints={
            "potential": _spectrum_fp(sp),
            "fem": {**_spectrum_fp(sf), "flagged": int(out["extrapolation"].flagged.sum())},
            "compare": _compare_fp(cmp_),
        },
        problems={
            "potential": residual_problems(sp) + weyl_problems(sp),
            "fem": weyl_problems(sf),
            "compare": adjudication_problems(cmp_, sp, sf),
        },
    )


# cli_disk_free -----------------------------------------------------------


def _cli_inputs(seed):
    lam = 1.0 if seed == 0 else _perturbed(_rng("cli_disk_free", seed), 1.0, 1.0)
    return {"mu": 1.0, "lambda": lam}


def _cli_run(inp, work):
    out = work / "disk_free.csv"
    argv = ["spectrum", "--domain", "disk", "--mu", repr(inp["mu"]), "--lambda", repr(inp["lambda"]),
            "--bc", "free", "--method", "both", "--lambda-max", repr(CLI_LAMBDA_MAX),
            "--h", repr(CLI_H), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return {"code": code, "out": out}


def _cli_inspect(inp, out):
    base = out["out"]
    sp = spectrum.read_spectrum(base.with_suffix(".potential.csv"))
    sf = spectrum.read_spectrum(base.with_suffix(".fem.csv"))
    report = json.loads(base.with_suffix(".compare.json").read_text())["outputs"]
    # the CLI's comparison, recomputed from its own files with its defaults
    cmp_ = adjudicate.compare_spectra(sp, sf)
    problems = residual_problems(sp) + weyl_problems(sp) + adjudication_problems(cmp_, sp, sf)
    if out["code"] != 0:
        problems.append(f"exit code {out['code']}")
    if (report["count_a"], report["count_b"]) != (cmp_.count_a, cmp_.count_b):
        problems.append("comparison report disagrees with the written spectra")
    return Outcome(
        fingerprints={"cli": {"code": out["code"], "potential_count": sp.total_count,
                              "fem_count": sf.total_count, "fem_cutoff": float(sf.lambda_max),
                              "count_a": report["count_a"], "count_b": report["count_b"],
                              "divergences": len(report["divergences"])}},
        problems={"cli": problems},
    )


# potential_sweep ---------------------------------------------------------


def _sweep_inputs(seed):
    rng = _rng("potential_sweep", seed)
    lams = [lam if seed == 0 else _perturbed(rng, lam, max(abs(lam), 1.0)) for lam in SWEEP_LAMBDAS]
    return {"mu": 1.0, "lambdas": lams}


def _sweep_cases(inp):
    for i, lam in enumerate(inp["lambdas"]):
        for bc in (DIRICHLET, FREE):
            yield f"l{SWEEP_LAMBDAS[i]:g}_{bc.value}", LameParams(inp["mu"], lam), bc


def _sweep_run(inp, work):
    out = {}
    for label, params, bc in _sweep_cases(inp):
        sp = diskmodes.disk_spectrum_potential(params, bc, k_max=SWEEP_K_MAX, lambda_max=SWEEP_LAMBDA_MAX)
        path = work / f"{label}.csv"
        spectrum.write_spectrum(sp, path)
        back = spectrum.read_spectrum(path)
        out[label] = {
            "spectrum": sp,
            "read": back,
            "heat": asympt.fit_two_term(back, "heat"),
            "counting": asympt.fit_two_term(back, "counting"),
        }
    return out


def _sweep_inspect(inp, out):
    fps, problems = {}, {}
    for label, o in out.items():
        sp, back = o["spectrum"], o["read"]
        fps[f"{label}.potential"] = _spectrum_fp(sp)
        problems[f"{label}.potential"] = residual_problems(sp) + weyl_problems(sp)
        same = np.array_equal(sp.eigenvalues, back.eigenvalues) and np.array_equal(
            sp.multiplicities, back.multiplicities) and sp.mode_tags == back.mode_tags
        # a broken round trip cannot be pinned on one side: both calls fail
        round_trip = [] if same else ["write/read round trip changed the spectrum"]
        problems[f"{label}.write"] = problems[f"{label}.read"] = round_trip
        for model in ("heat", "counting"):
            rep = o[model]
            fps[f"{label}.{model}"] = {"boundary": float(rep.estimates[-1])}
            problems[f"{label}.{model}"] = fit_problems(rep)
    return Outcome(fingerprints=fps, problems=problems)


# asymptotics_closed_form -------------------------------------------------


def _asym_inputs(seed):
    if seed == 0:
        return {"mu": 1.0, "verify_mu": 1.0, "verify_lambda": 1.0}
    rng = _rng("asymptotics_closed_form", seed)
    return {"mu": _perturbed(rng, 1.0, 1.0), "verify_mu": 1.0, "verify_lambda": _perturbed(rng, 1.0, 1.0)}


def _shifted_window(rep, sp):
    """The window ``elastica fit`` uses for its stability indicator."""
    lo, hi = rep.window
    if rep.model == "heat":
        return np.geomspace(lo * math.sqrt(10.0), hi * math.sqrt(10.0), 24)
    width = hi - lo
    return np.linspace(lo + 0.5 * width, min(hi + 0.5 * width, sp.lambda_max), 64)


def _asym_run(inp, work):
    mu = inp["mu"]
    spectra = {
        "square_dirichlet": analytic.square_dirichlet_spectrum(mu, SQUARE_LAMBDA_MAX),
        "square_neumann": analytic.square_neumann_lattice_spectrum(mu, SQUARE_LAMBDA_MAX),
        "disk_dirichlet": analytic.disk_dirichlet_spectrum(mu, DISK_LAMBDA_MAX),
    }
    fits = {}
    for label, sp in spectra.items():
        for model in ("heat", "counting"):
            rep = asympt.fit_two_term(sp, model)
            fits[f"{label}.{model}"] = rep
            fits[f"{label}.{model}_shifted"] = asympt.fit_two_term(sp, model, window=_shifted_window(rep, sp))
    prop = asympt.prop71_empirical(spectra["square_dirichlet"], spectra["square_neumann"])
    argv = ["verify", "--suite", "all", "--mu", repr(inp["verify_mu"]), "--lambda", repr(inp["verify_lambda"])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"spectra": spectra, "fits": fits, "prop71": prop, "verify": (code, buf.getvalue())}


def _asym_inspect(inp, out):
    fps, problems = {}, {}
    for label, sp in out["spectra"].items():
        fps[label] = _spectrum_fp(sp)
        problems[label] = weyl_problems(sp)
    for label, rep in out["fits"].items():
        fps[label] = {"boundary": float(rep.estimates[-1])}
        problems[label] = fit_problems(rep)
    prop = out["prop71"]
    fps["prop71"] = {"passed": bool(prop.passed), "ratio": float(prop.ratio)}
    problems["prop71"] = [] if prop.passed else [f"half-sum ratio {prop.ratio:.3f} > {prop.tolerance}"]
    code, text = out["verify"]
    verdicts = [line.split(": ", 1)[1] for line in text.splitlines() if ": " in line]
    fps["verify"] = {"code": code, "verdicts": verdicts}
    problems["verify"] = [] if code == 0 and verdicts and set(verdicts) == {"PASS"} else [f"verify: {text!r}"]
    return Outcome(fingerprints=fps, problems=problems)


WORKLOADS = {
    w.name: w
    for w in [
        # why each workload exists: see BENCHMARK.json
        Workload("adjudicate_disk", 3, _adj_inputs, _adj_run, _adj_inspect),
        Workload("cli_disk_free", 1, _cli_inputs, _cli_run, _cli_inspect),
        Workload("potential_sweep", 30, _sweep_inputs, _sweep_run, _sweep_inspect),
        Workload("asymptotics_closed_form", 17, _asym_inputs, _asym_run, _asym_inspect),
    ]
}


def failed_ops(outcome, reference=None):
    """Operations that failed a reference-free check or, given a reference,
    differ from their recorded fingerprint: {operation: [reasons]}."""
    bad = {op: list(p) for op, p in outcome.problems.items() if p}
    if reference is not None:
        for op, reasons in fingerprint_problems(reference, outcome.fingerprints).items():
            bad.setdefault(op, []).extend(reasons)
    return bad
