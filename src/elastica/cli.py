"""Command-line front end.

Subcommands: ``coeffs`` (closed-form coefficients), ``spectrum`` (compute
and write eigenvalue files), ``fit`` (asymptotic coefficient extraction),
``verify`` (symbol/cancellation checks).  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 any refusal the library raises
(``ElasticaError``): ``main`` prints it as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adjudicate import compare_spectra
from .asympt import (
    fit_two_term,
    fit_window,
    heat_trace,
    min_admissible_t,
    remainder_series,
    shifted_window,
    write_columns_csv,
)
from .coeffs import (
    _BD_QUAD,
    SUM_TEST_REL_TOL,
    Theory,
    rayleigh_root,
    sum_test,
    to_heat_coeffs,
    weyl_a,
    weyl_two_term,
)
from .diskmodes import disk_spectrum_potential
from .errors import ElasticaError, ParameterDomainError, TailBoundError
from .fem import analytic_decoupled_spectrum, fem_spectrum
from .params import BoundaryCondition, DomainName, DomainGeometry, LameParams
from .spectrum import read_spectrum, write_spectrum
from .symbolcheck import (
    INTEGRAL_GAP_TOL,
    RESIDUE_GAP_TOL,
    STANDARD_T,
    STANDARD_XI2,
    boundary_layer,
    interior_coefficient,
    prop71_analytic,
    prop71_verdict,
    residue_heat,
)

# the quadrature target of the boundary coefficients b and b~
_QUAD_TOL = _BD_QUAD.rel_tol


def _write_report(path, command, inputs, outputs):
    report = {
        "schema_version": 1,
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
    }
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return report


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _params_or_usage(parser, args) -> LameParams:
    try:
        return LameParams(args.mu, args.lam)
    except ParameterDomainError as exc:
        parser.error(str(exc))


def _domain(name: str) -> DomainGeometry:
    return DomainGeometry(DomainName.UNIT_DISK if name == "disk" else DomainName.UNIT_SQUARE)


def cmd_coeffs(parser, args) -> int:
    params = _params_or_usage(parser, args)
    n = args.dim
    theories = [Theory.CFLV, Theory.LIU] if args.theory == "both" else [Theory(args.theory)]
    root = rayleigh_root(params.alpha)
    outputs = {
        "alpha": params.alpha,
        "gamma_r": {"value": root.gamma_r, "residual": root.residual},
    }
    heat = {}
    for th in theories:
        w = weyl_two_term(params, n, th)
        h = heat[th] = to_heat_coeffs(w)
        s = sum_test(w)
        outputs[th.value] = {
            "a": {"value": w.a, "tolerance": 1e-14},
            "b_minus": {"value": w.b_minus, "tolerance": _QUAD_TOL},
            "b_plus": {"value": w.b_plus, "tolerance": _QUAD_TOL},
            "a_tilde": {"value": h.a_tilde, "tolerance": 1e-14},
            "b_tilde_minus": {"value": h.b_tilde_minus, "tolerance": _QUAD_TOL},
            "b_tilde_plus": {"value": h.b_tilde_plus, "tolerance": _QUAD_TOL},
            "sum_test": {"value": s.total, "tolerance": SUM_TEST_REL_TOL,
                         "verdict": "PASS" if s.passed else "FAIL"},
        }
    # the heat closed form is Liu's pair converted, the same b~ a fit is measured against
    ht = heat.get(Theory.LIU) or to_heat_coeffs(weyl_two_term(params, n, Theory.LIU))
    outputs["heat_closed_form"] = {
        "a_tilde": {"value": ht.a_tilde, "tolerance": 1e-14},
        "b_tilde_minus": {"value": ht.b_tilde_minus, "tolerance": 1e-14},
        "b_tilde_plus": {"value": ht.b_tilde_plus, "tolerance": 1e-14},
    }
    for th in theories:
        o = outputs[th.value]
        print(f"[{th.value}] a={o['a']['value']:.12g}  b-={o['b_minus']['value']:.12g}  "
              f"b+={o['b_plus']['value']:.12g}  sum={o['sum_test']['value']:.3e} "
              f"({o['sum_test']['verdict']})")
        print(f"[{th.value}] a~={o['a_tilde']['value']:.12g}  b~-={o['b_tilde_minus']['value']:.12g}  "
              f"b~+={o['b_tilde_plus']['value']:.12g}")
    print(f"gamma_R={root.gamma_r:.12g} (residual {root.residual:.2e})")
    if args.json:
        _write_report(args.json, "coeffs", {"mu": params.mu, "lambda": params.lam, "dim": n,
                                            "theory": args.theory}, outputs)
    return 0


_H_CONST = {"square": math.sqrt(2.0), "disk": 1.8}


def _resolution_from_h(domain: str, h: float) -> int:
    return max(2, round(_H_CONST[domain] / h))


def cmd_spectrum(parser, args) -> int:
    params = _params_or_usage(parser, args)
    bc = BoundaryCondition(args.bc)
    domain = _domain(args.domain)
    out = Path(args.out)

    def potential():
        if args.domain != "disk":
            raise ParameterDomainError("potential method is defined on the disk only")
        return disk_spectrum_potential(params, bc, k_max=args.kmax, lambda_max=args.lambda_max)

    def fem():
        res = 24 if args.h is None else _resolution_from_h(args.domain, args.h)
        return fem_spectrum(domain, params, bc, res, args.lambda_max)

    def analytic():
        if not params.decoupled:
            raise ParameterDomainError("analytic decoupled spectra require lambda = -mu")
        return analytic_decoupled_spectrum(domain, params.mu, args.lambda_max, bc)

    if args.method == "both":
        sp = potential()
        sf = fem()
        p_path = out.with_suffix(".potential.csv")
        f_path = out.with_suffix(".fem.csv")
        write_spectrum(sp, p_path)
        write_spectrum(sf, f_path)
        cmp_ = compare_spectra(sp, sf)
        _write_report(
            out.with_suffix(".compare.json"),
            "spectrum",
            {"domain": args.domain, "bc": args.bc, "mu": params.mu, "lambda": params.lam,
             "lambda_max": args.lambda_max, "method": "both"},
            cmp_.summary(),
        )
        print(f"wrote {p_path}, {f_path}, and comparison "
              f"(counts {cmp_.count_a} vs {cmp_.count_b}, "
              f"{'no divergences' if cmp_.counts_match_everywhere else f'{len(cmp_.divergences)} divergences'})")
        return 0
    sp = {"potential": potential, "fem": fem, "analytic": analytic}[args.method]()
    write_spectrum(sp, out)
    print(f"wrote {out} ({sp.total_count} eigenvalues with multiplicity, "
          f"cutoff {sp.lambda_max:g})")
    return 0


def cmd_fit(parser, args) -> int:
    try:
        spectrum = read_spectrum(args.spectrum)
    except (OSError, ElasticaError) as exc:
        print(f"error: cannot read spectrum: {exc}", file=sys.stderr)
        return 3
    window = None
    if args.window:
        try:
            lo, hi = (_positive_float(x) for x in args.window.split(","))
        except (ValueError, argparse.ArgumentTypeError):
            parser.error("--window expects 'lo,hi', two finite positive numbers")
        if not lo < hi:
            parser.error(f"--window expects lo < hi, got {args.window!r}")
        window = fit_window(args.model, lo, hi)
    rep = fit_two_term(spectrum, args.model, window=window)
    # window-stability indicator: same fit on a shifted window
    rep2 = fit_two_term(spectrum, args.model, window=shifted_window(rep, spectrum))
    if args.csv and args.model == "heat":
        ht = heat_trace(spectrum, np.geomspace(*rep.window, 200))
        write_columns_csv(args.csv, ("t", "trace", "tail_bound"), ht.t, ht.values, ht.tail_bounds)
    elif args.csv:
        rem = remainder_series(spectrum, np.linspace(*rep.window, 400), weyl_a(spectrum.params, 2))
        write_columns_csv(args.csv, ("lambda", "remainder", "cesaro_mean"), rem.grid, rem.raw, rem.cesaro)
    try:
        t_min = min_admissible_t(spectrum)
    except TailBoundError:  # no admissible t; strict JSON has no inf, so null
        t_min = None
    boundary_est = rep.estimates[-1]
    boundary_shift = rep2.estimates[-1]
    outputs = {
        "model": rep.model,
        "window": list(rep.window),
        "estimates": {"values": list(rep.estimates), "residual": rep.residual_norm},
        "condition": rep.condition,
        "discriminator": rep.discriminator,
        "verdicts_emitted": rep.verdicts_emitted,
        "window_stability": {
            "shifted_window": list(rep2.window),
            "boundary_estimate": {"value": boundary_est, "residual": rep.residual_norm},
            "shifted_estimate": {"value": boundary_shift, "residual": rep2.residual_norm},
            "relative_shift": abs(boundary_shift - boundary_est) / max(abs(boundary_est), 1e-300),
        },
        "lambda_max": spectrum.lambda_max,
        "min_admissible_t": t_min,
    }
    _write_report(args.out, "fit", {"spectrum": str(args.spectrum), "model": args.model}, outputs)
    print(f"fit[{rep.model}] window={rep.window} estimates={rep.estimates} "
          f"residual={rep.residual_norm:.3e} -> {args.out}")
    return 0


_SUITE_TOL = {"residue": RESIDUE_GAP_TOL, "interior": INTEGRAL_GAP_TOL, "boundary": INTEGRAL_GAP_TOL}


def _suite_reports(suite, params, n):
    """One suite's GapReports on ``STANDARD_T`` (x ``STANDARD_XI2``), each check called by its name here."""
    if suite == "residue":
        return [residue_heat(t, x, params, n) for t in STANDARD_T for x in STANDARD_XI2]
    if suite == "interior":
        return [interior_coefficient(t, params, n) for t in STANDARD_T]
    # eps only adds the tail to the detail; the gap and verdict do not depend on it
    return [boundary_layer(t, params, n, eps=0.5) for t in STANDARD_T]


def cmd_verify(parser, args) -> int:
    params = _params_or_usage(parser, args)
    n = args.dim
    outputs = {}
    reports = {s: _suite_reports(s, params, n) for s in _SUITE_TOL if args.suite in (s, "all")}
    for suite, reps in reports.items():
        outputs[suite] = {"max_gap": max(r.rel_gap for r in reps), "tolerance": _SUITE_TOL[suite],
                          "verdict": "PASS" if all(r.passed for r in reps) else "FAIL"}
    if "boundary" in reports:
        outputs["boundary"]["tail_ratios"] = [r.detail["tail_ratio"] for r in reports["boundary"]]
    if args.suite in ("prop71", "all"):
        # under --suite all the verdict chains the reports above
        v = (prop71_verdict(params, n, reports["residue"], reports["interior"], reports["boundary"])
             if reports else prop71_analytic(params, n))
        outputs["prop71"] = {
            "max_residue_gap": max(v.residue_gaps),
            "max_interior_gap": max(v.interior_gaps),
            "max_boundary_gap": max(v.boundary_gaps),
            "tolerance": RESIDUE_GAP_TOL,
            "conclusion": v.conclusion,
            "premises": list(v.premises),
            "verdict": "PASS" if v.passed else "FAIL",
        }
    for name, rep in outputs.items():
        print(f"{name}: {rep['verdict']}")
    if args.json:
        _write_report(args.json, "verify",
                      {"suite": args.suite, "mu": params.mu, "lambda": params.lam, "dim": n},
                      outputs)
    return 1 if any(rep["verdict"] == "FAIL" for rep in outputs.values()) else 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent form
    (``-1e-05``, ``-.5e1``, ``-2E+3``) as a value, as argparse already reads
    ``-1`` and ``-0.5``, instead of as an unknown option.  Subparsers are
    built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher, set per instance, knows only -1 and -0.5
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="elastica",
        description="Elastic spectra on model planar domains and their two-term asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("coeffs", help="closed-form coefficients for both theories")
    pc.add_argument("--mu", type=float, required=True)
    pc.add_argument("--lambda", dest="lam", type=float, required=True)
    pc.add_argument("--dim", type=int, default=2)
    pc.add_argument("--theory", choices=["cflv", "liu", "both"], default="both")
    pc.add_argument("--json", type=str, default=None)

    ps = sub.add_parser("spectrum", help="compute a spectrum and write it as CSV")
    ps.add_argument("--domain", choices=["disk", "square"], required=True)
    ps.add_argument("--mu", type=float, required=True)
    ps.add_argument("--lambda", dest="lam", type=float, required=True)
    ps.add_argument("--bc", choices=["dirichlet", "free"], required=True)
    ps.add_argument("--method", choices=["potential", "fem", "analytic", "both"], required=True)
    ps.add_argument("--lambda-max", type=_positive_float, required=True)
    ps.add_argument("--out", type=str, required=True)
    ps.add_argument("--kmax", type=int, default=60)
    ps.add_argument("--h", type=_positive_float, default=None, help="target element size for the FEM path")

    pf = sub.add_parser("fit", help="two-term coefficient fit from a spectrum file")
    pf.add_argument("--spectrum", type=str, required=True)
    pf.add_argument("--model", choices=["counting", "heat"], required=True)
    pf.add_argument("--window", type=str, default=None, help="'lo,hi' (t for heat, lambda for counting)")
    pf.add_argument("--out", type=str, required=True)
    pf.add_argument("--csv", type=str, default=None, help="also write plot-ready samples")

    pv = sub.add_parser("verify", help="resolvent-symbol and cancellation checks")
    pv.add_argument("--suite", choices=["residue", "interior", "boundary", "prop71", "all"], required=True)
    pv.add_argument("--mu", type=float, required=True)
    pv.add_argument("--lambda", dest="lam", type=float, required=True)
    pv.add_argument("--dim", type=int, default=2)
    pv.add_argument("--json", type=str, default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept for the life of the process."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # names resolved per call, so a command replaced after the parser was built still runs
    commands = {"coeffs": cmd_coeffs, "spectrum": cmd_spectrum, "fit": cmd_fit, "verify": cmd_verify}
    try:
        return commands[args.command](parser, args)
    except ElasticaError as exc:  # every refusal the library raises
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
