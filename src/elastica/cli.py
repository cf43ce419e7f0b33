"""Command-line front end.

Subcommands: ``coeffs`` (closed-form coefficients), ``spectrum`` (compute
and write eigenvalue files), ``fit`` (asymptotic coefficient extraction),
``verify`` (symbol/cancellation checks).  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 incompatible-parameter error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adjudicate import compare_spectra
from .asympt import (
    counting,
    fit_two_term,
    heat_trace,
    min_admissible_t,
    remainder_series,
    write_heat_csv,
    write_remainder_csv,
)
from .coeffs import (
    Theory,
    heat_two_term,
    rayleigh_root,
    sum_test,
    to_heat_coeffs,
    weyl_a,
    weyl_two_term,
)
from .diskmodes import disk_spectrum_potential
from .errors import (
    DegenerateDecompositionError,
    ElasticaError,
    ParameterDomainError,
    SingularLimitError,
    TailBoundError,
    WindowError,
)
from .fem import analytic_decoupled_spectrum, fem_spectrum
from .params import BoundaryCondition, DomainName, DomainGeometry, LameParams
from .spectrum import read_spectrum, write_spectrum
from .symbolcheck import (
    STANDARD_T,
    STANDARD_XI2,
    boundary_layer,
    interior_coefficient,
    prop71_analytic,
    prop71_verdict,
    residue_heat,
)

_QUAD_TOL = 1e-10


def _write_report(path, command, inputs, outputs):
    report = {
        "schema_version": 1,
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
    }
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


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
    try:
        for th in theories:
            w = weyl_two_term(params, n, th)
            h = to_heat_coeffs(w)
            s = sum_test(params, n, th)
            outputs[th.value] = {
                "a": {"value": w.a, "tolerance": 1e-14},
                "b_minus": {"value": w.b_minus, "tolerance": _QUAD_TOL},
                "b_plus": {"value": w.b_plus, "tolerance": _QUAD_TOL},
                "a_tilde": {"value": h.a_tilde, "tolerance": 1e-14},
                "b_tilde_minus": {"value": h.b_tilde_minus, "tolerance": _QUAD_TOL},
                "b_tilde_plus": {"value": h.b_tilde_plus, "tolerance": _QUAD_TOL},
                "sum_test": {"value": s.total, "tolerance": 1e-12, "verdict": "PASS" if s.passed else "FAIL"},
            }
    except SingularLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    ht = heat_two_term(params, n)
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
        res = _resolution_from_h(args.domain, args.h) if args.h else 24
        return fem_spectrum(domain, params, bc, res, args.lambda_max)

    def analytic():
        if abs(params.lam + params.mu) > 1e-12:
            raise ParameterDomainError("analytic decoupled spectra require lambda = -mu")
        return analytic_decoupled_spectrum(domain, params.mu, args.lambda_max, bc)

    try:
        if args.method == "both":
            sp = potential()
            sf = fem()
            p_path = out.with_suffix(".potential.csv")
            f_path = out.with_suffix(".fem.csv")
            write_spectrum(sp, p_path)
            write_spectrum(sf, f_path)
            cmp_ = compare_spectra(sp, sf)
            report = _write_report(
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
    except (DegenerateDecompositionError, SingularLimitError, ParameterDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def cmd_fit(parser, args) -> int:
    try:
        spectrum = read_spectrum(args.spectrum)
    except (OSError, ElasticaError) as exc:
        print(f"error: cannot read spectrum: {exc}", file=sys.stderr)
        return 3
    window = None
    if args.window:
        try:
            lo, hi = (float(x) for x in args.window.split(","))
        except ValueError:
            parser.error("--window expects 'lo,hi'")
        if args.model == "heat":
            window = np.geomspace(lo, hi, 24)
        else:
            window = np.linspace(lo, hi, 64)
    try:
        rep = fit_two_term(spectrum, args.model, window=window)
        # window-stability indicator: same fit on a shifted window
        if args.model == "heat":
            lo, hi = rep.window
            shift = np.geomspace(lo * math.sqrt(10.0), hi * math.sqrt(10.0), 24)
        else:
            lo, hi = rep.window
            width = hi - lo
            shift = np.linspace(lo + 0.5 * width, min(hi + 0.5 * width, spectrum.lambda_max), 64)
        rep2 = fit_two_term(spectrum, args.model, window=shift)
    except (TailBoundError, WindowError, ParameterDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.csv:
        if args.model == "heat":
            write_heat_csv(args.csv, heat_trace(spectrum, np.geomspace(*rep.window, 200)))
        else:
            grid = np.linspace(*rep.window, 400)
            write_remainder_csv(
                args.csv,
                remainder_series(counting(spectrum, grid), weyl_a(spectrum.params, 2), spectrum.domain),
            )
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
        "min_admissible_t": min_admissible_t(spectrum),
    }
    _write_report(args.out, "fit", {"spectrum": str(args.spectrum), "model": args.model}, outputs)
    print(f"fit[{rep.model}] window={rep.window} estimates={rep.estimates} "
          f"residual={rep.residual_norm:.3e} -> {args.out}")
    return 0


def cmd_verify(parser, args) -> int:
    params = _params_or_usage(parser, args)
    n = args.dim
    outputs = {}
    all_pass = True
    try:
        if args.suite in ("residue", "all"):
            residue_gaps = [residue_heat(t, x, params, n).rel_gap for t in STANDARD_T for x in STANDARD_XI2]
            ok = max(residue_gaps) <= 1e-8
            outputs["residue"] = {"max_gap": max(residue_gaps), "tolerance": 1e-8,
                                  "verdict": "PASS" if ok else "FAIL"}
            all_pass &= ok
        if args.suite in ("interior", "all"):
            interior_gaps = [interior_coefficient(t, params, n).rel_gap for t in STANDARD_T]
            ok = max(interior_gaps) <= 1e-9
            outputs["interior"] = {"max_gap": max(interior_gaps), "tolerance": 1e-9,
                                   "verdict": "PASS" if ok else "FAIL"}
            all_pass &= ok
        if args.suite in ("boundary", "all"):
            # eps only adds the tail to the detail; rel_gap is the one prop71 uses
            reports = [boundary_layer(t, params, n, eps=0.5) for t in STANDARD_T]
            ok = max(r.rel_gap for r in reports) <= 1e-9
            outputs["boundary"] = {
                "max_gap": max(r.rel_gap for r in reports),
                "tolerance": 1e-9,
                "tail_ratios": [r.detail["tail_ratio"] for r in reports],
                "verdict": "PASS" if ok else "FAIL",
            }
            all_pass &= ok
        if args.suite in ("prop71", "all"):
            if args.suite == "all":  # the sub-checks above are the ones the verdict chains
                v = prop71_verdict(params, n, residue_gaps, interior_gaps, [r.rel_gap for r in reports])
            else:
                v = prop71_analytic(params, n)
            outputs["prop71"] = {
                "max_residue_gap": max(v.residue_gaps),
                "max_interior_gap": max(v.interior_gaps),
                "max_boundary_gap": max(v.boundary_gaps),
                "tolerance": 1e-8,
                "conclusion": v.conclusion,
                "premises": list(v.premises),
                "verdict": "PASS" if v.passed else "FAIL",
            }
            all_pass &= v.passed
    except ElasticaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for name, rep in outputs.items():
        print(f"{name}: {rep['verdict']}")
    if args.json:
        _write_report(args.json, "verify",
                      {"suite": args.suite, "mu": params.mu, "lambda": params.lam, "dim": n},
                      outputs)
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    pc.set_defaults(func=cmd_coeffs)

    ps = sub.add_parser("spectrum", help="compute a spectrum and write it as CSV")
    ps.add_argument("--domain", choices=["disk", "square"], required=True)
    ps.add_argument("--mu", type=float, required=True)
    ps.add_argument("--lambda", dest="lam", type=float, required=True)
    ps.add_argument("--bc", choices=["dirichlet", "free"], required=True)
    ps.add_argument("--method", choices=["potential", "fem", "analytic", "both"], required=True)
    ps.add_argument("--lambda-max", type=float, required=True)
    ps.add_argument("--out", type=str, required=True)
    ps.add_argument("--kmax", type=int, default=60)
    ps.add_argument("--h", type=float, default=None, help="target element size for the FEM path")
    ps.set_defaults(func=cmd_spectrum)

    pf = sub.add_parser("fit", help="two-term coefficient fit from a spectrum file")
    pf.add_argument("--spectrum", type=str, required=True)
    pf.add_argument("--model", choices=["counting", "heat"], required=True)
    pf.add_argument("--window", type=str, default=None, help="'lo,hi' (t for heat, lambda for counting)")
    pf.add_argument("--out", type=str, required=True)
    pf.add_argument("--csv", type=str, default=None, help="also write plot-ready samples")
    pf.set_defaults(func=cmd_fit)

    pv = sub.add_parser("verify", help="resolvent-symbol and cancellation checks")
    pv.add_argument("--suite", choices=["residue", "interior", "boundary", "prop71", "all"], required=True)
    pv.add_argument("--mu", type=float, required=True)
    pv.add_argument("--lambda", dest="lam", type=float, required=True)
    pv.add_argument("--dim", type=int, default=2)
    pv.add_argument("--json", type=str, default=None)
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
