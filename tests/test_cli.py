"""Command-line interface: flags, files, exit statuses."""

import json
import math

import numpy as np
import pytest

from elastica.cli import main
from elastica.fem import square_dirichlet_spectrum
from elastica.spectrum import read_spectrum, write_spectrum


def run(argv):
    return main(argv)


def test_coeffs_liu_alpha1(capsys):
    rc = run(["coeffs", "--mu", "1", "--lambda", "-1", "--dim", "2", "--theory", "liu"])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"{-1.0 / (2.0 * math.pi):.12g}" in out
    assert "PASS" in out


def test_coeffs_both_flags_cflv_sum_fail(capsys, tmp_path):
    path = tmp_path / "r.json"
    rc = run(["coeffs", "--mu", "1", "--lambda", "1", "--dim", "2", "--theory", "both",
              "--json", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" in out and "PASS" in out
    rep = json.loads(path.read_text())
    assert rep["schema_version"] == 1
    assert rep["outputs"]["cflv"]["sum_test"]["verdict"] == "FAIL"
    assert rep["outputs"]["liu"]["sum_test"]["verdict"] == "PASS"
    assert "tolerance" in rep["outputs"]["liu"]["b_minus"]


def test_coeffs_cflv_alpha1_singular_exit3(capsys):
    rc = run(["coeffs", "--mu", "1", "--lambda", "-1", "--theory", "cflv"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "singular" in err


@pytest.mark.parametrize("dim", ["1", "11"])
def test_coeffs_unsupported_dimension_exit3_without_report(capsys, tmp_path, dim):
    path = tmp_path / "r.json"
    rc = run(["coeffs", "--mu", "1", "--lambda", "1", "--dim", dim, "--json", str(path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and "dimension" in err
    assert not path.exists()


def test_coeffs_boundary_tolerances_are_the_quadrature_target(tmp_path):
    from elastica.coeffs import _BD_QUAD

    path = tmp_path / "r.json"
    assert run(["coeffs", "--mu", "1", "--lambda", "1", "--json", str(path)]) == 0
    outputs = json.loads(path.read_text())["outputs"]
    for theory in ("cflv", "liu"):
        for name in ("b_minus", "b_plus", "b_tilde_minus", "b_tilde_plus"):
            assert outputs[theory][name]["tolerance"] == _BD_QUAD.rel_tol


def test_coeffs_runs_each_quadrature_once(monkeypatch, capsys):
    # sum_test reads the pair weyl_two_term built: the two CFLV arctan
    # integrals at alpha = 1/3 take 1 + 2 quadratures, each run once
    import elastica.coeffs as coeffs

    calls = []
    integrate = coeffs.integrate
    monkeypatch.setattr(coeffs, "integrate", lambda *a, **k: calls.append(a) or integrate(*a, **k))
    assert run(["coeffs", "--mu", "1", "--lambda", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 3


def test_missing_required_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["coeffs", "--lambda", "1"])
    assert exc.value.code == 2


def test_invalid_mu_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "residue", "--mu", "-1", "--lambda", "1"])
    assert exc.value.code == 2


def test_spectrum_analytic_square(tmp_path, capsys):
    out = tmp_path / "sq.csv"
    rc = run(["spectrum", "--domain", "square", "--mu", "1", "--lambda", "-1",
              "--bc", "dirichlet", "--method", "analytic", "--lambda-max", "10000",
              "--out", str(out)])
    assert rc == 0
    sp = read_spectrum(out)
    assert abs(sp.eigenvalues[0] - 2 * math.pi**2) < 1e-12
    # exact lattice: compare against an independent enumeration
    brute = sum(2 for p in range(1, 40) for q in range(1, 40)
                if math.pi**2 * (p * p + q * q) <= 1e4)
    assert sp.total_count == brute


def test_spectrum_potential_disk(tmp_path):
    out = tmp_path / "d.csv"
    rc = run(["spectrum", "--domain", "disk", "--mu", "1", "--lambda", "1",
              "--bc", "dirichlet", "--method", "potential", "--lambda-max", "60",
              "--out", str(out)])
    assert rc == 0
    sp = read_spectrum(out)
    assert sp.method.value == "potential"
    assert np.all(sp.eigenvalues > 0)


def test_spectrum_degenerate_potential_exit3(tmp_path, capsys):
    rc = run(["spectrum", "--domain", "disk", "--mu", "1", "--lambda", "-1",
              "--bc", "dirichlet", "--method", "potential", "--lambda-max", "60",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "degenerate" in capsys.readouterr().err


def test_spectrum_fem_free_decoupled_exit3(tmp_path, capsys):
    rc = run(["spectrum", "--domain", "disk", "--mu", "1", "--lambda", "-1",
              "--bc", "free", "--method", "fem", "--lambda-max", "60", "--h", "0.2",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "holomorphic" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_spectrum_analytic_wrong_lambda_exit3(tmp_path, capsys):
    rc = run(["spectrum", "--domain", "square", "--mu", "1", "--lambda", "0",
              "--bc", "dirichlet", "--method", "analytic", "--lambda-max", "100",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "lambda = -mu" in capsys.readouterr().err


def test_spectrum_uncertified_potential_root_exit3(tmp_path, capsys, monkeypatch):
    # the potential route refuses a root without a residual certificate; the
    # command reports it and writes no file
    from elastica.specfun import _backend

    def step(k, lams, mu, lam, free):
        lams = np.asarray(lams, dtype=float)
        return np.where(lams < 20.0, -1.0, 1.0), np.zeros_like(lams), np.ones_like(lams)

    monkeypatch.setattr(_backend, "det_grid", step)
    out = tmp_path / "x.csv"
    rc = run(["spectrum", "--domain", "disk", "--mu", "1", "--lambda", "1", "--bc", "dirichlet",
              "--method", "potential", "--lambda-max", "50", "--out", str(out)])
    assert rc == 3
    assert "determinant residual" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_negative_kmax_exit3(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = run(["spectrum", "--domain", "disk", "--mu", "1", "--lambda", "1", "--bc", "free",
              "--method", "potential", "--kmax", "-5", "--lambda-max", "50", "--out", str(out)])
    assert rc == 3
    assert "k_max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "potential", "--lambda-max", "nan"],
        ["--method", "potential", "--lambda-max", "-5"],
        ["--method", "analytic", "--lambda-max", "inf"],
        ["--method", "fem", "--lambda-max", "60", "--h", "nan"],
        ["--method", "fem", "--lambda-max", "60", "--h", "0"],
        ["--method", "fem", "--lambda-max", "60", "--h", "-0.1"],
    ],
    ids=["lambda_max_nan", "lambda_max_negative", "analytic_lambda_max_inf", "h_nan", "h_zero", "h_negative"],
)
def test_spectrum_non_finite_or_non_positive_numbers_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--domain", "disk", "--mu", "1", "--lambda", "-1", "--bc", "dirichlet",
             *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert "finite positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, window", [("counting", "nan,1000"), ("heat", "nan,0.01"),
                                           ("heat", "0.001,inf"), ("counting", "0,1000")])
def test_fit_non_finite_window_usage_error(tmp_path, capsys, model, window):
    spath = tmp_path / "sq.csv"
    write_spectrum(square_dirichlet_spectrum(1.0, 2e3), spath)
    out = tmp_path / "f.json"
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--spectrum", str(spath), "--model", model, "--window", window, "--out", str(out)])
    assert exc.value.code == 2
    assert "finite positive" in capsys.readouterr().err
    assert not out.exists()


def test_report_refuses_nan(tmp_path):
    from elastica.cli import _write_report

    out = tmp_path / "r.json"
    with pytest.raises(ValueError):
        _write_report(out, "fit", {}, {"estimate": math.nan})
    assert not out.exists()


def test_spectrum_both_adjudication(tmp_path, capsys):
    out = tmp_path / "adj.csv"
    rc = run(["spectrum", "--domain", "disk", "--mu", "1", "--lambda", "1",
              "--bc", "dirichlet", "--method", "both", "--lambda-max", "40",
              "--h", "0.06", "--out", str(out)])
    assert rc == 0
    rep = json.loads((tmp_path / "adj.compare.json").read_text())
    o = rep["outputs"]
    assert o["count_a"] == o["count_b"]
    assert o["paired_one_to_one_within_tol"]
    assert read_spectrum(tmp_path / "adj.potential.csv").method.value == "potential"
    assert read_spectrum(tmp_path / "adj.fem.csv").method.value == "fem"


def test_fit_heat_report(tmp_path):
    spath = tmp_path / "sq.csv"
    write_spectrum(square_dirichlet_spectrum(1.0, 1e5), spath)
    out = tmp_path / "fit.json"
    rc = run(["fit", "--spectrum", str(spath), "--model", "heat", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    target = -0.25 * 2.0 / math.sqrt(4.0 * math.pi) * 4.0
    est = rep["outputs"]["estimates"]["values"][1]
    assert abs(est - target) / abs(target) < 0.05
    assert "window_stability" in rep["outputs"]
    assert rep["outputs"]["window_stability"]["relative_shift"] < 0.2
    assert "liu" in rep["outputs"]["discriminator"]


@pytest.mark.parametrize("model, window", [("heat", None), ("heat", "0.01,0.1"),
                                           ("counting", None), ("counting", "600,1200")])
def test_fit_shifted_window_is_the_library_rule(tmp_path, model, window):
    from elastica.asympt import fit_two_term, fit_window, shifted_window

    sp = square_dirichlet_spectrum(1.0, 3e3)
    spath, out = tmp_path / "sq.csv", tmp_path / "fit.json"
    write_spectrum(sp, spath)
    argv = ["fit", "--spectrum", str(spath), "--model", model, "--out", str(out)]
    assert run(argv + (["--window", window] if window else [])) == 0
    stability = json.loads(out.read_text())["outputs"]["window_stability"]
    samples = None if window is None else fit_window(model, *(float(x) for x in window.split(",")))
    shifted = shifted_window(fit_two_term(sp, model, window=samples), sp)
    assert stability["shifted_window"] == [shifted.min(), shifted.max()]


def test_fit_synthetic_planted_file(tmp_path):
    # planted two-term spectrum recovers the boundary coefficient closely
    import numpy as np
    from elastica.params import BoundaryCondition as BC
    from elastica.params import LameParams, UNIT_SQUARE
    from elastica.spectrum import Method, Spectrum

    av = 1.0 / (2.0 * math.pi)
    bl = -0.4
    total = av * 3e4 + bl * math.sqrt(3e4)
    ks = np.arange(1, int(total) + 1) - 0.5
    roots = ((-bl + np.sqrt(bl * bl + 4 * av * ks)) / (2 * av)) ** 2
    sp = Spectrum(UNIT_SQUARE, BC.DIRICHLET, LameParams(1.0, -1.0), roots,
                  np.ones(len(roots), dtype=int), ["x"] * len(roots), 3e4,
                  Method.ANALYTIC_DECOUPLED)
    spath = tmp_path / "plant.csv"
    write_spectrum(sp, spath)
    out = tmp_path / "fit.json"
    rc = run(["fit", "--spectrum", str(spath), "--model", "counting",
              "--window", "10000,29000", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    got = rep["outputs"]["estimates"]["values"][0]
    assert abs(got - bl / 4.0) < 0.02 * abs(bl / 4.0)


def test_fit_truncation_violating_window_exit3(tmp_path, capsys):
    spath = tmp_path / "sq.csv"
    write_spectrum(square_dirichlet_spectrum(1.0, 2e3), spath)
    rc = run(["fit", "--spectrum", str(spath), "--model", "heat",
              "--window", "1e-7,1e-6", "--out", str(tmp_path / "f.json")])
    assert rc == 3
    assert "lambda_max" in capsys.readouterr().err


_PREAMBLE = ("# domain=unit_square\n# bc=dirichlet\n# mu=1.0\n# lambda=-1.0\n"
             "# lambda_max={cut}\n# method=analytic\nindex,eigenvalue,multiplicity,mode_tag\n")


@pytest.mark.parametrize(
    "rows, model",
    [
        ("0,abc,1,x\n", "heat"),  # unparsable field
        ("0,30.0,1,x\n1,20.0,1,y\n", "counting"),  # rows out of order
        ("0,20.0,1,x\n1,150.0,1,y\n", "heat"),  # eigenvalue above lambda_max
        ("", "heat"),  # no rows: the heat trace is zero on every window
    ],
    ids=["unparsable_field", "rows_out_of_order", "above_cutoff", "no_rows"],
)
def test_fit_bad_or_empty_spectrum_file_exit3(tmp_path, capsys, rows, model):
    spath = tmp_path / "bad.csv"
    spath.write_text(_PREAMBLE.format(cut=100.0) + rows)
    out = tmp_path / "fit.json"
    rc = run(["fit", "--spectrum", str(spath), "--model", model, "--out", str(out)])
    assert rc == 3
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["heat", "counting"])
@pytest.mark.parametrize("cut", ["nan", "inf", "0.0", "-5.0"])
def test_fit_non_finite_or_non_positive_cutoff_file_exit3(tmp_path, capsys, cut, model):
    # an infinite cutoff would admit every heat t, and its report could not be
    # written as strict JSON
    spath = tmp_path / "cut.csv"
    spath.write_text(_PREAMBLE.format(cut=cut) + "0,20.0,1,x\n1,40.0,1,y\n")
    out = tmp_path / "fit.json"
    rc = run(["fit", "--spectrum", str(spath), "--model", model, "--out", str(out)])
    assert rc == 3
    assert "lambda_max must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


def test_fit_counting_without_admissible_t_writes_null(tmp_path, capsys):
    # a disk cut 1e-3 above its first eigenvalue 11.3221 (multiplicity 2): the
    # counting fit runs, but no heat t passes the tail test, so
    # min_admissible_t is null (strict JSON has no inf)
    spath = tmp_path / "w.csv"
    assert run(["spectrum", "--domain", "disk", "--mu", "1", "--lambda", "1", "--bc", "dirichlet",
                "--method", "potential", "--lambda-max", "11.3231", "--out", str(spath)]) == 0
    assert read_spectrum(spath).total_count == 2
    out = tmp_path / "f.json"
    assert run(["fit", "--spectrum", str(spath), "--model", "counting", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["outputs"]["min_admissible_t"] is None
    # the heat model needs an admissible t and keeps its exit 3
    heat = tmp_path / "h.json"
    assert run(["fit", "--spectrum", str(spath), "--model", "heat", "--out", str(heat)]) == 3
    assert not heat.exists()
    capsys.readouterr()


def test_fit_counting_without_eigenvalues_exit3(tmp_path, capsys):
    # a disk below its first eigenvalue: the counting remainder is the Weyl
    # term alone, so the fit is refused as the heat fit of a zero trace is
    spath = tmp_path / "w.csv"
    assert run(["spectrum", "--domain", "disk", "--mu", "1", "--lambda", "1", "--bc", "dirichlet",
                "--method", "potential", "--lambda-max", "3", "--out", str(spath)]) == 0
    out = tmp_path / "f.json"
    assert run(["fit", "--spectrum", str(spath), "--model", "counting", "--out", str(out)]) == 3
    assert "no eigenvalue" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, window", [("counting", "200,200"), ("counting", "240,120"),
                                           ("heat", "0.1,0.01")])
def test_fit_window_lo_not_below_hi_usage_error(tmp_path, capsys, model, window):
    spath = tmp_path / "sq.csv"
    write_spectrum(square_dirichlet_spectrum(1.0, 250.0), spath)
    out = tmp_path / "f.json"
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--spectrum", str(spath), "--model", model, "--window", window, "--out", str(out)])
    assert exc.value.code == 2
    assert "lo < hi" in capsys.readouterr().err
    assert not out.exists()


def test_verify_all_pass(tmp_path, capsys):
    out = tmp_path / "v.json"
    rc = run(["verify", "--suite", "all", "--mu", "1", "--lambda", "1", "--dim", "2",
              "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    for name in ("residue", "interior", "boundary", "prop71"):
        assert f"{name}: PASS" in text
    rep = json.loads(out.read_text())
    assert rep["outputs"]["prop71"]["verdict"] == "PASS"
    assert "tolerance" in rep["outputs"]["residue"]


@pytest.mark.parametrize("mu,lam,dim", [("1", "1", "2"), ("0.5", "10", "3")])
def test_verify_all_equals_each_suite_alone(tmp_path, monkeypatch, capsys, mu, lam, dim):
    import elastica.cli as cli

    calls = {}
    for name in ("residue_heat", "interior_coefficient", "boundary_layer", "prop71_analytic"):
        def counted(*a, _f=getattr(cli, name), _name=name, **k):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*a, **k)
        monkeypatch.setattr(cli, name, counted)

    def outputs(suite):
        path = tmp_path / f"{suite}.json"
        rc = run(["verify", "--suite", suite, "--mu", mu, "--lambda", lam, "--dim", dim,
                  "--json", str(path)])
        return rc, json.loads(path.read_text())["outputs"]

    rc_all, every = outputs("all")
    assert calls == {"residue_heat": 9, "interior_coefficient": 3, "boundary_layer": 3}
    alone = {}
    rcs = set()
    for suite in ("residue", "interior", "boundary", "prop71"):
        rc, out = outputs(suite)
        rcs.add(rc)
        alone.update(out)
    assert every == alone
    assert rc_all == max(rcs)
    capsys.readouterr()


def test_verify_residue_far_apart_poles(capsys):
    # the poles 5 and 110 at t = 1, |xi|^2 = 10 once shared a circle that
    # reached far left of 0, and the suite failed
    rc = run(["verify", "--suite", "residue", "--mu", "0.5", "--lambda", "10"])
    assert rc == 0
    assert "residue: PASS" in capsys.readouterr().out


def test_verify_residue_dim3(capsys):
    rc = run(["verify", "--suite", "residue", "--mu", "2", "--lambda", "0", "--dim", "3"])
    assert rc == 0
    assert "residue: PASS" in capsys.readouterr().out


def test_verify_failure_exit1(monkeypatch, capsys):
    # force a failing gap to exercise the nonzero verification status
    import elastica.cli as cli
    from elastica.symbolcheck import GapReport

    monkeypatch.setattr(
        cli, "residue_heat",
        lambda *a, **k: GapReport(value=1.0, closed_form=1.0, rel_gap=1e-3, passed=False),
    )
    rc = run(["verify", "--suite", "residue", "--mu", "1", "--lambda", "1"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "residue: FAIL" in out


@pytest.mark.parametrize("name, field, failing", [("to_heat_coeffs", "a_tilde", "interior"),
                                                  ("to_heat_coeffs", "b_tilde_plus", "boundary"),
                                                  ("trace_q2", None, "residue")])
def test_verify_fails_on_a_closed_form_off_by_one_part_in_a_million(monkeypatch, capsys, name, field,
                                                                    failing):
    # each check compares its integral with a closed form: one off by 1e-6
    # relative fails that check's suite and Proposition 7.1, and no other suite
    import dataclasses

    import elastica.symbolcheck as symbolcheck

    exact = getattr(symbolcheck, name)
    if field is None:
        def wrong(*a, **k):
            return exact(*a, **k) * (1.0 + 1e-6)
    else:
        def wrong(*a, **k):
            h = exact(*a, **k)
            return dataclasses.replace(h, **{field: getattr(h, field) * (1.0 + 1e-6)})
    monkeypatch.setattr(symbolcheck, name, wrong)
    rc = run(["verify", "--suite", "all", "--mu", "1", "--lambda", "1"])
    assert rc == 1
    out = capsys.readouterr().out
    for suite in ("residue", "interior", "boundary", "prop71"):
        assert f"{suite}: {'FAIL' if suite in (failing, 'prop71') else 'PASS'}" in out


@pytest.mark.parametrize("suite", ["residue", "all"])
def test_verify_reads_the_checks_verdict_not_their_gap(monkeypatch, capsys, suite):
    # a report that failed with gap 0 (say, a contour that never converged)
    # fails its suite and Proposition 7.1: the verdict is the check's own
    import elastica.cli as cli
    from elastica.symbolcheck import GapReport

    monkeypatch.setattr(
        cli, "residue_heat",
        lambda *a, **k: GapReport(value=1.0, closed_form=1.0, rel_gap=0.0, passed=False),
    )
    rc = run(["verify", "--suite", suite, "--mu", "1", "--lambda", "1"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "residue: FAIL" in out
    if suite == "all":
        assert "prop71: FAIL" in out
        assert "interior: PASS" in out and "boundary: PASS" in out


@pytest.mark.parametrize("suite, mu, lam", [("residue", "100", "100"), ("all", "1e6", "0")])
def test_verify_large_mu_does_not_underflow(capsys, suite, mu, lam):
    # at t = 1, |xi|^2 = 10 the closed form e^{-t mu |xi|^2} underflows to 0;
    # the residue check compares both sides scaled by e^{t mu |xi|^2}
    rc = run(["verify", "--suite", suite, "--mu", mu, "--lambda", lam])
    out = capsys.readouterr().out
    assert rc == 0
    assert "residue: PASS" in out and "FAIL" not in out


def test_cached_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    import elastica.cli as cli

    argv = ["verify", "--suite", "interior", "--mu", "1", "--lambda", "1"]
    report = tmp_path / "v.json"
    assert run(argv + ["--json", str(report)]) == 0
    assert json.loads(report.read_text())["outputs"]["interior"]["verdict"] == "PASS"
    report.unlink()
    assert run(argv) == 0  # no --json: no report, not even the last one's
    assert list(tmp_path.iterdir()) == []
    assert cli._parser() is cli._parser()
    # a command replaced after the parser was built is the one that runs
    monkeypatch.setattr(cli, "cmd_verify", lambda parser, args: 42)
    assert run(argv) == 42
    capsys.readouterr()
