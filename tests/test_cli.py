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
    # (0.5, 10) fails its t = 1, |xi|^2 = 10 contour, so a FAIL verdict is compared too
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
