"""Report pins: ``coeffs --json`` and ``verify --suite all --json`` against recorded runs.

``report_pins.json`` holds, for each command at (mu, lambda, n) in
{(1, 1, 2), (0.5, 10, 3), (2, 0, 3)}, the exit code, the stdout and the
report's inputs and outputs as recorded from the CLI while its heat closed
forms were still typed out separately from ``to_heat_coeffs``.  A change
to the report layer that computes the same numbers keeps them: the same
keys, strings, verdicts, stdout and exit codes, every number within 1e-15
relative, and every gap within 1e-15 absolute.
"""

import json
from pathlib import Path

import pytest

from elastica.cli import main

PINS = json.loads(Path(__file__).with_name("report_pins.json").read_text())
TOL = 1e-15


def _same(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float, where
        # a gap is a difference of two near-equal numbers: absolute, not relative
        bound = TOL if "gap" in where else TOL * max(abs(got), abs(want))
        assert abs(got - want) <= bound, (where, got, want)
    else:  # str, bool, int and None compare exactly
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("key", sorted(PINS))
def test_report_matches_its_pin(tmp_path, capsys, key):
    command, mu, lam, n = key.split()
    path = tmp_path / "report.json"
    argv = ["coeffs"] if command == "coeffs" else ["verify", "--suite", "all"]
    code = main(argv + ["--mu", mu, "--lambda", lam, "--dim", n, "--json", str(path)])
    pin = PINS[key]
    assert code == pin["exit"]
    assert capsys.readouterr().out == pin["stdout"]
    report = json.loads(path.read_text())
    _same(report["inputs"], pin["inputs"], "inputs")
    _same(report["outputs"], pin["outputs"], "outputs")
