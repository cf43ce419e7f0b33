"""Spectrum container invariants and CSV round-tripping."""

import numpy as np
import pytest

from elastica.errors import ParameterDomainError, SpectrumIOError
from elastica.params import BoundaryCondition as BC
from elastica.params import LameParams, UNIT_DISK, UNIT_SQUARE
from elastica.spectrum import Method, Spectrum, merge_close, read_spectrum, write_spectrum


def _sample():
    return Spectrum(
        domain=UNIT_DISK,
        bc=BC.DIRICHLET,
        params=LameParams(1.0, 1.0),
        eigenvalues=np.array([11.322144642799871, 14.68197064212513, 27.3]),
        multiplicities=np.array([2, 1, 2]),
        mode_tags=["k1_coupled", "k0_shear_k0", "k2_coupled"],
        lambda_max=200.0,
        method=Method.POTENTIAL,
        meta={"k_max": "60"},
    )


def test_round_trip_byte_identical(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_spectrum(_sample(), p1)
    s = read_spectrum(p1)
    write_spectrum(s, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert s.meta == {"k_max": "60"}
    assert s.total_count == 5


def test_count_below_strict():
    s = Spectrum(
        domain=UNIT_SQUARE,
        bc=BC.FREE,
        params=LameParams(1.0, 0.0),
        eigenvalues=np.array([0.0, 1.0, 2.0]),
        multiplicities=np.array([3, 2, 1]),
        mode_tags=["rigid", "a", "b"],
        lambda_max=10.0,
        method=Method.FEM,
    )
    # eigenvalues {1,1,2}: strict inequality at 2 counts only the 1s (plus zeros)
    assert s.count_below(2.0) == 5
    assert s.count_below(1.0) == 3
    assert s.count_below(2.0000001) == 6


def test_invariants_enforced():
    with pytest.raises(ValueError):
        Spectrum(UNIT_DISK, BC.DIRICHLET, LameParams(1, 1), np.array([2.0, 1.0]),
                 np.array([1, 1]), ["a", "b"], 10.0, Method.FEM)
    with pytest.raises(ValueError):
        Spectrum(UNIT_DISK, BC.DIRICHLET, LameParams(1, 1), np.array([0.0]),
                 np.array([1]), ["a"], 10.0, Method.FEM)
    with pytest.raises(ValueError):
        Spectrum(UNIT_DISK, BC.FREE, LameParams(1, 1), np.array([1.0]),
                 np.array([0]), ["a"], 10.0, Method.FEM)


def test_malformed_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("index,eigenvalue,multiplicity,mode_tag\n0,1.0,1,x\n")
    with pytest.raises(SpectrumIOError):
        read_spectrum(p)  # missing preamble
    p.write_text("# domain=unit_disk\nnot a header\n")
    with pytest.raises(SpectrumIOError):
        read_spectrum(p)


def test_merge_close():
    vals = np.array([1.0, 1.0 + 1e-8, 2.0, 2.0 + 1e-3])
    reps, mults = merge_close(vals)
    assert list(mults) == [2, 1, 1]
    assert abs(reps[0] - (2.0 + 1e-8) / 2) < 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_eigenvalues_rejected(bad):
    with pytest.raises(ValueError):
        Spectrum(UNIT_DISK, BC.FREE, LameParams(1, 1), np.array([1.0, bad]),
                 np.array([1, 1]), ["a", "b"], 10.0, Method.FEM)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_spectrum_rejects_non_finite_rows(tmp_path, bad):
    # a hand-edited or foreign file: the writer never produces these rows
    p = tmp_path / "a.csv"
    write_spectrum(_sample(), p)
    text = p.read_text().replace("27.3", bad)
    assert bad in text
    p.write_text(text)
    with pytest.raises(SpectrumIOError):
        read_spectrum(p)


def _sample_text(rows):
    return (
        "# domain=unit_disk\n# bc=free\n# mu=1.0\n# lambda=1.0\n# lambda_max=10.0\n"
        "# method=fem\nindex,eigenvalue,multiplicity,mode_tag\n" + "".join(r + "\n" for r in rows)
    )


@pytest.mark.parametrize(
    "rows",
    [
        ["0,abc,1,x"],  # unparsable eigenvalue
        ["0,1.0,two,x"],  # unparsable multiplicity
        ["0,2.0,1,x", "1,1.0,1,y"],  # rows out of order
        ["0,1.0,0,x"],  # zero multiplicity
        ["0,1.0,1,x", "1,12.0,1,y"],  # eigenvalue above lambda_max
    ],
    ids=["unparsable_eigenvalue", "unparsable_multiplicity", "out_of_order", "zero_multiplicity",
         "above_cutoff"],
)
def test_read_spectrum_maps_bad_rows_to_spectrum_io_error(tmp_path, rows):
    p = tmp_path / "a.csv"
    p.write_text(_sample_text(rows))
    with pytest.raises(SpectrumIOError):
        read_spectrum(p)


def test_eigenvalue_above_cutoff_rejected():
    with pytest.raises(ValueError, match="lambda_max"):
        Spectrum(UNIT_DISK, BC.FREE, LameParams(1, 1), np.array([1.0, 10.5]),
                 np.array([1, 1]), ["a", "b"], 10.0, Method.FEM)
    # the cutoff itself is not above the cutoff
    Spectrum(UNIT_DISK, BC.FREE, LameParams(1, 1), np.array([1.0, 10.0]),
             np.array([1, 1]), ["a", "b"], 10.0, Method.FEM)


_BAD_CUTOFFS = [np.nan, np.inf, 0.0, -5.0]


@pytest.mark.parametrize("bad", _BAD_CUTOFFS)
def test_non_finite_or_non_positive_cutoff_rejected(bad):
    # an empty spectrum too: no eigenvalue lies above a cutoff of -5
    for ev, mult, tags in ((np.array([1.0]), np.array([1]), ["a"]), (np.array([]), np.array([]), [])):
        with pytest.raises(ParameterDomainError, match="lambda_max must be a finite positive number"):
            Spectrum(UNIT_DISK, BC.FREE, LameParams(1, 1), ev, mult, tags, bad, Method.FEM)


@pytest.mark.parametrize("bad", _BAD_CUTOFFS)
def test_read_spectrum_rejects_a_non_finite_or_non_positive_cutoff(tmp_path, bad):
    p = tmp_path / "a.csv"
    p.write_text(_sample_text(["0,1.0,1,x"]).replace("lambda_max=10.0", f"lambda_max={bad!r}"))
    with pytest.raises(SpectrumIOError, match="lambda_max must be a finite positive number"):
        read_spectrum(p)
