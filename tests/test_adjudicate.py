"""Spectrum comparison: the sample-point guard against its dense definition, and the
refusal of spectra of different problems."""

import dataclasses

import numpy as np
import pytest

from elastica.adjudicate import _nearest_distance, compare_spectra
from elastica.errors import ParameterDomainError
from elastica.params import BoundaryCondition as BC
from elastica.params import LameParams, UNIT_DISK
from elastica.spectrum import Method, Spectrum


def _dense_distance(x, pts):
    both = pts if pts.size else np.array([np.inf])
    return np.abs(x[:, None] - both[None, :]).min(axis=1)


def _random_spectrum(rng, n, method):
    ev = np.sort(rng.uniform(1.0, 200.0, n))
    ev[1::7] = ev[0::7][: ev[1::7].size]  # exact repeats across entries
    ev = np.sort(ev)
    return Spectrum(UNIT_DISK, BC.DIRICHLET, LameParams(1.0, 1.0), ev,
                    rng.integers(1, 3, n), ["m"] * n, 200.0, method)


def test_nearest_distance_matches_dense_formula():
    rng = np.random.default_rng(2)
    for n, m in ((0, 5), (5, 0), (1, 1), (40, 300), (300, 40)):
        x = rng.uniform(-5.0, 205.0, n)
        pts = np.sort(np.concatenate([rng.uniform(0.0, 200.0, m), rng.uniform(0.0, 200.0, m // 3)]))
        assert np.array_equal(_nearest_distance(x, pts), _dense_distance(x, pts))


def test_compare_spectra_samples_match_dense_guard():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = _random_spectrum(rng, int(rng.integers(1, 120)), Method.POTENTIAL)
        b = _random_spectrum(rng, int(rng.integers(1, 120)), Method.FEM)
        cmp_ = compare_spectra(a, b, n_samples=10_000)
        ea, eb = a.expanded(), b.expanded()
        ea, eb = ea[ea < cmp_.lambda_cut], eb[eb < cmp_.lambda_cut]
        union = np.unique(np.concatenate([ea, eb, [0.0], [cmp_.lambda_cut]]))
        cand = 0.5 * (union[:-1] + union[1:])
        guard = _dense_distance(cand, np.concatenate([ea, eb]))
        mids = cand[guard > 2.0 * cmp_.pair_tol * np.maximum(cand, 1.0)]
        assert np.array_equal(cmp_.sample_lambdas, np.concatenate([mids, [cmp_.lambda_cut]]))


def test_compare_spectra_refuses_different_materials():
    rng = np.random.default_rng(4)
    a = _random_spectrum(rng, 30, Method.POTENTIAL)
    b = _random_spectrum(rng, 30, Method.FEM)
    compare_spectra(a, b)
    for params in (LameParams(1.0, 3.0), LameParams(2.0, 1.0)):
        with pytest.raises(ParameterDomainError, match="material"):
            compare_spectra(a, dataclasses.replace(b, params=params))
