"""Cross-method spectrum comparison: the disk adjudication table.

Pairs two spectra of the same problem one-to-one (sorted, with
multiplicity) and tabulates counting-function differences at sample points.
The output takes no side: it reports where the methods agree and documents
exactly where, if anywhere, their counts diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterDomainError
from .spectrum import Spectrum


@dataclass
class SpectrumComparison:
    lambda_cut: float
    count_a: int
    count_b: int
    paired: int
    max_rel_diff: float
    pair_rel_diffs: np.ndarray
    sample_lambdas: np.ndarray
    counts_a: np.ndarray
    counts_b: np.ndarray
    divergences: list = field(default_factory=list)  # (lambda, N_a, N_b)
    pair_tol: float = 0.0

    @property
    def counts_match_everywhere(self) -> bool:
        return len(self.divergences) == 0

    @property
    def paired_within_tol(self) -> bool:
        return self.count_a == self.count_b and (
            self.pair_rel_diffs.size == 0 or self.max_rel_diff <= self.pair_tol
        )

    def summary(self) -> dict:
        return {
            "lambda_cut": self.lambda_cut,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "paired": self.paired,
            "max_pair_rel_diff": self.max_rel_diff,
            "pair_tol": self.pair_tol,
            "counts_match_everywhere": self.counts_match_everywhere,
            "paired_one_to_one_within_tol": self.paired_within_tol,
            "divergences": [
                {"lambda": float(l), "count_a": int(a), "count_b": int(b)}
                for l, a, b in self.divergences
            ],
        }


def _nearest_distance(x: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """min_j |x[i] - pts[j]| per i for sorted pts (inf when pts is empty),
    from the two neighbours of each insertion point: O((n + m) log m) time
    and O(n) memory."""
    if pts.size == 0:
        return np.full(x.shape, np.inf)
    j = np.searchsorted(pts, x)
    left = pts[np.maximum(j - 1, 0)]
    right = pts[np.minimum(j, pts.size - 1)]
    return np.minimum(np.abs(x - left), np.abs(x - right))


# relative distance below the common cutoff at which a comparison stops
_EDGE_MARGIN = 0.005


def compare_spectra(
    spec_a: Spectrum,
    spec_b: Spectrum,
    pair_rtol: float = 5e-3,
    n_samples: int = 60,
) -> SpectrumComparison:
    """Pair eigenvalue lists of one problem and tabulate count differences.

    Spectra of different domains, boundary conditions or Lame parameters
    are refused.  The comparison stops slightly below the common cutoff
    (``_EDGE_MARGIN`` relative) so an eigenvalue straddling the cutoff in
    one method only is not misread as a lost mode.  Sample points for the
    count table are gap midpoints of the union list, which keeps them away
    from eigenvalues of either method.
    """
    if spec_a.domain.name != spec_b.domain.name or spec_a.bc != spec_b.bc:
        raise ParameterDomainError("spectra must share domain and boundary condition")
    if (spec_a.params.mu, spec_a.params.lam) != (spec_b.params.mu, spec_b.params.lam):
        raise ParameterDomainError("spectra must share the material parameters")
    lam_cut = (1.0 - _EDGE_MARGIN) * min(spec_a.lambda_max, spec_b.lambda_max)
    ea = spec_a.expanded()
    eb = spec_b.expanded()
    ea = ea[ea < lam_cut]
    eb = eb[eb < lam_cut]
    npair = min(ea.size, eb.size)
    denom = np.maximum(np.abs(eb[:npair]), 1.0)
    diffs = np.abs(ea[:npair] - eb[:npair]) / denom

    # sample the counting functions between paired clusters, never inside a
    # matched pair (a discretization-shifted twin straddling the sample point
    # would masquerade as a lost eigenvalue)
    union = np.unique(np.concatenate([ea, eb, [0.0], [lam_cut]]))
    cand = 0.5 * (union[:-1] + union[1:])
    guard = _nearest_distance(cand, np.sort(np.concatenate([ea, eb])))
    keep = guard > 2.0 * pair_rtol * np.maximum(cand, 1.0)
    mids = cand[keep]
    if mids.size > n_samples:
        take = np.linspace(0, mids.size - 1, n_samples).astype(int)
        mids = mids[take]
    mids = np.concatenate([mids, [lam_cut]])
    ca = np.searchsorted(ea, mids, side="left")
    cb = np.searchsorted(eb, mids, side="left")
    div = [(float(l), int(a), int(b)) for l, a, b in zip(mids, ca, cb) if a != b]
    return SpectrumComparison(
        lambda_cut=lam_cut,
        count_a=int(ea.size),
        count_b=int(eb.size),
        paired=int(npair),
        max_rel_diff=float(diffs.max()) if diffs.size else 0.0,
        pair_rel_diffs=diffs,
        sample_lambdas=mids,
        counts_a=ca,
        counts_b=cb,
        divergences=div,
        pair_tol=pair_rtol,
    )
