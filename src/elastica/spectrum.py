"""Eigenvalue spectra and their on-disk CSV form.

A spectrum is an ordered list of distinct eigenvalues with integer
multiplicities, tied to the domain, boundary condition, material parameters,
validity cutoff, and the method that produced it.

File format: comment preamble of ``# key=value`` lines (domain, bc, mu,
lambda, lambda_max, method, then any extra metadata), a header row
``index,eigenvalue,multiplicity,mode_tag``, then the rows.  Floats are
written with ``repr`` so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import SpectrumIOError
from .params import BoundaryCondition, DomainGeometry, DomainName, LameParams, check_cutoff


class Method(enum.Enum):
    POTENTIAL = "potential"
    FEM = "fem"
    ANALYTIC_DECOUPLED = "analytic"


_REQUIRED_KEYS = ("domain", "bc", "mu", "lambda", "lambda_max", "method")


@dataclass
class Spectrum:
    domain: DomainGeometry
    bc: BoundaryCondition
    params: LameParams
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    mode_tags: list[str]
    lambda_max: float
    method: Method
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        check_cutoff(self.lambda_max)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.multiplicities = np.asarray(self.multiplicities, dtype=int)
        n = self.eigenvalues.size
        if self.multiplicities.size != n or len(self.mode_tags) != n:
            raise ValueError("eigenvalues, multiplicities, mode_tags must have equal length")
        if not np.all(np.isfinite(self.eigenvalues)):
            raise ValueError("eigenvalues must be finite")
        if n and np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        if n and self.eigenvalues[0] < 0:
            raise ValueError("eigenvalues must be nonnegative")
        if n and self.bc is BoundaryCondition.DIRICHLET and self.eigenvalues[0] <= 0:
            raise ValueError("Dirichlet spectrum must be strictly positive")
        if n and np.any(self.multiplicities < 1):
            raise ValueError("multiplicities must be >= 1")
        if n and self.eigenvalues[-1] > self.lambda_max:
            raise ValueError(
                f"eigenvalue {self.eigenvalues[-1]!r} above the cutoff lambda_max={self.lambda_max!r}"
            )

    @property
    def total_count(self) -> int:
        return int(self.multiplicities.sum())

    def expanded(self) -> np.ndarray:
        """Eigenvalues repeated by multiplicity."""
        return np.repeat(self.eigenvalues, self.multiplicities)

    def count_below(self, lam) -> np.ndarray:
        """N(lam) = #{tau < lam} with multiplicity (vectorized in lam)."""
        cum = np.concatenate([[0], np.cumsum(self.multiplicities)])
        idx = np.searchsorted(self.eigenvalues, np.asarray(lam, dtype=float), side="left")
        return cum[idx]


# neighbours closer than this (relative) are copies of one multiplet
MULTIPLET_REL_GAP = 1e-6


def merge_close(values: np.ndarray):
    """Group sorted values whose relative gap is <= MULTIPLET_REL_GAP.

    Returns (representatives, multiplicities); the representative is the
    group mean.  Used to recover exact degeneracies perturbed by
    discretization.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values, np.zeros(0, dtype=int)
    reps, mults = [], []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or (values[i] - values[i - 1]) > MULTIPLET_REL_GAP * max(abs(values[i]), 1.0):
            reps.append(values[start:i].mean())
            mults.append(i - start)
            start = i
    return np.array(reps), np.array(mults, dtype=int)


def write_spectrum(spectrum: Spectrum, path) -> None:
    lines = [
        f"# domain={spectrum.domain.name.value}",
        f"# bc={spectrum.bc.value}",
        f"# mu={spectrum.params.mu!r}",
        f"# lambda={spectrum.params.lam!r}",
        f"# lambda_max={spectrum.lambda_max!r}",
        f"# method={spectrum.method.value}",
    ]
    lines += [f"# {k}={v}" for k, v in spectrum.meta.items()]
    lines.append("index,eigenvalue,multiplicity,mode_tag")
    for i, (ev, mult, tag) in enumerate(
        zip(spectrum.eigenvalues, spectrum.multiplicities, spectrum.mode_tags)
    ):
        lines.append(f"{i},{float(ev)!r},{int(mult)},{tag}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_spectrum(path) -> Spectrum:
    meta: dict[str, str] = {}
    rows = []
    header_seen = False
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = val
                continue
            if not header_seen:
                if line != "index,eigenvalue,multiplicity,mode_tag":
                    raise SpectrumIOError(f"bad header line: {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise SpectrumIOError(f"bad row: {line!r}")
            try:
                ev, mult = float(parts[1]), int(parts[2])
            except ValueError as exc:
                raise SpectrumIOError(f"bad row {line!r}: {exc}") from exc
            rows.append((ev, mult, parts[3]))
    missing = [k for k in _REQUIRED_KEYS if k not in meta]
    if missing:
        raise SpectrumIOError(f"missing preamble keys: {missing}")
    try:
        domain = DomainGeometry(DomainName(meta.pop("domain")))
        bc = BoundaryCondition(meta.pop("bc"))
        params = LameParams(float(meta.pop("mu")), float(meta.pop("lambda")))
        lambda_max = float(meta.pop("lambda_max"))
        method = Method(meta.pop("method"))
    except ValueError as exc:
        raise SpectrumIOError(f"bad preamble: {exc}") from exc
    try:
        return Spectrum(
            domain=domain,
            bc=bc,
            params=params,
            eigenvalues=np.array([r[0] for r in rows]),
            multiplicities=np.array([r[1] for r in rows], dtype=int),
            mode_tags=[r[2] for r in rows],
            lambda_max=lambda_max,
            method=method,
            meta=meta,
        )
    except ValueError as exc:
        raise SpectrumIOError(f"invalid spectrum: {exc}") from exc
