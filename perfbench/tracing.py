"""Outside-in layer tracing for the benchmark.

The library has no instrumentation of its own, so the traced run wraps the
module attributes through which one layer calls the next (``LAYER_WRAPS``),
records a span per call plus per-layer counters, and restores every
attribute afterwards.  A span's self time is its duration minus the part of
its interval covered by its child spans; per-layer metrics are derived from
self times and counters by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np


def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_self_times(spans):
    """Self time of each span, in the order of ``spans``.

    ``spans`` is a list of (name, parent_index, start, end); parent_index is
    -1 for a root span.  Overlapping children (parallel workers) are counted
    once, and child time outside the parent's interval is ignored.
    """
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered_length(children.get(i, ()), start, end)
            for i, (_name, _parent, start, end) in enumerate(spans)]


def self_times(spans):
    """Sum of self time per span name."""
    out = defaultdict(float)
    for (name, _parent, _start, _end), own in zip(spans, span_self_times(spans)):
        out[name] += own
    return dict(out)


def attributed_time(spans):
    """Self time of the spans nested under another span.

    A root span is the benchmark's own call into the library; whatever no
    inner wrapper catches during it lands in its self time, so that time is
    left out: it is the part of a pass no named layer boundary accounts for.
    """
    return sum(own for (_n, parent, _s, _e), own in zip(spans, span_self_times(spans)) if parent >= 0)


class Tracer:
    """Span and counter store; wrappers installed by ``install`` feed it.

    Spans nest per thread; a span's parent is the innermost open span of
    the thread that opened it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()
        self._patches = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def call(self, name, fn, args=(), kwargs=None):
        """Run fn inside a span called ``name``."""
        spans = self.spans
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        start = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            spans[idx] = (name, parent, start, self.clock())
            stack.pop()

    def wrap(self, owner, attr, name, hook=None):
        """Replace ``owner.attr`` by a spanned wrapper; ``restore`` undoes it.

        ``hook(tracer, args, kwargs, result)`` runs after the span closes,
        updates counters and returns the result handed to the caller.
        """
        original = getattr(owner, attr)
        calls = name + ".calls"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, args, kwargs)
            self.counts[calls] += 1
            return result if hook is None else hook(self, args, kwargs, result)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        for module_name, attr, name, hook in LAYER_WRAPS:
            self.wrap(importlib.import_module(module_name), attr, name, hook)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# counters recorded at the layer boundaries


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _grid_points(tracer, args, kwargs, result):
    tracer.counts["specfun.det_grid.points"] += len(_arg(args, kwargs, 1, "lams"))
    return result


def _angular_pass(tracer, args, kwargs, result):
    if _arg(args, kwargs, 4, "halvings", 0) == 0:
        tracer.counts["diskmodes.angular_modes"] += 1
    return result


def _io_bytes(tracer, args, kwargs, result):
    # write_spectrum(spectrum, path) and read_spectrum(path)
    tracer.counts["spectrum.io_bytes"] += os.path.getsize(kwargs.get("path", args[-1]))
    return result


def _dofs(tracer, args, kwargs, result):
    tracer.counts["fem.dofs"] += result.n
    return result


def _eigs(tracer, args, kwargs, result):
    if result.method == "lanczos":
        tracer.counts["fem.eigs.sparse_calls"] += 1
        count = _arg(args, kwargs, 1, "count")
        tracer.counts["fem.eigs.requested"] += count if count is not None else len(result.values)
    return result


def _extrapolated(tracer, args, kwargs, result):
    tracer.counts["fem.extrapolated_spectra"] += 1
    tracer.counts["fem.richardson.flagged"] += int(result[1].flagged.sum())
    return result


def _guard_cells(tracer, args, kwargs, result):
    ea, eb = args[0].expanded(), args[1].expanded()
    ea, eb = ea[ea < result.lambda_cut], eb[eb < result.lambda_cut]
    union = np.unique(np.concatenate([ea, eb, [0.0, result.lambda_cut]]))
    tracer.counts["adjudicate.guard_cells"] += (union.size - 1) * (ea.size + eb.size)
    return result


class _TimedLU:
    """SuperLU proxy whose ``solve`` is spanned and counted."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        result = self._tracer.call("fem.lu.solve", self._lu.solve, args, kwargs)
        self._tracer.counts["fem.lu.solves"] += 1
        return result

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _lu_proxy(tracer, args, kwargs, result):
    tracer.counts["fem.lu.nnz"] += result.nnz
    return _TimedLU(result, tracer)


# (module, attribute, span name, hook).  Both the name a caller imported and
# the defining module's attribute are wrapped where both are used.
LAYER_WRAPS = [
    ("elastica.specfun._backend", "det_grid", "specfun.det_grid", _grid_points),
    ("elastica.specfun._backend", "det_dirichlet", "specfun.det_scalar", None),
    ("elastica.specfun._backend", "det_free", "specfun.det_scalar", None),
    ("elastica.fem.analytic", "bessel_zeros", "specfun.bessel_zeros", None),
    ("elastica.diskmodes", "rayleigh_root", "coeffs.rayleigh_root", None),
    ("elastica.diskmodes", "_scan_angular_mode", "diskmodes.scan", _angular_pass),
    ("elastica.diskmodes", "disk_spectrum_potential", "diskmodes", None),
    ("elastica.cli", "disk_spectrum_potential", "diskmodes", None),
    ("elastica.spectrum", "write_spectrum", "spectrum.io", _io_bytes),
    ("elastica.spectrum", "read_spectrum", "spectrum.io", _io_bytes),
    ("elastica.cli", "write_spectrum", "spectrum.io", _io_bytes),
    ("elastica.fem.refine", "build_mesh", "fem.mesh", None),
    ("elastica.fem", "build_mesh", "fem.mesh", None),
    ("elastica.fem.refine", "assemble", "fem.assemble", _dofs),
    ("elastica.fem", "assemble", "fem.assemble", _dofs),
    ("elastica.fem.refine", "solve_eigs", "fem.eigs", _eigs),
    ("elastica.fem", "solve_eigs", "fem.eigs", _eigs),
    ("scipy.sparse.linalg", "splu", "fem.lu.factor", _lu_proxy),
    ("elastica.fem", "refine_and_extrapolate", "fem.richardson", None),
    ("elastica.fem", "fem_extrapolated_spectrum", "fem.spectrum", _extrapolated),
    ("elastica.cli", "fem_spectrum", "fem.spectrum", None),
    ("elastica.fem.analytic", "square_dirichlet_spectrum", "fem.analytic", None),
    ("elastica.fem.analytic", "square_neumann_lattice_spectrum", "fem.analytic", None),
    ("elastica.fem.analytic", "disk_dirichlet_spectrum", "fem.analytic", None),
    ("elastica.asympt", "fit_two_term", "asympt.fit", None),
    ("elastica.asympt", "heat_trace", "asympt.heat_trace", None),
    ("elastica.asympt", "remainder_series", "asympt.cesaro", None),
    ("elastica.asympt", "prop71_empirical", "asympt.prop71", None),
    ("elastica.adjudicate", "compare_spectra", "adjudicate", _guard_cells),
    ("elastica.cli", "compare_spectra", "adjudicate", _guard_cells),
    ("elastica.cli", "residue_heat", "symbolcheck", None),
    ("elastica.cli", "interior_coefficient", "symbolcheck", None),
    ("elastica.cli", "boundary_layer", "symbolcheck", None),
    ("elastica.cli", "prop71_analytic", "symbolcheck", None),
    ("elastica.cli", "main", "cli", None),
]


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, better, value from (self times, counters))
LAYER_METRICS = [
    ("specfun.det_grid.calls", "count", "lower", lambda s, c: c["specfun.det_grid.calls"]),
    ("specfun.det_grid.points", "count", "lower", lambda s, c: c["specfun.det_grid.points"]),
    ("specfun.det_grid.self_s", "s", "lower", lambda s, c: s.get("specfun.det_grid", 0.0)),
    ("specfun.det_scalar.calls", "count", "lower", lambda s, c: c["specfun.det_scalar.calls"]),
    ("specfun.det_scalar.self_s", "s", "lower", lambda s, c: s.get("specfun.det_scalar", 0.0)),
    ("specfun.bessel_zeros.calls", "count", "lower", lambda s, c: c["specfun.bessel_zeros.calls"]),
    ("specfun.bessel_zeros.self_s", "s", "lower", lambda s, c: s.get("specfun.bessel_zeros", 0.0)),
    ("coeffs.rayleigh_root.calls", "count", "lower", lambda s, c: c["coeffs.rayleigh_root.calls"]),
    ("coeffs.rayleigh_root.self_s", "s", "lower", lambda s, c: s.get("coeffs.rayleigh_root", 0.0)),
    ("diskmodes.scan_passes", "count", "lower", lambda s, c: c["diskmodes.scan.calls"]),
    ("diskmodes.pass_yield", "ratio", "higher",
     lambda s, c: _ratio(c["diskmodes.angular_modes"], c["diskmodes.scan.calls"])),
    ("diskmodes.self_s", "s", "lower", lambda s, c: s.get("diskmodes", 0.0) + s.get("diskmodes.scan", 0.0)),
    ("spectrum.io_s", "s", "lower", lambda s, c: s.get("spectrum.io", 0.0)),
    ("spectrum.io_bytes", "B", "lower", lambda s, c: c["spectrum.io_bytes"]),
    ("fem.dofs", "count", "lower", lambda s, c: c["fem.dofs"]),
    ("fem.mesh_s", "s", "lower", lambda s, c: s.get("fem.mesh", 0.0)),
    ("fem.assemble_s", "s", "lower", lambda s, c: s.get("fem.assemble", 0.0)),
    ("fem.lu.factor_calls", "count", "lower", lambda s, c: c["fem.lu.factor.calls"]),
    ("fem.lu.factor_s", "s", "lower", lambda s, c: s.get("fem.lu.factor", 0.0)),
    ("fem.lu.nnz", "count", "lower", lambda s, c: c["fem.lu.nnz"]),
    # float64 value plus int32 row index per stored entry
    ("fem.lu.bytes", "B", "lower", lambda s, c: 12 * c["fem.lu.nnz"]),
    ("fem.lu.solves", "count", "lower", lambda s, c: c["fem.lu.solves"]),
    ("fem.lu.solve_s", "s", "lower", lambda s, c: s.get("fem.lu.solve", 0.0)),
    ("fem.solves_per_eig", "ratio", "lower", lambda s, c: _ratio(c["fem.lu.solves"], c["fem.eigs.requested"])),
    ("fem.eigs.self_s", "s", "lower", lambda s, c: s.get("fem.eigs", 0.0)),
    ("fem.eigs.restarts", "count", "lower",
     lambda s, c: max(c["fem.lu.factor.calls"] - c["fem.eigs.sparse_calls"], 0)),
    ("fem.refine.calls_per_spectrum", "ratio", "lower",
     lambda s, c: _ratio(c["fem.richardson.calls"], c["fem.extrapolated_spectra"])),
    ("fem.richardson.flagged", "count", "lower", lambda s, c: c["fem.richardson.flagged"]),
    ("fem.richardson.self_s", "s", "lower", lambda s, c: s.get("fem.richardson", 0.0)),
    ("fem.spectrum.self_s", "s", "lower", lambda s, c: s.get("fem.spectrum", 0.0)),
    ("fem.analytic.self_s", "s", "lower", lambda s, c: s.get("fem.analytic", 0.0)),
    ("asympt.fit.calls", "count", "lower", lambda s, c: c["asympt.fit.calls"]),
    ("asympt.fit.self_s", "s", "lower", lambda s, c: s.get("asympt.fit", 0.0)),
    ("asympt.cesaro_s", "s", "lower", lambda s, c: s.get("asympt.cesaro", 0.0)),
    ("asympt.heat_trace_s", "s", "lower", lambda s, c: s.get("asympt.heat_trace", 0.0)),
    ("asympt.prop71_s", "s", "lower", lambda s, c: s.get("asympt.prop71", 0.0)),
    ("adjudicate.compare_s", "s", "lower", lambda s, c: s.get("adjudicate", 0.0)),
    ("adjudicate.guard_cells", "count", "lower", lambda s, c: c["adjudicate.guard_cells"]),
    ("symbolcheck.verify_s", "s", "lower", lambda s, c: s.get("symbolcheck", 0.0)),
    ("cli.self_s", "s", "lower", lambda s, c: s.get("cli", 0.0)),
]


# whole-run trace diagnostics, filled in by the runner
TRACE_METRICS = [
    ("trace.overhead_s", "s", "lower"),  # median traced pass minus median untraced pass
    ("trace.coverage", "ratio", "higher"),  # attributed_time over traced pass time
    ("trace.unattributed_s", "s", "lower"),  # traced pass time minus attributed_time
]


def layer_metrics(tracer, wall):
    """Per-layer metrics of one traced pass of ``wall`` seconds."""
    selfs = self_times(tracer.spans)
    out = {name: fn(selfs, tracer.counts) for name, _unit, _better, fn in LAYER_METRICS}
    attributed = attributed_time(tracer.spans)
    out["trace.coverage"] = _ratio(attributed, wall)
    out["trace.unattributed_s"] = wall - attributed
    return out
