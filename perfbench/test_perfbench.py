"""Fast self-tests of the benchmark harness; no workload pass is run."""

import copy
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

workloads = run.import_workloads()

import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_nested_and_overlapping_children():
    spans = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 0, 3.0, 6.0),  # overlaps b: the union [1, 6] counts once
        ("d", 1, 1.5, 2.0),  # nested under b
        ("e", 0, 9.0, 12.0),  # runs past its parent: only [9, 10] is covered
        ("b", -1, 20.0, 21.0),  # second root span of the same name adds up
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"a": 10.0 - 6.0, "b": 3.0 - 0.5 + 1.0, "c": 3.0, "d": 0.5, "e": 3.0})


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(2.0, 3.0), (0.0, 1.0), (0.5, 1.5)], 0.0, 2.5) == pytest.approx(2.0)
    assert tracing.covered_length([(-5.0, 0.0), (1.0, 1.0)], 0.0, 2.0) == 0.0


def test_tracer_spans_follow_call_nesting():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    ns = type("NS", (), {})()

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        ns.inner()
        clock.now += 3.0

    ns.inner, ns.outer = inner, outer
    tracer.wrap(ns, "inner", "layer.inner")
    tracer.wrap(ns, "outer", "layer.outer")
    ns.outer()
    ns.outer()
    tracer.restore()
    assert ns.inner is inner and ns.outer is outer
    assert tracing.self_times(tracer.spans) == {"layer.outer": 8.0, "layer.inner": 4.0}
    assert tracer.counts["layer.outer.calls"] == 2 and tracer.counts["layer.inner.calls"] == 2


def test_coverage_counts_only_time_under_a_named_layer():
    def traced_pass(wrap_helper):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)
        ns = type("NS", (), {})()

        def entry():  # the workload's public call: a root span
            clock.now += 1.0
            ns.layer()
            ns.helper()

        ns.entry, ns.layer = entry, lambda: setattr(clock, "now", clock.now + 2.0)
        ns.helper = lambda: setattr(clock, "now", clock.now + 3.0)
        tracer.wrap(ns, "entry", "entry")
        tracer.wrap(ns, "layer", "layer")
        if wrap_helper:
            tracer.wrap(ns, "helper", "helper")
        clock.now += 0.5  # workload code outside any span
        ns.entry()
        tracer.restore()
        return tracing.layer_metrics(tracer, wall=clock.now)

    wrapped = traced_pass(wrap_helper=True)
    assert wrapped["trace.coverage"] == pytest.approx(5.0 / 6.5)
    assert wrapped["trace.unattributed_s"] == pytest.approx(1.5)
    # an unwrapped child's time stays in the root's self time and lowers coverage
    bare = traced_pass(wrap_helper=False)
    assert bare["trace.coverage"] == pytest.approx(2.0 / 6.5)
    assert bare["trace.unattributed_s"] == pytest.approx(4.5)


def test_traced_run_restores_every_wrapped_attribute():
    import scipy.sparse as sp

    targets = [(importlib.import_module(m), attr) for m, attr, _n, _h in tracing.LAYER_WRAPS]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not orig for (o, a), orig in zip(targets, originals))
        from elastica.specfun import _backend

        _backend.det_grid(3, np.linspace(1.0, 10.0, 7), 1.0, 1.0, False)
        import scipy.sparse.linalg as spla

        lu = spla.splu(sp.csc_matrix(np.diag([2.0, 3.0, 4.0])))
        assert np.allclose(lu.solve(np.ones(3)), [0.5, 1 / 3, 0.25])
        assert lu.shape == (3, 3)  # other attributes pass through the proxy
    finally:
        tracer.restore()
    assert all(getattr(o, a) is orig for (o, a), orig in zip(targets, originals))
    counts = tracer.counts
    assert counts["specfun.det_grid.points"] == 7
    assert counts["fem.lu.factor.calls"] == 1 and counts["fem.lu.solves"] == 1
    metrics = tracing.layer_metrics(tracer, wall=1.0)
    assert metrics["specfun.det_grid.calls"] == 1 and metrics["fem.lu.solves"] == 1


def _clean_outcome(name):
    ref = workloads.load_fingerprints(run.FINGERPRINTS)[name]
    return ref, workloads.Outcome(fingerprints=copy.deepcopy(ref), problems={op: [] for op in ref})


def test_corrupted_fingerprint_counts_as_failure():
    wl = workloads.WORKLOADS["adjudicate_disk"]
    ref, outcome = _clean_outcome(wl.name)
    log = run.PassLog()
    log.count(wl, outcome, ref, None)
    assert (log.attempted, log.failed) == (3, 0)

    outcome.fingerprints["compare"]["divergences"] += 1
    log.count(wl, outcome, ref, None)
    assert (log.attempted, log.failed) == (6, 1)
    assert "divergences" in log.failures[-1]["compare"][0]


def test_fingerprint_float_tolerance_and_reference_free_problems():
    wl = workloads.WORKLOADS["asymptotics_closed_form"]
    ref, outcome = _clean_outcome(wl.name)
    value = ref["square_dirichlet.heat"]["boundary"]
    outcome.fingerprints["square_dirichlet.heat"]["boundary"] = value * (1 + 1e-12)
    assert workloads.failed_ops(outcome, ref) == {}
    outcome.fingerprints["square_dirichlet.heat"]["boundary"] = value * (1 + 1e-6)
    assert list(workloads.failed_ops(outcome, ref)) == ["square_dirichlet.heat"]
    outcome.problems["prop71"] = ["half-sum ratio too large"]
    assert set(workloads.failed_ops(outcome)) == {"prop71"}


def test_failed_pass_counts_every_operation():
    wl = workloads.WORKLOADS["potential_sweep"]
    log = run.PassLog()
    log.count(wl, None, None, "RuntimeError('boom')")
    assert log.attempted == log.failed == wl.ops_per_pass


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name].make_inputs
    assert [make(s) for s in range(6)] == [make(s) for s in range(6)]
    nominal = make(0)
    others = [make(s) for s in range(1, 6)]
    assert all(o != nominal for o in others)
    for other in others:
        for key, value in nominal.items():
            for a, b in zip(np.atleast_1d(value), np.atleast_1d(other[key])):
                assert abs(a - b) <= workloads.PERTURBATION * max(abs(a), 1.0) + 1e-15


def test_benchmark_json_matches_harness():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(workloads.WORKLOADS)
    assert set(workloads.load_fingerprints(run.FINGERPRINTS)) == set(names)
    layer = [(m, u, b) for m, u, b, _f in tracing.LAYER_METRICS] + list(tracing.TRACE_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layer
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_norm_s", "setup_s", "peak_rss_mib"}


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    q, value = run.tail_percentile([float(v) for v in range(20)])
    assert q == 50 and value == pytest.approx(9.5)
    assert run.tail_percentile([1.0] * 100)[0] == 90


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "potential_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no elastica sources" in proc.stderr
