#!/usr/bin/env python3
"""elastica benchmark: end-to-end workloads with optional layer tracing.

One workload per process:

    python3 perfbench/run.py --workload adjudicate_disk --seed 0 --seconds 30 --trace 0

builds the workload's inputs from the seed, measures set-up time in fresh
interpreters, runs passes until ``--seconds`` seconds after its start (set-up
included), checks every pass's outputs, and prints the metrics by name with
units.  The last line of standard output is the result record
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json (untraced passes only), with
``--trace 1`` the per-layer metrics (traced passes interleaved with
untraced ones, which give ``trace.overhead_s``).  The line before it,
``record: {...}``, is the run record: commit, seed, inputs, kernel backend,
cores, BLAS, versions and every pass time.

Every workload in its own fresh process (with ``--trace 1`` also its traced
run), then a table of the end-to-end metrics:

    python3 perfbench/run.py --all --seed 0 --seconds 30 [--trace 1]

Seed-0 fingerprints (``fingerprints.json``) are recorded with
``--write-fingerprints`` and checked on every seed-0 run; other seeds use
reference-free checks only (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
WORK_DIR = ROOT / ".bench_work"
SETUP_SAMPLES = 10
# fresh interpreter -> package imported and kernel backend selected
SETUP_CODE = "import elastica.cli, elastica.specfun; elastica.specfun.COMPILED"
# in the order OpenBLAS reads them
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# nominal reference-loop time that wall_norm_s is scaled to
REFERENCE_S = 0.1


def source_dir(root=ROOT):
    """``root/src``, which must hold the elastica package."""
    src = root / "src"
    if not (src / "elastica" / "__init__.py").is_file():
        raise SystemExit(f"error: no elastica sources under {src}")
    return src


def import_elastica(root=ROOT):
    """Import elastica from ``root/src``, refusing any other copy."""
    src = source_dir(root)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import elastica

    if Path(elastica.__file__).resolve().parent != (src / "elastica").resolve():
        raise SystemExit(f"error: imported elastica from {elastica.__file__}, not from {src}")
    return elastica


def import_workloads():
    """The workload module, once elastica is importable from this checkout."""
    import_elastica()
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


@contextlib.contextmanager
def work_dir(label):
    """A per-process directory for the files a pass writes, removed afterwards."""
    path = WORK_DIR / f"{label}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass


def measure_setup(samples=SETUP_SAMPLES):
    """Wall time of fresh interpreters that import the package, one per sample."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); {SETUP_CODE}"
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def reference_loop():
    """Time a fixed mix of the work a pass does: interpreted scalar
    arithmetic, numpy array sweeps and a sparse LU factorisation with
    solves.  It calls nothing in elastica, so it follows the machine's speed
    and not the program's."""
    import numpy as np
    from scipy.sparse import diags, identity, kron
    from scipy.sparse.linalg import splu

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400_000):
        acc += (i % 7) * 0.5
    x = np.linspace(0.0, 1.0, 100_000)
    for _ in range(60):
        x = np.sqrt(x * x + 1.0) - 0.5
    n = 60
    t = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    lu = splu((kron(t, identity(n)) + kron(identity(n), t)).tocsc())
    b = np.ones(n * n)
    for _ in range(30):
        b = lu.solve(b)
        b /= np.abs(b).max()
    return time.perf_counter() - t0


def tail_percentile(values):
    """(q, value) for the highest percentile with >= 10 samples beyond it."""
    for q in TAIL_PERCENTILES:
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def git_commit(root=ROOT):
    """HEAD commit read from .git without running git (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment_record(elastica_threads):
    import numpy as np
    import scipy

    from elastica import specfun

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return {"name": info.get("name"), "version": info.get("version")}
        except Exception as exc:  # config layout differs between releases
            return {"error": repr(exc)}

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = {v: os.environ.get(v) for v in THREAD_VARS}
    set_threads = [int(t) for t in threads.values() if t and t.isdigit()]
    # OpenBLAS uses one thread per available core unless told otherwise
    blas_threads = set_threads[0] if set_threads else nproc
    return {
        "commit": git_commit(),
        "kernel_backend_compiled": bool(specfun.COMPILED),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas": {"numpy": blas(np), "scipy": blas(scipy)},
        "blas_thread_env": threads,
        "blas_threads": blas_threads,
        "elastica_threads_env": elastica_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class PassLog:
    """Pass times, operation counts and failures of one run."""

    def __init__(self):
        self.walls = {"untraced": [], "traced": []}
        self.reference = []  # two reference_loop times before each pass
        self.layers = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def count(self, wl, outcome, reference, error):
        from workloads import failed_ops

        if error is not None:
            self.attempted += wl.ops_per_pass
            self.failed += wl.ops_per_pass
            self.failures.append({"pass": error})
            return
        bad = failed_ops(outcome, reference)
        self.attempted += len(outcome.problems)
        self.failed += len(bad)
        if bad:
            self.failures.append(bad)


def run_passes(wl, inputs, deadline, work, reference=None, tracer=None):
    """Run passes until the next one would end after ``deadline`` (a
    ``time.perf_counter`` reading); at least one of each kind runs.

    With a tracer, traced passes alternate with untraced ones; wrappers are
    installed only around a traced pass, and outputs are checked after
    they are restored.  The reference loop runs twice before every pass.
    """
    from tracing import layer_metrics

    log = PassLog()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        log.reference += [reference_loop(), reference_loop()]
        if traced:
            tracer.install()
        out = error = None
        t0 = time.perf_counter()
        try:
            out = wl.run(inputs, work)
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.restore()
        log.walls["traced" if traced else "untraced"].append(wall)
        if traced:
            log.layers.append(layer_metrics(tracer, wall))
            tracer.reset()  # spans of one pass are all that is kept
        outcome = None
        if error is None:
            try:
                outcome = wl.inspect(inputs, out)
            except Exception:
                error = "inspecting outputs: " + traceback.format_exc()
        log.count(wl, outcome, reference, error)
        # free this pass's cyclic garbage before the next pass, so that peak
        # RSS does not depend on when the collector happens to run
        out = outcome = None
        gc.collect()
        i += 1
        expected = statistics.median(log.walls["untraced"] + log.walls["traced"])
        enough = log.walls["untraced"] and (tracer is None or log.walls["traced"])
        if enough and time.perf_counter() + expected > deadline:
            return log


def trace_metrics(log):
    from tracing import LAYER_METRICS, TRACE_METRICS

    units = {name: unit for name, unit, _b, _f in LAYER_METRICS}
    units.update({name: unit for name, unit, _b in TRACE_METRICS})
    values = {name: statistics.median(p[name] for p in log.layers) for name in units if name != "trace.overhead_s"}
    values["trace.overhead_s"] = statistics.median(log.walls["traced"]) - statistics.median(log.walls["untraced"])
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(args):
    start = time.perf_counter()  # set-up counts towards the run's --seconds
    source_dir()
    elastica_threads = os.environ.pop("ELASTICA_THREADS", None)  # one scan thread
    setup = measure_setup()
    workloads = import_workloads()
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    reference = None
    if args.seed == 0:
        reference = workloads.load_fingerprints(FINGERPRINTS)[wl.name]
    with work_dir(wl.name) as work:
        log = run_passes(wl, inputs, start + args.seconds, work, reference, Tracer() if args.trace else None)

    walls = log.walls["untraced"]
    if args.trace:
        metrics = trace_metrics(log)
    else:
        metrics = {
            # the gated pass time: the median pass, rescaled by the median
            # reference loop of the same run to a machine on which that loop
            # takes REFERENCE_S.  On a small shared VM host contention changes
            # the machine's speed by up to 2x in phases of tens of seconds,
            # which moves even the fastest raw pass from run to run
            "wall_norm_s": {"value": statistics.median(walls) * REFERENCE_S / statistics.median(log.reference),
                            "unit": "s"},
            # fastest of the fresh interpreters, for the same reason
            "setup_s": {"value": min(setup), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
    tail = tail_percentile(walls)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  inputs {json.dumps(inputs)}")
    print(f"wall_s = {statistics.median(walls):.6g} s  (median of n={len(walls)} untraced passes; "
          + (f"p{tail[0]} = {tail[1]:.6g} s" if tail else "no percentile has 10 samples beyond it") + ")")
    print(f"wall_min_s = {min(walls):.6g} s  (fastest untraced pass; median reference loop "
          f"{statistics.median(log.reference):.6g} s)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {log.failed / max(log.attempted, 1):.6g}  ({log.failed} of {log.attempted} operations)")
    for failure in log.failures[:5]:
        print(f"failure: {json.dumps(failure)}")
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs": inputs,
        **environment_record(elastica_threads),
        "setup_samples_s": setup,
        "pass_walls_s": log.walls,
        "reference_loop_s": log.reference,
        "attempted": log.attempted,
        "failed": log.failed,
        "fail_ratio": log.failed / max(log.attempted, 1),
        "failures": log.failures,
        "metrics": metrics,
    }
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": log.failed == 0, "attempted": log.attempted, "failed": log.failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in a fresh process, untraced and then traced."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = {}
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            rec = next((json.loads(l[8:]) for l in lines if l.startswith("record: ")), None)
            if proc.returncode != 0 or rec is None:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"error: workload {wl} failed")
            records[f"{wl}/trace{trace}"] = rec
            if trace:
                print(f"\n{wl} per-layer (traced):")
                for name, m in rec["metrics"].items():
                    print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"\n{'workload':26s} {'wall_s (s)':>10s} {'n':>3s} {'wall_min_s (s)':>14s} {'wall_norm_s (s)':>15s} "
          f"{'setup_s (s)':>11s} {'peak_rss_mib (MiB)':>18s} {'fail_ratio':>10s}")
    for rec in records.values():
        if rec["trace"] == 0:
            m, walls = rec["metrics"], rec["pass_walls_s"]["untraced"]
            print(f"{rec['workload']:26s} {statistics.median(walls):10.4f} {len(walls):3d} {min(walls):14.4f} "
                  f"{m['wall_norm_s']['value']:15.4f} {m['setup_s']['value']:11.4f} "
                  f"{m['peak_rss_mib']['value']:18.1f} {rec['fail_ratio']:10.3g}")
    return 0 if all(r["failed"] == 0 for r in records.values()) else 1


def write_fingerprints(args):
    """Record the seed-0 fingerprints of the named workloads (one pass each)."""
    workloads = import_workloads()
    known = workloads.load_fingerprints(FINGERPRINTS) if FINGERPRINTS.exists() else {}
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    with work_dir("fingerprints") as work:
        for name in names:
            wl = workloads.WORKLOADS[name]
            inputs = wl.make_inputs(0)
            outcome = wl.inspect(inputs, wl.run(inputs, work))
            bad = workloads.failed_ops(outcome)
            if bad:
                raise SystemExit(f"error: {name} fails its reference-free checks: {bad}")
            known[name] = outcome.fingerprints
            print(f"{name}: {len(outcome.fingerprints)} operations recorded")
    FINGERPRINTS.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["adjudicate_disk", "cli_disk_free", "potential_sweep",
                                           "asymptotics_closed_form"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    ap.add_argument("--write-fingerprints", action="store_true", help="record seed-0 fingerprints")
    args = ap.parse_args(argv)
    if args.write_fingerprints:
        return write_fingerprints(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload is required (or --all)")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
