"""Run one benchmark workload against the magschro sources next to this directory.

    python3 perfbench/run.py --workload propagate --seed 7 --seconds 28 --trace 0

One process, one client, calls back to back (a closed loop), BLAS and OpenMP
pinned to one thread.  After a seeded set-up the workload's batch of checked
operations repeats until the next batch would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics:
  wall_s       wall time of one batch, checks included: the sum over the
               batch's operations of each one's median time
  setup_s      median over separate processes of the time from process start
               to the first timed call (imports, inputs, warm-up)
  peak_rss_mb  peak resident memory of this process (ru_maxrss)
``--trace 1`` alternates untraced batches with batches run inside the layer
tracer (perfbench/tracing.py) and reports the per-layer metrics of one traced
batch and the tracing overhead, the median over pairs of the traced minus the
untraced batch time.

Both modes print the environment, every metric by name with its unit, and the
error rate (failed / attempted operations) before the last line, which is one
JSON object with the keys correct, attempted, failed and metrics.  Probes that
run outside the timed batches (the fixed-axis decay) are reported on their
own and do not count as attempted operations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 150


def load_program():
    """Pin native threads, then import magschro from this checkout's ``src``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import magschro

    where = Path(magschro.__file__).resolve().parent
    if where != (src / "magschro").resolve():
        raise ImportError(f"magschro imported from {where}, not from {src}")
    return magschro


def measure(workload, state, seconds: float, run_op, tracer=None):
    """Repeat the batch until the next one would end after ``seconds``.

    Every operation is timed on its own.  With a ``tracer``, every second
    batch runs inside it, so untraced and traced batches alternate in pairs.
    Returns the untraced and the traced times, each {operation: [seconds
    per batch]}, and every outcome.
    """
    untraced, traced, outcomes, walls = defaultdict(list), defaultdict(list), [], []
    per_round = 2 if tracer is not None else 1
    start = time.perf_counter()
    while True:
        inside = tracer is not None and len(walls) % 2 == 1
        times = traced if inside else untraced
        t0 = time.perf_counter()
        with tracer if inside else contextlib.nullcontext():
            for name, fn in workload.batch(state):
                t_op = time.perf_counter()
                outcomes.append(run_op(name, fn))
                times[name].append(time.perf_counter() - t_op)
        walls.append(time.perf_counter() - t0)
        if (len(walls) % per_round == 0
                and time.perf_counter() - start + per_round * max(walls) > seconds):
            return untraced, traced, outcomes


def batch_wall(times: dict) -> float:
    """Wall time of one batch: the sum over its operations of each one's median."""
    return sum(statistics.median(v) for v in times.values())


def batch_totals(times: dict) -> list[float]:
    """Total time of each batch, in order."""
    return [sum(batch) for batch in zip(*times.values())]


def spread(values: list[float]) -> str:
    """Median and quartiles, as text."""
    if len(values) < 2:
        return f"median {statistics.median(values):.4g} (n={len(values)})"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"median {q2:.4g}, quartiles {q1:.4g} .. {q3:.4g}, "
            f"iqr/median {(q3 - q1) / q2:.3f} (n={len(values)})")


def setup_times(workload_name: str, seed: int) -> list[float]:
    """Time from spawning a fresh process to the point where it would make its
    first timed call: it imports, sets up and warms up, then prints the
    system-wide monotonic clock (``perf_counter``) and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(seed: int, workload_name: str, sizes: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        suffix = "" if kind == "Unified" else kind[0].lower()
        caches[f"L{level}{suffix}"] = _read(f"{index}/size")
    return {
        "workload": workload_name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "baseline": "single-threaded",
        "sizes": sizes,
        "working_set_note": "bytes computed from array shapes, not measured",
    }


def _describe(outcome) -> str:
    if outcome.error:
        return outcome.error
    return "; ".join(
        f"{c.check_id}={c.value:.3e} ({'pass' if c.passed else 'FAIL'} at {c.threshold:g})"
        for c in outcome.checks
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_program()
    import warnings

    from tracing import LayerTracer, layer_metrics
    from workloads import WORKLOADS, run_op

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    # the experiments discard the same warnings (wrap depth, band mass, Nyquist)
    warnings.simplefilter("ignore")

    if args.setup_only:
        workload.setup(args.seed)
        print(time.perf_counter())
        return 0

    setup_tracer = LayerTracer()
    with setup_tracer if args.trace else contextlib.nullcontext():
        state = workload.setup(args.seed)

    tracer = LayerTracer() if args.trace else None
    untraced, traced, outcomes = measure(workload, state, args.seconds, run_op, tracer)
    probes = [run_op(name, fn) for name, fn in workload.probes(state)]

    failed = sum(not o.ok for o in outcomes)
    setups = []
    if args.trace:
        metrics = layer_metrics(tracer, len(batch_totals(traced)))
        metrics["potentials.make_potential.busy_s"] = (
            setup_tracer.busy["potentials.make_potential"], "s")
        paired = [t - u for u, t in zip(batch_totals(untraced), batch_totals(traced))]
        metrics["trace.overhead_s"] = (statistics.median(paired), "s")
        metrics["angular.fixed_axis_probe.failed"] = (sum(not p.ok for p in probes), "count")
    else:
        setups = setup_times(args.workload, args.seed)
        metrics = {
            "wall_s": (batch_wall(untraced), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    print(json.dumps({"environment": environment(args.seed, args.workload, state["sizes"])}))
    for op, values in untraced.items():
        print(f"operation {op} (s): {spread(values)}")
    print(f"batch total (s): {spread(batch_totals(untraced))}")
    if args.trace:
        print(f"traced batch total (s): {spread(batch_totals(traced))}")
    else:
        print(f"setup (s): {spread(setups)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"error_rate = {failed / len(outcomes)!r} 1 "
          f"({failed} of {len(outcomes)} operations failed)")
    for tag, group in (("failed", outcomes), ("probe", probes)):
        for o in group:
            if tag == "probe" or not o.ok:
                print(f"{tag}: {o.name}: {_describe(o)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
