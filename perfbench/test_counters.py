"""Exact counters of one traced batch per workload.

These counts depend only on the workload sizes, never on the seed or the
machine, so they are asserted exactly.  Timings are never asserted here.

    python3 -m pytest -q perfbench
"""

import warnings

import pytest

from tracing import LayerTracer, layer_metrics
from workloads import WORKLOADS, run_op

SEED = 3


def traced_batch(name: str, seed: int = SEED):
    workload = WORKLOADS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = workload.setup(seed)
        with LayerTracer() as tracer:
            outcomes = [run_op(op, fn) for op, fn in workload.batch(state)]
    failures = [(o.name, o.error, o.checks) for o in outcomes if not o.ok]
    assert not failures
    metrics = {key: value for key, (value, _) in layer_metrics(tracer, 1).items()}
    return tracer, metrics


def test_propagate_counters():
    tracer, m = traced_batch("propagate")
    # three cases of 8 steps: solve 8, duhamel_solve 8 * (2 + 3 Gauss nodes),
    # PropagatorHandle.apply there and back 2 * 8
    assert tracer.steps == {
        "solver.solve": 3 * 8,
        "solver.duhamel_solve": 3 * 8 * 5,
        "solver.propagator_apply": 3 * 2 * 8,
    }
    assert m["solver.steps"] == 3 * (8 + 8 * 5 + 2 * 8)
    # four right-hand sides of 1 + 2n + 1 transforms and seven free flows of 2
    assert m["solver.ffts_per_step"] == 38
    assert m["rotate.rotate_field.calls"] == 0
    assert m["parametrix.products"] == 0


def test_dyadic_counters():
    _, m = traced_batch("dyadic")
    # bands: gauss_bump 5 on A and 5 on its rescaling, low_band 3 and 3;
    # 8 rotations; Y1~ rotates each band once, Y2 and Y3 twice each
    assert m["rotate.rotate_field.calls"] == (10 + 6) * 8 * (1 + 2 + 2)
    # Y2 and Y3 each rebuild the report: one Hessian per band and rotation
    assert m["potentials.hessian_of.calls"] == (10 + 6) * 8 * 2
    assert m["potentials.y23_report.calls"] == 2 * 2 * 2
    assert m["potentials.hessian_reuse"] == 1 / 16
    assert m["solver.steps"] == 0


def test_parametrix_counters():
    tracer, m = traced_batch("parametrix")
    n_t, modes, directions, points = tracer.operators[0]
    # 120 lattice modes in the data annulus, each on its own primitive direction
    assert (n_t, modes, directions, points) == (33, 120, 120, 64 * 64)
    assert m["parametrix.products"] == 33 * 120 * 64 * 64
    assert m["solver.ffts_per_step"] == 0


def test_angular_counters():
    _, m = traced_batch("angular")
    # each of the bands -1, 0, 1 sums one net scale, m = 1: ceil(2 pi 2) = 13
    assert m["angular.ray_multipliers"] == 3 * 13
    assert m["grid.fft.calls"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_is_seeded(name):
    import numpy as np

    a, b = WORKLOADS[name].setup(11), WORKLOADS[name].setup(11)
    c = WORKLOADS[name].setup(12)
    leaves = {
        "propagate": lambda st: st["f"],
        "dyadic": lambda st: st["pairs"]["gauss_bump"][0].values,
        "parametrix": lambda st: st["f"],
        "angular": lambda st: st["ray_inputs"][0][1],
    }[name]
    assert np.array_equal(leaves(a), leaves(b))
    assert not np.array_equal(leaves(a), leaves(c))


def test_fixed_axis_probe_is_reported_not_counted():
    workload = WORKLOADS["angular"]
    probes = workload.probes(workload.setup(SEED))
    assert [name for name, _ in probes] == ["decay:fixed_axis"]
    assert all(name != "decay:fixed_axis" for name, _ in workload.batch(workload.setup(SEED)))
