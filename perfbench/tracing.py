"""Per-layer tracing from outside the program.

`LayerTracer` wraps the public functions of each magschro layer and every
``numpy.fft`` transform, records calls and inclusive busy time at those
boundaries, and restores the originals on exit.  A wrapped function is
patched into every ``magschro.*`` namespace that imported it, so calls made
inside the package are seen too.  Only the outermost call of a group counts,
so a projection that calls another projection counts once.  Each Lawson step
the solver takes (``_Stepper.step``) is counted and credited to the solver
call in progress, so ``solver.steps`` is what the program did.

Functions in `PEAK_GROUPS` also record the peak memory they allocate:
``tracemalloc``, which NumPy tells of its array buffers, runs only while one
of them does, so it slows nothing else.  These functions never nest.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# group -> (module, attribute path) of every function the group covers
LAYER_TARGETS = {
    "solver.solve": [("magschro.solver", "solve")],
    "solver.duhamel_solve": [("magschro.solver", "duhamel_solve")],
    "solver.propagator_apply": [("magschro.solver", "PropagatorHandle.apply")],
    "solver.equation_residual": [("magschro.solver", "equation_residual")],
    "solver.step": [("magschro.solver", "_Stepper.step")],
    "lp.project": [
        ("magschro.lp", "project_band"),
        ("magschro.lp", "project_leq"),
        ("magschro.lp", "project_below"),
        ("magschro.lp", "project_fat"),
    ],
    "rotate.rotate_field": [("magschro.rotate", "rotate_field")],
    "potentials.make_potential": [("magschro.potentials", "make_potential")],
    "potentials.y0_norm": [("magschro.potentials", "y0_norm")],
    "potentials.y1_norm": [("magschro.potentials", "y1_norm")],
    "potentials.y1_tilde_norm": [("magschro.potentials", "y1_tilde_norm")],
    "potentials.y2_norm": [("magschro.potentials", "y2_norm")],
    "potentials.y3_norm": [("magschro.potentials", "y3_norm")],
    "potentials.y23_report": [("magschro.potentials", "y23_report")],
    "potentials.hessian_of": [("magschro.potentials", "VectorPotential.hessian_of")],
    "norms.lqlr_norm": [("magschro.norms", "lqlr_norm")],
    "parametrix.operator": [("magschro.parametrix", "ParametrixOperator.__init__")],
    "parametrix.build_sigma": [("magschro.parametrix", "build_sigma")],
    "parametrix.apply": [("magschro.parametrix", "ParametrixOperator.apply")],
    "parametrix.residual_analytic": [
        ("magschro.parametrix", "ParametrixOperator.residual_analytic")
    ],
    "parametrix.taylor_study": [("magschro.parametrix", "ParametrixOperator.taylor_study")],
    "parametrix.error_term_groups": [("magschro.parametrix", "error_term_groups")],
    "angular.angular_net": [("magschro.angular", "angular_net")],
    "angular.pointwise_ray_bound_check": [("magschro.angular", "pointwise_ray_bound_check")],
    "angular.cap_oscillatory_decay": [("magschro.angular", "cap_oscillatory_decay")],
    "angular.cap_partition": [
        ("magschro.angular", "cap_partition"),
        ("magschro.angular", "CapPartition.values"),
    ],
}

FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

# solver groups that take Lawson steps; each step is credited to the open one
STEPPING_GROUPS = ("solver.solve", "solver.duhamel_solve", "solver.propagator_apply")

PEAK_GROUPS = frozenset(
    {
        "parametrix.apply",
        "parametrix.residual_analytic",
        "angular.pointwise_ray_bound_check",
        "angular.cap_oscillatory_decay",
    }
)


def _resolve(owner, path: str):
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


class LayerTracer:
    """Context manager: counts, busy time and peaks per layer group.

    It can be entered again after it exits; each entry adds to the same counts.
    """

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.peak_bytes = Counter()
        self.fft_points = 0
        self.steps = Counter()  # Lawson steps taken, by the solver group that took them
        self.ffts_in = Counter()  # FFT calls made inside each solver group
        self.ray_multipliers = 0
        self.hessian_distinct = 0  # distinct Hessian inputs, summed over entries
        self.hessian_inputs = set()
        self.operators = []  # (n_t, M, D, P) of every ParametrixOperator built
        self._depth = Counter()
        self._open = []  # groups with an outermost call in progress, outermost first
        self._held = []  # keeps hessian inputs alive so their ids stay distinct
        self._patches = []

    # -- bookkeeping at each boundary ---------------------------------------------

    def _enter(self, group: str):
        self._depth[group] += 1
        if self._depth[group] > 1:
            return None
        self._open.append(group)
        if group in PEAK_GROUPS:
            tracemalloc.start()
        return time.perf_counter(), self.calls["grid.fft"]

    def _exit(self, group: str, token) -> None:
        self._depth[group] -= 1
        if token is None:
            return
        self._open.remove(group)
        start, ffts_before = token
        self.busy[group] += time.perf_counter() - start
        self.calls[group] += 1
        self.ffts_in[group] += self.calls["grid.fft"] - ffts_before
        if group in PEAK_GROUPS:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peak_bytes[group] = max(self.peak_bytes[group], peak)

    def _observe(self, group: str, args, kwargs, result) -> None:
        """Counters that need a call's arguments or result."""
        if group == "angular.angular_net" and self._depth["angular.pointwise_ray_bound_check"]:
            self.ray_multipliers += result.count
        elif group == "potentials.hessian_of":
            sampled = args[1] if len(args) > 1 else kwargs["sampled"]
            self.hessian_inputs.add((id(args[0]), id(sampled)))
            self._held.append((args[0], sampled))
        elif group == "parametrix.operator":
            op = args[0]
            grid = op.grid
            size = grid.N**grid.n
            self.operators.append(
                (grid.n_steps + 1, len(op.xi), len(op.phase.directions), size)
            )
        elif group == "solver.step":
            owner = next((g for g in self._open if g in STEPPING_GROUPS), "solver.other")
            self.steps[owner] += 1

    def _wrap(self, group: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer._enter(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(group, token)
            if token is not None:
                tracer._observe(group, args, kwargs, result)
            return result

        return traced

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.busy["grid.fft"] += time.perf_counter() - start
                tracer.calls["grid.fft"] += 1
                tracer.fft_points += getattr(a, "size", 0)

        return counted

    # -- patching -------------------------------------------------------------------

    def _setattr(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "LayerTracer":
        import numpy.fft

        try:
            for group, targets in LAYER_TARGETS.items():
                for module_name, path in targets:
                    owner, name = _resolve(importlib.import_module(module_name), path)
                    original = getattr(owner, name)
                    wrapper = self._wrap(group, original)
                    if isinstance(owner, type):
                        self._setattr(owner, name, wrapper)
                        continue
                    for mod_name, mod in list(sys.modules.items()):
                        if mod_name == "magschro" or mod_name.startswith("magschro."):
                            for attr, value in list(vars(mod).items()):
                                if value is original:
                                    self._setattr(mod, attr, wrapper)
            for name in FFT_FUNCTIONS:
                self._setattr(numpy.fft, name, self._wrap_fft(getattr(numpy.fft, name)))
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __exit__(self, *exc) -> None:
        tracemalloc.stop()
        self._restore()
        # ids are only distinct while their objects live, so count per entry
        self.hessian_distinct += len(self.hessian_inputs)
        self.hessian_inputs.clear()
        self._held.clear()


def layer_metrics(tracer: LayerTracer, batches: int) -> dict:
    """Per-layer metrics per batch: name -> (value, unit)."""
    per = 1.0 / max(batches, 1)

    def busy(group):
        return tracer.busy[group] * per, "s"

    def calls(group):
        return tracer.calls[group] * per, "count"

    def peak(group):
        return tracer.peak_bytes[group] / 2**20, "MB"

    def ratio(num, den, unit):
        return (num / den if den else 0.0), unit

    # one direct-sum pass of the largest operator built: n_t * M * P products
    products = max((n_t * modes * points for n_t, modes, _, points in tracer.operators), default=0)
    return {
        "grid.fft.calls": calls("grid.fft"),
        "grid.fft.busy_s": busy("grid.fft"),
        "grid.fft.points": (tracer.fft_points * per, "count"),
        "solver.steps": (sum(tracer.steps.values()) * per, "count"),
        "solver.ffts_per_step": ratio(
            tracer.ffts_in["solver.propagator_apply"],
            tracer.steps["solver.propagator_apply"],
            "count/step",
        ),
        "solver.solve.busy_s": busy("solver.solve"),
        "solver.duhamel_solve.busy_s": busy("solver.duhamel_solve"),
        "solver.propagator_apply.busy_s": busy("solver.propagator_apply"),
        "solver.equation_residual.busy_s": busy("solver.equation_residual"),
        "lp.project.calls": calls("lp.project"),
        "lp.project.busy_s": busy("lp.project"),
        "rotate.rotate_field.calls": calls("rotate.rotate_field"),
        "rotate.rotate_field.busy_s": busy("rotate.rotate_field"),
        "potentials.make_potential.busy_s": busy("potentials.make_potential"),
        "potentials.y0_norm.busy_s": busy("potentials.y0_norm"),
        "potentials.y1_norm.busy_s": busy("potentials.y1_norm"),
        "potentials.y1_tilde_norm.busy_s": busy("potentials.y1_tilde_norm"),
        "potentials.y2_norm.busy_s": busy("potentials.y2_norm"),
        "potentials.y3_norm.busy_s": busy("potentials.y3_norm"),
        "potentials.y23_report.calls": calls("potentials.y23_report"),
        "potentials.hessian_of.calls": calls("potentials.hessian_of"),
        "potentials.hessian_reuse": ratio(
            tracer.hessian_distinct, tracer.calls["potentials.hessian_of"], "ratio"
        ),
        "parametrix.products": (products, "count"),
        "parametrix.build_sigma.busy_s": busy("parametrix.build_sigma"),
        "parametrix.apply.busy_s": busy("parametrix.apply"),
        "parametrix.apply.products_per_s": ratio(
            products * tracer.calls["parametrix.apply"], tracer.busy["parametrix.apply"], "1/s"
        ),
        "parametrix.apply.peak_mb": peak("parametrix.apply"),
        "parametrix.residual_analytic.busy_s": busy("parametrix.residual_analytic"),
        "parametrix.residual_analytic.peak_mb": peak("parametrix.residual_analytic"),
        "parametrix.taylor_study.busy_s": busy("parametrix.taylor_study"),
        "parametrix.error_term_groups.busy_s": busy("parametrix.error_term_groups"),
        "norms.lqlr_norm.busy_s": busy("norms.lqlr_norm"),
        "angular.pointwise_ray_bound_check.busy_s": busy("angular.pointwise_ray_bound_check"),
        "angular.pointwise_ray_bound_check.peak_mb": peak("angular.pointwise_ray_bound_check"),
        "angular.ray_multipliers": (tracer.ray_multipliers * per, "count"),
        "angular.cap_oscillatory_decay.busy_s": busy("angular.cap_oscillatory_decay"),
        "angular.cap_oscillatory_decay.peak_mb": peak("angular.cap_oscillatory_decay"),
        "angular.cap_partition.busy_s": busy("angular.cap_partition"),
    }
