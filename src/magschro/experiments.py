"""Batch experiment driver: seeded runs, per-check CSV rows, JSON summaries.

Each experiment id covers a set of acceptance checks:

  norms            spectral core, dyadic calculus, smallness-functional scale
                   invariance
  solve            propagator oracles (transport, order, charge, Duhamel,
                   composition, reversal, energy bound)
  parametrix       phase identity, eps-sweep quality, dual-path residual,
                   Taylor truncation
  strichartz-sweep mixed-norm stability of the forced solve against the free
                   baseline
  dispersive       cap-localized oscillatory decay slopes
  error-terms      frequency-localized commutator identities and their
                   dyadic-weighted stability
  nets             cap partitions, net cardinality, the pointwise ray bound,
                   and the dyadic sequence inequality

The checks are computed by check groups, listed in ``_GROUPS`` with each
check's default threshold and comparator (``CHECK_CATALOG`` is read from it): a
group owns one or more checks of one experiment and does the work they share.
A run calls only the groups of its enabled checks, in table order, and times
each one (the ``stages`` of the summary).  A group's keyword parameters are the
``params`` keys it reads.

Configs are JSON with a versioned schema; unknown keys, and check ids,
tolerance ids and params keys the experiment does not read, are rejected, for
a directly built config too.  All randomness flows from one seed through numpy
SeedSequence spawning, so runs are bit-reproducible on a fixed platform.  Exit
status reflects the enabled checks.  Linear fits through the origin report the
uncentered R^2 (1 - sum(y - a x)^2 / sum y^2).
"""

from __future__ import annotations

import csv
import inspect
import json
import platform
import resource
import time
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .grid import (
    Grid,
    fourier_forward,
    fourier_inverse,
    free_evolution,
    free_propagate,
    gaussian_wavepacket,
    l2_norm,
    make_grid,
)
from .lp import (
    CUTOFFS,
    AnnulusCutoff,
    BandDecomposition,
    paraproduct_split,
    project_band,
    sequence_bound_check,
)
from .norms import admissible_pairs, lqlr_norm, time_lq
from .potentials import (
    VectorPotential,
    YNormParams,
    make_potential,
    rescale_potential,
    y0_norm,
    y1_norm,
    y23_report,
    _y23_sums,
)
from .rotate import RotationSampler
from .solver import (
    PropagatorHandle,
    SolverConfig,
    duhamel_solve,
    energy_bound_check,
    propagator_compose_check,
    solve,
)
from .parametrix import (
    ParametrixOperator,
    annulus_data,
    build_sigma,
    parametrix_residual,
    phase_identity_residual,
    _besov_band_norms,
    _besov_ratio,
    _error_group_pass,
)
from .angular import (
    angular_net,
    cap_oscillatory_decay,
    cap_partition,
    decay_slope,
    pointwise_ray_bound_check,
    random_caps,
    _dense_sphere_sample,
)

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "run",
    "list_checks",
    "validate",
    "write_check_rows_csv",
    "EXPERIMENT_IDS",
]

EXPERIMENT_IDS = (
    "norms",
    "solve",
    "parametrix",
    "strichartz-sweep",
    "dispersive",
    "error-terms",
    "nets",
)

_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "version": {"const": 1},
        "experiment": {"enum": list(EXPERIMENT_IDS)},
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string"},
        "checks": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "tolerances": {"type": "object", "additionalProperties": {"type": "number"}},
        "params": {
            "type": "object",
            "properties": {
                "eps_list": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 2,
                    "uniqueItems": True,
                },
                "t_list": {  # the lattice side N doubles with t: N = 8192 at t = 16
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 16},
                    "minItems": 2,
                    "uniqueItems": True,
                },
                "max_products": {"type": "number", "exclusiveMinimum": 0, "maximum": 5e9},
                # _shear_table caches the shears of 32 planar rotations
                "rotation_count": {"type": "integer", "minimum": 1, "maximum": 32},
            },
        },
    },
    "required": ["version", "experiment"],
    "additionalProperties": False,
}

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    out_dir: str | None = None
    checks: tuple | None = None
    tolerances: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # valid iff the JSON form is: tuples become lists and a None field is absent
        raw = {k: v for k, v in json.loads(json.dumps(asdict(self))).items() if v is not None}
        diags = validate({"version": 1, **raw})
        if diags:
            raise ValueError("invalid config: " + "; ".join(diags))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        diags = validate(raw)
        if diags:
            raise ValueError("invalid config: " + "; ".join(diags))
        return cls(
            experiment=raw["experiment"],
            seed=raw.get("seed", 0),
            out_dir=raw.get("out_dir"),
            checks=tuple(raw["checks"]) if "checks" in raw else None,
            tolerances=dict(raw.get("tolerances", {})),
            params=dict(raw.get("params", {})),
        )


@dataclass
class RunReport:
    experiment: str
    seed: int
    rows: list
    environment: dict
    wall_seconds: float
    diagnostics: list  # sorted (message, category, count) of the warnings the run raised
    stages: list  # {"checks", "seconds"} of each group that ran, in run order
    peak_rss_mb: float  # the process's peak resident set so far

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.rows)

    def summary(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "passed": self.passed,
            "n_checks": len(self.rows),
            "n_failed": sum(not r["pass"] for r in self.rows),
            "wall_seconds": self.wall_seconds,
            "environment": self.environment,
            "diagnostics": self.diagnostics,
            "stages": self.stages,
            "peak_rss_mb": self.peak_rss_mb,
            "rows": self.rows,
        }


def validate(raw: dict) -> list[str]:
    """Schema diagnostics, then on a schema-clean config the rules it does not
    state: check ids, tolerance ids and params keys are ones the experiment
    reads, and every tolerance and params number is finite.  Side-effect free;
    every ``ExperimentConfig`` passes it."""
    from jsonschema import Draft202012Validator  # ~50 ms to import: `import magschro` skips it

    diags = [
        f"{'/'.join(str(p) for p in e.path) or '<root>'}: {e.message}"
        for e in Draft202012Validator(_SCHEMA).iter_errors(raw)
    ]
    if diags:
        return diags
    exp = raw["experiment"]
    groups = _groups_of(exp)
    own = {cid for ids, _ in groups for cid in ids}
    params = {key for _, body in groups for key in _group_params(body)}
    allowed = {"checks": own, "tolerances": own, "params": params}
    diags = []
    for key, names in allowed.items():
        for name in raw.get(key, ()):
            if name not in names:
                diags.append(f"{key}: '{name}' is not read by the {exp} experiment")
            elif key != "checks" and not np.all(np.isfinite(raw[key][name])):
                diags.append(f"{key}/{name}: {raw[key][name]!r} is not finite")
    return diags


def list_checks() -> list[dict]:
    """Catalog of every acceptance check with its default tolerance."""
    return [
        {"check_id": cid, "experiment": exp, "threshold": thr, "comparator": cmp_}
        for cid, (exp, thr, cmp_) in CHECK_CATALOG.items()
    ]


def _fit_through_origin(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and uncentered R^2 of y ~ a x."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    a = float(np.sum(x * y) / np.sum(x * x))
    ss_res = float(np.sum((y - a * x) ** 2))
    ss_tot = float(np.sum(y**2))
    return a, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _gaussian_free(grid: Grid, center, width, momentum, t):
    """Closed-form free flow of the Gaussian packet (see tests for derivation)."""
    center = np.asarray(center, float)
    momentum = np.asarray(momentum, float)
    beta = width**2 + 4j * np.pi * t
    meshes = grid.spatial_meshes()
    shift = center + 4 * np.pi * t * momentum
    r2 = sum((m - s) ** 2 for m, s in zip(meshes, shift))
    phase = sum(2 * np.pi * p * m for m, p in zip(meshes, momentum))
    return (
        np.exp(1j * phase)
        * np.exp(-4j * np.pi**2 * t * np.sum(momentum**2))
        * width**grid.n
        * beta ** (-grid.n / 2.0)
        * np.exp(-np.pi * r2 / beta)
    )


# -- check groups ------------------------------------------------------------------
# A group takes the seed and, as keyword parameters with their defaults, the
# params keys it reads; it yields (check id, value, row params) in row order.


def _spectral_core(seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    g1 = make_grid(1, 256, 128, 0.1, 1.0)
    g2 = make_grid(2, 128, 64, 0.1, 1.0)
    worst_rt, worst_pv = 0.0, 0.0
    for g in (g1, g2):
        f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        back = fourier_inverse(g, fourier_forward(g, f))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - f)) / np.max(np.abs(f))))
        spec = fourier_forward(g, f)
        lhs = np.sum(np.abs(f) ** 2) * g.dx**g.n
        rhs = np.sum(np.abs(spec) ** 2) / g.L**g.n
        worst_pv = max(worst_pv, abs(lhs - rhs) / lhs)
    yield "fft-roundtrip", worst_rt, {}
    yield "parseval", worst_pv, {}
    for cid, g in (("free-gaussian-n1", g1), ("free-gaussian-n2", g2)):
        c = np.full(g.n, g.L / 2.0)
        p = np.full(g.n, 0.25)
        f0 = _gaussian_free(g, c, 4.0, p, 0.0)
        err = l2_norm(g, free_propagate(g, f0, 1.0) - _gaussian_free(g, c, 4.0, p, 1.0))
        yield cid, err / l2_norm(g, f0), {"N": g.N, "n": g.n}


def _dyadic_calculus(seed):
    ks = np.arange(-30, 31)
    rs = np.concatenate([np.geomspace(2.0**-8, 2.0**8, 400), [1.0, 1.3]])
    pou = max(abs(np.sum(CUTOFFS.phi(r * 2.0**-ks)) - 1.0) for r in rs)
    yield "lp-partition-unity", float(pou), {}
    g = make_grid(2, 64, 32, 0.25, 1.0)
    f = gaussian_wavepacket(g, (16, 16), 3.0, (0.2, 0.1))
    dec = BandDecomposition.compute(g, f)
    yield "lp-band-reconstruction", l2_norm(g, dec.reconstruct() - f) / l2_norm(g, f), {}
    h = gaussian_wavepacket(g, (18, 15), 4.0, (-0.05, 0.1)).real
    groups = paraproduct_split(g, f.real, h, -2)
    direct = project_band(g, f.real * h, -2)
    scale = max(l2_norm(g, direct), 1e-30)
    yield "lp-paraproduct-identity", l2_norm(g, sum(groups.values()) - direct) / scale, {}


def _y_scale_invariance(seed, rotation_count=8):
    """Scale invariance of the smallness functionals on five presets."""
    g = make_grid(2, 64, 32, 1.0 / 32.0, 1.0)
    yp = YNormParams(sampler=RotationSampler(2, count=int(rotation_count)))
    presets = [
        ("gauss_bump", {"seed": 0, "width": 3.0}),
        ("gauss_bump", {"seed": 1, "width": 2.5}),
        ("traveling_bump", {"seed": 2, "width": 3.0}),
        ("divfree_curl", {"seed": 3, "width": 2.5}),
        ("low_band", {"seed": 4, "k_cap": -3}),
    ]
    worst = [0.0] * 4
    for name, kw in presets:
        A = make_potential(name, 0.1, g, **kw)
        ys = [
            (y0_norm(a, yp), y1_norm(a), *_y23_sums(y23_report(a, yp), g.n))
            for a in (A, rescale_potential(A, 2.0))
        ]
        for j, (y_a, y_b) in enumerate(zip(*ys)):
            worst[j] = max(worst[j], abs(y_b / y_a - 1.0))
    for j in range(4):
        yield f"y-scale-invariance-y{j}", worst[j], {"presets": len(presets)}


def _constant_potential(grid: Grid, a) -> VectorPotential:
    a = np.asarray(a, dtype=float)
    base = np.ones((grid.n,) + grid.shape) * a[(slice(None),) + (None,) * grid.n]
    values = np.repeat(base[None], grid.n_steps + 1, axis=0)
    return VectorPotential(
        grid,
        values,
        evaluator=lambda t: base,
        dt_evaluator=lambda t: np.zeros_like(base),
        divergence_free=True,
    )


def _transported_free(grid: Grid, f, a, t):
    u = free_propagate(grid, f, t)
    shift = np.exp(-2j * np.pi * sum(grid.xi[j] * a[j] * t for j in range(grid.n)))
    return fourier_inverse(grid, fourier_forward(grid, u) * shift)


def _solve_data(dt: float = 1.0 / 64.0):
    g = make_grid(2, 64, 32, dt, 1.0)
    return g, gaussian_wavepacket(g, (12, 16), 5.0, (0.05, -0.05))


def _transport_error(dt: float) -> float:
    """L2 error at t = 1 of the solve under a constant potential, against the
    free flow transported along it."""
    a = np.array([0.8, -0.6])
    g, f = _solve_data(dt)
    u = solve(g, f, _constant_potential(g, a), None)
    return l2_norm(g, u.values[-1] - _transported_free(g, f, a, 1.0))


def _low_band_setup(seed):
    """The 64-step grid, data, low-band potential and forcing of the Duhamel,
    compose, reversal and energy checks."""
    g, f = _solve_data()
    A = make_potential("low_band", 0.1, g, seed=seed + 1, k_cap=-3)
    bump = gaussian_wavepacket(g, (18, 14), 3.0, (0.0, 0.05))

    def F(t):
        return np.exp(-2.0 * (t - 0.4) ** 2) * bump

    return g, f, A, F


def _solve_order(seed):
    errs = [_transport_error(dt) for dt in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0)]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    yield "solve-order", min(orders), {"orders": orders}


def _solve_transport(seed):
    yield "solve-transport-oracle", _transport_error(1.0 / 64.0), {"dt": 1.0 / 64.0}


def _solve_charge(seed):
    g, f = _solve_data()
    u = solve(g, f, make_potential("divfree_curl", 0.2, g, seed=seed, width=2.5), None)
    yield "solve-charge-drift", float(np.max(np.abs(u.slice_l2() - u.slice_l2()[0]))), {}


def _solve_duhamel(seed):
    g, f, A, F = _low_band_setup(seed)
    u1 = solve(g, f, A, F)
    u2 = duhamel_solve(g, f, A, F)
    err = max(l2_norm(g, u1.values[i] - u2.values[i]) for i in range(0, g.n_steps + 1, 8))
    yield "solve-duhamel-agreement", err, {}


def _solve_compose(seed):
    g, f, A, _ = _low_band_setup(seed)
    # s off the step grid, so each side takes a remainder step: at s = 1/2 both
    # sides are the same 64 steps and the check could not fail
    yield "solve-compose", propagator_compose_check(g, A, 0.5 + g.dt / 3, 1.0, [f]), {}


def _solve_reversal(seed):
    g, f, A, _ = _low_band_setup(seed)
    handle = PropagatorHandle(g, A, SolverConfig(dt=g.dt))
    back = handle.apply(handle.apply(f, 1.0, 0.0), 0.0, 1.0)
    yield "solve-reversal", l2_norm(g, back - f) / l2_norm(g, f), {}


def _solve_energy(seed):
    g, f, A, F = _low_band_setup(seed)
    out = energy_bound_check(g, f, A, F)
    if out["pass"] is None:
        raise FloatingPointError("energy bound premise violated in the default setup")
    yield (
        "solve-energy-bound",
        out["sup_l2"] / out["bound"],
        {"div_l1linf": out["div_l1linf"], "grad_l1linf": out["grad_l1linf"]},
    )


def _parametrix_setup(seed: int):
    g = make_grid(2, 64, 64, 1.0 / 64.0, 0.5)
    k_f = -2
    ang = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    unit = make_potential("low_band", 1.0, g, seed=seed, single_band=-6)
    scale = build_sigma(unit, k_f, dirs).max_sigma()
    return g, k_f, scale


def _phase_identity(seed):
    g, k_f, scale = _parametrix_setup(seed)
    A_ref = make_potential("low_band", 0.1 / scale, g, seed=seed, single_band=-6)
    ang = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    dirs16 = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    ph = build_sigma(A_ref, k_f, dirs16)
    res = phase_identity_residual(
        ph, A_ref, 2.0**k_f * dirs16, t_indices=(0, g.n_steps // 2, g.n_steps)
    )
    yield "phase-identity", res, {"directions": 16, "time_slices": 3}


def _eps_sweep(seed, eps_list=(0.02, 0.05, 0.1, 0.2), max_products=5e9):
    g, k_f, scale = _parametrix_setup(seed)
    budget = float(max_products)
    f = annulus_data(g, k_f, seed=seed + 2)
    eps_list = list(eps_list)

    def operator(eps):
        A = make_potential("low_band", eps / scale, g, seed=seed, single_band=-6)
        return ParametrixOperator(g, f, A, AnnulusCutoff(k_f), product_budget=budget)

    def taylor_error(op, v):
        fields, _ = op.taylor_study(4)
        return max(
            l2_norm(g, fields[4].values[i] - v.values[i]) for i in range(0, g.n_steps + 1, 8)
        )

    v0_err, res_norm, dual = [], [], []
    pairs = admissible_pairs(2, 6)
    free = free_evolution(g, f)
    free_norms = {(p.q, p.r): lqlr_norm(free, p.q, p.r) for p in pairs}
    worst_factor = 0.0
    taylor_err = None
    for eps in eps_list:
        op = operator(eps)
        v = op.apply()
        v0_err.append(l2_norm(g, v.values[0] - f))
        out = parametrix_residual(op, v, dual_tol=np.inf)
        res_norm.append(out["l1l2_analytic"])
        dual.append(out["dual_gap"])
        if eps <= 0.1:
            for p in pairs:
                factor = lqlr_norm(v, p.q, p.r) / free_norms[(p.q, p.r)]
                worst_factor = max(worst_factor, factor, 1.0 / factor)
        if eps == 0.1:
            taylor_err = taylor_error(op, v)
        del op, v
    eps_arr = np.array(eps_list)
    slope_v0, r2_v0 = _fit_through_origin(eps_arr, np.array(v0_err))
    slope_res, r2_res = _fit_through_origin(eps_arr, np.array(res_norm))
    yield "parametrix-v0-linearity", r2_v0, {"slope": slope_v0, "eps": eps_list}
    yield "parametrix-residual-linearity", r2_res, {"slope": slope_res, "eps": eps_list}
    yield "dual-path-residual", float(np.max(dual)), {}
    yield "parametrix-lqlr-factor", worst_factor, {"pairs": len(pairs)}

    if taylor_err is None:
        op = operator(0.1)
        taylor_err = taylor_error(op, op.apply())
    yield "parametrix-taylor-error", taylor_err, {"order": 4, "eps": 0.1}


def _strichartz_sweep(seed, eps_list=(0.025, 0.05, 0.075, 0.1)):
    g, f = _solve_data()
    bump = gaussian_wavepacket(g, (18, 14), 3.0)

    def F(t):
        return 0.2 * np.exp(-2.0 * (t - 0.4) ** 2) * bump

    pairs = admissible_pairs(2, 6)
    f_l1l2 = time_lq(
        g.times,
        np.array([l2_norm(g, F(t)) for t in g.times]),
        1.0,
    )
    denom = l2_norm(g, f) + f_l1l2

    def ratio(u):
        return max(lqlr_norm(u, p.q, p.r) for p in pairs) / denom

    base = ratio(solve(g, f, None, F))
    eps_list = list(eps_list)
    presets = [
        ("gauss_bump", {"seed": seed, "width": 2.5}),
        ("divfree_curl", {"seed": seed + 1, "width": 2.5}),
        ("low_band", {"seed": seed + 2, "k_cap": -3}),
    ]
    worst_excess = 0.0
    trend_flips = 0
    for name, kw in presets:
        prev = None
        for eps in eps_list:
            A = make_potential(name, eps, g, **kw)
            r = ratio(solve(g, f, A, F))
            worst_excess = max(worst_excess, r / base - 1.0)
            if prev is not None and r < prev - 1e-12:
                trend_flips += 1
            prev = r
    # trend_flips counts non-monotone eps steps; reported, not checked, since the
    # ratio is not monotone in eps at every seed
    yield (
        "strichartz-ratio-excess",
        worst_excess,
        {"baseline": base, "eps": eps_list, "trend_flips": trend_flips},
    )


_T_LIST = (1, 1.41, 2, 2.83, 4, 5.66, 8, 11.3, 16)


def _dispersive_slope(mu, seed, t_list=_T_LIST):
    tab = cap_oscillatory_decay(list(t_list), random_caps(2, mu, seed=seed + mu), k_f=0, n=2)
    yield (
        f"dispersive-slope-mu{mu}",
        abs(decay_slope(tab) + 1.0),
        {"slope": decay_slope(tab), "sup_t1": float(tab["sup"][0])},
    )


def _fixed_axis_slope(seed, t_list=_T_LIST):
    tab = cap_oscillatory_decay(list(t_list), [], k_f=0, n=2, fixed_axis=True)
    yield "dispersive-fixed-axis-slope", abs(decay_slope(tab) + 0.5), {"slope": decay_slope(tab)}


def _error_terms(seed):
    g = make_grid(2, 128, 64, 1.0 / 64.0, 0.5)
    f = annulus_data(g, -3, seed=seed + 3)
    worst_identity = 0.0
    ratios = {0.0: [], 1.0: []}
    for eps in (0.05, 0.1, 0.2):
        A = make_potential("low_band", eps, g, seed=seed, k_cap=-6)
        u = solve(g, f, A, None)
        band_norms = list(_besov_band_norms(u, A, (-4, -2)))
        e_of = {k: e for k, _, _, e in band_norms}
        for k, groups in _error_group_pass(u, A, list(e_of)):
            gap = float(np.max(np.abs(sum(groups.values()) - e_of[k])))
            del groups  # not held while the pass walks on to the next band
            worst_identity = max(worst_identity, gap / max(float(np.max(np.abs(e_of[k]))), 1e-30))
        for s in (0.0, 1.0):
            ratios[s].append(_besov_ratio(band_norms, eps, s))
    yield "error-term-identity", worst_identity, {}
    for s, tag in ((0.0, "s0"), (1.0, "s1")):
        vals = np.array(ratios[s])
        yield (
            f"error-term-besov-stability-{tag}",
            float(vals.max() / vals.min()),
            {"ratios": [float(v) for v in vals]},
        )


def _cap_partition_sum(seed):
    worst_sum = 0.0
    for n, m in ((2, 2), (2, 4), (3, 3)):
        part = cap_partition(angular_net(n, m))
        pts = _dense_sphere_sample(n, 1000, seed=seed + m)
        worst_sum = max(worst_sum, float(np.max(np.abs(part.values(pts).sum(axis=0) - 1.0))))
    yield "cap-partition-sum", worst_sum, {}


def _net_cardinality(seed):
    consts = [angular_net(3, m).count / 4.0**m for m in (1, 2, 3)]
    yield "net-cardinality-constant", float(np.max(consts)), {"per_scale": consts}


def _ray_bound_draws(seed):
    """The ray-bound check's (k, grid, band spectrum) for k = -2 .. 2 and the
    generator they were drawn from, which the sequence lemma draws from next."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    draws = []
    for k in (-2, -1, 0, 1, 2):
        g = make_grid(2, 256, 64.0 * 2.0**-k, 0.5, 1.0)
        lo, hi = CUTOFFS.plateau(k)
        sel = (g.xi_norm > lo) & (g.xi_norm < hi)
        spec = np.zeros(g.shape, dtype=complex)
        spec[sel] = rng.normal(size=int(sel.sum())) + 1j * rng.normal(size=int(sel.sum()))
        draws.append((k, g, spec))
    return draws, rng


def _ray_bound(seed):
    draws, _ = _ray_bound_draws(seed)
    ray_ratios = []
    for k, g, spec in draws:
        fband = fourier_inverse(g, spec).real
        meshes = g.spatial_meshes()
        env = np.exp(-sum((x - g.L / 2) ** 2 for x in meshes) / (g.L / 7.0) ** 2)
        ray_ratios.append(pointwise_ray_bound_check(g, fband * env, k)["ratio"])
    ray_ratios = np.array(ray_ratios)
    yield (
        "ray-bound-stability",
        float(ray_ratios.max() / ray_ratios.min()),
        {"ratios": [float(v) for v in ray_ratios]},
    )


def _sequence_lemma(seed):
    _, rng = _ray_bound_draws(seed)
    for h in (0.125, 0.25 - 0.0625):
        rats = []
        for _ in range(1000):
            a = rng.choice([-1.0, 1.0], size=32)
            b = rng.choice([-1.0, 1.0], size=32)
            _, r = sequence_bound_check(a, b, h)
            rats.append(r)
        rats = np.array(rats)
        yield (
            "sequence-lemma-stability",
            float(rats.max() / np.median(rats)),
            {"h": h, "max_ratio": float(rats.max())},
        )


# (experiment, group, {check id: (default threshold, comparator)}) in run order
_GROUPS = (
    ("norms", _spectral_core, {
        "fft-roundtrip": (1e-12, "le"),
        "parseval": (1e-12, "le"),
        "free-gaussian-n1": (1e-6, "le"),
        "free-gaussian-n2": (1e-6, "le"),
    }),
    ("norms", _dyadic_calculus, {
        "lp-partition-unity": (1e-12, "le"),
        "lp-band-reconstruction": (1e-10, "le"),
        "lp-paraproduct-identity": (1e-10, "le"),
    }),
    ("norms", _y_scale_invariance, {
        "y-scale-invariance-y0": (0.02, "le"),
        "y-scale-invariance-y1": (0.02, "le"),
        "y-scale-invariance-y2": (0.03, "le"),
        "y-scale-invariance-y3": (0.03, "le"),
    }),
    ("solve", _solve_order, {"solve-order": (3.5, "ge")}),
    ("solve", _solve_transport, {"solve-transport-oracle": (1e-6, "le")}),
    ("solve", _solve_charge, {"solve-charge-drift": (1e-8, "le")}),
    ("solve", _solve_duhamel, {"solve-duhamel-agreement": (1e-6, "le")}),
    ("solve", _solve_compose, {"solve-compose": (1e-6, "le")}),
    ("solve", _solve_reversal, {"solve-reversal": (1e-6, "le")}),
    ("solve", _solve_energy, {"solve-energy-bound": (1.0, "le")}),
    ("parametrix", _phase_identity, {"phase-identity": (1e-6, "le")}),
    ("parametrix", _eps_sweep, {
        "parametrix-v0-linearity": (0.9, "ge"),
        "parametrix-residual-linearity": (0.9, "ge"),
        "parametrix-lqlr-factor": (2.0, "le"),
        "dual-path-residual": (1e-3, "le"),
        "parametrix-taylor-error": (1e-4, "le"),
    }),
    ("strichartz-sweep", _strichartz_sweep, {"strichartz-ratio-excess": (0.5, "le")}),
    *(("dispersive", partial(_dispersive_slope, mu), {f"dispersive-slope-mu{mu}": (0.15, "le")})
      for mu in (0, 1, 2)),
    ("dispersive", _fixed_axis_slope, {"dispersive-fixed-axis-slope": (0.15, "le")}),
    ("error-terms", _error_terms, {
        "error-term-identity": (1e-10, "le"),
        "error-term-besov-stability-s0": (2.0, "le"),
        "error-term-besov-stability-s1": (2.0, "le"),
    }),
    ("nets", _cap_partition_sum, {"cap-partition-sum": (1e-10, "le")}),
    ("nets", _net_cardinality, {"net-cardinality-constant": (40.0, "le")}),
    ("nets", _ray_bound, {"ray-bound-stability": (2.0, "le")}),
    ("nets", _sequence_lemma, {"sequence-lemma-stability": (4.0, "le")}),
)

# check id -> (experiment, default threshold, comparator)
CHECK_CATALOG = {cid: (exp, *rule) for exp, _, checks in _GROUPS for cid, rule in checks.items()}


def _groups_of(experiment: str) -> list:
    return [(tuple(checks), body) for exp, body, checks in _GROUPS if exp == experiment]


def _group_params(body) -> list[str]:
    """The params keys a group reads: its parameters after the seed."""
    return list(inspect.signature(body).parameters)[1:]


def _row(config: ExperimentConfig, check_id: str, value: float, params: dict) -> dict:
    if not np.isfinite(value):
        raise FloatingPointError(
            f"check {check_id} produced a non-finite value ({value}) with params {params}"
        )
    _, default_thr, cmp_ = CHECK_CATALOG[check_id]
    thr = config.tolerances.get(check_id, default_thr)
    ok = value <= thr if cmp_ == "le" else value >= thr
    return {
        "check_id": check_id,
        "params": params,
        "value": float(value),
        "threshold": float(thr),
        "pass": bool(ok),
    }


def write_check_rows_csv(path, rows: list[dict]) -> None:
    """Frozen columns: (check_id, param_json, value, threshold, pass)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check_id", "param_json", "value", "threshold", "pass"])
        for r in rows:
            params = json.dumps(r.get("params", {}), sort_keys=True)
            value, threshold = f"{r['value']:.17g}", f"{r['threshold']:.17g}"
            w.writerow([r["check_id"], params, value, threshold, str(bool(r["pass"])).lower()])


def run(config: ExperimentConfig) -> RunReport:
    """Execute the groups of the enabled checks; writes report.csv and
    summary.json when out_dir set."""
    enabled = set(CHECK_CATALOG if config.checks is None else config.checks)
    rows, stages = [], []
    start = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for ids, body in _groups_of(config.experiment):
            if enabled.isdisjoint(ids):
                continue
            kwargs = {k: config.params[k] for k in _group_params(body) if k in config.params}
            began = time.monotonic()
            rows += [_row(config, *out) for out in body(config.seed, **kwargs) if out[0] in enabled]
            stages.append({"checks": list(ids), "seconds": time.monotonic() - began})
    wall = time.monotonic() - start
    counts = Counter((str(w.message), w.category.__name__) for w in caught)
    diagnostics = sorted((msg, cat, n) for (msg, cat), n in counts.items())
    env = {
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    report = RunReport(
        config.experiment, config.seed, rows, env, wall, diagnostics, stages, peak_rss_mb
    )
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_check_rows_csv(out / f"{config.experiment}-report.csv", report.rows)
        with open(out / f"{config.experiment}-summary.json", "w") as fh:
            json.dump(report.summary(), fh, indent=2, sort_keys=True)
    return report
