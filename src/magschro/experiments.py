"""Batch experiment driver: seeded runs, per-check CSV rows, JSON summaries.

Each experiment id covers a group of acceptance checks:

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

Configs are JSON with a versioned schema (unknown keys rejected); all
randomness flows from one seed through numpy SeedSequence spawning, so runs
are bit-reproducible on a fixed platform.  Exit status reflects the enabled
checks.  Linear fits through the origin report the uncentered R^2
(1 - sum(y - a x)^2 / sum y^2).
"""

from __future__ import annotations

import json
import platform
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

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
    y2_norm,
    y3_norm,
)
from .rotate import RotationSampler
from .solver import SolverConfig, PropagatorHandle, duhamel_solve, energy_bound_check, solve
from .parametrix import (
    AnnulusCutoff,
    ParametrixOperator,
    annulus_data,
    build_sigma,
    error_term,
    error_term_besov_ratio,
    error_term_groups,
    parametrix_residual,
    phase_identity_residual,
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
from .snapshots import write_check_rows_csv

__all__ = ["ExperimentConfig", "RunReport", "run", "list_checks", "validate", "EXPERIMENT_IDS"]

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
        "checks": {"type": "array", "items": {"type": "string"}},
        "tolerances": {"type": "object", "additionalProperties": {"type": "number"}},
        "params": {
            "type": "object",
            "properties": {
                "eps_list": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
                "t_list": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 2,
                },
                "max_products": {"type": "number", "exclusiveMinimum": 0},
                "rotation_count": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
    },
    "required": ["version", "experiment"],
    "additionalProperties": False,
}

# check id -> (experiment, default threshold, comparator)
CHECK_CATALOG = {
    "fft-roundtrip": ("norms", 1e-12, "le"),
    "parseval": ("norms", 1e-12, "le"),
    "free-gaussian-n1": ("norms", 1e-6, "le"),
    "free-gaussian-n2": ("norms", 1e-6, "le"),
    "lp-partition-unity": ("norms", 1e-12, "le"),
    "lp-band-reconstruction": ("norms", 1e-10, "le"),
    "lp-paraproduct-identity": ("norms", 1e-10, "le"),
    "y-scale-invariance-y0": ("norms", 0.02, "le"),
    "y-scale-invariance-y1": ("norms", 0.02, "le"),
    "y-scale-invariance-y2": ("norms", 0.03, "le"),
    "y-scale-invariance-y3": ("norms", 0.03, "le"),
    "solve-transport-oracle": ("solve", 1e-6, "le"),
    "solve-order": ("solve", 3.5, "ge"),
    "solve-charge-drift": ("solve", 1e-8, "le"),
    "solve-duhamel-agreement": ("solve", 1e-6, "le"),
    "solve-compose": ("solve", 1e-6, "le"),
    "solve-reversal": ("solve", 1e-6, "le"),
    "solve-energy-bound": ("solve", 1.0, "le"),
    "phase-identity": ("parametrix", 1e-6, "le"),
    "parametrix-v0-linearity": ("parametrix", 0.9, "ge"),
    "parametrix-residual-linearity": ("parametrix", 0.9, "ge"),
    "parametrix-lqlr-factor": ("parametrix", 2.0, "le"),
    "dual-path-residual": ("parametrix", 1e-3, "le"),
    "parametrix-taylor-error": ("parametrix", 1e-4, "le"),
    "strichartz-ratio-excess": ("strichartz-sweep", 0.5, "le"),
    "dispersive-slope-mu0": ("dispersive", 0.15, "le"),
    "dispersive-slope-mu1": ("dispersive", 0.15, "le"),
    "dispersive-slope-mu2": ("dispersive", 0.15, "le"),
    "dispersive-fixed-axis-slope": ("dispersive", 0.15, "le"),
    "error-term-identity": ("error-terms", 1e-10, "le"),
    "error-term-besov-stability-s0": ("error-terms", 2.0, "le"),
    "error-term-besov-stability-s1": ("error-terms", 2.0, "le"),
    "cap-partition-sum": ("nets", 1e-10, "le"),
    "net-cardinality-constant": ("nets", 40.0, "le"),
    "ray-bound-stability": ("nets", 2.0, "le"),
    "sequence-lemma-stability": ("nets", 4.0, "le"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    out_dir: str | None = None
    checks: tuple | None = None
    tolerances: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

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
            "rows": self.rows,
        }


def validate(raw: dict) -> list[str]:
    """Schema + semantic diagnostics; side-effect free."""
    diags = [
        f"{'/'.join(str(p) for p in e.path) or '<root>'}: {e.message}"
        for e in Draft202012Validator(_SCHEMA).iter_errors(raw)
    ]
    if not isinstance(raw, dict):
        return diags
    for cid in raw.get("checks", []) or []:
        if cid not in CHECK_CATALOG:
            diags.append(f"checks: unknown check id '{cid}'")
    for cid in (raw.get("tolerances") or {}):
        if cid not in CHECK_CATALOG:
            diags.append(f"tolerances: unknown check id '{cid}'")
    return diags


def list_checks() -> list[dict]:
    """Catalog of every acceptance check with its default tolerance."""
    return [
        {"check_id": cid, "experiment": exp, "threshold": thr, "comparator": cmp_}
        for cid, (exp, thr, cmp_) in CHECK_CATALOG.items()
    ]


class _Collector:
    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.rows = []

    def enabled(self, check_id: str) -> bool:
        return self.config.checks is None or check_id in self.config.checks

    def add(self, check_id: str, value: float, params: dict | None = None) -> None:
        if not self.enabled(check_id):
            return
        if not np.isfinite(value):
            raise FloatingPointError(
                f"check {check_id} produced a non-finite value ({value}) with params {params}"
            )
        _, default_thr, cmp_ = CHECK_CATALOG[check_id]
        thr = self.config.tolerances.get(check_id, default_thr)
        ok = value <= thr if cmp_ == "le" else value >= thr
        self.rows.append(
            {
                "check_id": check_id,
                "params": params or {},
                "value": float(value),
                "threshold": float(thr),
                "pass": bool(ok),
            }
        )


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


# -- experiment bodies -------------------------------------------------------------


def _run_norms(col: _Collector, seed: int, params: dict) -> None:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))

    # spectral core
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
    col.add("fft-roundtrip", worst_rt)
    col.add("parseval", worst_pv)
    for cid, g in (("free-gaussian-n1", g1), ("free-gaussian-n2", g2)):
        c = np.full(g.n, g.L / 2.0)
        p = np.full(g.n, 0.25)
        f0 = _gaussian_free(g, c, 4.0, p, 0.0)
        err = l2_norm(g, free_propagate(g, f0, 1.0) - _gaussian_free(g, c, 4.0, p, 1.0))
        col.add(cid, err / l2_norm(g, f0), {"N": g.N, "n": g.n})

    # dyadic calculus
    ks = np.arange(-30, 31)
    rs = np.concatenate([np.geomspace(2.0**-8, 2.0**8, 400), [1.0, 1.3]])
    pou = max(abs(np.sum(CUTOFFS.phi(r * 2.0**-ks)) - 1.0) for r in rs)
    col.add("lp-partition-unity", float(pou))
    g = make_grid(2, 64, 32, 0.25, 1.0)
    f = gaussian_wavepacket(g, (16, 16), 3.0, (0.2, 0.1))
    dec = BandDecomposition.compute(g, f)
    col.add("lp-band-reconstruction", l2_norm(g, dec.reconstruct() - f) / l2_norm(g, f))
    h = gaussian_wavepacket(g, (18, 15), 4.0, (-0.05, 0.1)).real
    groups = paraproduct_split(g, f.real, h, -2)
    direct = project_band(g, f.real * h, -2)
    scale = max(l2_norm(g, direct), 1e-30)
    col.add(
        "lp-paraproduct-identity", l2_norm(g, sum(groups.values()) - direct) / scale
    )

    # scale invariance of the smallness functionals on five presets
    g = make_grid(2, 64, 32, 1.0 / 32.0, 1.0)
    sampler = RotationSampler(2, count=int(params.get("rotation_count", 8)), refine_rounds=0)
    yp = YNormParams(sampler=sampler)
    presets = [
        ("gauss_bump", {"seed": 0, "width": 3.0}),
        ("gauss_bump", {"seed": 1, "width": 2.5}),
        ("traveling_bump", {"seed": 2, "width": 3.0}),
        ("divfree_curl", {"seed": 3, "width": 2.5}),
        ("low_band", {"seed": 4, "k_cap": -3}),
    ]
    worst = {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, kw in presets:
            A = make_potential(name, 0.1, g, **kw)
            B = rescale_potential(A, 2.0)
            fns = {
                0: lambda a: y0_norm(a, yp),
                1: y1_norm,
                2: lambda a: y2_norm(a, yp),
                3: lambda a: y3_norm(a, yp),
            }
            for j, fn in fns.items():
                r = fn(B) / fn(A)
                worst[j] = max(worst[j], abs(r - 1.0))
    for j in range(4):
        col.add(f"y-scale-invariance-y{j}", worst[j], {"presets": len(presets)})


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
    spec = np.fft.fftn(u)
    shift = np.exp(-2j * np.pi * sum(grid.xi[j] * a[j] * t for j in range(grid.n)))
    return np.fft.ifftn(spec * shift)


def _run_solve(col: _Collector, seed: int, params: dict) -> None:
    a = np.array([0.8, -0.6])
    errs = []
    for dt in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
        g = make_grid(2, 64, 32, dt, 1.0)
        f = gaussian_wavepacket(g, (12, 16), 5.0, (0.05, -0.05))
        u = solve(g, f, _constant_potential(g, a), None)
        errs.append(l2_norm(g, u.values[-1] - _transported_free(g, f, a, 1.0)))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    col.add("solve-order", min(orders), {"orders": orders})
    g = make_grid(2, 64, 32, 1.0 / 64.0, 1.0)
    f = gaussian_wavepacket(g, (12, 16), 5.0, (0.05, -0.05))
    u = solve(g, f, _constant_potential(g, a), None)
    col.add(
        "solve-transport-oracle",
        l2_norm(g, u.values[-1] - _transported_free(g, f, a, 1.0)),
        {"dt": 1.0 / 64.0},
    )

    g = make_grid(2, 64, 32, 1.0 / 64.0, 1.0)
    f = gaussian_wavepacket(g, (12, 16), 5.0, (0.05, -0.05))
    A_df = make_potential("divfree_curl", 0.2, g, seed=seed, width=2.5)
    u = solve(g, f, A_df, None)
    col.add("solve-charge-drift", float(np.max(np.abs(u.slice_l2() - u.slice_l2()[0]))))

    A = make_potential("low_band", 0.1, g, seed=seed + 1, k_cap=-3)
    bump = gaussian_wavepacket(g, (18, 14), 3.0, (0.0, 0.05))

    def F(t):
        return np.exp(-2.0 * (t - 0.4) ** 2) * bump

    u1 = solve(g, f, A, F)
    u2 = duhamel_solve(g, f, A, F)
    err = max(l2_norm(g, u1.values[i] - u2.values[i]) for i in range(0, g.n_steps + 1, 8))
    col.add("solve-duhamel-agreement", err)

    handle = PropagatorHandle(g, A, SolverConfig(dt=g.dt))
    mid = handle.apply(f, 0.5, 0.0)
    via = handle.apply(mid, 1.0, 0.5)
    direct = handle.apply(f, 1.0, 0.0)
    col.add("solve-compose", l2_norm(g, via - direct) / l2_norm(g, f))
    back = handle.apply(direct, 0.0, 1.0)
    col.add("solve-reversal", l2_norm(g, back - f) / l2_norm(g, f))

    out = energy_bound_check(g, f, A, F)
    if out["pass"] is None:
        raise FloatingPointError("energy bound premise violated in the default setup")
    col.add(
        "solve-energy-bound",
        out["sup_l2"] / out["bound"],
        {"div_l1linf": out["div_l1linf"], "grad_l1linf": out["grad_l1linf"]},
    )


def _parametrix_setup(seed: int):
    g = make_grid(2, 64, 64, 1.0 / 64.0, 0.5)
    k_f = -2
    ang = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        unit = make_potential("low_band", 1.0, g, seed=seed, single_band=-6)
        scale = build_sigma(unit, k_f, dirs).max_sigma()
    return g, k_f, scale


def _run_parametrix(col: _Collector, seed: int, params: dict) -> None:
    g, k_f, scale = _parametrix_setup(seed)
    budget = float(params.get("max_products", 5e9))
    f = annulus_data(g, k_f, seed=seed + 2)
    eps_list = list(params.get("eps_list", (0.02, 0.05, 0.1, 0.2)))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        A_ref = make_potential("low_band", 0.1 / scale, g, seed=seed, single_band=-6)
        ang = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        dirs16 = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        ph = build_sigma(A_ref, k_f, dirs16)
        res = phase_identity_residual(
            ph, A_ref, 2.0**k_f * dirs16, t_indices=(0, g.n_steps // 2, g.n_steps)
        )
        col.add("phase-identity", res, {"directions": 16, "time_slices": 3})

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
            out = parametrix_residual(op, v)
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
        col.add("parametrix-v0-linearity", r2_v0, {"slope": slope_v0, "eps": eps_list})
        col.add("parametrix-residual-linearity", r2_res, {"slope": slope_res, "eps": eps_list})
        col.add("dual-path-residual", float(np.max(dual)))
        col.add("parametrix-lqlr-factor", worst_factor, {"pairs": len(pairs)})

        if taylor_err is None:
            op = operator(0.1)
            taylor_err = taylor_error(op, op.apply())
        col.add("parametrix-taylor-error", taylor_err, {"order": 4, "eps": 0.1})


def _run_strichartz(col: _Collector, seed: int, params: dict) -> None:
    g = make_grid(2, 64, 32, 1.0 / 64.0, 1.0)
    f = gaussian_wavepacket(g, (12, 16), 5.0, (0.05, -0.05))
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
    eps_list = list(params.get("eps_list", (0.025, 0.05, 0.075, 0.1)))
    presets = [
        ("gauss_bump", {"seed": seed, "width": 2.5}),
        ("divfree_curl", {"seed": seed + 1, "width": 2.5}),
        ("low_band", {"seed": seed + 2, "k_cap": -3}),
    ]
    worst_excess = 0.0
    trend_flips = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
    col.add(
        "strichartz-ratio-excess",
        worst_excess,
        {"baseline": base, "eps": eps_list, "trend_flips": trend_flips},
    )


def _run_dispersive(col: _Collector, seed: int, params: dict) -> None:
    t_list = list(params.get("t_list", (1, 1.41, 2, 2.83, 4, 5.66, 8, 11.3, 16)))
    for mu in (0, 1, 2):
        caps = random_caps(2, mu, seed=seed + mu)
        tab = cap_oscillatory_decay(t_list, caps, k_f=0, n=2)
        col.add(
            f"dispersive-slope-mu{mu}",
            abs(decay_slope(tab) + 1.0),
            {"slope": decay_slope(tab), "sup_t1": float(tab["sup"][0])},
        )
    tab = cap_oscillatory_decay(t_list, [], k_f=0, n=2, fixed_axis=True)
    col.add(
        "dispersive-fixed-axis-slope",
        abs(decay_slope(tab) + 0.5),
        {"slope": decay_slope(tab)},
    )


def _run_error_terms(col: _Collector, seed: int, params: dict) -> None:
    g = make_grid(2, 128, 64, 1.0 / 64.0, 0.5)
    f = annulus_data(g, -3, seed=seed + 3)
    worst_identity = 0.0
    ratios = {0.0: [], 1.0: []}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for eps in (0.05, 0.1, 0.2):
            A = make_potential("low_band", eps, g, seed=seed, k_cap=-6)
            u = solve(g, f, A, None)
            for k in (-4, -3, -2):
                e = error_term(u, A, k)
                total = sum(error_term_groups(u, A, k).values())
                scale = max(float(np.max(np.abs(e))), 1e-30)
                worst_identity = max(worst_identity, float(np.max(np.abs(total - e))) / scale)
            for s in (0.0, 1.0):
                ratios[s].append(error_term_besov_ratio(u, A, eps, s, (-4, -2)))
    col.add("error-term-identity", worst_identity)
    for s, tag in ((0.0, "s0"), (1.0, "s1")):
        vals = np.array(ratios[s])
        col.add(
            f"error-term-besov-stability-{tag}",
            float(vals.max() / vals.min()),
            {"ratios": [float(v) for v in vals]},
        )


def _run_nets(col: _Collector, seed: int, params: dict) -> None:
    worst_sum = 0.0
    for n, m in ((2, 2), (2, 4), (3, 3)):
        part = cap_partition(angular_net(n, m))
        pts = _dense_sphere_sample(n, 1000, seed=seed + m)
        worst_sum = max(worst_sum, float(np.max(np.abs(part.values(pts).sum(axis=0) - 1.0))))
    col.add("cap-partition-sum", worst_sum)
    consts = [angular_net(3, m).count / 4.0**m for m in (1, 2, 3)]
    col.add("net-cardinality-constant", float(np.max(consts)), {"per_scale": consts})

    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    ray_ratios = []
    for k in (-2, -1, 0, 1, 2):
        g = make_grid(2, 256, 64.0 * 2.0**-k, 0.5, 1.0)
        lo = (2.0 - CUTOFFS.glue_width) * 2.0 ** (k - 1)
        hi = (1.0 + CUTOFFS.glue_width) * 2.0**k
        sel = (g.xi_norm > lo) & (g.xi_norm < hi)
        spec = np.zeros(g.shape, dtype=complex)
        spec[sel] = rng.normal(size=int(sel.sum())) + 1j * rng.normal(size=int(sel.sum()))
        fband = fourier_inverse(g, spec).real
        meshes = g.spatial_meshes()
        env = np.exp(-sum((x - g.L / 2) ** 2 for x in meshes) / (g.L / 7.0) ** 2)
        out = pointwise_ray_bound_check(g, fband * env, k)
        ray_ratios.append(out["ratio"])
    ray_ratios = np.array(ray_ratios)
    col.add(
        "ray-bound-stability",
        float(ray_ratios.max() / ray_ratios.min()),
        {"ratios": [float(v) for v in ray_ratios]},
    )

    for h in (0.125, 0.25 - 0.0625):
        rats = []
        for _ in range(1000):
            a = rng.choice([-1.0, 1.0], size=32)
            b = rng.choice([-1.0, 1.0], size=32)
            _, r = sequence_bound_check(a, b, h)
            rats.append(r)
        rats = np.array(rats)
        col.add(
            "sequence-lemma-stability",
            float(rats.max() / np.median(rats)),
            {"h": h, "max_ratio": float(rats.max())},
        )


_RUNNERS = {
    "norms": _run_norms,
    "solve": _run_solve,
    "parametrix": _run_parametrix,
    "strichartz-sweep": _run_strichartz,
    "dispersive": _run_dispersive,
    "error-terms": _run_error_terms,
    "nets": _run_nets,
}


def run(config: ExperimentConfig) -> RunReport:
    """Execute one experiment; writes report.csv and summary.json when out_dir set."""
    if config.experiment not in _RUNNERS:
        raise ValueError(f"unknown experiment '{config.experiment}'")
    col = _Collector(config)
    start = time.monotonic()
    _RUNNERS[config.experiment](col, config.seed, config.params)
    wall = time.monotonic() - start
    env = {
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    report = RunReport(config.experiment, config.seed, col.rows, env, wall)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_check_rows_csv(out / f"{config.experiment}-report.csv", report.rows)
        with open(out / f"{config.experiment}-summary.json", "w") as fh:
            json.dump(report.summary(), fh, indent=2, sort_keys=True)
    return report
