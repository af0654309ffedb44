"""The benchmark's workloads: seeded inputs, one batch of checked calls each.

A workload's ``setup(seed)`` builds every input from the seed and warms the
program's caches; ``batch(state)`` returns the batch's operations, each a
name and a function that calls magschro's public API and returns its oracle
checks.  An operation fails when it raises or when one of its checks fails.
Every tolerance comes from ``magschro.experiments.CHECK_CATALOG``.

Calls go through the ``magschro`` namespace at call time (``ms.solve``), so
the layer tracer, which patches that namespace, sees them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import magschro as ms
from magschro.experiments import CHECK_CATALOG

COMPLEX = np.dtype(complex).itemsize
REAL = np.dtype(float).itemsize


@dataclass(frozen=True)
class Check:
    check_id: str
    value: float
    threshold: float
    passed: bool


@dataclass
class Outcome:
    name: str
    checks: list = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)


def check(check_id: str, value: float) -> Check:
    """Compare a value with the catalog threshold of ``check_id``."""
    _, threshold, comparator = CHECK_CATALOG[check_id]
    value = float(value)
    passed = bool(np.isfinite(value)) and (
        value <= threshold if comparator == "le" else value >= threshold
    )
    return Check(check_id, value, float(threshold), passed)


def run_op(name: str, fn) -> Outcome:
    try:
        checks = fn()
    except Exception as exc:  # a raising call is a failed operation, not a crash
        return Outcome(name, error=f"{type(exc).__name__}: {exc}")
    return Outcome(name, checks)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _fresh(A):
    """A new potential with the same samples and evaluators but empty band caches."""
    return ms.VectorPotential(
        A.grid,
        A.values,
        evaluator=A.evaluator,
        dt_evaluator=A.dt_evaluator,
        divergence_free=A.divergence_free,
        band_limit=A.band_limit,
        cutoffs=A.cutoffs,
    )


def _fresh_field(u):
    """The same samples without the cached spectrum."""
    return ms.SpaceTimeField(u.grid, u.values)


def _grid_sizes(g) -> dict:
    return {"n": g.n, "N": g.N, "L": g.L, "dt": g.dt, "T": g.T, "n_t": g.n_steps + 1}


class Workload:
    """Interface: ``setup(seed)`` -> state; ``batch(state)`` and ``probes(state)``
    -> list of (name, operation)."""

    def probes(self, st: dict) -> list:
        """Operations run once, untimed, and reported apart from the batch."""
        return []


# -- propagate ---------------------------------------------------------------------


class Propagate(Workload):
    """Lawson-RK4 time stepping: forced solve, Duhamel path, propagator there and back."""

    N, L, DT, T = 128, 64.0, 1.0 / 64.0, 0.125

    def setup(self, seed: int) -> dict:
        g = ms.make_grid(2, self.N, self.L, self.DT, self.T)
        rng = _rng(seed, 1)
        center = g.L * (np.array([0.4, 0.5]) + rng.uniform(-0.05, 0.05, 2))
        f = ms.gaussian_wavepacket(g, center, 5.0, rng.uniform(-0.05, 0.05, 2))
        bump_center = g.L * (np.array([0.55, 0.45]) + rng.uniform(-0.05, 0.05, 2))
        bump = ms.gaussian_wavepacket(g, bump_center, 3.0)

        def forcing(t, _b=bump):
            return np.exp(-2.0 * (t - 0.1) ** 2) * _b

        seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
        potentials = {
            "low_band": ms.make_potential(
                "low_band", 0.1, g, seed=seeds[0], k_cap=-3, divergence_free=True
            ),
            "divfree_curl": ms.make_potential(
                "divfree_curl", 0.2, g, width=2.5, center=g.L * (0.5 + rng.uniform(-0.05, 0.05, 2))
            ),
            "traveling_bump": ms.make_potential(
                "traveling_bump", 0.1, g, seed=seeds[1], width=3.0
            ),
        }
        pairs = ms.admissible_pairs(2, 6)
        free = ms.solve(g, f, None, forcing)
        base = max(ms.lqlr_norm(free, p.q, p.r) for p in pairs)
        field_bytes = g.N**2 * (g.n_steps + 1) * COMPLEX
        sizes = {
            "grid": _grid_sizes(g),
            "presets": list(potentials),
            "working_set_bytes": {
                "space_time_field": field_bytes,
                "potential": 2 * g.N**2 * (g.n_steps + 1) * REAL,
                "per_case": 2 * field_bytes + 2 * g.N**2 * (g.n_steps + 1) * REAL,
            },
        }
        return {
            "grid": g, "f": f, "forcing": forcing, "potentials": potentials,
            "pairs": pairs, "free_peak": base, "sizes": sizes,
        }

    def batch(self, st: dict) -> list:
        return [
            (f"case:{name}", lambda A=A: self._case(st, _fresh(A)))
            for name, A in st["potentials"].items()
        ]

    @staticmethod
    def _case(st: dict, A) -> list:
        g, f, forcing = st["grid"], st["f"], st["forcing"]
        u = ms.solve(g, f, A, forcing)
        w = ms.duhamel_solve(g, f, A, forcing)
        gap = max(ms.l2_norm(g, u.values[i] - w.values[i]) for i in range(0, g.n_steps + 1, 4))
        handle = ms.PropagatorHandle(g, A, ms.SolverConfig(dt=g.dt))
        there = handle.apply(f, g.T, 0.0)
        back = handle.apply(there, 0.0, g.T)
        norm_f = ms.l2_norm(g, f)
        peak = max(ms.lqlr_norm(u, p.q, p.r) for p in st["pairs"])
        checks = [
            check("solve-duhamel-agreement", gap),
            check("solve-reversal", ms.l2_norm(g, back - f) / norm_f),
            check("strichartz-ratio-excess", peak / st["free_peak"] - 1.0),
        ]
        if A.divergence_free:
            checks.append(check("solve-charge-drift", abs(ms.l2_norm(g, there) - norm_f)))
        return checks


# -- dyadic --------------------------------------------------------------------------


class Dyadic(Workload):
    """Band analysis of whole space-time arrays: Y0..Y3 and the error terms."""

    N, L, DT, T = 64, 32.0, 1.0 / 32.0, 0.125  # smallness functionals
    E_N, E_L, E_DT, E_T = 128, 64.0, 1.0 / 64.0, 1.0 / 32.0  # error terms
    ROTATIONS = 8
    EPS = (0.05, 0.1, 0.2)
    BANDS = (-4, -3, -2)

    def setup(self, seed: int) -> dict:
        g = ms.make_grid(2, self.N, self.L, self.DT, self.T)
        rng = _rng(seed, 2)
        seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
        pairs = {}
        for name, kw in (
            ("gauss_bump", {"seed": seeds[0], "width": 3.0}),
            ("low_band", {"seed": seeds[1], "k_cap": -3}),
        ):
            A = ms.make_potential(name, 0.1, g, **kw)
            pairs[name] = (A, ms.rescale_potential(A, 2.0))
        params = ms.YNormParams(
            sampler=ms.RotationSampler(2, count=self.ROTATIONS, refine_rounds=0)
        )
        ge = ms.make_grid(2, self.E_N, self.E_L, self.E_DT, self.E_T)
        f = ms.annulus_data(ge, -3, seed=seeds[2])
        solved = {}
        for eps in self.EPS:
            A = ms.make_potential("low_band", eps, ge, seed=seeds[2], k_cap=-6)
            solved[eps] = (A, ms.solve(ge, f, A, None))
        # warm-up: fill the module-level band-mask caches of every grid used
        for A, B in pairs.values():
            for P in (A, B):
                k_min, k_max = P.band_range()
                for k in range(k_min, k_max + 1):
                    P.band(k)
        n_t = g.n_steps + 1
        n_te = ge.n_steps + 1
        sizes = {
            "grid": _grid_sizes(g),
            "error_term_grid": _grid_sizes(ge),
            "presets": list(pairs),
            "rotations": self.ROTATIONS,
            "bands": {name: list(A.band_range()) for name, (A, _) in pairs.items()},
            "working_set_bytes": {
                "potential": 2 * g.N**2 * n_t * REAL,
                "hessian": 2 * 2 * 2 * g.N**2 * n_t * REAL,
                "error_term_field": ge.N**2 * n_te * COMPLEX,
                "error_term_gradient": 2 * ge.N**2 * n_te * COMPLEX,
            },
        }
        return {"pairs": pairs, "params": params, "solved": solved, "sizes": sizes}

    def batch(self, st: dict) -> list:
        yp = st["params"]
        functionals = (
            ("y0", "y-scale-invariance-y0", lambda a: ms.y0_norm(a, yp)),
            ("y1", "y-scale-invariance-y1", ms.y1_norm),
            ("y1_tilde", "y-scale-invariance-y1", lambda a: ms.y1_tilde_norm(a, yp)),
            ("y2", "y-scale-invariance-y2", lambda a: ms.y2_norm(a, yp)),
            ("y3", "y-scale-invariance-y3", lambda a: ms.y3_norm(a, yp)),
        )
        ops = []
        for preset, (A, B) in st["pairs"].items():
            A, B = _fresh(A), _fresh(B)
            for label, check_id, fn in functionals:
                ops.append((f"{label}:{preset}", self._scale_op(check_id, fn, A, B)))
        A, u = st["solved"][0.1]
        A, u = _fresh(A), _fresh_field(u)
        for k in self.BANDS:
            ops.append((f"error_term_groups:{k}", lambda k=k: self._tiling(u, A, k)))
        ops.append(("error_term_besov_ratio", lambda: self._besov(st["solved"])))
        return ops

    @staticmethod
    def _scale_op(check_id, fn, A, B):
        def op():
            return [check(check_id, abs(fn(B) / fn(A) - 1.0))]

        return op

    @staticmethod
    def _tiling(u, A, k) -> list:
        e = ms.error_term(u, A, k)
        total = sum(ms.error_term_groups(u, A, k).values())
        scale = max(float(np.max(np.abs(e))), 1e-30)
        return [check("error-term-identity", float(np.max(np.abs(total - e))) / scale)]

    def _besov(self, solved: dict) -> list:
        checks = []
        k_range = (self.BANDS[0], self.BANDS[-1])
        for s, tag in ((0.0, "s0"), (1.0, "s1")):
            ratios = [
                ms.error_term_besov_ratio(_fresh_field(u), _fresh(A), eps, s, k_range)
                for eps, (A, u) in solved.items()
            ]
            checks.append(check(f"error-term-besov-stability-{tag}", max(ratios) / min(ratios)))
        return checks


# -- parametrix ----------------------------------------------------------------------


class Parametrix(Workload):
    """One oscillatory-integral operator: build, apply, both residual paths, Taylor-4."""

    N, L, DT, T = 64, 64.0, 1.0 / 64.0, 0.5
    K_F = -2
    DATA_WIDTH = (0.92, 1.0)  # radial support of the data, in units of 2^k_f
    TAYLOR_ORDER = 4

    def setup(self, seed: int) -> dict:
        g = ms.make_grid(2, self.N, self.L, self.DT, self.T)
        rng = _rng(seed, 3)
        pot_seed, data_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        unit = ms.make_potential("low_band", 1.0, g, seed=pot_seed, single_band=-6)
        scale = ms.build_sigma(unit, self.K_F, _circle(12)).max_sigma()
        A = ms.make_potential("low_band", 0.1 / scale, g, seed=pot_seed, single_band=-6)
        f = ms.annulus_data(g, self.K_F, seed=data_seed, rel_width=self.DATA_WIDTH)
        sizes = {
            "grid": _grid_sizes(g),
            "k_f": self.K_F,
            "data_width": list(self.DATA_WIDTH),
            "taylor_order": self.TAYLOR_ORDER,
        }
        return {"grid": g, "A": A, "f": f, "sizes": sizes}

    def batch(self, st: dict) -> list:
        g, f = st["grid"], st["f"]
        A = _fresh(st["A"])
        shared = {}

        def direct_sum():
            op = ms.ParametrixOperator(g, f, A, ms.AnnulusCutoff(self.K_F))
            v = op.apply()
            shared.update(op=op, v=v)
            self._record_sizes(st, op)
            out = ms.parametrix_residual(op, v, dual_tol=np.inf)
            return [check("dual-path-residual", out["dual_gap"])]

        def taylor():
            op, v = shared["op"], shared["v"]
            fields, _ = op.taylor_study(self.TAYLOR_ORDER)
            err = max(
                ms.l2_norm(g, fields[self.TAYLOR_ORDER].values[i] - v.values[i])
                for i in range(0, g.n_steps + 1, 8)
            )
            return [check("parametrix-taylor-error", err)]

        def phase_identity():
            dirs = _circle(16)
            phase = ms.build_sigma(A, self.K_F, dirs)
            res = ms.phase_identity_residual(
                phase, A, 2.0**self.K_F * dirs, t_indices=(0, g.n_steps // 2, g.n_steps)
            )
            return [check("phase-identity", res)]

        return [
            ("direct_sum", direct_sum),
            ("taylor_study", taylor),
            ("phase_identity", phase_identity),
        ]

    @staticmethod
    def _record_sizes(st: dict, op) -> None:
        g = st["grid"]
        modes, points = len(op.xi), g.N**g.n
        st["sizes"].update(
            modes=modes,
            directions=len(op.phase.directions),
            products_per_pass=(g.n_steps + 1) * modes * points,
            working_set_bytes={"mode_by_point_temporary": modes * points * COMPLEX},
        )


def _circle(count: int) -> np.ndarray:
    ang = np.linspace(0, 2 * np.pi, count, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


# -- angular -------------------------------------------------------------------------


class Angular(Workload):
    """Angular nets: the pointwise ray bound, cap partitions, cap-localized decay."""

    N = 32
    RAY_BANDS = (-1, 0, 1)
    NETS = ((2, 2), (2, 4), (3, 3))
    SPHERE_POINTS = 1000
    T_LIST = (1.0, 1.41, 2.0, 2.83)
    CAP_SCALES = (1, 1)  # wide caps reach the 1/t regime within t <= 2.83
    MUS = (0, 1, 2)

    def setup(self, seed: int) -> dict:
        rng = _rng(seed, 4)
        ray_inputs = {}
        for k in self.RAY_BANDS:
            # box L = (N/4) 2^-k keeps band k below Nyquist, as 256 points on 64 2^-k do
            g = ms.make_grid(2, self.N, self.N / 4.0 * 2.0**-k, 0.5, 1.0)
            glue = ms.build_cutoffs().glue_width
            lo, hi = (2.0 - glue) * 2.0 ** (k - 1), (1.0 + glue) * 2.0**k
            sel = (g.xi_norm > lo) & (g.xi_norm < hi)
            spec = np.zeros(g.shape, dtype=complex)
            spec[sel] = rng.normal(size=int(sel.sum())) + 1j * rng.normal(size=int(sel.sum()))
            band = ms.fourier_inverse(g, spec).real
            env = np.exp(-sum((x - g.L / 2) ** 2 for x in g.spatial_meshes()) / (g.L / 7.0) ** 2)
            ray_inputs[k] = (g, band * env)
        spheres = {}
        for n in sorted({n for n, _ in self.NETS}):
            v = rng.normal(size=(self.SPHERE_POINTS, n))
            spheres[n] = v / np.linalg.norm(v, axis=1, keepdims=True)
        cap_seeds = rng.integers(0, 2**31, size=len(self.MUS))
        caps = {
            mu: ms.random_caps(2, mu, seed=int(s), k_range=self.CAP_SCALES)
            for mu, s in zip(self.MUS, cap_seeds)
        }
        sizes = {
            "ray_grid": {k: _grid_sizes(g) for k, (g, _) in ray_inputs.items()},
            "ray_bands": list(self.RAY_BANDS),
            "nets": [list(nm) for nm in self.NETS],
            "t_list": list(self.T_LIST),
            "cap_counts": list(self.MUS),
            "cap_scales": list(self.CAP_SCALES),
            "working_set_bytes": {"ray_field": self.N**2 * REAL},
        }
        return {"ray_inputs": ray_inputs, "spheres": spheres, "caps": caps, "sizes": sizes}

    def batch(self, st: dict) -> list:
        ratios = {}
        ops = [(f"ray_bound:{k}", lambda k=k: self._ray_bound(st, k, ratios))
               for k in self.RAY_BANDS]
        ops.append(("cap_partition", lambda: self._partition(st)))
        for mu in self.MUS:
            ops.append((f"decay:mu{mu}", lambda mu=mu: self._decay(st, mu)))
        return ops

    def probes(self, st: dict) -> list:

        def fixed_axis():
            tab = ms.cap_oscillatory_decay(self.T_LIST, [], k_f=0, n=2, fixed_axis=True)
            return [check("dispersive-fixed-axis-slope", abs(ms.decay_slope(tab) + 0.5))]

        return [("decay:fixed_axis", fixed_axis)]

    def _ray_bound(self, st: dict, k: int, ratios: dict) -> list:
        """One band's ratio; the last band checks the stability over all of them."""
        g, H = st["ray_inputs"][k]
        ratios[k] = ms.pointwise_ray_bound_check(g, H, k)["ratio"]
        if k != self.RAY_BANDS[-1]:
            return []
        values = [ratios[j] for j in self.RAY_BANDS]
        return [check("ray-bound-stability", max(values) / min(values))]

    def _partition(self, st: dict) -> list:
        worst = 0.0
        for n, m in self.NETS:
            part = ms.cap_partition(ms.angular_net(n, m))
            sums = part.values(st["spheres"][n]).sum(axis=0)
            worst = max(worst, float(np.max(np.abs(sums - 1.0))))
        return [check("cap-partition-sum", worst)]

    def _decay(self, st: dict, mu: int) -> list:
        tab = ms.cap_oscillatory_decay(self.T_LIST, st["caps"][mu], k_f=0, n=2)
        return [check(f"dispersive-slope-mu{mu}", abs(ms.decay_slope(tab) + 1.0))]


WORKLOADS = {
    "propagate": Propagate(),
    "dyadic": Dyadic(),
    "parametrix": Parametrix(),
    "angular": Angular(),
}
