"""Reference propagator for u_t - i Lap u + A.grad u = F.

Method of lines with the free flow factored out exactly (Lawson-RK4): the
stiff part exp(i t Lap) is an exact spectral multiplier, classical RK4 handles
the advective remainder -A.grad u + F.  Spatial derivatives are spectral; the
advective product is 2/3-rule dealiased.  Backwards evolution runs the same
integrator with negative steps, realizing U_A(s,t) = U_A(t,s)^{-1}.

A step's transforms write into work arrays its stepper allocates once, so it
allocates only the state it returns.  They are unweighted: each forward
transform in a step meets an inverse one, and the dx^n weights cancel (exactly
when dx is a power of two, as on every lab grid).  At n = 2 a step makes 38
transforms with a potential, four right-hand sides of 2n + 2 and seven free
flows of 2, and 14 without one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .grid import (
    Grid,
    SpaceTimeField,
    _free_phase,
    _fftn,
    _ifftn,
    _nyquist_leak_fraction,
    fourier_forward,
    fourier_inverse,
    l2_norm,
    slice_l2,
    spatial_norm,
)
from .lp import _advect, _check_band, project_band
from .norms import time_lq
from .potentials import VectorPotential, _grad_l1_linf, _vec_mag

__all__ = [
    "SolverConfig",
    "PropagatorHandle",
    "CFLError",
    "solve",
    "duhamel_solve",
    "propagator_compose_check",
    "energy_bound_check",
    "equation_residual",
    "lp_reduced_equation_check",
]

_GL3_NODES = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_GL3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
CFL_SAFETY = 0.5
_PHASES_KEPT = 8  # free phases per stepper: dt, dt/2, three Gauss sub-steps and their halves
# NumPy evaluates ``phase * fourier_forward(grid, v)`` in the temporary spectrum
# when it holds at least this many bytes, and then swaps the factors; a complex
# product rounds differently with swapped factors (fused multiply-add).
# ``_Stepper._flow`` takes them in that expression's order, so a step matches
# the Lawson-RK4 written with the weighted transforms bit for bit.
_ELIDE_BYTES = 256 * 1024


class CFLError(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters; dt <= CFL_SAFETY * dx / max(1, |A|_inf)."""

    dt: float

    def check_cfl(self, grid: Grid, a_max: float) -> None:
        bound = CFL_SAFETY * grid.dx / max(1.0, a_max)
        if self.dt > bound:
            raise CFLError(
                f"dt={self.dt} violates the advective CFL bound {bound:.3e} "
                f"(dx={grid.dx}, |A|_inf={a_max:.3e})"
            )


def _dealias_mask(grid: Grid) -> np.ndarray:
    """1.0 where every |xi_j| is at most 2/3 of Nyquist, else 0.0 (the 2/3 rule)."""
    return np.all(np.abs(grid.xi) <= grid.nyquist * 2.0 / 3.0, axis=0).astype(float)


class _Stepper:
    """One Lawson-RK4 step for u' = i Lap u - A.grad u + F, in place in its
    own work arrays but for the state it returns."""

    def __init__(self, grid: Grid, A, F):
        self.A = A
        self.F = F
        self.grad = 2j * np.pi * grid.xi
        self.mask = _dealias_mask(grid)
        self._phase = lru_cache(maxsize=_PHASES_KEPT)(partial(_free_phase, grid))
        (self.spec, self.work, self.k1, self.k2, self.k3, self.k4,
         self.stage, self.tmp) = np.empty((8,) + grid.shape, dtype=complex)
        self._spectrum_first = self.spec.nbytes >= _ELIDE_BYTES

    def _flow(self, phase: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the free flow of v under ``phase`` into ``out``; two transforms."""
        spec = _fftn(v, self.spec)
        if self._spectrum_first:
            np.multiply(spec, phase, out=spec)
        else:
            np.multiply(phase, spec, out=spec)
        return _ifftn(spec, out)

    def _rhs(self, t: float, u: np.ndarray, out: np.ndarray) -> None:
        """Write -A.grad u + F at time t into ``out``; with A the product is
        dealiased and ``out`` accumulates its spectrum."""
        if self.A is None:
            if self.F is None:
                out.fill(0.0)
            else:
                out[...] = self.F(t)
            return
        spec, work = self.spec, self.work
        _fftn(u, spec)
        for j, a_j in enumerate(self.A.at(t)):
            du = out if j == 0 else work
            np.multiply(self.grad[j], spec, out=du)
            _ifftn(du, du)
            np.multiply(a_j, du, out=du)
            _fftn(du, du)
            if j:
                np.add(out, work, out=out)
        np.multiply(out, self.mask, out=out)
        _ifftn(out, out)
        np.negative(out, out=out)
        if self.F is not None:
            np.add(out, self.F(t), out=out)

    def step(self, t: float, u: np.ndarray, dt: float) -> np.ndarray:
        E_half = self._phase(dt / 2.0)
        E_full = self._phase(dt)
        k1, k2, k3, k4, stage, tmp = self.k1, self.k2, self.k3, self.k4, self.stage, self.tmp

        self._rhs(t, u, k1)
        # k2 at flow(E_half, u + dt/2 k1)
        np.multiply(dt / 2.0, k1, out=stage)
        np.add(u, stage, out=stage)
        self._rhs(t + dt / 2.0, self._flow(E_half, stage, stage), k2)
        # k3 at flow(E_half, u) + dt/2 k2
        self._flow(E_half, u, stage)
        np.multiply(dt / 2.0, k2, out=tmp)
        np.add(stage, tmp, out=stage)
        self._rhs(t + dt / 2.0, stage, k3)
        # k4 at flow(E_full, u) + dt flow(E_half, k3)
        self._flow(E_full, u, stage)
        self._flow(E_half, k3, tmp)
        np.multiply(dt, tmp, out=tmp)
        np.add(stage, tmp, out=stage)
        self._rhs(t + dt, stage, k4)
        # flow(E_full, u) + dt/6 (flow(E_full, k1) + 2 flow(E_half, k2 + k3) + k4)
        self._flow(E_full, k1, k1)
        np.add(k2, k3, out=tmp)
        self._flow(E_half, tmp, tmp)
        np.multiply(2.0, tmp, out=tmp)
        np.add(k1, tmp, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(dt / 6.0, k1, out=k1)
        out = self._flow(E_full, u, np.empty_like(k1))
        return np.add(out, k1, out=out)


@dataclass
class PropagatorHandle:
    """Application of U_A(t, s); U_A(s, s) = identity, group law tested."""

    grid: Grid
    A: object
    config: SolverConfig

    def apply(self, f: np.ndarray, t: float, s: float = 0.0) -> np.ndarray:
        """Evolve data given at time s to time t (backwards when t < s)."""
        _check_step(self.grid, f, self.A, self.config)
        if np.isclose(t, s):
            return f.copy()
        stepper = _Stepper(self.grid, self.A, None)
        span = abs(t - s)
        sign = 1.0 if t > s else -1.0
        n_full = int(np.floor(span / self.config.dt + 1e-9))
        rem = span - n_full * self.config.dt
        u = f
        cur = s
        for _ in range(n_full):
            u = stepper.step(cur, u, sign * self.config.dt)
            cur += sign * self.config.dt
        if rem > 1e-12 * max(abs(t), 1.0):
            u = stepper.step(cur, u, sign * rem)
        return u


def _check_data(grid: Grid, data: np.ndarray, A) -> None:
    """Reject a potential on another grid than the data's, and non-finite data;
    one pass over the data, no transforms."""
    if A is not None and A.grid != grid:
        raise ValueError(f"potential grid {A.grid} differs from the data grid {grid}")
    if not np.all(np.isfinite(data)):
        raise ValueError("data must be finite")


def _check_step(grid: Grid, f: np.ndarray, A, config: SolverConfig):
    """`_check_data`, then reject a step over the CFL bound; no transforms, so
    it costs one pass over f and A."""
    _check_data(grid, f, A)
    config.check_cfl(grid, 0.0 if A is None else float(np.max(_vec_mag(A.values))))


def _check_inputs(grid: Grid, f: np.ndarray, A):
    """Reject what ``solve`` and ``duhamel_solve`` cannot march at the grid's
    step; warn on Nyquist mass."""
    _check_step(grid, f, A, SolverConfig(dt=grid.dt))
    if _nyquist_leak_fraction(grid, fourier_forward(grid, f)) > 1e-6:
        warnings.warn("solve: initial data carries spectral mass near Nyquist", stacklevel=3)


def solve(grid: Grid, f: np.ndarray, A: VectorPotential | None, F) -> SpaceTimeField:
    """March the forced equation from u(0) = f to T on the grid's time grid.

    ``F`` is None or a callable t -> complex spatial array.
    """
    _check_inputs(grid, f, A)
    stepper = _Stepper(grid, A, F)
    out = np.empty((grid.n_steps + 1,) + grid.shape, dtype=complex)
    out[0] = f
    u = f.astype(complex)
    for i, t in enumerate(grid.times[:-1]):
        u = stepper.step(t, u, grid.dt)
        out[i + 1] = u
    return SpaceTimeField(grid, out)


def duhamel_solve(grid: Grid, f: np.ndarray, A: VectorPotential | None, F) -> SpaceTimeField:
    """u = U_A(t,0) f + int_0^t U_A(t,s) F(s) ds, accumulated stepwise.

    The step integral uses 3-point Gauss-Legendre with each node transported
    by one homogeneous sub-step; an independent path from ``solve``.
    """
    _check_inputs(grid, f, A)
    hom = _Stepper(grid, A, None)
    out = np.empty((grid.n_steps + 1,) + grid.shape, dtype=complex)
    u_hom = f.astype(complex)
    inhom = np.zeros(grid.shape, dtype=complex)
    out[0] = u_hom
    for i, t in enumerate(grid.times[:-1]):
        dt = grid.dt
        u_hom = hom.step(t, u_hom, dt)
        inhom = hom.step(t, inhom, dt)
        if F is not None:
            nodes = t + (dt / 2.0) * (1.0 + _GL3_NODES)
            for w, s in zip(_GL3_WEIGHTS, nodes):
                contrib = hom.step(s, F(s), t + dt - s)
                inhom = inhom + (dt / 2.0) * w * contrib
        out[i + 1] = u_hom + inhom
    return SpaceTimeField(grid, out)


def propagator_compose_check(
    grid: Grid,
    A,
    s: float,
    t: float,
    probes: list[np.ndarray],
) -> float:
    """max over probes of ||U(t,s)U(s,0)f - U(t,0)f|| / ||f||."""
    if not (0 <= s <= t <= grid.T):
        raise ValueError("need 0 <= s <= t <= T")
    handle = PropagatorHandle(grid, A, SolverConfig(dt=grid.dt))
    worst = 0.0
    for f in probes:
        via = handle.apply(handle.apply(f, s, 0.0), t, s)
        direct = handle.apply(f, t, 0.0)
        worst = max(worst, l2_norm(grid, via - direct) / l2_norm(grid, f))
    return worst


def energy_bound_check(grid: Grid, f: np.ndarray, A: VectorPotential | None, F) -> dict:
    """sup_t ||u||_2 against C (||f||_2 + ||F||_{L1 L2}) with C = 4.

    Operative premise: ||div A||_{L1 Linf} < 1/2 (then M^2 <= ||f||^2 + M^2/2
    + 2 G M forces M <= 4(||f|| + G)); ||grad A||_{L1 Linf} is reported
    alongside.  Returns the premise flags, the sup, the bound and pass/fail;
    when the premise fails the check is skipped (pass = None).
    """
    out = {}
    if A is not None:
        div_l1linf = time_lq(grid.times, spatial_norm(grid, A.divergence(), np.inf), 1.0)
        grad_l1linf = _grad_l1_linf(A)
    else:
        div_l1linf = 0.0
        grad_l1linf = 0.0
    out["div_l1linf"] = div_l1linf
    out["grad_l1linf"] = grad_l1linf
    out["gronwall_factor"] = float(np.exp(div_l1linf))
    if div_l1linf >= 0.5:
        out["premise_ok"] = False
        out["pass"] = None
        return out
    out["premise_ok"] = True
    u = solve(grid, f, A, F)
    sup = float(np.max(u.slice_l2()))
    g_norm = 0.0
    if F is not None:
        fvals = np.stack([F(t) for t in grid.times])
        g_norm = time_lq(grid.times, slice_l2(grid, fvals), 1.0)
    bound = 4.0 * (l2_norm(grid, f) + g_norm)
    out["sup_l2"] = sup
    out["bound"] = bound
    out["pass"] = bool(sup <= bound)
    return out


def _time_derivative_4th(values: np.ndarray, dt: float) -> np.ndarray:
    """4th-order finite differences in time along axis 0."""
    nt = values.shape[0]
    out = np.empty_like(values)
    if nt < 5:
        raise ValueError("need at least 5 time slices for 4th-order differences")
    # (-v[4:] + 8 v[3:-1] - 8 v[1:-3] + v[:-4]) / (12 dt) in place, step by step in
    # the expression's order, so every value is the same to the bit
    mid, scratch = out[2:-2], np.empty_like(out[2:-2])
    np.negative(values[4:], out=mid)
    mid += np.multiply(8, values[3:-1], out=scratch)
    mid -= np.multiply(8, values[1:-3], out=scratch)
    mid += values[:-4]
    mid /= 12 * dt
    # biased 4th-order stencils on a 5-point window at each end
    c0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * dt)
    c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12 * dt)
    out[0] = sum(ci * values[i] for i, ci in enumerate(c0))
    out[1] = sum(ci * values[i] for i, ci in enumerate(c1))
    out[-1] = -sum(ci * values[-1 - i] for i, ci in enumerate(c0))
    out[-2] = -sum(ci * values[-2 + 1 - i] for i, ci in enumerate(c1))
    return out


def equation_residual(u: SpaceTimeField, A, F) -> tuple[np.ndarray, float]:
    """Residual field u_t - i Lap u + A.grad u - F and its L1_t L2_x norm.

    Time derivative by 4th-order differences, space derivatives spectral.
    """
    grid = u.grid
    ut = _time_derivative_4th(u.values, grid.dt)
    spec = u.spectrum()
    lap = fourier_inverse(grid, -4.0 * np.pi**2 * grid.xi_norm**2 * spec)
    res = np.subtract(ut, np.multiply(1j, lap, out=lap), out=ut)  # ut - 1j * lap
    if A is not None:
        res += _advect(grid, A.values, spec)
    if F is not None:
        res -= np.stack([F(t) for t in grid.times])
    return res, time_lq(grid.times, slice_l2(grid, res), 1.0)


def _check_error_inputs(u: SpaceTimeField, A: VectorPotential | None, ks) -> None:
    """`_check_data` on u, then reject bands outside ``representable_bands``;
    one pass over u, no transforms."""
    _check_data(u.grid, u.values, A)
    for k in ks:
        _check_band(u.grid, k)


def lp_reduced_equation_check(
    u: SpaceTimeField,
    A: VectorPotential | None,
    F,
    k: int,
) -> float:
    """L1 L2 of d_t u_k - i Lap u_k + A_{<=k-4}.grad u_k + E^k - F_k.

    With E^k = P_k(A.grad u) - A_{<=k-4}.grad u_k this is P_k of the solver
    residual `equation_residual`: P_k commutes with d_t and Lap.
    """
    _check_error_inputs(u, A, [k])
    res, _ = equation_residual(u, A, F)
    return time_lq(u.grid.times, slice_l2(u.grid, project_band(u.grid, res, k)), 1.0)
