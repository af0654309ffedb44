"""Reference propagator for u_t - i Lap u + A.grad u = F.

Method of lines with the free flow factored out exactly (Lawson-RK4): the
stiff part exp(i t Lap) is an exact spectral multiplier, classical RK4 handles
the advective remainder -A.grad u + F.  Spatial derivatives are spectral; the
advective product is 2/3-rule dealiased.  Backwards evolution runs the same
integrator with negative steps, realizing U_A(s,t) = U_A(t,s)^{-1}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    SpaceTimeField,
    _nyquist_leak_fraction,
    fourier_forward,
    fourier_inverse,
    l2_norm,
    slice_l2,
    spatial_norm,
)
from .lp import band_mask, project_leq
from .norms import time_lq
from .potentials import VectorPotential

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


def _a_sup(A) -> float:
    if A is None:
        return 0.0
    return float(np.max(np.sqrt(np.sum(A.values**2, axis=1))))


def _free_phase(grid: Grid, s: float) -> np.ndarray:
    return np.exp(-4.0 * np.pi**2 * 1j * s * grid.xi_norm**2)


def _dealias_mask(grid: Grid) -> np.ndarray:
    keep = np.ones(grid.shape, dtype=bool)
    cut = grid.nyquist * 2.0 / 3.0
    for j in range(grid.n):
        keep &= np.abs(grid.xi[j]) <= cut
    return keep


class _Stepper:
    """One Lawson-RK4 step for u' = i Lap u - A.grad u + F."""

    def __init__(self, grid: Grid, A, F, config: SolverConfig):
        self.grid = grid
        self.A = A
        self.F = F
        self.config = config
        self.mask = _dealias_mask(grid)

    def _rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        g = self.grid
        spec = fourier_forward(g, u)
        out = np.zeros_like(u)
        if self.A is not None:
            a_t = self.A.at(t)
            adv_spec = np.zeros(g.shape, dtype=complex)
            for j in range(g.n):
                du = fourier_inverse(g, 2j * np.pi * g.xi[j] * spec)
                adv_spec += fourier_forward(g, a_t[j] * du)
            adv_spec *= self.mask
            out = out - fourier_inverse(g, adv_spec)
        if self.F is not None:
            out = out + self.F(t)
        return out

    def step(self, t: float, u: np.ndarray, dt: float) -> np.ndarray:
        g = self.grid
        E_half = _free_phase(g, dt / 2.0)
        E_full = _free_phase(g, dt)

        def flow(phase, v):
            return fourier_inverse(g, phase * fourier_forward(g, v))

        k1 = self._rhs(t, u)
        u2 = flow(E_half, u + (dt / 2.0) * k1)
        k2 = self._rhs(t + dt / 2.0, u2)
        u3 = flow(E_half, u) + (dt / 2.0) * k2
        k3 = self._rhs(t + dt / 2.0, u3)
        u4 = flow(E_full, u) + dt * flow(E_half, k3)
        k4 = self._rhs(t + dt, u4)
        return (
            flow(E_full, u)
            + (dt / 6.0) * (flow(E_full, k1) + 2.0 * flow(E_half, k2 + k3) + k4)
        )


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
        stepper = _Stepper(self.grid, self.A, None, self.config)
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


def _check_step(grid: Grid, f: np.ndarray, A, config: SolverConfig):
    """Reject a potential on another grid, non-finite data and a step over the
    CFL bound; no transforms, so it costs one pass over f and A."""
    if A is not None and A.grid != grid:
        raise ValueError(f"potential grid {A.grid} differs from the solver grid {grid}")
    if not np.all(np.isfinite(f)):
        raise ValueError("initial data must be finite")
    config.check_cfl(grid, _a_sup(A))


def _check_inputs(grid: Grid, f: np.ndarray, A, config: SolverConfig):
    """Reject what ``solve`` and ``duhamel_solve`` cannot march; warn on Nyquist mass."""
    if not np.isclose(config.dt, grid.dt):
        raise ValueError("solver dt must match the grid time step")
    _check_step(grid, f, A, config)
    if _nyquist_leak_fraction(grid, fourier_forward(grid, f)) > 1e-6:
        warnings.warn("solve: initial data carries spectral mass near Nyquist", stacklevel=3)


def solve(
    grid: Grid,
    f: np.ndarray,
    A: VectorPotential | None,
    F,
    config: SolverConfig | None = None,
) -> SpaceTimeField:
    """March the forced equation from u(0) = f to T on the grid's time grid.

    ``F`` is None or a callable t -> complex spatial array.
    """
    config = config or SolverConfig(dt=grid.dt)
    _check_inputs(grid, f, A, config)
    stepper = _Stepper(grid, A, F, config)
    out = np.empty((grid.n_steps + 1,) + grid.shape, dtype=complex)
    out[0] = f
    u = f.astype(complex)
    for i, t in enumerate(grid.times[:-1]):
        u = stepper.step(t, u, grid.dt)
        out[i + 1] = u
    return SpaceTimeField(grid, out)


def duhamel_solve(
    grid: Grid,
    f: np.ndarray,
    A: VectorPotential | None,
    F,
    config: SolverConfig | None = None,
) -> SpaceTimeField:
    """u = U_A(t,0) f + int_0^t U_A(t,s) F(s) ds, accumulated stepwise.

    The step integral uses 3-point Gauss-Legendre with each node transported
    by one homogeneous sub-step; an independent path from ``solve``.
    """
    config = config or SolverConfig(dt=grid.dt)
    _check_inputs(grid, f, A, config)
    hom = _Stepper(grid, A, None, config)
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
    config: SolverConfig | None = None,
) -> float:
    """max over probes of ||U(t,s)U(s,0)f - U(t,0)f|| / ||f||."""
    if not (0 <= s <= t <= grid.T):
        raise ValueError("need 0 <= s <= t <= T")
    config = config or SolverConfig(dt=grid.dt)
    handle = PropagatorHandle(grid, A, config)
    worst = 0.0
    for f in probes:
        via = handle.apply(handle.apply(f, s, 0.0), t, s)
        direct = handle.apply(f, t, 0.0)
        worst = max(worst, l2_norm(grid, via - direct) / l2_norm(grid, f))
    return worst


def energy_bound_check(
    grid: Grid,
    f: np.ndarray,
    A: VectorPotential | None,
    F,
    config: SolverConfig | None = None,
) -> dict:
    """sup_t ||u||_2 against C (||f||_2 + ||F||_{L1 L2}) with C = 4.

    Operative premise: ||div A||_{L1 Linf} < 1/2 (then M^2 <= ||f||^2 + M^2/2
    + 2 G M forces M <= 4(||f|| + G)); ||grad A||_{L1 Linf} is reported
    alongside.  Returns the premise flags, the sup, the bound and pass/fail;
    when the premise fails the check is skipped (pass = None).
    """
    out = {}
    if A is not None:
        div_l1linf = time_lq(grid.times, spatial_norm(grid, A.divergence(), np.inf), 1.0)
        grad_mag = np.sqrt(np.sum(A.jacobian() ** 2, axis=(1, 2)))
        grad_l1linf = time_lq(grid.times, spatial_norm(grid, grad_mag, np.inf), 1.0)
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
    u = solve(grid, f, A, F, config)
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
    out[2:-2] = (-values[4:] + 8 * values[3:-1] - 8 * values[1:-3] + values[:-4]) / (12 * dt)
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
    res = ut - 1j * lap
    if A is not None:
        for i, a_t in enumerate(A.values):
            for j in range(grid.n):
                du = fourier_inverse(grid, 2j * np.pi * grid.xi[j] * spec[i])
                res[i] += a_t[j] * du
    if F is not None:
        for i, t in enumerate(grid.times):
            res[i] -= F(t)
    return res, time_lq(grid.times, slice_l2(grid, res), 1.0)


def lp_reduced_equation_check(
    u: SpaceTimeField,
    A: VectorPotential | None,
    F,
    k: int,
) -> float:
    """L1 L2 of d_t u_k - i Lap u_k + A_{<=k-4}.grad u_k - F_k - E^k.

    E^k comes from the frequency-localized commutator identity, so this
    reduces to the band-k part of the solver residual.
    """
    from .parametrix import error_term

    grid = u.grid
    mask = band_mask(grid, k)
    u_k = SpaceTimeField(grid, fourier_inverse(grid, u.spectrum() * mask))
    ut = _time_derivative_4th(u_k.values, grid.dt)
    lap = fourier_inverse(grid, -4.0 * np.pi**2 * grid.xi_norm**2 * u_k.spectrum())
    res = ut - 1j * lap
    if A is not None:
        # with E^k = P_k(A.grad u) - A_low.grad u_k the band equation reads
        # d_t u_k - i Lap u_k + A_low.grad u_k + E^k = F_k
        e_k = error_term(u, A, k)
        a_low = project_leq(grid, A.values, k - 4)
        grad_uk = np.stack(
            [fourier_inverse(grid, 2j * np.pi * grid.xi[j] * u_k.spectrum()) for j in range(grid.n)],
            axis=1,
        )
        res = res + np.sum(a_low * grad_uk, axis=1) + e_k
    if F is not None:
        for i, t in enumerate(grid.times):
            res[i] -= fourier_inverse(grid, fourier_forward(grid, F(t)) * mask)
    return time_lq(grid.times, slice_l2(grid, res), 1.0)
