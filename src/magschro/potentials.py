"""Vector potentials: presets, dyadic smallness functionals, scaling action.

A potential is sampled as real values of shape (n_t+1, n, N, ..., N).  Presets
carry analytic evaluators so solvers can query half-steps and time derivatives
without finite differences; sampled-only potentials fall back to centered
differences in time (one-sided at the endpoints).

The smallness functionals:

  Y0 = ||grad A||_{L1 Linf} + ||A||_{L2 Linf}
       + (sum_l 2^{2l(1+h)} ||A_l||^2_{L1 L^{n/h}})^{1/2}
  Y1 = sum_k 2^{k(n-1)} ||A_k||_{Linf_t L1_x}
  Y1~ = sum_k 2^{k(n-1)/p0} sup_U ||A_k(t, x+Uz)||_{Linf_t L^{p0}_{zbar} L1_{z1}}
  Y2 = sum_k 2^{k(n-1)/2} sup_U ||A_k(t, x+Uz)||_{Linf_t L2_{zbar} L1_{z1}}
       + sum_k 2^{k(n-5)/2} sup_U ||(|d2 A_k| + |dt A_k|)(t, x+Uz)||_{Linf_t L2 L1}
  Y3 = like Y2 with L1_t outer norms and weights 2^{k(n+3)/2}, 2^{k(n-1)/2}

plus the dominating sum

  sum_k [ 2^{k(n-1)} ||A_k||_{Linf L1} + 2^{k(n-3)} ||dt A_k||_{Linf L1}
        + 2^{k(n+1)} ||A_k||_{L1 L1}  + 2^{k(n-1)} ||dt A_k||_{L1 L1} ].

sup over base points and measurable paths is exact at base 0 by translation
invariance of the full-torus mixed norms (see norms module); sup over
rotations is the max over the sampler's samples (see rotate module).
|d2 A_k| is the Frobenius norm of the full Hessian tensor.

A is real, and so are its transforms: every read of A, dt A and a band goes
through the half-spectrum pair ``grid._real_forward``/``_real_inverse``.  The
band cache holds real arrays of their own, one masked half spectrum of A
inverted per band; no spectrum of A is kept, and dt A keeps its half spectrum.
`y23_report` reads |dt A_k| once per band, but still takes
``hessian_of(A.band(k))`` once per band and rotation: the benchmark's
counters pin those calls on the cached band.

Every functional walks its bands through ``_walk_bands``, which warns once per
call when over 1% of A's spectral mass (``grid._mass_share``) lies outside the
representable band window.  Every warning of this module (``_warn``) points
at the line outside it that called the public function.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
    _half,
    _mass_share,
    _real_forward,
    _real_inverse,
    fourier_inverse,
    spatial_norm,
)
from .lp import CUTOFFS, CutoffPair, band_mask, representable_bands
from .norms import time_lq
from .rotate import RotationSampler, rotate_field

__all__ = [
    "VectorPotential",
    "YNormParams",
    "make_potential",
    "y0_norm",
    "y0_components",
    "y1_norm",
    "y1_tilde_norm",
    "y2_norm",
    "y3_norm",
    "y23_report",
    "corollary_norm",
    "rescale_potential",
]

_REALITY_TOL = 1e-12


@dataclass
class VectorPotential:
    """Real vector-valued space-time field with dyadic band caches."""

    grid: Grid
    values: np.ndarray  # (n_t+1, n, N, ..., N) float
    evaluator: object = None  # callable t -> (n, N, ..., N)
    dt_evaluator: object = None
    divergence_free: bool = False
    band_limit: int | None = None  # all spectral mass in bands <= band_limit
    cutoffs: CutoffPair = CUTOFFS  # accepted only as the lab's one pair
    _bands: dict = field(default_factory=dict, init=False, repr=False)
    _dt_values: np.ndarray | None = field(default=None, init=False, repr=False)
    _dt_spectrum: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.cutoffs != CUTOFFS:
            raise ValueError(f"cutoffs must be the lab's pair {CUTOFFS}, got {self.cutoffs}")
        expected = (self.grid.n_steps + 1, self.grid.n) + self.grid.shape
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("potential samples must be finite")
        if np.iscomplexobj(self.values):
            if np.max(np.abs(self.values.imag)) > _REALITY_TOL * max(
                np.max(np.abs(self.values.real)), 1.0
            ):
                raise ValueError("potential must be real-valued")
            self.values = np.ascontiguousarray(self.values.real)
        if self.divergence_free:
            div = self.divergence()
            if np.max(np.abs(div)) > 1e-10 * max(np.max(np.abs(self.values)), 1e-30):
                raise ValueError("divergence_free flag set but div A is not ~0")

    # -- evaluation -----------------------------------------------------------

    def at(self, t: float) -> np.ndarray:
        if self.evaluator is not None:
            return self.evaluator(t)
        return self._interp_samples(self.values, t)

    def _interp_samples(self, samples: np.ndarray, t: float) -> np.ndarray:
        """4-point Lagrange interpolation on the uniform time grid."""
        times = self.grid.times
        if t <= times[0]:
            base = 0
        elif t >= times[-1]:
            base = len(times) - 4
        else:
            base = min(max(int(np.floor((t - times[0]) / self.grid.dt)) - 1, 0), len(times) - 4)
        if len(times) < 4:
            idx = min(range(len(times)), key=lambda i: abs(times[i] - t))
            return samples[idx]
        ts = times[base : base + 4]
        out = np.zeros_like(samples[0])
        for i in range(4):
            w = 1.0
            for j in range(4):
                if i != j:
                    w *= (t - ts[j]) / (ts[i] - ts[j])
            out = out + w * samples[base + i]
        return out

    # -- derived fields -------------------------------------------------------

    def time_derivative(self) -> np.ndarray:
        """Sampled dt A, analytic when available, else centred differences
        (one-sided second-order ones at the ends)."""
        if self._dt_values is not None:
            return self._dt_values
        if self.dt_evaluator is not None:
            out = np.stack([self.dt_evaluator(t) for t in self.grid.times])
        else:
            v, dt = self.values, self.grid.dt
            out = np.empty_like(v)
            out[1:-1] = (v[2:] - v[:-2]) / (2 * dt)
            # the one-sided stencils as differences: constant samples give exactly 0
            out[0] = (4 * (v[1] - v[0]) - (v[2] - v[0])) / (2 * dt)
            out[-1] = (4 * (v[-1] - v[-2]) - (v[-1] - v[-3])) / (2 * dt)
        self._dt_values = out
        return out

    def band(self, k: int) -> np.ndarray:
        """P_k A, cached per k: one half spectrum of A, masked and inverted."""
        if k not in self._bands:
            g = self.grid
            spec = _real_forward(g, self.values)
            self._bands[k] = _real_inverse(g, spec * _half(g, band_mask(g, k)))
        return self._bands[k]

    def dt_band(self, k: int) -> np.ndarray:
        """P_k dt A: one inverse transform of the dt A half spectrum.

        The half spectrum is cached on the potential like the bands; the bands
        of dt A are not, so each call makes that one transform.
        """
        g = self.grid
        if self._dt_spectrum is None:
            self._dt_spectrum = _real_forward(g, self.time_derivative())
        return _real_inverse(g, self._dt_spectrum * _half(g, band_mask(g, k)))

    def divergence(self) -> np.ndarray:
        g = self.grid
        spec = _real_forward(g, self.values)
        return _real_inverse(g, sum(2j * np.pi * g._half_xi[j] * spec[:, j] for j in range(g.n)))

    def jacobian(self) -> np.ndarray:
        """(n_t+1, n_deriv, n_comp, spatial) array of d_i A_j."""
        g = self.grid
        spec = _real_forward(g, self.values)
        grad = [_real_inverse(g, 2j * np.pi * g._half_xi[i] * spec) for i in range(g.n)]
        return np.stack(grad, axis=1)

    def hessian_of(self, sampled: np.ndarray) -> np.ndarray:
        """(n_t+1, n, n, n_comp, spatial) of d_i d_j applied to a real (t, comp, x) array.

        One real-input transform; only the pairs i <= j are inverted, and each
        is copied to (j, i).  The Riemann weights of the two transforms cancel.
        A pair's multiplier xi_i xi_j is split at the Nyquist frequency: the
        factors of `Grid._half_xi` (Nyquist set to 0) pair with each other and
        the Nyquist parts with each other.  The products of one with the other,
        on the lines where exactly one of xi_i, xi_j sits at the Nyquist
        frequency, are odd under the lattice mirror, and the real part of the
        full complex path drops them the same way; a diagonal pair loses none.
        """
        g = self.grid
        n = g.n
        spec = _real_forward(g, sampled)
        odd = g._half_xi
        nyquist = _half(g, g.xi) - odd  # the Nyquist frequency on its own lines, 0 elsewhere
        c = -4 * np.pi**2
        out = np.empty((sampled.shape[0], n, n, n) + g.shape)
        for i in range(n):
            for j in range(i, n):
                mult = c * odd[i] * odd[j] + c * nyquist[i] * nyquist[j]
                out[:, i, j] = _real_inverse(g, mult * spec)
                out[:, j, i] = out[:, i, j]
        return out

    def band_range(self) -> tuple[int, int]:
        k_min, k_max = representable_bands(self.grid)
        if self.band_limit is not None:
            k_max = min(k_max, self.band_limit)
        return k_min, k_max

    def out_of_range_mass(self) -> float:
        """Relative spectral L2 mass outside the representable band window."""
        g = self.grid
        k_min, k_max = representable_bands(g)
        covered = sum(_half(g, band_mask(g, k)) for k in range(k_min, k_max + 1))
        outside = (1.0 - covered) ** 2
        outside[(0,) * g.n] = 0.0  # the mean mode belongs to the low residual
        return _mass_share(_real_forward(g, self.values), outside, half=True)


@dataclass(frozen=True)
class YNormParams:
    """Exponents and sampling for the smallness functionals.

    h in (0, 1/4); p0 finite with 0 < p0 < (n-1)/2 (below n=4 the theorem
    does not cover Y1~, evaluated as a flagged diagnostic).
    """

    h: float = 0.125
    p0: float | None = None
    sampler: RotationSampler | None = None

    def __post_init__(self):
        if not (0 < self.h < 0.25):
            raise ValueError("h must lie in (0, 1/4)")
        if self.p0 is not None and not (np.isfinite(self.p0) and self.p0 > 0):
            raise ValueError(f"p0 must be finite and > 0, got {self.p0}")

    def resolve_p0(self, n: int) -> float:
        p0 = self.p0 if self.p0 is not None else (n - 1) / 2.0 - 0.25
        if p0 >= (n - 1) / 2.0:
            raise ValueError(f"p0 must be < (n-1)/2 = {(n-1)/2}")
        if n < 4:
            _warn(f"Y1~ evaluated at n={n}: outside the n>=4 regime, diagnostic only")
        return p0

    def resolve_sampler(self, n: int) -> RotationSampler:
        return self.sampler if self.sampler is not None else RotationSampler(n, count=12)


# -- presets -------------------------------------------------------------------


def _envelope(T: float):
    """Smooth 1-periodic-in-T profile, 1 at t=0, 0 at T/2; analytic derivative."""

    def env(t):
        return 0.5 * (1.0 + np.cos(2 * np.pi * t / T))

    def denv(t):
        return -np.pi / T * np.sin(2 * np.pi * t / T)

    return env, denv


def make_potential(
    preset: str,
    eps: float,
    grid: Grid,
    seed: int = 0,
    width: float | None = None,
    center: tuple | None = None,
    k_cap: int | None = None,
    single_band: int | None = None,
    divergence_free: bool = False,
) -> VectorPotential:
    """Construct a test potential; all presets are analytic in time.

    presets: 'gauss_bump', 'traveling_bump' (speed L/(8T) along every axis),
    'divfree_curl', 'low_band'.  eps scales the amplitude (every functional is
    1-homogeneous in it).
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    n = grid.n
    w = width if width is not None else grid.L / 12.0
    if w < 4 * grid.dx:
        raise ValueError(f"preset width {w} unresolvable: need >= 4*dx = {4*grid.dx}")
    c = np.asarray(center if center is not None else (grid.L / 2.0,) * n, dtype=float)
    env, denv = _envelope(grid.T)
    meshes = grid.spatial_meshes()
    # rank1: the static (u, w) of a preset A = eps env(t) u w; u = 1.0 for a
    # static field w, so an evaluation makes one pass over it
    band_limit = rank1 = None

    if preset == "gauss_bump":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        bump = np.exp(-sum((m - ci) ** 2 for m, ci in zip(meshes, c)) / w**2)
        rank1 = (v[(slice(None),) + (None,) * n], bump[None])

    elif preset == "traveling_bump":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 102)))
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        s = np.full(n, grid.L / (8 * grid.T))

        def evaluator(t, _v=v, _s=s):
            r2 = sum((m - ci - si * t) ** 2 for m, ci, si in zip(meshes, c, _s))
            return eps * _v[(slice(None),) + (None,) * n] * np.exp(-r2 / w**2)[None]

        def dt_evaluator(t, _v=v, _s=s):
            r2 = sum((m - ci - si * t) ** 2 for m, ci, si in zip(meshes, c, _s))
            drift = sum(
                2.0 * si * (m - ci - si * t) for m, ci, si in zip(meshes, c, _s)
            )
            return eps * _v[(slice(None),) + (None,) * n] * (np.exp(-r2 / w**2) * drift / w**2)[None]

    elif preset == "divfree_curl":
        if n == 1:
            raise ValueError("curl preset needs n >= 2")
        r2 = sum((m - ci) ** 2 for m, ci in zip(meshes, c))
        psi = np.exp(-r2 / w**2)
        dpsi = [-2.0 * (m - ci) / w**2 * psi for m, ci in zip(meshes, c)]
        if n == 2:
            comps = np.stack([-dpsi[1], dpsi[0]])
        else:
            comps = np.stack([dpsi[1], -dpsi[0], np.zeros_like(psi)])
        rank1 = (1.0, comps)
        divergence_free = True

    elif preset == "low_band":
        if k_cap is None and single_band is None:
            raise ValueError("low_band preset needs k_cap or single_band")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 103)))
        if single_band is not None:
            # strictly inside the plateau of phi(2^-k .): the piece IS the band
            lo, hi = CUTOFFS.plateau(single_band)
            sel = (grid.xi_norm > lo) & (grid.xi_norm < hi)
            band_limit = single_band
        else:
            sel = (grid.xi_norm <= (1.0 + CUTOFFS.glue_width) * 2.0**k_cap) & (grid.xi_norm > 0)
            band_limit = k_cap
        if not np.any(sel):
            raise ValueError("no lattice modes in the requested band window")
        spec = np.zeros((n,) + grid.shape, dtype=complex)
        coeffs = rng.normal(size=(n, int(sel.sum()))) + 1j * rng.normal(size=(n, int(sel.sum())))
        spec[:, sel] = coeffs
        if divergence_free and n >= 2:
            xi = grid.xi
            dot = sum(xi[j] * spec[j] for j in range(n))
            xi2 = np.where(grid.xi_norm > 0, grid.xi_norm**2, 1.0)
            for j in range(n):
                spec[j] -= xi[j] * dot / xi2
        # Hermitian symmetrization for a real field
        half = fourier_inverse(grid, spec)
        static = half.real + half.imag
        static /= max(np.max(np.abs(static)), 1e-30)
        rank1 = (1.0, static)

    else:
        raise ValueError(f"unknown preset '{preset}'")

    if rank1 is not None:
        u_x, w_x = rank1

        def evaluator(t):
            return eps * env(t) * u_x * w_x

        def dt_evaluator(t):
            return eps * denv(t) * u_x * w_x

    values = np.stack([evaluator(t) for t in grid.times])
    return VectorPotential(
        grid,
        values,
        evaluator=evaluator,
        dt_evaluator=dt_evaluator,
        divergence_free=divergence_free,
        band_limit=band_limit,
    )


# -- scalar reductions ---------------------------------------------------------


def _vec_mag(arr: np.ndarray) -> np.ndarray:
    """Modulus over the component axis (axis 1 of (t, comp, x))."""
    return np.sqrt(np.sum(np.abs(arr) ** 2, axis=1))


def _warn(message: str) -> None:
    """warnings.warn blamed on the first frame outside this module, however
    deep in it (functionals, the band walk, a resumed generator) the call sits."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _walk_bands(A: VectorPotential, label: str):
    """Yield (k, P_k A) over A's band range.

    On its first step it warns when over 1% of A's spectral mass lies outside
    the representable band window.
    """
    mass = A.out_of_range_mass()
    if mass > 0.01:
        _warn(f"{label}: {mass:.2%} of spectral mass outside the representable band window")
    k_min, k_max = A.band_range()
    for k in range(k_min, k_max + 1):
        yield k, A.band(k)


# -- Y0, Y1 --------------------------------------------------------------------


def _grad_l1_linf(A: VectorPotential) -> float:
    """||grad A||_{L^1_t L^inf_x}, |grad A| the Frobenius norm of the Jacobian."""
    grad_mag = np.sqrt(np.sum(A.jacobian() ** 2, axis=(1, 2)))
    return time_lq(A.grid.times, spatial_norm(A.grid, grad_mag, np.inf), 1.0)


def y0_components(A: VectorPotential, params: YNormParams | None = None) -> dict:
    params = params or YNormParams()
    grid = A.grid
    grad_term = _grad_l1_linf(A)
    a_term = time_lq(grid.times, spatial_norm(grid, _vec_mag(A.values), np.inf), 2.0)
    p = grid.n / params.h
    per_band = {}
    for k, band in _walk_bands(A, "y0_norm"):
        per_band[k] = time_lq(grid.times, spatial_norm(grid, _vec_mag(band), p), 1.0)
    dyadic_sq = sum(2.0 ** (2 * k * (1 + params.h)) * v**2 for k, v in per_band.items())
    return {
        "grad_l1_linf": grad_term,
        "a_l2_linf": a_term,
        "dyadic_l1_lnh": float(np.sqrt(dyadic_sq)),
        "dyadic_per_band": per_band,
    }


def y0_norm(A: VectorPotential, params: YNormParams | None = None) -> float:
    c = y0_components(A, params)
    return c["grad_l1_linf"] + c["a_l2_linf"] + c["dyadic_l1_lnh"]


def y1_norm(A: VectorPotential) -> float:
    grid = A.grid
    total = 0.0
    for k, band in _walk_bands(A, "y1_norm"):
        total += 2.0 ** (k * (grid.n - 1)) * float(np.max(spatial_norm(grid, _vec_mag(band), 1.0)))
    return total


def y1_tilde_norm(A: VectorPotential, params: YNormParams | None = None) -> float:
    params = params or YNormParams()
    grid = A.grid
    p0 = params.resolve_p0(grid.n)
    sampler = params.resolve_sampler(grid.n)
    total = 0.0
    for k, band in _walk_bands(A, "y1_tilde_norm"):
        best = 0.0
        for U in sampler.samples():
            mag = _vec_mag(rotate_field(grid, band, U))
            best = max(best, float(np.max(spatial_norm(grid, mag, p0, inner=1.0))))
        total += 2.0 ** (k * (grid.n - 1) / p0) * best
    return total


# -- Y2 / Y3 -------------------------------------------------------------------


def _derivative_magnitude(A: VectorPotential, k: int, dt_mag: np.ndarray) -> np.ndarray:
    """|d2 A_k| + |dt A_k| sampled on (t, x), given dt_mag = |dt A_k|.

    |d2 A_k|^2 sums the squares of the pairs i <= j of the symmetric Hessian,
    the off-diagonal pairs counted twice.
    """
    hess = A.hessian_of(A.band(k))  # (t, i, j, comp, x)
    n = A.grid.n
    sq = 0.0
    for i in range(n):
        for j in range(i, n):
            sq = sq + (1.0 if i == j else 2.0) * np.sum(hess[:, i, j] ** 2, axis=1)
    return np.sqrt(sq) + dt_mag


def _rotated_stats(
    A: VectorPotential, k: int, band: np.ndarray, dt_mag: np.ndarray, U: np.ndarray
) -> dict:
    """The four mixed-norm statistics of band k under one rotation."""
    grid = A.grid
    a_series = spatial_norm(grid, _vec_mag(rotate_field(grid, band, U)), 2.0, inner=1.0)
    d_field = _derivative_magnitude(A, k, dt_mag)
    d_series = spatial_norm(grid, rotate_field(grid, d_field, U), 2.0, inner=1.0)
    return {
        "a_linf_t": float(np.max(a_series)),
        "a_l1_t": time_lq(grid.times, a_series, 1.0),
        "d_linf_t": float(np.max(d_series)),
        "d_l1_t": time_lq(grid.times, d_series, 1.0),
    }


def y23_report(A: VectorPotential, params: YNormParams | None = None) -> dict:
    """Per-band rotation-maximized statistics feeding both Y2 and Y3."""
    params = params or YNormParams()
    grid = A.grid
    sampler = params.resolve_sampler(grid.n)
    if grid.dt > 0.25 * grid.T:
        _warn("time grid very coarse for dt A: finite-difference error may exceed 5%")
    report = {}
    for k, band in _walk_bands(A, "y2/y3"):
        dt_mag = _vec_mag(A.dt_band(k))
        stats = [_rotated_stats(A, k, band, dt_mag, U) for U in sampler.samples()]
        report[k] = {key: max(s[key] for s in stats) for key in stats[0]}
    return report


def _y23_sums(report: dict, n: int) -> tuple[float, float]:
    """(Y2, Y3): the two weightings of one `y23_report`."""
    y2 = y3 = 0.0
    for k, s in report.items():
        y2 += 2.0 ** (k * (n - 1) / 2) * s["a_linf_t"] + 2.0 ** (k * (n - 5) / 2) * s["d_linf_t"]
        y3 += 2.0 ** (k * (n + 3) / 2) * s["a_l1_t"] + 2.0 ** (k * (n - 1) / 2) * s["d_l1_t"]
    return y2, y3


def y2_norm(A: VectorPotential, params: YNormParams | None = None) -> float:
    return _y23_sums(y23_report(A, params), A.grid.n)[0]


def y3_norm(A: VectorPotential, params: YNormParams | None = None) -> float:
    return _y23_sums(y23_report(A, params), A.grid.n)[1]


def corollary_norm(A: VectorPotential) -> float:
    """Bernstein-dominating sum controlling Y0 .. Y3 up to a constant."""
    grid = A.grid
    n = grid.n
    total = 0.0
    for k, band in _walk_bands(A, "corollary_norm"):
        a_l1 = spatial_norm(grid, _vec_mag(band), 1.0)
        d_l1 = spatial_norm(grid, _vec_mag(A.dt_band(k)), 1.0)
        total += (
            2.0 ** (k * (n - 1)) * float(np.max(a_l1))
            + 2.0 ** (k * (n - 3)) * float(np.max(d_l1))
            + 2.0 ** (k * (n + 1)) * time_lq(grid.times, a_l1, 1.0)
            + 2.0 ** (k * (n - 1)) * time_lq(grid.times, d_l1, 1.0)
        )
    return total


# -- scaling action -------------------------------------------------------------


def _check_pow2(lam: float) -> None:
    l2 = np.log2(lam)
    if abs(l2 - round(l2)) > 1e-12:
        raise ValueError("scaling factor must be a power of two for lattice compatibility")


def rescale_potential(A: VectorPotential, lam: float) -> VectorPotential:
    """A -> lam A(lam^2 t, lam x) on the compatible grid (L/lam, dt/lam^2, T/lam^2).

    Exact on the lattice: rescaled sample (i, j) equals lam * original (i, j).
    """
    _check_pow2(lam)
    g = A.grid
    new_grid = Grid(g.n, g.N, g.L / lam, g.dt / lam**2, g.T / lam**2)
    ev = None
    dtev = None
    if A.evaluator is not None:
        ev = lambda t, _e=A.evaluator: lam * _e(lam**2 * t)
    if A.dt_evaluator is not None:
        dtev = lambda t, _e=A.dt_evaluator: lam**3 * _e(lam**2 * t)
    new_limit = None
    if A.band_limit is not None:
        new_limit = A.band_limit + int(round(np.log2(lam)))
    return VectorPotential(
        new_grid,
        lam * A.values,
        evaluator=ev,
        dt_evaluator=dtev,
        divergence_free=A.divergence_free,
        band_limit=new_limit,
    )
