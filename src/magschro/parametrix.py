"""Oscillatory-integral approximate propagator for low-band potentials.

The approximate solution for annulus data fhat (carried by a smooth annulus
cutoff Omega at scale 2^{k_f}) is

    v(t,x) = sum_xi  e^{i sigma(t,x,xi)} e^{-4 pi^2 i t |xi|^2} e^{2 pi i xi.x}
             Omega(xi) fhat(xi) / L^n,

with the phase correction built from ray integrals of the potential's dyadic
bands along the frequency direction theta = xi/|xi|:

    S(t,x,theta)   = sum_k int_0^inf A_k(t, x+z theta).theta  chi(2^{2k} z) dz
    sigma0         = S / 2
    sigma1(t,x,xi) = 2 pi i |xi| * T,
    T(t,x,theta)   = sum_k int_0^inf  At_k(t, x+z theta).theta chi'(2^{2k} z) dz,

At_k = 2^{2k} Lap^{-1} A_k.  The halving of the displayed ray integral makes
the first-order terms cancel in L(e^{i sigma} ...): the Leibniz expansion
carries 4 pi i <grad sigma, xi>, so the cancellation requires
<grad S, xi> + A.xi = -sum_k 2^{2k} int A_k.xi chi' dz together with
Lap T = +sum 2^{2k} int A_k.theta chi' dz; the displayed identity
Lap sigma1 + 2 pi i (<grad S, xi> + A.xi) = 0 holds for the unhalved field S
and is what phase_identity_residual checks.

Ray integrals are evaluated over the full chi support with torus wrapping via
exact 1-D kernels W(s) = int_0^inf chi(2^{2k} z) e^{2 pi i s z} dz per lattice
frequency projection s = eta.theta (Gauss-Legendre on the chi' support plus
the exact integration-by-parts relations), so the phase identity holds to
round-off.  A composite-trapezoid ray quadrature along wrapped rays is kept
as an independent cross-check (`ray_integral_trapezoid`).

Every ray field is one entry of the table `RAY_FIELDS`, a triple (band
coefficient, chi kernel, Fourier multiplier) summed over the bands by
`PhaseField.ray`: S and T themselves, their time derivatives, Laplacians,
gradients and derivatives along theta, and the chi'' form of <grad T, theta>.
Fields are assembled on demand, for any subset of the directions, and never
cached.

The operator's sums over the M data modes run through one kernel, chunked
over modes, which assembles each chunk's ray fields for that chunk's
directions only.  Under the smallness hypothesis the phase is small, and for
a potential rank-1 in time it is env(t) times a static phase sigma, so
e^{i env(t) sigma} is a short power series in env(t) - c about the centre c
of each group of slices with nearby envelope values (`_envelope_groups`).
Each order is one matrix product over the modes for all of the group's
slices, with one exponential e^{i c sigma} per group and chunk; a potential
that is not rank-1 gives one slice per group and the series stops at order 0
(see `ParametrixOperator`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid, SpaceTimeField, fourier_forward, fourier_inverse, l2_norm, slice_l2
from .lp import CUTOFFS, band_mask, project_leq, representable_bands, spectral_gradient
from .norms import time_lq
from .potentials import VectorPotential

__all__ = [
    "AnnulusCutoff",
    "PhaseField",
    "build_sigma",
    "phase_identity_residual",
    "gradient_identity_check",
    "ParametrixOperator",
    "parametrix_residual",
    "error_term",
    "error_term_groups",
    "error_term_besov_ratio",
    "ray_integral_trapezoid",
]

SIGMA0_FACTOR = 0.5  # cancellation-correct weight of the displayed ray integral
_CHUNK_BYTES = 2 * 2**20  # one (mode chunk, P) complex temporary of the direct sum
_TAYLOR_TAIL = 1e-16  # bound on the dropped tail of each phase series in the direct sum


# -- annulus cutoff -------------------------------------------------------------


@dataclass(frozen=True)
class AnnulusCutoff:
    """Smooth radial bump: 1 on [3/4, 3/2]*2^{k_f}, 0 outside [1/2, 2]*2^{k_f}."""

    k_f: int

    def profile(self, r) -> np.ndarray:
        s = 2.0**self.k_f
        return CUTOFFS.plateau_bump(np.asarray(r, float), 0.5 * s, 0.75 * s, 1.5 * s, 2.0 * s)


# -- 1-D chi kernels ------------------------------------------------------------


def _chi_prime(u: np.ndarray) -> np.ndarray:
    """chi' of the lab's cutoff pair, supported on [1 + d, 2 - d] (d the glue width)."""
    d = CUTOFFS.glue_width
    x = (u - 1.0 - d) / (1.0 - 2.0 * d)
    g = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
    gb = np.where(1 - x > 0, np.exp(-1.0 / np.maximum(1 - x, 1e-300)), 0.0)
    dg = np.where(x > 0, g / np.maximum(x, 1e-300) ** 2, 0.0)
    dgb = np.where(1 - x > 0, gb / np.maximum(1 - x, 1e-300) ** 2, 0.0)
    denom = (g + gb) ** 2
    step_prime = np.where(denom > 0, (dg * gb + g * dgb) / np.maximum(denom, 1e-300), 0.0)
    return -step_prime / (1.0 - 2.0 * d)


class _ChiKernels:
    """V0(s) = int chi'(u) e^{2 pi i s u} du by Gauss-Legendre, plus the exact
    integration-by-parts partners

        W0(s) = -(1 + V0(s)) / (2 pi i s),   W0(0) = int chi du
        Q0(s) = -2 pi i s V0(s)              (chi'' kernel; chi'(0)=chi'(2)=0)
    """

    def __init__(self, sigma_max: float):
        d = CUTOFFS.glue_width
        a, b = 1.0 + d, 2.0 - d
        n_nodes = max(96, int(np.ceil(10.0 * max(sigma_max, 1.0) * (b - a))))
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        self.nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
        self.weights = 0.5 * (b - a) * w
        self.dchi = _chi_prime(self.nodes)
        # int_0^2 chi du for the s = 0 limit of W0
        x2, w2 = np.polynomial.legendre.leggauss(256)
        u2 = x2 + 1.0
        self.chi_area = float(np.sum(w2 * CUTOFFS.chi(u2)))

    def __call__(self, s: np.ndarray) -> dict[str, np.ndarray]:
        """{"chi": W0(s), "chi_prime": V0(s), "chi_dprime": Q0(s)} from one V0 sum."""
        s = np.asarray(s, dtype=float)
        v = np.exp(2j * np.pi * np.multiply.outer(s, self.nodes)) @ (self.weights * self.dchi)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -(1.0 + v) / (2j * np.pi * s)
        w = np.where(np.abs(s) < 1e-9, self.chi_area, w)
        return {"chi": w, "chi_prime": v, "chi_dprime": -2j * np.pi * s * v}


# -- phase field -----------------------------------------------------------------


def _primitive_directions(int_modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce integer modes to primitive direction keys; returns (dirs, index map)."""
    gcds = np.gcd.reduce(np.abs(int_modes), axis=1)
    gcds = np.where(gcds == 0, 1, gcds)
    prim = int_modes // gcds[:, None]
    keys, inverse = np.unique(prim, axis=0, return_inverse=True)
    dirs = keys / np.linalg.norm(keys, axis=1, keepdims=True)
    return dirs, inverse


@dataclass
class _BandData:
    k: int
    eta: np.ndarray  # (m, n) frequencies
    plane: np.ndarray  # (m, P) mode waves e^{2 pi i eta.x}
    coef: dict  # "a", "dt", "tilde", "tilde_dt" -> (n_t, n_comp, m) band spectra, mask included
    kernel: dict | None = None  # "chi", "chi_prime", "chi_dprime" -> (D, m) kernels at eta.theta


def _with_kernels(bands: list[_BandData], directions: np.ndarray) -> list[_BandData]:
    """The bands with their 2^{-2k} W0/V0/Q0(2^{-2k} eta.theta) kernels for
    ``directions``; the quadrature resolves the largest 2^{-2k} |eta.theta|."""
    proj = [directions @ b.eta.T for b in bands]  # (D, m) per band
    sigma_max = max([1.0] + [4.0**-b.k * float(np.max(np.abs(s))) for b, s in zip(bands, proj)])
    kernels = _ChiKernels(sigma_max)
    return [
        replace(b, kernel={key: 4.0**-b.k * val for key, val in kernels(4.0**-b.k * s).items()})
        for b, s in zip(bands, proj)
    ]


def _lap(directions, b):
    return -4.0 * np.pi**2 * np.sum(b.eta**2, axis=1)[None, :]


def _along(directions, b):
    return 2j * np.pi * np.einsum("dj,mj->dm", directions, b.eta)


def _grad(directions, b):
    return 2j * np.pi * b.eta.T[:, None, :]  # (n, 1, m): one row per component


def _weighted(directions, b):
    return np.full((1, len(b.eta)), 4.0**b.k)


# name -> (band coefficient, chi kernel, multiplier of the kernel or None); the
# field is sum_k (theta . coef_k[t]) kernel_k multiplier_k @ plane_k, a Fourier
# sum over each band's modes eta.  Gradient fields stack their n components.
RAY_FIELDS = {
    "S": ("a", "chi", None),
    "T": ("tilde", "chi_prime", None),
    "dt_S": ("dt", "chi", None),
    "dt_T": ("tilde_dt", "chi_prime", None),
    "lap_S": ("a", "chi", _lap),
    "lap_T": ("tilde", "chi_prime", _lap),
    "theta_grad_S": ("a", "chi", _along),
    "theta_grad_T": ("tilde", "chi_prime", _along),
    "grad_S": ("a", "chi", _grad),
    "grad_T": ("tilde", "chi_prime", _grad),
    "T_dprime": ("tilde", "chi_dprime", _weighted),
}


class PhaseField:
    """Per-direction ray fields of the phase correction, sampled in time.

    ``ray(name, t_idx)`` evaluates one entry of `RAY_FIELDS` as a (D,) + shape
    array, (n, D) + shape for ``grad_S`` and ``grad_T``.  The band
    coefficients are A_k ("a"), dt A_k ("dt"), At_k = 2^{2k} Lap^{-1} A_k
    ("tilde") and dt At_k ("tilde_dt"); the kernels are the chi, chi' and
    chi'' ray kernels; the multipliers are the Fourier symbols of Lap,
    theta . grad and grad, or the weight 2^{2k}:

        S, T            the displayed ray integral and the chi' ray of At_k
        dt_S, dt_T      their time derivatives
        lap_S, lap_T    their Laplacians
        theta_grad_S/T  their derivatives along theta
        grad_S, grad_T  their gradients
        T_dprime        sum_k 2^{2k} chi''-ray of At_k.theta

    The constructor builds the bands' kernels for ``directions``, so
    `sigma_at` and the identity checks reuse the band data on their own
    directions through a new PhaseField.

    Invariants: S and T are real; sigma0 depends on xi only through the
    direction; sigma1 is 1-homogeneous in |xi| and purely imaginary.

    When the potential's band spectrum is a rank-1 function of time
    (coef[t] = env[t] * coef_ref, the case for all analytic presets) every ray
    field separates as env(t) * static field (see `time_groups`).  Nothing is
    cached: every call assembles its field from the band data, and the
    ``d_idx`` argument of `ray` restricts that work to a subset of the
    directions, which is how the operator walks its mode chunks.
    """

    def __init__(self, grid, k_f, directions, bands):
        self.grid = grid
        self.k_f = k_f
        self.directions = directions
        self.bands = _with_kernels(bands, directions)
        self.n_points = int(np.prod(grid.shape))
        self._env, self._denv, self._t_ref = _detect_envelope(self.bands)

    def _assemble(self, name: str, t_idx: int, d_idx) -> np.ndarray:
        coef, kernel, mult = RAY_FIELDS[name]
        directions = self.directions[d_idx]
        lead = (self.grid.n,) if mult is _grad else ()
        out = np.zeros(lead + (len(directions), self.n_points), dtype=complex)
        for b in self.bands:
            theta_dot = np.einsum("dj,jm->dm", directions, b.coef[coef][t_idx])
            kern = b.kernel[kernel][d_idx]
            if mult is not None:
                kern = kern * mult(directions, b)
            out += (theta_dot * kern) @ b.plane
        flat = out.reshape(lead + (-1,))  # one row per field component
        imag = np.max(np.abs(flat.imag), axis=-1)
        real = np.max(np.abs(flat.real), axis=-1)
        if np.any(imag > 1e-10 * np.maximum(real, 1e-30)):
            raise AssertionError(f"ray field {name} lost reality: imag {np.max(imag):.2e}")
        return out.real.reshape(out.shape[:-1] + self.grid.shape)

    def ray(self, name: str, t_idx: int | None, d_idx=slice(None)) -> np.ndarray:
        """The ray field ``name`` of `RAY_FIELDS` at slice t_idx for the
        directions d_idx (an index into ``directions``, all by default); t_idx
        None gives the static factor of a rank-1 field (see `time_groups`)."""
        if self._env is None:
            return self._assemble(name, t_idx, d_idx)
        env = self._denv if RAY_FIELDS[name][0].endswith("dt") else self._env
        ref = self._t_ref
        if abs(env[ref]) < 1e-300:
            ref = int(np.argmax(np.abs(env)))
        static = self._assemble(name, ref, d_idx) / env[ref]
        return static if t_idx is None else env[t_idx] * static

    def envelope(self) -> tuple[np.ndarray, np.ndarray]:
        """(env, denv) per slice, the scalars of `time_groups`; ones when the
        potential is not rank-1 in time."""
        if self._env is None:
            one = np.ones(self.grid.n_steps + 1)
            return one, one
        return self._env, self._denv

    def time_groups(self) -> list[tuple[np.ndarray, int | None]]:
        """(slices, t_field) groups: at slice t of slices every ray field is
        env[t] (denv[t] for dt fields, see `envelope`) times the field read at
        t_field.  One group, t_field None, when rank-1 or without bands (a zero
        phase); else one per slice."""
        if self._env is None and self.bands:
            return [(np.array([i]), i) for i in range(self.grid.n_steps + 1)]
        return [(np.arange(self.grid.n_steps + 1), None)]

    def sigma_at(self, t_idx: int, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sigma0, sigma1) fields for one frequency vector (appends a direction)."""
        xi = np.asarray(xi, dtype=float)
        r = float(np.linalg.norm(xi))
        theta = xi / r
        sub = PhaseField(self.grid, self.k_f, theta[None], self.bands)
        s0 = SIGMA0_FACTOR * sub.ray("S", t_idx)[0]
        s1 = 2j * np.pi * r * sub.ray("T", t_idx)[0]
        return s0, s1

    def max_sigma(self, t_indices=None) -> float:
        """Monitored sup of |sigma0| + |sigma1| at |xi| = 2^{k_f}."""
        idx = t_indices if t_indices is not None else range(0, self.grid.n_steps + 1,
                                                            max(self.grid.n_steps // 4, 1))
        r = 2.0**self.k_f
        worst = 0.0
        for i in idx:
            s0 = SIGMA0_FACTOR * self.ray("S", i)
            s1 = 2.0 * np.pi * r * self.ray("T", i)
            worst = max(worst, float(np.max(np.abs(s0) + np.abs(s1))))
        return worst


def _detect_envelope(bands) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """Rank-1-in-time detection: coef[t] = env[t] * coef[t_ref] across bands."""
    if not bands:
        return None, None, 0
    nt = bands[0].coef["a"].shape[0]
    flat = np.concatenate([b.coef["a"].reshape(nt, -1) for b in bands], axis=1)
    flat_dt = np.concatenate([b.coef["dt"].reshape(nt, -1) for b in bands], axis=1)
    norms = np.linalg.norm(flat, axis=1)
    t_ref = int(np.argmax(norms))
    ref = flat[t_ref]
    denom = float(np.vdot(ref, ref).real)
    if denom == 0.0:
        return None, None, 0
    env = (flat @ ref.conj()).real / denom
    resid = flat - env[:, None] * ref[None]
    if np.max(np.abs(resid)) > 1e-12 * max(float(np.max(np.abs(flat))), 1e-300):
        return None, None, 0
    denv = (flat_dt @ ref.conj()).real / denom
    resid_dt = flat_dt - denv[:, None] * ref[None]
    if np.max(np.abs(resid_dt)) > 1e-12 * max(float(np.max(np.abs(flat_dt))), 1e-300):
        return None, None, 0
    return env, denv, t_ref


def build_sigma(
    A: VectorPotential,
    k_f: int,
    directions: np.ndarray | None = None,
) -> PhaseField:
    """Assemble the phase data for a potential band-limited to k <= k_f - 4.

    ``directions`` is a (D, n) array of unit vectors; every later query must
    stay inside this set (ParametrixOperator passes the primitive directions
    of the data's annulus modes).  Warns when a band's ray support 2^{1-2k}
    exceeds L/2: the integral then wraps around the torus (the phase identity
    is unaffected; sizes acquire a wrap factor, recorded here).
    """
    grid = A.grid
    if directions is None:
        raise ValueError("build_sigma needs an explicit direction set")
    directions = np.asarray(directions, dtype=float)
    norms = np.linalg.norm(directions, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        raise ValueError("directions must be unit vectors")

    spec = fourier_forward(grid, A.values)
    hi_mask = 1.0 - CUTOFFS.chi(grid.xi_norm * 2.0 ** -(k_f - 4))
    hi_mass = np.sum(np.abs(spec) ** 2 * hi_mask**2)
    total = np.sum(np.abs(spec) ** 2)
    if total > 0 and hi_mass > 1e-10 * total:
        raise ValueError(
            f"potential carries {hi_mass/total:.2e} of spectral mass above band {k_f - 4}"
        )

    k_min, _ = representable_bands(grid)
    k_top = k_f - 4
    spec_dt = fourier_forward(grid, A.time_derivative())
    X = np.stack([m.ravel() for m in grid.spatial_meshes()])  # (n, P)

    bands = []
    for k in range(k_min - 1, k_top + 1):
        mask = band_mask(grid, k)
        sel = mask > 1e-14
        if not np.any(sel):
            continue
        coef = spec[..., sel] * mask[sel]  # (n_t, n, m)
        if np.max(np.abs(coef)) == 0.0:
            continue
        eta = np.stack([grid.xi[j][sel] for j in range(grid.n)], axis=1)  # (m, n)
        plane = np.exp(2j * np.pi * (eta @ X)) / grid.L**grid.n  # (m, P)
        coef_dt = spec_dt[..., sel] * mask[sel]
        inv_lap = -(4.0**k) / (4.0 * np.pi**2 * np.sum(eta**2, axis=1))  # 2^{2k} Lap^{-1}
        z_support = 2.0 ** (1 - 2 * k)
        if z_support > grid.L / 2.0:
            warnings.warn(
                f"band {k}: ray support {z_support:.3g} exceeds L/2={grid.L/2:.3g}; "
                f"wrap depth {z_support/(grid.L/2):.1f} recorded",
                stacklevel=2,
            )
        coefs = {"a": coef, "dt": coef_dt, "tilde": coef * inv_lap, "tilde_dt": coef_dt * inv_lap}
        bands.append(_BandData(k, eta, plane, coefs))
    return PhaseField(grid, k_f, directions, bands)


def annulus_data(
    grid: Grid,
    k_f: int,
    seed: int = 0,
    rel_width: tuple[float, float] = (0.80, 1.42),
) -> np.ndarray:
    """Unit-L2 data whose spectrum sits strictly inside the annulus plateau.

    Smooth radial profile times seeded random mode phases; the support
    [rel_width] * 2^{k_f} stays inside [3/4, 3/2] * 2^{k_f} where the annulus
    cutoff is identically 1.
    """
    lo, hi = rel_width[0] * 2.0**k_f, rel_width[1] * 2.0**k_f
    if not (0.75 * 2.0**k_f <= lo < hi <= 1.5 * 2.0**k_f):
        raise ValueError("data ring must sit inside the cutoff plateau")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    r = grid.xi_norm
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    profile = np.where(
        (r > lo) & (r < hi), np.exp(-1.0 / np.maximum(1.0 - ((r - mid) / half) ** 2, 1e-300)), 0.0
    )
    phases = np.exp(2j * np.pi * rng.random(size=grid.shape))
    f = fourier_inverse(grid, profile * phases)
    return f / l2_norm(grid, f)


# -- identity checks --------------------------------------------------------------


def phase_identity_residual(
    phase: PhaseField,
    A: VectorPotential,
    xi_samples: np.ndarray,
    t_indices=(0,),
) -> float:
    """max over (t, x, xi) of |Lap sigma1 + 2 pi i (<grad S, xi> + A.xi)|,
    normalized by max(1, the |A.xi| scale).

    S is the displayed (unhalved) ray integral, for which the cancellation
    identity is exact; the residual measures construction consistency only.
    """
    xi_samples = np.atleast_2d(np.asarray(xi_samples, dtype=float))
    radii = np.linalg.norm(xi_samples, axis=1)
    dirs = xi_samples / radii[:, None]
    sub = PhaseField(phase.grid, phase.k_f, dirs, phase.bands)
    worst = 0.0
    scale = 1.0
    for i in t_indices:
        lapT = sub.ray("lap_T", i)
        gradS_theta = sub.ray("theta_grad_S", i)
        a_t = A.values[i]
        a_theta = np.einsum("dj,j...->d...", dirs, a_t)
        # residual_d = 2 pi |xi| * (lap T + grad S . theta + A . theta)
        res = lapT + gradS_theta + a_theta
        for d, r in enumerate(radii):
            worst = max(worst, 2.0 * np.pi * r * float(np.max(np.abs(res[d]))))
            scale = max(scale, 2.0 * np.pi * r * float(np.max(np.abs(a_theta[d]))))
    return worst / scale


def gradient_identity_check(phase: PhaseField, xi_samples: np.ndarray, t_idx: int = 0) -> float:
    """Relative agreement of <grad sigma1, xi> with its chi'' ray-integral form."""
    xi_samples = np.atleast_2d(np.asarray(xi_samples, dtype=float))
    radii = np.linalg.norm(xi_samples, axis=1)
    dirs = xi_samples / radii[:, None]
    sub = PhaseField(phase.grid, phase.k_f, dirs, phase.bands)
    lhs = sub.ray("theta_grad_T", t_idx)
    rhs = -sub.ray("T_dprime", t_idx)
    scale = max(float(np.max(np.abs(rhs))), 1e-30)
    return float(np.max(np.abs(lhs - rhs))) / scale


# -- the operator ------------------------------------------------------------------


def _taylor_order(x: float) -> int:
    """Least K whose tail bound x^{K+1}/(K+1)! e^x for the exponential series
    at |z| <= x is below `_TAYLOR_TAIL`."""
    order, tail = 0, x
    while tail * math.exp(x) > _TAYLOR_TAIL:
        order += 1
        tail *= x / (order + 1)
    return order


def _envelope_groups(env: np.ndarray, sigma_sup: float) -> list[tuple[np.ndarray, float, int]]:
    """Split the slices into (rows, c, K) groups of nearby envelope values: the
    rows with |env - c| sigma_sup <= 1, and the order K at which the series of
    e^{i (env - c) sigma} meets `_TAYLOR_TAIL` there."""
    order = np.argsort(env, kind="stable")
    ends = env[order]
    width = 2.0 / sigma_sup if sigma_sup > 0 else np.inf
    groups = []
    lo = 0
    while lo < len(order):
        hi = int(np.searchsorted(ends, ends[lo] + width, side="right"))
        c = 0.5 * (ends[lo] + ends[hi - 1])
        x = float(np.max(np.abs(ends[lo:hi] - c))) * sigma_sup
        groups.append((np.sort(order[lo:hi]), c, _taylor_order(x)))
        lo = hi
    return groups


class ParametrixOperator:
    """Direct-summation application of the phase-corrected oscillatory integral.

    ``apply``, ``residual_analytic`` and ``taylor_study`` are thin callers of
    one kernel, `_mode_sum`.  It walks the data modes in chunks sized so that
    one (chunk, P) complex temporary takes `_CHUNK_BYTES`, and assembles each
    chunk's plane waves and ray fields (for the chunk's own directions only)
    as it goes.  For a potential rank-1 in time (see
    `PhaseField.time_groups`) the phase is sigma(t) = env(t) sigma with sigma
    static, so e^{i env(t) sigma} is a short power series in env(t) - c about
    the centre c of a group of slices with nearby envelope values: every
    order is one matrix product AMP @ (Z sigma^a plane), AMP the (slices,
    chunk) amplitude matrix, with a single exponential Z = e^{i c sigma} per
    group and chunk.  A potential that is not rank-1 gives one slice per
    group, where the series stops at order 0.  The residual moves A(t, x)
    outside the mode sum, so all of its integrand factors are static too.
    """

    def __init__(
        self,
        grid: Grid,
        f: np.ndarray,
        A: VectorPotential,
        omega: AnnulusCutoff,
        product_budget: float = 5e9,
    ):
        if A.grid != grid:
            raise ValueError(f"potential grid {A.grid} differs from the operator grid {grid}")
        if not np.all(np.isfinite(f)):
            raise ValueError("data must be finite")
        self.grid = grid
        fhat = fourier_forward(grid, f)
        mags = np.abs(fhat)
        sel = mags > 1e-13 * max(float(mags.max()), 1e-300)
        om = omega.profile(grid.xi_norm[sel])
        if np.min(om) < 1.0 - 1e-12:
            raise ValueError("data spectrum must sit where the annulus cutoff is identically 1")
        self.xi = np.stack([grid.xi[j][sel] for j in range(grid.n)], axis=1)  # (M, n)
        self.radii = np.linalg.norm(self.xi, axis=1)
        self.coef = fhat[sel] * om / grid.L**grid.n  # (M,)
        int_modes = np.stack([grid.modes[j][sel] for j in range(grid.n)], axis=1)
        dirs, self.dir_of_mode = _primitive_directions(int_modes)
        n_products = (grid.n_steps + 1) * len(self.xi) * np.prod(grid.shape)
        if n_products > product_budget:
            raise ValueError(
                f"direct summation budget exceeded: {n_products:.2e} > {product_budget:.2e}"
            )
        self.phase = build_sigma(A, omega.k_f, dirs)
        self.A = A

    def _plane(self, sel: slice) -> np.ndarray:
        """(chunk, P) waves e^{2 pi i xi.x} of the modes sel, a product of 1-D factors."""
        out = np.ones((len(self.xi[sel]), 1))
        for j in range(self.grid.n):
            wave = np.exp(2j * np.pi * np.multiply.outer(self.xi[sel, j], self.grid.x1d))
            out = (out[:, :, None] * wave[:, None, :]).reshape(len(wave), -1)
        return out

    def _mode_sum(self, integrand=None, n_out: int = 1, orders: int | None = None) -> np.ndarray:
        """out[k, t] = sum_m amp_m(t) F_km(x) e^{i env(t) sigma_m(x)} e^{2 pi i xi_m.x},
        amp_m(t) = coef_m e^{-4 pi^2 i t |xi_m|^2}, as (n_out, n_t, P).

        sigma = sigma0 + sigma1 is the static phase of each time group (see
        `PhaseField.time_groups`).  integrand(ray, r) returns the n_out static
        factors F_k as a list of (chunk, P) arrays, None meaning F = 1:
        ray(name) gathers a `RAY_FIELDS` entry onto the chunk's modes
        ((chunk, P) or (n, chunk, P)) and r is the chunk's |xi| as a column.

        Per chunk, the group's slices split into `_envelope_groups` of centre
        c, and each adds sum_{a<=K} ((i (env - c))^a / a!) amp @ (F e^{i c
        sigma} sigma^a), its series tail below `_TAYLOR_TAIL`.  With ``orders``
        (F = 1) every slice takes c = 0 and K = orders, and out[a] is the
        order-a term alone.
        """
        grid = self.grid
        n_t, P = grid.n_steps + 1, int(np.prod(grid.shape))
        out = np.zeros((n_t, n_out, P), dtype=complex)  # one contiguous row per slice
        amp = self.coef * np.exp(-4j * np.pi**2 * np.multiply.outer(grid.times, self.radii**2))
        env = self.phase.envelope()[0]
        chunk = max(1, _CHUNK_BYTES // (16 * P))
        for lo in range(0, len(self.xi), chunk):
            sel = slice(lo, lo + chunk)
            used, dmap = np.unique(self.dir_of_mode[sel], return_inverse=True)
            plane = self._plane(sel)
            r = self.radii[sel, None]
            for slices, t_field in self.phase.time_groups():

                def ray(name, t_field=t_field):
                    values = self.phase.ray(name, t_field, used)
                    return values.reshape(values.shape[: -grid.n] + (P,))[..., dmap, :]

                sigma = SIGMA0_FACTOR * ray("S") + 2j * np.pi * r * ray("T")
                F = plane[:, None, :]  # (chunk, factors, P)
                if integrand is not None:
                    F = np.stack(integrand(ray, r), axis=1) * F
                if orders is None:
                    groups = _envelope_groups(env[slices], float(np.max(np.abs(sigma))))
                else:
                    groups = [(np.arange(len(slices)), 0.0, orders)]
                for rows, c, K in groups:
                    t = slices[rows]  # ascending, so a run of slices is a view of out
                    dest = slice(t[0], t[-1] + 1) if t[-1] - t[0] == len(t) - 1 else t
                    Z = F * np.exp(1j * c * sigma)[:, None, :] if c else F.copy()  # e^0 = 1
                    shift = 1j * (env[t] - c)
                    for a in range(K + 1):
                        w = (shift**a / math.factorial(a))[:, None] * amp[t, sel]
                        k = slice(a, a + 1) if orders is not None else slice(None)
                        out[dest, k] += (w @ Z.reshape(len(Z), -1)).reshape(len(t), -1, P)
                        if a < K:
                            Z *= sigma[:, None, :]
        return np.moveaxis(out, 1, 0)

    def apply(self) -> SpaceTimeField:
        """v = Lambda f sampled on the grid's time grid."""
        out = self._mode_sum()[0]
        return SpaceTimeField(self.grid, out.reshape((-1,) + self.grid.shape))

    def taylor_study(self, max_order: int) -> tuple[dict[int, SpaceTimeField], dict[int, float]]:
        """All truncations sum_{a<=order} (i sigma)^a / a! inside the integral for
        orders 0..max_order, and the L^inf_t L^2_x norm of each order's term."""
        grid = self.grid
        terms = self._mode_sum(n_out=max_order + 1, orders=max_order)
        terms = terms.reshape((max_order + 1, -1) + grid.shape)
        sums = np.cumsum(terms, axis=0)
        fields = {a: SpaceTimeField(grid, sums[a]) for a in range(max_order + 1)}
        term_sup = {a: float(np.max(slice_l2(grid, terms[a]))) for a in range(max_order + 1)}
        return fields, term_sup

    def residual_analytic(self) -> SpaceTimeField:
        """L(Lambda f) via the cancelled integrand

        i dt sigma + Lap sigma0 + 4 pi i <grad sigma1, xi>
        + i [ (grad sigma)^2 + A . grad sigma ].

        With g_j = d_j sigma at env = 1, the slice integrand is
        denv (i dt sigma) + env (Lap sigma0 + 4 pi i <grad sigma1, xi>)
        + i env^2 sum_j g_j^2 + i env sum_j A_j(t, x) g_j; A_j(t, x) does not
        depend on the mode, so it multiplies the mode sum of g_j.
        """
        grid = self.grid
        n = grid.n

        def integrand(ray, r):
            dt_term = 1j * (SIGMA0_FACTOR * ray("dt_S") + 2j * np.pi * r * ray("dt_T"))
            lap_term = SIGMA0_FACTOR * ray("lap_S") + 4j * np.pi * (
                2j * np.pi * r**2 * ray("theta_grad_T")
            )
            g = SIGMA0_FACTOR * ray("grad_S") + 2j * np.pi * r * ray("grad_T")  # (n, chunk, P)
            return [dt_term, lap_term, 1j * np.sum(g * g, axis=0), *g]

        sums = self._mode_sum(integrand, 3 + n)
        env, denv = (e[:, None] for e in self.phase.envelope())
        a = np.moveaxis(self.A.values.reshape(len(env), n, -1), 1, 0)  # (n, n_t, P)
        out = (
            denv * sums[0] + env * sums[1] + env**2 * sums[2]
            + 1j * env * np.sum(a * sums[3:], axis=0)
        )
        return SpaceTimeField(grid, out.reshape((-1,) + grid.shape))


def parametrix_residual(
    op: ParametrixOperator,
    v: SpaceTimeField,
    dual_tol: float = 1e-3,
) -> dict:
    """Both residual evaluations and their agreement.

    (a) numeric: discrete derivatives of v;  (b) the analytic integrand.
    Aborts (ValueError) when the two paths disagree beyond ``dual_tol``.
    """
    from .solver import equation_residual

    grid = op.grid
    res_numeric, l1l2_numeric = equation_residual(v, op.A, None)
    res_analytic = op.residual_analytic()
    l1l2_analytic = time_lq(grid.times, res_analytic.slice_l2(), 1.0)
    diff_l2 = slice_l2(grid, res_numeric - res_analytic.values)
    rel = time_lq(grid.times, diff_l2, 1.0) / max(l1l2_analytic, 1e-300)
    if rel > dual_tol:
        raise ValueError(
            f"numeric and analytic residuals disagree: relative L1L2 gap {rel:.3e} "
            f"(numeric {l1l2_numeric:.3e}, analytic {l1l2_analytic:.3e})"
        )
    return {
        "l1l2_numeric": l1l2_numeric,
        "l1l2_analytic": l1l2_analytic,
        "dual_gap": rel,
        "analytic_field": res_analytic,
    }


# -- frequency-localized error terms ----------------------------------------------


def error_term(
    u: SpaceTimeField,
    A: VectorPotential,
    k: int,
) -> np.ndarray:
    """E^k = P_k(A . grad u) - A_{<=k-4} . grad u_k (exact identity)."""
    grid = u.grid
    grad_u = np.moveaxis(spectral_gradient(grid, u.values), 0, 1)  # (t, n, x)
    a_vals = A.values
    a_low = project_leq(grid, a_vals, k - 4).real
    full = np.sum(a_vals * grad_u, axis=1)
    mask = band_mask(grid, k)
    pk_full = fourier_inverse(grid, fourier_forward(grid, full) * mask)
    u_k = fourier_inverse(grid, u.spectrum() * mask)
    grad_uk = np.moveaxis(spectral_gradient(grid, u_k), 0, 1)
    return pk_full - np.sum(a_low * grad_uk, axis=1)


def error_term_groups(
    u: SpaceTimeField,
    A: VectorPotential,
    k: int,
) -> dict[str, np.ndarray]:
    """The four interaction groups of E^k; they sum to error_term exactly.

    commutator: [P_k, A_{<=k-4}] . grad u
    high_high_a: high-band pairs with A carrying the strictly higher band
    high_high_u: high-band pairs with u carrying the weakly higher band
    high_low:    P_k(A_{>k-4} . grad u_{<=k-4})
    """
    grid = u.grid
    mask = band_mask(grid, k)

    def pk(vals):
        return fourier_inverse(grid, fourier_forward(grid, vals) * mask)

    grad_u = np.moveaxis(spectral_gradient(grid, u.values), 0, 1)
    a_vals = A.values
    a_low = project_leq(grid, a_vals, k - 4).real
    a_hi = a_vals - a_low
    u_k = fourier_inverse(grid, u.spectrum() * mask)
    grad_uk = np.moveaxis(spectral_gradient(grid, u_k), 0, 1)
    commutator = pk(np.sum(a_low * grad_u, axis=1)) - np.sum(a_low * grad_uk, axis=1)

    u_low = project_leq(grid, u.values, k - 4)
    grad_u_low = np.moveaxis(spectral_gradient(grid, u_low), 0, 1)
    high_low = pk(np.sum(a_hi * grad_u_low, axis=1))

    _, k_max = representable_bands(grid)
    ks = list(range(k - 3, k_max + 1))
    a_cum = {j: project_leq(grid, a_vals, j).real - a_low for j in ks}
    u_cum = {j: project_leq(grid, u.values, j) - u_low for j in ks}
    a_piece = {}
    u_piece = {}
    prev_a = np.zeros_like(a_vals)
    prev_u = np.zeros_like(u.values)
    for j in ks:
        a_piece[j] = a_cum[j] - prev_a
        u_piece[j] = u_cum[j] - prev_u
        prev_a, prev_u = a_cum[j], u_cum[j]
    # top residuals above the representable window
    a_piece["top"] = a_hi - a_cum[ks[-1]]
    u_piece["top"] = (u.values - u_low) - u_cum[ks[-1]]
    order = ks + ["top"]

    hh_a = np.zeros_like(u.values)
    hh_u = np.zeros_like(u.values)
    cum_u_prev = np.zeros_like(u.values)
    cum_a_incl = np.zeros_like(a_vals)
    for j in order:
        hh_a += pk(
            np.sum(a_piece[j] * np.moveaxis(spectral_gradient(grid, cum_u_prev), 0, 1), axis=1)
        )
        cum_a_incl = cum_a_incl + a_piece[j]
        hh_u += pk(
            np.sum(cum_a_incl * np.moveaxis(spectral_gradient(grid, u_piece[j]), 0, 1), axis=1)
        )
        cum_u_prev = cum_u_prev + u_piece[j]
    return {
        "commutator": commutator,
        "high_high_a": hh_a,
        "high_high_u": hh_u,
        "high_low": high_low,
    }


def error_term_besov_ratio(
    u: SpaceTimeField,
    A: VectorPotential,
    eps: float,
    s: float,
    k_range: tuple[int, int],
) -> float:
    """K in sum_k 2^{2ks} ||E^k||^2_{L1L2} <= K eps^2 sum_k 2^{2ks} ||u_k||^2_{LinfL2}."""
    grid = u.grid
    num = 0.0
    den = 0.0
    for k in range(k_range[0], k_range[1] + 1):
        e_k = error_term(u, A, k)
        num += 2.0 ** (2 * k * s) * time_lq(grid.times, slice_l2(grid, e_k), 1.0) ** 2
        u_k = fourier_inverse(grid, u.spectrum() * band_mask(grid, k))
        den += 2.0 ** (2 * k * s) * float(np.max(slice_l2(grid, u_k))) ** 2
    return num / (eps**2 * den) if den > 0 else 0.0


# -- independent ray quadrature -----------------------------------------------------


def ray_integral_trapezoid(
    A: VectorPotential,
    t_idx: int,
    k: int,
    theta: np.ndarray,
    kernel: str = "chi",
    dz: float | None = None,
) -> np.ndarray:
    """Composite-trapezoid evaluation of the band-k ray integral on the grid.

    Fourier interpolation along the wrapped ray (spectral shift per z node);
    independent of the analytic kernel path.  dz defaults to dx/2.
    """
    grid = A.grid
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    dz = dz if dz is not None else grid.dx / 2.0
    z_max = 2.0 ** (1 - 2 * k)
    zs = np.arange(0.0, z_max + dz, dz)
    weights = np.full(len(zs), dz)
    weights[0] = weights[-1] = dz / 2.0
    if kernel == "chi":
        kern = CUTOFFS.chi(zs * 4.0**k)
    elif kernel == "chi_prime":
        kern = _chi_prime(zs * 4.0**k)
    else:
        raise ValueError("kernel must be 'chi' or 'chi_prime'")
    mask = band_mask(grid, k)
    spec = fourier_forward(grid, A.values[t_idx]) * mask
    dot = np.tensordot(theta, spec, axes=(0, 0))
    out = np.zeros(grid.shape, dtype=complex)
    s_field = sum(grid.xi[j] * theta[j] for j in range(grid.n))
    for z, w, kv in zip(zs, weights, kern):
        if kv == 0.0 and z > 4.0 * 4.0**-k:
            continue
        out += (w * kv) * fourier_inverse(grid, dot * np.exp(2j * np.pi * z * s_field))
    return out.real
