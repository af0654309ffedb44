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
the exact integration-by-parts relation), so the phase identity holds to
round-off.

Every ray field is one entry of the table `RAY_FIELDS`, a triple (band
coefficient, chi kernel, Fourier multiplier) summed over the bands by
`PhaseField.ray`: S and T themselves, their time derivatives, Laplacians,
gradients and derivatives along theta.
Fields are assembled on demand, for any subset of the directions, and never
cached.

The operator's sums over the M data modes run through one kernel, chunked
over modes, which assembles each chunk's ray fields for that chunk's
directions only.  Under the smallness hypothesis the phase is small, and for
a potential rank-1 in time it is env(t) times a static phase sigma, so
e^{i env(t) sigma} is a short power series in env(t) - c about the centre c
of each group of slices with nearby envelope values (`_envelope_groups`).
Each mode's series stops where its own tail bound does, and each order is
one matrix product over the modes that still need it, for all of the group's
slices, with one exponential e^{i c sigma} per group and chunk; a potential
that is not rank-1 gives one slice per group and the series stops at order 0
(see `ParametrixOperator`).  Rank-1 covers A's samples too, so the analytic
residual folds A into its integrand: three static factors for any n, whose
slice weights denv, env and env^2 enter the rows of that one product.

The error terms E^k = P_k(A.grad u) - A_{<=k-4}.grad u_k of the reduced
equation (d_t - i Lap + A_{<=k-4}.grad) u_k = F_k - E^k come from one pass per
call: `error_term`, `error_term_besov_ratio` and
`solver.lp_reduced_equation_check` transform A and A.grad u once and then mask
per band.  The four groups of E^k, for any set of bands, come from one walk down
the pieces of u and A (`_error_group_pass`).  A's pieces are read from its real
half spectrum.  Nothing is cached beyond the call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .grid import (
    Grid,
    SpaceTimeField,
    _half,
    _mass_share,
    _real_forward,
    _real_inverse,
    fourier_forward,
    fourier_inverse,
    l2_norm,
    slice_l2,
)
from .lp import (
    CUTOFFS,
    AnnulusCutoff,
    _advect,
    _apply_mask,
    _check_band,
    _gauss_legendre,
    _gradient,
    _leq_mask,
    band_mask,
    representable_bands,
)
from .norms import time_lq
from .potentials import VectorPotential

__all__ = [
    "PhaseField",
    "build_sigma",
    "phase_identity_residual",
    "annulus_data",
    "ParametrixOperator",
    "parametrix_residual",
    "error_term",
    "error_term_groups",
    "error_term_besov_ratio",
]

SIGMA0_FACTOR = 0.5  # cancellation-correct weight of the displayed ray integral
_CHUNK_BYTES = 2 * 2**20  # one complex temporary of the direct sum or of a chi-kernel block
_TAYLOR_TAIL = 1e-16  # bound on the dropped tail of each phase series in the direct sum


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


@lru_cache(maxsize=1)
def _chi_area() -> float:
    """int_0^2 chi du by 256-node Gauss-Legendre: W0(0)."""
    u, w = _gauss_legendre(256, 0.0, 2.0)
    return float(np.sum(w * CUTOFFS.chi(u)))


class _ChiKernels:
    """V0(s) = int chi'(u) e^{2 pi i s u} du by Gauss-Legendre, plus the exact
    integration-by-parts partner

        W0(s) = -(1 + V0(s)) / (2 pi i s),   W0(0) = int chi du
    """

    def __init__(self, sigma_max: float):
        d = CUTOFFS.glue_width
        a, b = 1.0 + d, 2.0 - d
        n_nodes = max(96, int(np.ceil(10.0 * max(sigma_max, 1.0) * (b - a))))
        self.nodes, self.weights = _gauss_legendre(n_nodes, a, b)
        self.dchi = _chi_prime(self.nodes)

    def __call__(self, s: np.ndarray) -> dict[str, np.ndarray]:
        """{"chi": W0(s), "chi_prime": V0(s)}, each distinct entry of s evaluated
        once: the lattice's symmetries repeat most projections eta.theta."""
        s = np.asarray(s, dtype=float)
        u, inverse = np.unique(s.ravel(), return_inverse=True)
        v = self._v0(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -(1.0 + v) / (2j * np.pi * u)
        w = np.where(np.abs(u) < 1e-9, _chi_area(), w)
        inverse = inverse.reshape(s.shape)
        return {"chi": w[inverse], "chi_prime": v[inverse]}

    def _v0(self, s: np.ndarray) -> np.ndarray:
        """V0 at the 1-D array s, summed over blocks of entries whose (entries,
        nodes) exponential fits `_CHUNK_BYTES`.  No block holds a lone entry,
        which matmul would send to BLAS dot rather than gemv, and dot rounds
        differently: so each entry's value does not depend on the others."""
        weights = self.weights * self.dchi
        rows, n = max(2, _CHUNK_BYTES // (16 * self.nodes.size)), len(s)
        if n % rows == 1:
            s = np.append(s, s[:1])
        v = np.empty(s.shape, dtype=complex)
        for i in range(0, len(s), rows):
            phase = 2j * np.pi * np.multiply.outer(s[i : i + rows], self.nodes)
            v[i : i + rows] = np.exp(phase) @ weights
        return v[:n]


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
    kernel: dict | None = None  # "chi", "chi_prime" -> (D, m) kernels at eta.theta


def _with_kernels(bands: list[_BandData], directions: np.ndarray) -> list[_BandData]:
    """The bands with their 2^{-2k} W0/V0(2^{-2k} eta.theta) kernels for
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
}


class PhaseField:
    """Per-direction ray fields of the phase correction, sampled in time.

    ``ray(name, t_idx)`` evaluates one entry of `RAY_FIELDS` as a (D,) + shape
    array, (n, D) + shape for ``grad_S`` and ``grad_T``.  The band
    coefficients are A_k ("a"), dt A_k ("dt"), At_k = 2^{2k} Lap^{-1} A_k
    ("tilde") and dt At_k ("tilde_dt"); the kernels are the chi and chi' ray
    kernels; the multipliers are the Fourier symbols of Lap, theta . grad and
    grad:

        S, T            the displayed ray integral and the chi' ray of At_k
        dt_S, dt_T      their time derivatives
        lap_S, lap_T    their Laplacians
        theta_grad_S/T  their derivatives along theta
        grad_S, grad_T  their gradients

    The constructor builds the bands' kernels for ``directions``, so
    `phase_identity_residual` reuses the potential A and its band data on its
    own directions through a new PhaseField.

    Invariants: S and T are real; sigma0 depends on xi only through the
    direction; sigma1 is 1-homogeneous in |xi| and purely imaginary.

    When the potential is a rank-1 function of time, its band spectrum
    (coef[t] = env[t] * coef_ref) and its samples (A(t) = env[t] * A(t_ref))
    alike, as for every analytic preset but the traveling bump, every ray
    field and A itself separate as env(t) * static field (see `time_groups`
    and `potential`).  Nothing is cached: every call assembles its field from
    the band data, and the ``d_idx`` argument of `ray` restricts that work to
    a subset of the directions, which is how the operator walks its mode
    chunks.
    """

    def __init__(self, A, k_f, directions, bands):
        self.A = A
        self.grid = A.grid
        self.k_f = k_f
        self.directions = directions
        self.bands = _with_kernels(bands, directions)
        self.n_points = int(np.prod(self.grid.shape))
        self._env, self._denv, self._t_ref = _detect_envelope(self.bands, A.values)

    def _assemble(self, name: str, t_idx: int, d_idx) -> np.ndarray:
        """The band sum of ``name`` at slice t_idx, one row per entry of d_idx
        (entries may repeat), accumulated into the first band's product."""
        coef, kernel, mult = RAY_FIELDS[name]
        directions = self.directions[d_idx]
        out = None
        for b in self.bands:
            theta_dot = np.einsum("dj,jm->dm", directions, b.coef[coef][t_idx])
            kern = b.kernel[kernel][d_idx]
            if mult is not None:
                kern = kern * mult(directions, b)
            term = (theta_dot * kern) @ b.plane
            if out is None:
                out = term
            else:
                out += term
        if out is None:  # no bands: a zero phase
            lead = (self.grid.n,) if mult is _grad else ()
            out = np.zeros(lead + (len(directions), self.n_points), dtype=complex)
        # against the whole field: a gradient component that nearly vanishes
        # on the directions read keeps the round-off of the band coefficients
        imag = float(np.max(np.abs(out.imag)))
        if imag > 1e-10 * max(float(np.max(np.abs(out.real))), 1e-30):
            raise AssertionError(f"ray field {name} lost reality: imag {imag:.2e}")
        return out.real.reshape(out.shape[:-1] + self.grid.shape)

    def ray(self, name: str, t_idx: int | None, d_idx=slice(None)) -> np.ndarray:
        """The ray field ``name`` of `RAY_FIELDS` at slice t_idx for the
        directions d_idx (an index into ``directions``, all by default; an
        index array may repeat a direction, which then gets one row per
        entry); t_idx None gives the static factor of a rank-1 field (see
        `time_groups`)."""
        if self._env is None:
            return self._assemble(name, t_idx, d_idx)
        env = self._denv if RAY_FIELDS[name][0].endswith("dt") else self._env
        ref = self._t_ref
        if abs(env[ref]) < 1e-300:
            ref = int(np.argmax(np.abs(env)))
        static = self._assemble(name, ref, d_idx) / env[ref]
        return static if t_idx is None else env[t_idx] * static

    def potential(self, t_idx: int | None) -> np.ndarray:
        """A at slice t_idx, (n,) + shape; t_idx None gives the static factor
        A(t_ref) / env(t_ref) of a rank-1 potential (see `time_groups`), and
        any slice of A for a zero phase, whose gradient vanishes."""
        if t_idx is not None:
            return self.A.values[t_idx]
        return self.A.values[self._t_ref] / self.envelope()[0][self._t_ref]

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
        t_field, and A is env[t] times `potential`(t_field).  One group,
        t_field None, when rank-1 or without bands (a zero phase); else one per
        slice."""
        if self._env is None and self.bands:
            return [(np.array([i]), i) for i in range(self.grid.n_steps + 1)]
        return [(np.arange(self.grid.n_steps + 1), None)]

    def max_sigma(self) -> float:
        """Monitored sup of |sigma0| + |sigma1| at |xi| = 2^{k_f}, over every
        quarter of the time slices."""
        r = 2.0**self.k_f
        worst = 0.0
        for i in range(0, self.grid.n_steps + 1, max(self.grid.n_steps // 4, 1)):
            s0 = SIGMA0_FACTOR * self.ray("S", i)
            s1 = 2.0 * np.pi * r * self.ray("T", i)
            worst = max(worst, float(np.max(np.abs(s0) + np.abs(s1))))
        return worst


def _detect_envelope(bands, samples) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """Rank-1-in-time detection: coef[t] = env[t] * coef[t_ref] across bands, and
    the potential's samples A(t) = env[t] * A(t_ref) with the same env."""
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
    denv = (flat_dt @ ref.conj()).real / denom
    samples = samples.reshape(nt, -1)
    if not (
        _is_rank1(flat, env, ref)
        and _is_rank1(flat_dt, denv, ref)
        and _is_rank1(samples, env, samples[t_ref])
    ):
        return None, None, 0
    return env, denv, t_ref


def _is_rank1(rows: np.ndarray, env: np.ndarray, ref: np.ndarray) -> bool:
    """rows[t] = env[t] * ref to 1e-12 of max |rows|."""
    resid = np.max(np.abs(rows - env[:, None] * ref[None]))
    return bool(resid <= 1e-12 * max(float(np.max(np.abs(rows))), 1e-300))


def build_sigma(A: VectorPotential, k_f: int, directions: np.ndarray) -> PhaseField:
    """Assemble the phase data for a potential band-limited to k <= k_f - 4.

    ``directions`` is a (D, n) array of unit vectors; every later query must
    stay inside this set (ParametrixOperator passes the primitive directions
    of the data's annulus modes).  Warns when a band's ray support 2^{1-2k}
    exceeds L/2: the integral then wraps around the torus (the phase identity
    is unaffected; sizes acquire a wrap factor, recorded here).
    """
    grid = A.grid
    directions = np.asarray(directions, dtype=float)
    norms = np.linalg.norm(directions, axis=1)
    if not np.max(np.abs(norms - 1.0)) <= 1e-12:  # a NaN or Inf entry fails this too
        raise ValueError("directions must be finite unit vectors")

    spec = fourier_forward(grid, A.values)
    hi_mask = 1.0 - CUTOFFS.chi(grid.xi_norm * 2.0 ** -(k_f - 4))
    hi_share = _mass_share(spec, hi_mask**2)
    if hi_share > 1e-10:
        raise ValueError(f"potential carries {hi_share:.2e} of spectral mass above band {k_f - 4}")

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
    return PhaseField(A, k_f, directions, bands)


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
    sub = PhaseField(phase.A, phase.k_f, dirs, phase.bands)
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


# -- the operator ------------------------------------------------------------------


def _taylor_order(x: float) -> int:
    """Least K whose tail bound x^{K+1}/(K+1)! e^x for the exponential series
    at |z| <= x is below `_TAYLOR_TAIL`."""
    order, tail = 0, x
    while tail * math.exp(x) > _TAYLOR_TAIL:
        order += 1
        tail *= x / (order + 1)
    return order


def _envelope_groups(
    env: np.ndarray, sups: np.ndarray
) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """Split the slices into (rows, c, K) groups of nearby envelope values: the
    rows with |env - c| sups[0] <= 1, where sups holds each mode's sup|sigma_m|,
    largest first.  K[m] is the order at which the series of
    e^{i (env - c) sigma_m} meets `_TAYLOR_TAIL` there, so K falls along sups."""
    order = np.argsort(env, kind="stable")
    ends = env[order]
    width = 2.0 / sups[0] if sups[0] > 0 else np.inf
    groups = []
    lo = 0
    while lo < len(order):
        hi = int(np.searchsorted(ends, ends[lo] + width, side="right"))
        c = 0.5 * (ends[lo] + ends[hi - 1])
        x = float(np.max(np.abs(ends[lo:hi] - c)))
        K = np.array([_taylor_order(x * sup) for sup in sups])
        groups.append((np.sort(order[lo:hi]), c, K))
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
    order is one matrix product AMP @ (Z sigma^a plane) over the modes whose
    own series reaches that order, AMP the (slices, chunk) amplitude matrix,
    with a single exponential Z = e^{i c sigma} per group and chunk.  A potential that is not rank-1 gives one slice per
    group, where the series stops at order 0.  The residual folds A(t, x)
    into its integrand, A = env(t) a with a static in the group, so it is
    three static factors for any n, and their slice weights fold into the
    rows: one (slices, 3 chunk) @ (3 chunk, P) product per order.
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

    def _plane(self, modes: np.ndarray) -> np.ndarray:
        """(chunk, P) waves e^{2 pi i xi.x} of the modes (indices), a product of 1-D factors."""
        out = np.ones((len(modes), 1))
        for j in range(self.grid.n):
            wave = np.exp(2j * np.pi * np.multiply.outer(self.xi[modes, j], self.grid.x1d))
            out = (out[:, :, None] * wave[:, None, :]).reshape(len(wave), -1)
        return out

    def _ray(self, t_field, modes: np.ndarray, name: str) -> np.ndarray:
        """The `RAY_FIELDS` entry ``name`` on each of the modes' directions, one
        (P,) row per mode: (chunk, P), or (n, chunk, P) for a gradient."""
        values = self.phase.ray(name, t_field, self.dir_of_mode[modes])
        return values.reshape(values.shape[: -self.grid.n] + (-1,))

    def _mode_sum(self, integrand=None, weights=None, orders: int | None = None) -> np.ndarray:
        """out[k, t] = sum_m amp_m(t) sum_f w_f(t) F_fm(x) e^{i env(t) sigma_m(x)}
        e^{2 pi i xi_m.x}, amp_m(t) = coef_m e^{-4 pi^2 i t |xi_m|^2}, as
        (1, n_t, P), or (orders + 1, n_t, P) with ``orders``.

        sigma = sigma0 + sigma1 is the static phase of each time group (see
        `PhaseField.time_groups`).  integrand(ray, r, t_field) returns the
        static factors F_f as a list of (chunk, P) arrays, None meaning the one
        factor F = 1: ray(name) reads a `RAY_FIELDS` entry on the chunk's
        modes ((chunk, P) or (n, chunk, P)), r is the chunk's |xi| as a column
        and t_field the group's field slice.  ``weights`` is the (factors, n_t)
        array of slice weights w_f, ones by default.

        Per chunk, the group's slices split into `_envelope_groups` of centre
        c, and each mode m adds sum_{a<=K_m} ((i (env - c))^a / a!) sum_f w_f
        amp_m (F_fm e^{i c sigma_m} sigma_m^a), its own series tail below
        `_TAYLOR_TAIL`.  When some K_m > 0 the chunk's modes are first sorted by
        sup|sigma_m|, largest first, so that in every group the modes that
        reach order a are a prefix: Z is held as (chunk, factors, P), and order
        a is one (slices, prefix * factors) @ (prefix * factors, P) product
        with the weights folded into the rows.  With ``orders`` (F = 1) every
        mode of every slice takes c = 0 and K = orders, and out[a] is the
        order-a term alone.
        """
        grid = self.grid
        n_t, P = grid.n_steps + 1, int(np.prod(grid.shape))
        n_out = 1 if orders is None else orders + 1
        out = np.zeros((n_t, n_out, P), dtype=complex)  # one contiguous row per slice
        amp = self.coef * np.exp(-4j * np.pi**2 * np.multiply.outer(grid.times, self.radii**2))
        env = self.phase.envelope()[0]
        if weights is None:
            weights = np.ones((1, n_t))
        chunk = max(1, _CHUNK_BYTES // (16 * P))
        for lo in range(0, len(self.xi), chunk):
            modes = np.arange(lo, min(lo + chunk, len(self.xi)))
            plane = None
            for slices, t_field in self.phase.time_groups():
                ray, r = partial(self._ray, t_field, modes), self.radii[modes, None]
                sigma = SIGMA0_FACTOR * ray("S") + 2j * np.pi * r * ray("T")
                if orders is None:
                    sups = np.max(np.abs(sigma), axis=1)
                    by_sup = np.argsort(-sups, kind="stable")
                    groups = _envelope_groups(env[slices], sups[by_sup])
                    if max(K[0] for _, _, K in groups) > 0:
                        modes, r, sigma, plane = modes[by_sup], r[by_sup], sigma[by_sup], None
                        ray = partial(self._ray, t_field, modes)
                else:
                    groups = [(np.arange(len(slices)), 0.0, np.full(len(modes), orders))]
                if plane is None:
                    plane = self._plane(modes)
                F = plane[:, None]  # (chunk, factors, P)
                if integrand is not None:
                    F = np.stack(integrand(ray, r, t_field), axis=1)
                    F *= plane[:, None]
                for i, (rows, c, K) in enumerate(groups):
                    t = slices[rows]  # ascending, so a run of slices is a view of out
                    dest = slice(t[0], t[-1] + 1) if t[-1] - t[0] == len(t) - 1 else t
                    # an integrand's F is this group's own: the last group scales it in place
                    Z = F if integrand is not None and i == len(groups) - 1 else F.copy()
                    if c:  # e^0 = 1
                        Z *= np.exp(1j * c * sigma)[:, None]
                    shift = 1j * (env[t] - c)
                    amp_t = amp[np.ix_(t, modes)]  # (slices, chunk)
                    w_rows = weights[:, t].T[:, None, :]  # (slices, 1, factors)
                    for a in range(K[0] + 1):
                        n_a = int(np.count_nonzero(K >= a))  # the modes reaching order a
                        if a:
                            Z[:n_a] *= sigma[:n_a, None]
                        w = (shift**a / math.factorial(a))[:, None] * amp_t[:, :n_a]
                        w = (w[:, :, None] * w_rows).reshape(len(t), -1)
                        out[dest, a if orders is not None else 0] += w @ Z[:n_a].reshape(-1, P)
                    del Z  # not held while the next group's Z or integrand is built
        return np.moveaxis(out, 1, 0)

    def apply(self) -> SpaceTimeField:
        """v = Lambda f sampled on the grid's time grid."""
        out = self._mode_sum()[0]
        return SpaceTimeField(self.grid, out.reshape((-1,) + self.grid.shape))

    def taylor_study(self, max_order: int) -> tuple[dict[int, SpaceTimeField], dict[int, float]]:
        """All truncations sum_{a<=order} (i sigma)^a / a! inside the integral for
        orders 0..max_order, and the L^inf_t L^2_x norm of each order's term."""
        grid = self.grid
        # views of the (n_t, orders + 1, P) sum: each order's term, then its partial sum in place
        terms = [t.reshape((-1,) + grid.shape) for t in self._mode_sum(orders=max_order)]
        term_sup = {a: float(np.max(slice_l2(grid, t))) for a, t in enumerate(terms)}
        for a in range(1, max_order + 1):
            terms[a] += terms[a - 1]
        return {a: SpaceTimeField(grid, t) for a, t in enumerate(terms)}, term_sup

    def residual_analytic(self) -> SpaceTimeField:
        """L(Lambda f) via the cancelled integrand

        i dt sigma + Lap sigma0 + 4 pi i <grad sigma1, xi>
        + i [ (grad sigma)^2 + A . grad sigma ].

        With g_j = d_j sigma at env = 1 and a_j = A_j read at the time group's
        field (see `PhaseField.time_groups`), A = env a, so the slice integrand
        is three static factors with A folded into the third:
        denv (i dt sigma) + env (Lap sigma0 + 4 pi i <grad sigma1, xi>)
        + env^2 (i sum_j g_j (g_j + a_j)).  One mode sum takes them, with the
        slice weights denv, env and env^2.
        """
        grid = self.grid

        def integrand(ray, r, t_field):
            a = self.phase.potential(t_field).reshape(grid.n, 1, -1)  # (n, 1, P)
            dt_term = 1j * (SIGMA0_FACTOR * ray("dt_S") + 2j * np.pi * r * ray("dt_T"))
            lap_term = SIGMA0_FACTOR * ray("lap_S") + 4j * np.pi * (
                2j * np.pi * r**2 * ray("theta_grad_T")
            )
            g = SIGMA0_FACTOR * ray("grad_S") + 2j * np.pi * r * ray("grad_T")  # (n, chunk, P)
            return [dt_term, lap_term, 1j * np.sum(g * (g + a), axis=0)]

        env, denv = self.phase.envelope()
        out = self._mode_sum(integrand, np.stack([denv, env, env**2]))[0]
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


def _check_error_inputs(u: SpaceTimeField, A: VectorPotential | None, ks) -> None:
    """Reject a potential on another grid than u, non-finite u and bands outside
    ``representable_bands``; one pass over u, no transforms."""
    if A is not None and A.grid != u.grid:
        raise ValueError(f"potential grid {A.grid} differs from the field grid {u.grid}")
    if not np.all(np.isfinite(u.values)):
        raise ValueError("u must be finite")
    for k in ks:
        _check_band(u.grid, k)


def _band_error_terms(u: SpaceTimeField, A: VectorPotential, ks):
    """(E^k, u_hat phi_k, A_{<=k-4}) per band k in ks, from one transform of A and A . grad u."""
    grid = u.grid
    u_hat = u.spectrum()
    a_hat = _real_forward(grid, A.values)
    adv_hat = fourier_forward(grid, _advect(grid, A.values, u_hat))
    for k in ks:
        mask = band_mask(grid, k)
        a_low = _real_inverse(grid, a_hat * _half(grid, _leq_mask(grid, k - 4)))
        uk_hat = u_hat * mask
        yield fourier_inverse(grid, adv_hat * mask) - _advect(grid, a_low, uk_hat), uk_hat, a_low


def error_term(
    u: SpaceTimeField,
    A: VectorPotential,
    k: int,
) -> np.ndarray:
    """E^k = P_k(A . grad u) - A_{<=k-4} . grad u_k (exact identity)."""
    _check_error_inputs(u, A, [k])
    return next(_band_error_terms(u, A, [k]))[0]


def error_term_groups(
    u: SpaceTimeField,
    A: VectorPotential,
    k: int,
) -> dict[str, np.ndarray]:
    """The four interaction groups of E^k; they sum to error_term to round-off.

    commutator: [P_k, A_{<=k-4}] . grad u
    high_high_a: high-band pairs with A carrying the strictly higher band
    high_high_u: high-band pairs with u carrying the weakly higher band
    high_low:    P_k(A_{>k-4} . grad u_{<=k-4})
    """
    return next(_error_group_pass(u, A, [k]))[1]


def _error_group_pass(u: SpaceTimeField, A: VectorPotential, ks):
    """(k, error_term_groups(u, A, k)) for each band of ``ks``, highest first.

    One transform each of u and A, and one walk down the high pieces j: the top
    1 - chi(2^{-k_max}.) as j = k_max + 1, then phi(2^{-j}.) to min(ks) - 3.  It
    sums A_{>j} . grad u_j and A_j . grad u_{>=j} in place; band k is yielded at
    piece k - 3 with P_k applied to both sums, so no band's groups wait.
    """
    _check_error_inputs(u, A, ks)
    grid = u.grid
    u_hat = u.spectrum()
    a_hat = _real_forward(grid, A.values)
    _, k_max = representable_bands(grid)
    a_above, grad_above = np.zeros(A.values.shape), np.zeros(A.values.shape, dtype=complex)
    hh_a, hh_u = np.zeros(u.values.shape, dtype=complex), np.zeros(u.values.shape, dtype=complex)
    for j in range(k_max + 1, min(ks) - 4, -1):
        piece = band_mask(grid, j) if j <= k_max else 1.0 - _leq_mask(grid, k_max)
        a_j = _real_inverse(grid, a_hat * _half(grid, piece))
        grad_j = np.stack(list(_gradient(grid, u_hat * piece)), axis=1)  # (t, n, x)
        hh_a += np.sum(a_above * grad_j, axis=1)
        grad_above += grad_j
        hh_u += np.sum(a_j * grad_above, axis=1)
        a_above += a_j
        del a_j, grad_j  # not held while band k's groups are built and read
        k = j + 3
        if k in ks:
            mask, low = band_mask(grid, k), _leq_mask(grid, k - 4)
            a_low = _real_inverse(grid, a_hat * _half(grid, low))
            commutator = _apply_mask(grid, _advect(grid, a_low, u_hat), mask)
            commutator -= _advect(grid, a_low, u_hat * mask)
            yield k, {
                "commutator": commutator,
                "high_high_a": _apply_mask(grid, hh_a, mask),
                "high_high_u": _apply_mask(grid, hh_u, mask),
                "high_low": _apply_mask(grid, _advect(grid, A.values - a_low, u_hat * low), mask),
            }


def error_term_besov_ratio(
    u: SpaceTimeField,
    A: VectorPotential,
    eps: float,
    s: float,
    k_range: tuple[int, int],
) -> float:
    """K in sum_k 2^{2ks} ||E^k||^2_{L1L2} <= K eps^2 sum_k 2^{2ks} ||u_k||^2_{LinfL2}.

    Rejects eps that is not finite and > 0 and an empty ``k_range``.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    return _besov_ratio(_besov_band_norms(u, A, k_range), eps, s)


def _besov_band_norms(u: SpaceTimeField, A: VectorPotential, k_range: tuple[int, int]):
    """(k, ||E^k||_{L1L2}, ||u_k||_{LinfL2}, E^k) per band of ``k_range``, lazily,
    from one `_band_error_terms` pass; the Besov ratio at any s is `_besov_ratio`
    of them.  The inputs are checked on the call, before the first band."""
    ks = range(k_range[0], k_range[1] + 1)
    if not ks:
        raise ValueError(f"empty band range {k_range}")
    _check_error_inputs(u, A, ks)
    grid = u.grid
    return (
        (k, time_lq(grid.times, slice_l2(grid, e_k), 1.0),
         float(np.max(slice_l2(grid, fourier_inverse(grid, uk_hat)))), e_k)
        for k, (e_k, uk_hat, _) in zip(ks, _band_error_terms(u, A, ks))
    )


def _besov_ratio(band_norms, eps: float, s: float) -> float:
    num = den = 0.0
    for k, e_norm, u_norm, _ in band_norms:
        num += 2.0 ** (2 * k * s) * e_norm**2
        den += 2.0 ** (2 * k * s) * u_norm**2
    return num / (eps**2 * den) if den > 0 else 0.0
