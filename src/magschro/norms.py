"""Mixed space-time norms, admissible pairs, anisotropic rotated-frame norms.

Exponent conventions: infinite exponents are discrete maxima; time integrals
use the trapezoid rule on the uniform time grid; spatial integrals are lattice
Riemann sums with weight dx per axis.  The supremum over measurable paths
x(t) factorizes through the monotone outer time norm (sup of the time norm of
g(t, x(t)) equals the time norm of t -> sup_x g(t, x)); since every z-norm
here integrates over the full torus it is translation invariant, so the
per-time sup coincides with the base-point-0 value.  Every spatial reduction
goes through ``grid.spatial_norm``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import SpaceTimeField, fourier_inverse, spatial_norm
from .lp import band_mask, representable_bands
from .rotate import RotationSampler, rotate_field

__all__ = [
    "AdmissiblePair",
    "is_admissible",
    "admissible_pairs",
    "lqlr_norm",
    "time_lq",
    "anisotropic_norm",
    "path_sup_time_norm",
    "xdot_norm",
    "low_dim_anisotropic_exponents",
]


@dataclass(frozen=True)
class AdmissiblePair:
    q: float
    r: float

    def __post_init__(self):
        if self.q < 2 or self.r < 2:
            raise ValueError("admissible exponents require q, r >= 2")


def is_admissible(q: float, r: float, n: int) -> bool:
    """Scaling line 2/q + n/r = n/2 (to 1e-12) with q,r >= 2, excluding (2, inf) at n=2."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if q < 2 or r < 2:
        raise ValueError("admissible exponents require q, r >= 2")
    if (q, r, n) == (2, np.inf, 2):
        return False
    return abs(2 * (1.0 / q) + n * (1.0 / r) - n / 2.0) <= 1e-12


def admissible_pairs(n: int, count: int = 6) -> list[AdmissiblePair]:
    """Sample of admissible pairs from (inf, 2) toward the endpoint.

    n >= 3: r spans [2, 2n/(n-2)].  n <= 2: r spans [2, 20] (the n=2
    endpoint (2, inf) is excluded).  Always includes (inf, 2).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    pairs = [AdmissiblePair(np.inf, 2.0)]
    r_end = 2.0 * n / (n - 2.0) if n >= 3 else 20.0
    rs = np.geomspace(2.0, r_end, count)[1:]
    for r in rs:
        inv_q = n / 4.0 - n / (2.0 * r)
        q = np.inf if inv_q <= 0 else 1.0 / inv_q
        if is_admissible(q, float(r), n):
            pairs.append(AdmissiblePair(float(q), float(r)))
    return pairs


def time_lq(times: np.ndarray, series: np.ndarray, q: float) -> float:
    """L^q over [0, T] by trapezoid; q = inf is the max over samples."""
    if np.isinf(q):
        return float(np.max(series))
    return float(np.trapezoid(np.asarray(series, dtype=float) ** q, times) ** (1.0 / q))


def lqlr_norm(u: SpaceTimeField, q: float, r: float) -> float:
    """Mixed norm L^q_t L^r_x of a space-time field."""
    return time_lq(u.times, spatial_norm(u.grid, u.values, r), q)


def path_sup_time_norm(times: np.ndarray, g_tx: np.ndarray, q: float) -> float:
    """sup over paths x(t) of || g(t, x(t)) ||_{L^q_t} for sampled g(t, x).

    Exact by the factorization through the per-time supremum; ``g_tx`` has
    time on axis 0 and arbitrary site axes after it.
    """
    per_t = np.max(np.abs(g_tx).reshape(g_tx.shape[0], -1), axis=1)
    return time_lq(times, per_t, q)


def anisotropic_norm(
    u: SpaceTimeField,
    q: float,
    r_outer: float,
    p_inner: float,
    U: np.ndarray,
) -> float:
    """L^q_t L^{r_outer}_{z_2..z_n} L^{p_inner}_{z_1} of u(t, x + Uz).

    The inner exponent acts along the rotated first axis.  By translation
    invariance of the full-torus z-norms the value at base point 0 is also
    the supremum over measurable base paths x(t).
    """
    grid = u.grid
    if grid.n == 1:
        raise ValueError("anisotropic norm needs n >= 2 (no outer variables)")
    rotated = rotate_field(grid, u.values, U)
    return time_lq(u.times, spatial_norm(grid, rotated, r_outer, inner=p_inner), q)


def low_dim_anisotropic_exponents(n: int) -> list[tuple[float, float]]:
    """(q, r_outer) pairs for the rotated-frame L^q_t L^r L^2_{z_1} family.

    n>=4: the single pair (2, 2(n-1)/(n-3)).  n=3: pairs on 1/q + 1/r = 1/2
    sampled with q >= 2.25 (the constant degrades toward q=2).  n=2: (4, inf).
    """
    if n >= 4:
        return [(2.0, 2.0 * (n - 1) / (n - 3.0))]
    if n == 3:
        qs = [2.25, 3.0, 4.0]
        return [(q, 1.0 / (0.5 - 1.0 / q)) for q in qs]
    if n == 2:
        return [(4.0, np.inf)]
    raise ValueError("anisotropic exponents need n >= 2")


def xdot_norm(
    u: SpaceTimeField,
    alpha: float,
    pairs: list[AdmissiblePair] | None = None,
    sampler: RotationSampler | None = None,
) -> float:
    """Besov-type solution norm: per representable band, 2^{2 alpha k} times
    the squared sup over admissible pairs of L^q L^r plus the squared
    rotated-frame component, summed over bands and square-rooted.

    Only a finite admissible-pair sample and rotation sample are used (the
    sup over rotations is the max over ``sampler.samples()``); a warning
    records this.
    """
    grid = u.grid
    pairs = pairs if pairs is not None else admissible_pairs(grid.n)
    warnings.warn(
        f"xdot_norm: suprema sampled over {len(pairs)} admissible pairs and a finite rotation set",
        stacklevel=2,
    )
    rotations = (sampler or RotationSampler(grid.n, count=8)).samples()
    k_min, k_max = representable_bands(grid)
    aniso_pairs = low_dim_anisotropic_exponents(grid.n) if grid.n >= 2 else []
    spec = u.spectrum()
    total = 0.0
    for k in range(k_min, k_max + 1):
        mask = band_mask(grid, k)
        u_k = SpaceTimeField(grid, fourier_inverse(grid, spec * mask))
        str_part = max(lqlr_norm(u_k, p.q, p.r) for p in pairs)
        aniso_part = max(
            (anisotropic_norm(u_k, q, r, 2.0, U) for q, r in aniso_pairs for U in rotations),
            default=0.0,
        )
        total += 2.0 ** (2 * alpha * k) * (str_part**2 + aniso_part**2)
    return float(np.sqrt(total))
