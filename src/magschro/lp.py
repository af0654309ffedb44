"""Dyadic cutoffs, band projections, paraproducts, Bernstein ratios, Besov sums.

The radial profile chi is built from the standard exp(-1/x) glue: identically
1 on [0, 1+delta], identically 0 on [2-delta, infinity), smoothly decreasing
in between (delta = glue width).  phi(r) = chi(r) - chi(2r) is supported in
[(1+delta)/2, 2-delta] and the dyadic sums telescope exactly, so the partition
of unity holds to round-off inside the truncation range.

The lab uses one cutoff pair, ``CUTOFFS`` (glue width 1/8), for every band,
phase and error term; ``build_cutoffs(glue)`` remains only for studying the
profile family.  ``AnnulusCutoff`` is the data cutoff built on its plateau
bump.  The Bernstein ratios' leak guards read ``grid._mass_share``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, floor, log2

import numpy as np

from .grid import Grid, _mass_share, fourier_forward, fourier_inverse, spatial_norm

__all__ = [
    "CutoffPair",
    "CUTOFFS",
    "AnnulusCutoff",
    "BandDecomposition",
    "build_cutoffs",
    "representable_bands",
    "band_mask",
    "project_band",
    "project_leq",
    "project_below",
    "project_fat",
    "paraproduct_split",
    "bernstein_ratio",
    "mixed_bernstein_ratio",
    "besov_l2_norm",
    "sequence_bound_check",
]

_DEFAULT_GLUE = 0.125


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """C^infinity monotone step g(x) / (g(x) + g(1 - x)), g(x) = exp(-1/x): 0 for
    x <= 0, 1 for x >= 1 and NaN at NaN, with g evaluated on the ramp 0 < x < 1
    alone."""
    x = np.asarray(x, dtype=float)
    out = np.heaviside(x - 1.0, 1.0, out=np.empty(x.shape))
    ramp = (x > 0.0) & (x < 1.0)
    r = x[ramp]
    g = np.exp(-1.0 / r)
    out[ramp] = g / (g + np.exp(-1.0 / (1.0 - r)))
    return out


@dataclass(frozen=True)
class CutoffPair:
    """Radial profile chi and its dyadic difference phi(r)=chi(r)-chi(2r)."""

    glue_width: float = _DEFAULT_GLUE

    def __post_init__(self):
        if not (0 < self.glue_width <= 0.25):
            raise ValueError("glue width must lie in (0, 1/4]")

    def chi(self, r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        d = self.glue_width
        return 1.0 - _smoothstep((r - 1.0 - d) / (1.0 - 2.0 * d))

    def phi(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self.chi(r) - self.chi(2.0 * r)

    @property
    def chi_edge(self) -> float:
        """Where chi reaches 0: 2 - glue width."""
        return 2.0 - self.glue_width

    def plateau(self, k: int) -> tuple[float, float]:
        """Band k's plateau (lo, hi), where phi(2^-k |xi|) is identically 1:
        (2 - glue) 2^{k-1} < |xi| < (1 + glue) 2^k."""
        return self.chi_edge * 2.0 ** (k - 1), (1.0 + self.glue_width) * 2.0**k

    def plateau_bump(self, r, lo_support, lo_one, hi_one, hi_support) -> np.ndarray:
        """Bump that is 0 outside (lo_support, hi_support), 1 on [lo_one, hi_one]."""
        r = np.asarray(r, dtype=float)
        up = _smoothstep((r - lo_support) / (lo_one - lo_support))
        down = 1.0 - _smoothstep((r - hi_one) / (hi_support - hi_one))
        return up * down


def build_cutoffs(glue_width: float = _DEFAULT_GLUE) -> CutoffPair:
    return CutoffPair(glue_width=glue_width)


CUTOFFS = CutoffPair()  # the one pair behind every band, phase and error term


@lru_cache(maxsize=32)
def _gauss_legendre(count: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [a, b], computed once per rule."""
    x, w = np.polynomial.legendre.leggauss(count)
    nodes, weights = 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class AnnulusCutoff:
    """Smooth radial bump: 1 on [3/4, 3/2]*2^{k_f}, 0 outside [1/2, 2]*2^{k_f}."""

    k_f: int

    def profile(self, r) -> np.ndarray:
        s = 2.0**self.k_f
        return CUTOFFS.plateau_bump(np.asarray(r, float), 0.5 * s, 0.75 * s, 1.5 * s, 2.0 * s)


# -- band bookkeeping ---------------------------------------------------------


def representable_bands(grid: Grid) -> tuple[int, int]:
    """Widest band window whose masks are nonempty and inside Nyquist."""
    hi = CUTOFFS.chi_edge
    k_min = ceil(log2(1.0 / (grid.L * hi)))
    k_max = floor(log2(grid.nyquist / hi))
    return k_min, k_max


def _check_band(grid: Grid, k: int):
    k_min, k_max = representable_bands(grid)
    if not (k_min <= k <= k_max):
        raise ValueError(
            f"band k={k} outside representable range [{k_min}, {k_max}] "
            f"for N={grid.N}, L={grid.L}"
        )


@lru_cache(maxsize=256)
def band_mask(grid: Grid, k: int) -> np.ndarray:
    return CUTOFFS.phi(grid.xi_norm * 2.0**-k)


@lru_cache(maxsize=256)
def _leq_mask(grid: Grid, k: int) -> np.ndarray:
    return CUTOFFS.chi(grid.xi_norm * 2.0**-k)


def _apply_mask(grid: Grid, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return fourier_inverse(grid, fourier_forward(grid, values) * mask)


def project_band(grid: Grid, values: np.ndarray, k: int) -> np.ndarray:
    """P_k: multiplier phi(2^-k |xi|).  Rejects k outside the representable range."""
    _check_band(grid, k)
    return _apply_mask(grid, values, band_mask(grid, k))


def project_leq(grid: Grid, values: np.ndarray, k: int) -> np.ndarray:
    """P_{<=k}: multiplier chi(2^-k |xi|) (includes the mean)."""
    return _apply_mask(grid, values, _leq_mask(grid, k))


def project_below(grid: Grid, values: np.ndarray, k: int) -> np.ndarray:
    """P_{<k} = P_{<=k-1}."""
    return project_leq(grid, values, k - 1)


def project_fat(grid: Grid, values: np.ndarray, k: int) -> np.ndarray:
    """P~_k = P_{k-1} + P_k + P_{k+1}; identity on the support of P_k's mask."""
    mask = band_mask(grid, k - 1) + band_mask(grid, k) + band_mask(grid, k + 1)
    return _apply_mask(grid, values, mask)


@dataclass
class BandDecomposition:
    """Band pieces P_k f over [k_min, k_max] plus the low/high residuals."""

    grid: Grid
    source: np.ndarray
    k_min: int
    k_max: int
    pieces: dict[int, np.ndarray]
    low_residual: np.ndarray
    high_residual: np.ndarray

    @classmethod
    def compute(
        cls,
        grid: Grid,
        values: np.ndarray,
        k_range: tuple[int, int] | None = None,
    ) -> "BandDecomposition":
        k_min, k_max = k_range if k_range is not None else representable_bands(grid)
        spec = fourier_forward(grid, values)
        pieces = {k: fourier_inverse(grid, spec * band_mask(grid, k)) for k in range(k_min, k_max + 1)}
        low = fourier_inverse(grid, spec * _leq_mask(grid, k_min - 1))
        high = values - fourier_inverse(grid, spec * _leq_mask(grid, k_max))
        return cls(grid, values, k_min, k_max, pieces, low, high)

    def reconstruct(self) -> np.ndarray:
        out = self.low_residual + self.high_residual
        for p in self.pieces.values():
            out = out + p
        return out


# -- paraproducts -------------------------------------------------------------


def paraproduct_split(
    grid: Grid,
    f: np.ndarray,
    g: np.ndarray,
    k: int,
) -> dict[str, np.ndarray]:
    """Exact four-group tiling of P_k(fg) by frequency interaction type.

    low_high   = f_{<=k-4} g_k
    commutator = [P_k, f_{<=k-4}] g  (= P_k(f_{<=k-4} g) - f_{<=k-4} P_k g)
    high_high  = P_k(f_{>k-4} g_{>k-4})
    high_low   = P_k(f_{>k-4} g_{<=k-4})

    The groups sum to P_k(fg) identically (up to FFT round-off).
    """
    f_low = project_leq(grid, f, k - 4)
    f_high = f - f_low
    g_low = project_leq(grid, g, k - 4)
    g_high = g - g_low
    g_k = project_band(grid, g, k)
    low_high = f_low * g_k
    commutator = project_band(grid, f_low * g, k) - low_high
    high_high = project_band(grid, f_high * g_high, k)
    high_low = project_band(grid, f_high * g_low, k)
    return {
        "low_high": low_high,
        "commutator": commutator,
        "high_high": high_high,
        "high_low": high_low,
    }


# -- Bernstein ratios ---------------------------------------------------------


def bernstein_ratio(
    grid: Grid,
    f: np.ndarray,
    Q: list[tuple[float, float]],
    p: float,
    q: float,
) -> float:
    """||f||_q / (|Q|^{1/p-1/q} ||f||_p) for f Fourier-supported in the box Q.

    Q is a list of per-axis frequency intervals.  Rejects spectrum leakage
    outside Q above 1e-8 (relative L^2 mass).
    """
    if not p <= q:
        raise ValueError("need p <= q")
    spec = fourier_forward(grid, f)
    inside = np.ones(grid.shape, dtype=bool)
    for axis, (lo, hi) in enumerate(Q):
        xi_axis = grid.xi[axis]
        inside &= (xi_axis >= lo) & (xi_axis <= hi)
    leak = _mass_share(spec, ~inside)
    if leak > 1e-8:
        raise ValueError(f"spectrum leaks outside Q: relative mass {leak:.2e}")
    vol = float(np.prod([hi - lo for lo, hi in Q]))
    return float(spatial_norm(grid, f, q) / (vol ** (1.0 / p - 1.0 / q) * spatial_norm(grid, f, p)))


def mixed_bernstein_ratio(
    grid: Grid,
    f: np.ndarray,
    k: int,
    p1: float,
    p2: float,
    r: float,
) -> float:
    """Annulus Bernstein ratio in mixed norms, normalized by 2^{k(n-1)(1/p2-1/p1)}.

    Requires p1 > p2 >= r and f supported in the band-k annulus.
    """
    if not (p1 > p2 >= r):
        raise ValueError("need p1 > p2 >= r")
    spec = fourier_forward(grid, f)
    xi = grid.xi_norm
    annulus = (xi >= CUTOFFS.plateau(k - 1)[1]) & (xi <= CUTOFFS.chi_edge * 2.0**k)
    leak = _mass_share(spec, ~annulus)
    if leak > 1e-8:
        raise ValueError(f"spectrum leaks outside annulus 2^{k}: {leak:.2e}")
    weight = 2.0 ** (k * (grid.n - 1) * (1.0 / p2 - 1.0 / p1))
    num = spatial_norm(grid, f, p1, inner=r)
    den = spatial_norm(grid, f, p2, inner=r)
    return float(num / (weight * den))


# -- Besov sums ---------------------------------------------------------------


def besov_l2_norm(grid: Grid, field, s: float, norm_functional) -> float:
    """(sum_k 2^{2ks} ||P_k field||^2)^{1/2} over the representable bands for a
    supplied per-band functional.

    ``field`` is any array with trailing spatial axes; ``norm_functional``
    maps a band piece to a nonnegative scalar.  Warns when the below-range
    residual carries more than 1% of the chosen norm.
    """
    dec = BandDecomposition.compute(grid, field)
    band_values = {k: float(norm_functional(piece)) for k, piece in dec.pieces.items()}
    total = sum(2.0 ** (2 * k * s) * v**2 for k, v in band_values.items())
    res_norm = float(norm_functional(dec.low_residual))
    ref = float(norm_functional(field))
    if ref > 0 and res_norm > 0.01 * ref:
        warnings.warn(
            f"besov_l2_norm: residual band P_<{dec.k_min} carries {res_norm:.3e} "
            f"of the field norm {ref:.3e}",
            stacklevel=2,
        )
    return float(np.sqrt(total))


# -- sequence lemma -----------------------------------------------------------


def sequence_bound_check(a: np.ndarray, b: np.ndarray, h: float) -> tuple[float, float]:
    """lhs = (sum_k 2^{2hk} (sum_{l>=k-2} 2^{-hl} a_l b_l)^2)^{1/2} and its ratio
    to ||a||_inf ||b||_2.

    Sequences are indexed l = 0..m-1; the k-sum is truncated once the
    geometric weight is below 1e-16 relative.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = len(a)
    if len(b) != m:
        raise ValueError("sequences must share length")
    pad = ceil(27.0 / h)
    ks = np.arange(-pad, m + 3)
    terms = 2.0 ** (-h * np.arange(m)) * a * b
    suffix = np.append(np.cumsum(terms[::-1])[::-1], 0.0)  # suffix[j] = sum of terms[j:]
    inner = suffix[np.clip(ks - 2, 0, m)]
    lhs = float(np.sqrt(np.sum(2.0 ** (2 * h * ks) * inner**2)))
    denom = float(np.max(np.abs(a)) * np.sqrt(np.sum(b**2)))
    ratio = lhs / denom if denom > 0 else 0.0
    return lhs, ratio


# -- spectral derivatives -----------------------------------------------------


def _gradient(grid: Grid, spectrum: np.ndarray):
    """Yield d_1 f, ..., d_n f from the spectrum of f, one inverse transform each."""
    for j in range(grid.n):
        yield fourier_inverse(grid, 2j * np.pi * grid.xi[j] * spectrum)


def _advect(grid: Grid, a: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """a . grad f for a (t, n, x) field a, from the spectrum of f."""
    return sum(a[:, j] * d for j, d in enumerate(_gradient(grid, spectrum)))
