"""Cap systems on the sphere, the pointwise ray bound, cap-localized decay.

The direction net at scale m is a 2^{-m} covering of S^{n-1} with separation
bounded below by c 2^{-m} (uniform angles for n=2, a Fibonacci lattice sized
to the covering requirement for n=3).  The subordinate partition of unity is
built from a fixed plateau bump of the chordal distance, normalized by the
(>= 1) sum over the net, so it sums to one identically and inherits uniform
derivative bounds from the net geometry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import floor, isqrt, log2

import numpy as np

from .grid import Grid, fourier_forward, fourier_inverse
from .lp import CutoffPair, band_mask

__all__ = [
    "AngularNet",
    "CapPartition",
    "angular_net",
    "cap_partition",
    "random_caps",
    "pointwise_ray_bound_check",
    "cap_oscillatory_decay",
    "decay_slope",
]


def _fibonacci_sphere(M: int) -> np.ndarray:
    i = np.arange(M) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / M)
    golden = np.pi * (1.0 + np.sqrt(5.0))
    theta = golden * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )


def _covering_radius(points: np.ndarray, dense: np.ndarray) -> float:
    # max over the dense sample of the chordal distance to the nearest net point,
    # 512 sample rows at a time so no (dense, M, n) difference array forms
    worst = 0.0
    for i in range(0, len(dense), 512):
        d2 = np.sum((dense[i : i + 512, None, :] - points[None, :, :]) ** 2, axis=2)
        worst = max(worst, float(np.max(np.min(d2, axis=1))))
    return float(np.sqrt(worst))


def _dense_sphere_sample(n: int, count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 31)))
    v = rng.normal(size=(count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass
class AngularNet:
    """2^{-m}-net {theta_j} on S^{n-1} with covering/separation/overlap audit."""

    n: int
    m: int
    thetas: np.ndarray
    covering: float
    separation: float
    max_overlap: int

    @property
    def count(self) -> int:
        return len(self.thetas)


def angular_net(n: int, m: int) -> AngularNet:
    """Direction net at scale m >= 0; count <= c 2^{m(n-1)}."""
    if m < 0:
        raise ValueError("net scale m must be >= 0")
    if n == 2:
        M = int(np.ceil(2.0 * np.pi * 2.0**m))
        ang = np.arange(M) * 2.0 * np.pi / M
        thetas = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    elif n == 3:
        target = 2.0**-m
        M = max(8, int(np.ceil(9.0 * 4.0**m)))
        dense = _dense_sphere_sample(3, 4000 + 2000 * m)
        while True:
            thetas = _fibonacci_sphere(M)
            if _covering_radius(thetas, dense) <= target:
                break
            M = int(np.ceil(M * 1.3))
    else:
        raise ValueError("angular nets implemented for n in {2, 3}")
    dense = _dense_sphere_sample(n, 4000 + 2000 * m, seed=m)
    covering = _covering_radius(thetas, dense)
    d2 = np.sum((thetas[:, None, :] - thetas[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    separation = float(np.sqrt(d2.min()))
    support = 2.0 * 2.0**-m  # chordal support radius of the cap bump
    overlap = int(np.max(np.sum(np.sqrt(d2) < 2.0 * support, axis=1)) + 1)
    return AngularNet(n, m, thetas, covering, separation, overlap)


@dataclass
class CapPartition:
    """Smooth partition {psi_j} subordinate to the balls B(theta_j, 2^{-m})."""

    net: AngularNet
    cutoffs: CutoffPair = field(default_factory=CutoffPair)

    def bump_values(self, omega: np.ndarray) -> np.ndarray:
        """Unnormalized bumps: (count, Q) for omega of shape (Q, n)."""
        omega = np.atleast_2d(omega)
        d = np.sqrt(
            np.maximum(
                np.sum((self.net.thetas[:, None, :] - omega[None, :, :]) ** 2, axis=2), 0.0
            )
        )
        return self.cutoffs.chi(d * 2.0**self.net.m)

    def values(self, omega: np.ndarray) -> np.ndarray:
        """Partition values psi_j(omega): columns sum to 1."""
        p = self.bump_values(omega)
        total = p.sum(axis=0)
        if np.min(total) <= 0:
            raise AssertionError("cap bumps fail to cover the sphere")
        return p / total

    def derivative_bound(self, samples: int = 2000, h: float = 1e-4) -> float:
        """Sampled first-derivative bound, scaled by the cap width 2^{-m}."""
        omega = _dense_sphere_sample(self.net.n, samples, seed=5)
        rng = np.random.default_rng(6)
        tang = rng.normal(size=omega.shape)
        tang -= omega * np.sum(tang * omega, axis=1, keepdims=True)
        tang /= np.linalg.norm(tang, axis=1, keepdims=True)

        def at(points):
            pts = points / np.linalg.norm(points, axis=1, keepdims=True)
            return self.values(pts)

        diff = (at(omega + h * tang) - at(omega - h * tang)) / (2 * h)
        return float(np.max(np.abs(diff)) * 2.0**-self.net.m)


def cap_partition(net: AngularNet, cutoffs: CutoffPair | None = None) -> CapPartition:
    return CapPartition(net, cutoffs or CutoffPair())


def random_caps(n: int, mu: int, seed: int = 0, k_range=(1, 4)) -> list[tuple[np.ndarray, int]]:
    """mu random cap centers clustered around one direction so products survive."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 17)))
    base = rng.normal(size=n)
    base /= np.linalg.norm(base)
    caps = []
    for _ in range(mu):
        k = int(rng.integers(k_range[0], k_range[1] + 1))
        jitter = rng.normal(size=n) * (2.0**-k / 4.0)
        theta = base + jitter
        theta /= np.linalg.norm(theta)
        caps.append((theta, k))
    return caps


# -- pointwise ray bound ----------------------------------------------------------


def _uniform_dft(
    start: float, step: float, count: int, nodes: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """sum_j weights_j e^{2 pi i s_m nodes_j} at s_m = start + m step, m < count.

    With m = q B + r and B = ceil(sqrt(count)) the phase splits exactly into
    e^{2 pi i (start + q B step) u} e^{2 pi i r step u}, so the sums are one
    (Q, nodes) @ (nodes, B) product read row by row: about 2 sqrt(count) nodes
    exponentials instead of count nodes, and no (count, nodes) matrix forms.
    """
    B = isqrt(count - 1) + 1
    Q = -(-count // B)
    coarse = np.exp(2j * np.pi * np.multiply.outer(start + np.arange(Q) * (B * step), nodes))
    fine = np.exp(2j * np.pi * np.multiply.outer(nodes, np.arange(B) * step))
    return ((coarse * weights) @ fine).reshape(-1)[:count]


class _PhiKernel:
    """Phi0(s) = int phi(u) e^{2 pi i s u} du tabulated densely (phi smooth compact).

    The table holds the Gauss-Legendre sums sum_j w_j phi(u_j) e^{2 pi i s u_j}
    on 240001 uniform points s, with max(128, ceil(18 s_max)) nodes on the
    support [1/4, 2] of phi.  ``_uniform_dft`` evaluates them with about
    2 * 490 * nodes exponentials and one small matrix product (about 0.05 s
    at s_max = 6), and no (points, nodes) phase matrix forms.
    """

    def __init__(self, cutoffs: CutoffPair, sigma_max: float):
        n_nodes = max(128, int(np.ceil(12.0 * max(sigma_max, 1.0) * 1.5)))
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        a, b = 0.25, 2.0
        self.nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
        self.weights = 0.5 * (b - a) * w
        self.phi = cutoffs.phi(self.nodes)
        hi, count = sigma_max * 1.05 + 1.0, 240001
        self.sig = np.linspace(-hi, hi, count)
        self.table = _uniform_dft(
            -hi, 2.0 * hi / (count - 1), count, self.nodes, self.weights * self.phi
        )

    def __call__(self, s: np.ndarray) -> np.ndarray:
        re = np.interp(s, self.sig, self.table.real)
        im = np.interp(s, self.sig, self.table.imag)
        return re + 1j * im


def pointwise_ray_bound_check(
    grid: Grid,
    H_k: np.ndarray,
    k: int,
    cutoffs: CutoffPair | None = None,
    l_max: int | None = None,
) -> dict:
    """lhs = sup_x sum_{l>-k} sum_j int |H_k(x + z theta_j^{l+k})| phi(2^{-l} z) dz
    against rhs = 2^{k(n-1)} ||H_k||_{L1}.

    The l sum is truncated at the box scale (support of phi(2^{-l}.) <= L/2);
    the truncation point is recorded.  Ray integrals of |H_k| are evaluated on
    all base points at once through the 1-D kernel of phi: the ray integral
    along theta at scale l is F^{-1}(|H_k|^ 2^l Phi0(2^l xi.theta)), so the
    multipliers 2^l Phi0(2^l xi.theta) are summed over l and the net in
    frequency space and one inverse FFT gives the whole double sum.  The cost
    is one grid-sized table lookup per direction plus one forward and one
    inverse FFT, and the Phi0 table (see ``_PhiKernel``) forms no
    (points, nodes) matrix.
    """
    c = cutoffs or CutoffPair()
    hi = 2.0 - c.glue_width
    cap = floor(log2(grid.L / 2.0 / hi))
    truncated = l_max if l_max is not None else cap
    if truncated > cap:
        raise ValueError("l_max exceeds the box scale")
    mag = np.abs(H_k)
    spec = fourier_forward(grid, mag.astype(complex))
    s_max = float(np.max(np.abs(grid.xi_norm))) * 2.0**truncated * 1.05
    kern = _PhiKernel(c, s_max)
    mult = np.zeros(grid.shape, dtype=complex)
    for l in range(-k + 1, truncated + 1):
        net = angular_net(grid.n, l + k)
        for theta in net.thetas:
            s = sum(grid.xi[j] * theta[j] for j in range(grid.n))
            mult += 2.0**l * kern(2.0**l * s)
    lhs = float(np.max(fourier_inverse(grid, spec * mult).real))
    rhs = 2.0 ** (k * (grid.n - 1)) * float(np.sum(mag) * grid.dx**grid.n)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0 else np.inf,
        "l_truncated_at": truncated,
        "l_start": -k + 1,
    }


# -- cap-localized dispersive decay -------------------------------------------------


def cap_oscillatory_decay(
    t_list,
    caps: list,
    k_f: int = 0,
    n: int = 2,
    cutoffs: CutoffPair | None = None,
    fixed_axis: bool = False,
) -> dict:
    """sup_x of the cap-localized free oscillatory integral per time.

    I(t,x) = int e^{-4 pi^2 i t |xi|^2 + 2 pi i xi.x} prod_j psi(2^{k_j}(xi/|xi| -
    theta_j)) Omega(xi) dxi over the annulus at 2^{k_f} (a continuum
    quadrature, not the lattice), with the xi step tied to the stationary
    radius 4 pi t rho so the oscillation stays resolved at every t.  With
    ``fixed_axis`` the first frequency coordinate is frozen and only the
    remaining n-1 integrate, giving the (n-1)/2 decay rate: per time the sum
    J(x2) = sum_j w_j e^{-4 pi^2 i t xi2_j^2} e^{2 pi i x2 xi2_j} over
    max(4096, ~300 t scale^2) nodes xi2_j is taken at 6000 uniform x2 through
    ``_uniform_dft``, about 155 exponentials per node, with no (6000, nodes)
    phase matrix.  Returns {"t": ..., "sup": ...} plus the zero-time sanity
    value at x = 0 (full path) or the frozen coordinate "xi1" (fixed axis).
    """
    from .parametrix import AnnulusCutoff

    c = cutoffs or CutoffPair()
    om = AnnulusCutoff(k_f, c)
    t_list = np.asarray(sorted(t_list), dtype=float)
    scale = 2.0**k_f

    def cap_weight(omega_points: np.ndarray) -> np.ndarray:
        out = np.ones(len(omega_points))
        for theta, kj in caps:
            d = np.linalg.norm(omega_points - np.asarray(theta)[None, :], axis=1)
            out *= c.chi(2.0**kj * d)
        return out

    if n == 2 and not fixed_axis:
        # Cartesian quadrature + one big FFT: I on a full x-lattice whose
        # window 1/dxi exceeds the stationary radius 4 pi t rho_max, so the
        # periodization images stay in the rapidly decaying region.
        sups = []
        rho_hi = 2.05 * scale
        for t in t_list:
            r_max = 4 * np.pi * t * rho_hi * 1.12 + 8.0 / scale
            dxi = 1.0 / (2.2 * r_max)
            half = 2.3 * scale
            N = int(2 ** np.ceil(np.log2(2 * half / dxi)))
            m = np.fft.fftfreq(N, d=1.0 / N)  # integer modes, FFT order
            xi_ax = (m * dxi).astype(np.float32)
            x1 = xi_ax[:, None]
            x2 = xi_ax[None, :]
            r2 = x1**2 + x2**2
            prof = om.profile(np.sqrt(r2)).astype(np.float32)
            sel = prof > 0
            xi1_sel = np.broadcast_to(x1, (N, N))[sel].astype(np.float64)
            xi2_sel = np.broadcast_to(x2, (N, N))[sel].astype(np.float64)
            r2_sel = r2[sel].astype(np.float64)
            omega_pts = np.stack([xi1_sel, xi2_sel], axis=1)
            omega_pts /= np.sqrt(r2_sel)[:, None]
            g = np.zeros((N, N), dtype=np.complex64)
            g[sel] = (
                prof[sel]
                * cap_weight(omega_pts)
                * np.exp(-4j * np.pi**2 * t * r2_sel)
                * dxi**2
            ).astype(np.complex64)
            del r2, prof
            vals = np.fft.fft2(g)  # I at x = j / (N dxi), both signs via FFT order
            del g
            sups.append(float(np.max(np.abs(vals))))
            del vals, sel
        # zero-time sanity: I(0,0) = int a Omega rho drho dphi
        n_phi_s = 2048
        phi = np.linspace(0, 2 * np.pi, n_phi_s, endpoint=False)
        omega = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        a_phi = cap_weight(omega) * (2 * np.pi / n_phi_s)
        rho = np.linspace(0.45 * scale, rho_hi, 4096)
        sanity = float(np.sum(om.profile(rho) * rho) * (rho[1] - rho[0]) * np.sum(a_phi))
        return {"t": t_list, "sup": np.array(sups), "zero_time_value": sanity}

    if n == 2 and fixed_axis:
        xi1 = 0.8 * scale
        sups = []
        for t in t_list:
            # x2 window past the stationary radius; the xi2 step keeps its
            # period 1/dxi2 above 2.2 x2_max, as the full path does
            x2_max = 4 * np.pi * t * 2.2 * scale * 1.12 + 8.0
            n_xi = max(4096, int(np.ceil(4.4 * scale * 2.2 * x2_max)) + 1)
            xi2 = np.linspace(-2.2 * scale, 2.2 * scale, n_xi)
            r = np.sqrt(xi1**2 + xi2**2)
            omega_pts = np.stack([np.full_like(xi2, xi1) / r, xi2 / r], axis=1)
            w = om.profile(r) * cap_weight(omega_pts) * (xi2[1] - xi2[0])
            w = w * np.exp(-4j * np.pi**2 * t * xi2**2)
            n_x2 = 6000
            J = _uniform_dft(-x2_max, 2.0 * x2_max / (n_x2 - 1), n_x2, xi2, w)
            sups.append(float(np.max(np.abs(J))))
        return {"t": t_list, "sup": np.array(sups), "xi1": xi1}

    raise ValueError("cap_oscillatory_decay is implemented for n=2 (full and fixed-axis)")


def decay_slope(table: dict) -> float:
    """Least-squares slope of log sup|I| against log t."""
    t = np.log(table["t"])
    y = np.log(np.maximum(table["sup"], 1e-300))
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])
