"""Cap systems on the sphere, the pointwise ray bound, cap-localized decay.

The direction net at scale m is a 2^{-m} covering of S^{n-1} with separation
bounded below by c 2^{-m} (uniform angles for n=2, a Fibonacci lattice sized
to the covering requirement for n=3).  The subordinate partition of unity is
built from a fixed plateau bump of the chordal distance, normalized by the
(>= 1) sum over the net, so it sums to one identically and inherits uniform
derivative bounds from the net geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, isqrt, log2

import numpy as np

from .grid import Grid, _fft, fourier_forward, fourier_inverse, spatial_norm
from .lp import CUTOFFS, AnnulusCutoff, _gauss_legendre

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
    # 512 sample rows at a time; all points are unit vectors, so the nearest one
    # has the largest inner product.  The distance to it is computed from the
    # difference, so the value is the minimum over all points to the last bit,
    # and no (dense, M, n) difference array forms
    worst = 0.0
    for i in range(0, len(dense), 512):
        chunk = dense[i : i + 512]
        nearest = points[np.argmax(chunk @ points.T, axis=1)]
        d2 = np.sum((chunk - nearest) ** 2, axis=1)
        worst = max(worst, float(np.max(d2)))
    return float(np.sqrt(worst))


def _pair_audit(points: np.ndarray, radius: float) -> tuple[float, int]:
    # least distance between two of the unit vectors, and the most of them any
    # one has within `radius` (itself included), 512 rows at a time.  Only pairs
    # the Gram estimate 2 - 2 p.q puts within a round-off margin of the block's
    # least distance or of the radius get their distance from the difference,
    # so both are exact to the last bit and no (M, M, n) array forms
    sep2, overlap = np.inf, 0
    for i in range(0, len(points), 512):
        rows = np.arange(i, min(i + 512, len(points)))
        est = 2.0 - 2.0 * (points[rows] @ points.T)
        est[np.arange(len(rows)), rows] = np.inf
        r, c = np.nonzero((est <= est.min() + 1e-9) | (est < radius**2 + 1e-9))
        d2 = np.sum((points[rows[r]] - points[c]) ** 2, axis=1)
        sep2 = min(sep2, float(d2.min()))
        close = np.bincount(r[np.sqrt(d2) < radius], minlength=len(rows))
        overlap = max(overlap, int(close.max()) + 1)
    return float(np.sqrt(sep2)), overlap


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
    support = 2.0 * 2.0**-m  # chordal support radius of the cap bump
    separation, overlap = _pair_audit(thetas, 2.0 * support)
    return AngularNet(n, m, thetas, covering, separation, overlap)


@dataclass
class CapPartition:
    """Smooth partition {psi_j} subordinate to the balls B(theta_j, 2^{-m})."""

    net: AngularNet

    def bump_values(self, omega: np.ndarray) -> np.ndarray:
        """Unnormalized bumps: (count, Q) for omega of shape (Q, n)."""
        omega = np.atleast_2d(omega)
        thetas, scale = self.net.thetas, 2.0**self.net.m
        # chi vanishes from 2 - glue width on, so only pairs nearer than that
        # (plus a round-off margin) are evaluated; the thetas are unit vectors,
        # so |theta - omega|^2 = 1 + |omega|^2 - 2 theta.omega picks them out
        reach = (2.0 - CUTOFFS.glue_width) / scale
        d2_est = 1.0 + np.sum(omega**2, axis=1) - 2.0 * (thetas @ omega.T)
        j, q = np.nonzero(d2_est < reach**2 + 1e-9)
        d = np.sqrt(np.maximum(np.sum((thetas[j] - omega[q]) ** 2, axis=1), 0.0))
        out = np.zeros((len(thetas), len(omega)))
        out[j, q] = CUTOFFS.chi(d * scale)
        return out

    def values(self, omega: np.ndarray) -> np.ndarray:
        """Partition values psi_j(omega): columns sum to 1."""
        p = self.bump_values(omega)
        total = p.sum(axis=0)
        if np.min(total) <= 0:
            raise AssertionError("cap bumps fail to cover the sphere")
        return p / total

    def derivative_bound(self) -> float:
        """First-derivative bound sampled at 2000 points by central differences
        of step 1e-4, scaled by the cap width 2^{-m}."""
        h = 1e-4
        omega = _dense_sphere_sample(self.net.n, 2000, seed=5)
        rng = np.random.default_rng(6)
        tang = rng.normal(size=omega.shape)
        tang -= omega * np.sum(tang * omega, axis=1, keepdims=True)
        tang /= np.linalg.norm(tang, axis=1, keepdims=True)

        def at(points):
            pts = points / np.linalg.norm(points, axis=1, keepdims=True)
            return self.values(pts)

        diff = (at(omega + h * tang) - at(omega - h * tang)) / (2 * h)
        return float(np.max(np.abs(diff)) * 2.0**-self.net.m)


def cap_partition(net: AngularNet) -> CapPartition:
    return CapPartition(net)


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

    def __init__(self, sigma_max: float):
        n_nodes = max(128, int(np.ceil(12.0 * max(sigma_max, 1.0) * 1.5)))
        self.nodes, self.weights = _gauss_legendre(n_nodes, 0.25, 2.0)
        self.phi = CUTOFFS.phi(self.nodes)
        hi, count = sigma_max * 1.05 + 1.0, 240001
        self.sig = np.linspace(-hi, hi, count)
        self.step = 2.0 * hi / (count - 1)
        self.spacing = np.diff(self.sig)  # step up to the rounding of sig
        self.table = _uniform_dft(-hi, self.step, count, self.nodes, self.weights * self.phi)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """np.interp(s, sig, table) for the complex table in one pass, held at the
        end values; the uniform spacing gives each point's cell directly."""
        s = np.asarray(s, dtype=float)
        cell = np.clip(np.floor((s - self.sig[0]) / self.step), 0, len(self.sig) - 2)
        cell = cell.astype(np.intp)
        frac = np.clip((s - self.sig[cell]) / self.spacing[cell], 0.0, 1.0)
        lo = self.table[cell]
        return lo + frac * (self.table[cell + 1] - lo)


def pointwise_ray_bound_check(
    grid: Grid,
    H_k: np.ndarray,
    k: int,
) -> dict:
    """lhs = sup_x sum_{l>-k} sum_j int |H_k(x + z theta_j^{l+k})| phi(2^{-l} z) dz
    against rhs = 2^{k(n-1)} ||H_k||_{L1}.

    The l sum is truncated at the box scale (support of phi(2^{-l}.) <= L/2);
    the truncation point is recorded, and a box too small for the first scale
    l = 1 - k is a ValueError.  Ray integrals of |H_k| are evaluated on
    all base points at once through the 1-D kernel of phi: the ray integral
    along theta at scale l is F^{-1}(|H_k|^ 2^l Phi0(2^l xi.theta)), so the
    multipliers 2^l Phi0(2^l xi.theta) are summed over l and the net in
    frequency space and one inverse FFT gives the whole double sum.  The cost
    is one grid-sized table lookup per direction plus one forward and one
    inverse FFT, and the Phi0 table (see ``_PhiKernel``) forms no
    (points, nodes) matrix.
    """
    hi = 2.0 - CUTOFFS.glue_width
    truncated = floor(log2(grid.L / 2.0 / hi))
    if truncated < 1 - k:
        raise ValueError(f"no scale fits the box: l_start {1 - k} > l_truncated_at {truncated}")
    mag = np.abs(H_k)
    spec = fourier_forward(grid, mag.astype(complex))
    s_max = float(np.max(np.abs(grid.xi_norm))) * 2.0**truncated * 1.05
    kern = _PhiKernel(s_max)
    mult = np.zeros(grid.shape, dtype=complex)
    for l in range(-k + 1, truncated + 1):
        net = angular_net(grid.n, l + k)
        for theta in net.thetas:
            s = sum(grid.xi[j] * theta[j] for j in range(grid.n))
            mult += 2.0**l * kern(2.0**l * s)
    lhs = float(np.max(fourier_inverse(grid, spec * mult).real))
    rhs = 2.0 ** (k * (grid.n - 1)) * float(spatial_norm(grid, mag, 1.0))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0 else np.inf,
        "l_truncated_at": truncated,
        "l_start": -k + 1,
    }


# -- cap-localized dispersive decay -------------------------------------------------


_BLOCK_POINTS = 1 << 17  # lattice points per row or column block in _lattice_sup
_SIGN_IMAGES = ((1, 1), (1, -1), (-1, 1), (-1, -1))  # (xi1, xi2) -> (s1 xi1, s2 xi2)


def _cap_weight(points: np.ndarray, caps: list) -> np.ndarray:
    """prod_j chi(2^{k_j} |omega - theta_j|) at each row omega of points (Q, n)."""
    out = np.ones(len(points))
    for theta, kj in caps:
        d = np.linalg.norm(points - np.asarray(theta)[None, :], axis=1)
        out *= CUTOFFS.chi(2.0**kj * d)
    return out


def _lattice_sup(t, N: int, dxi, om, caps: list) -> float:
    """max_x |I(t, x)| over the N x N lattice x = j / (N dxi), both signs via FFT order.

    g = profile * cap weight * e^{-4 pi^2 i t |xi|^2} dxi^2 on the xi-lattice
    m dxi (m the integer modes in FFT order) is built into one complex64 N^2
    buffer.  The build walks only the quadrant a, b >= 0 of modes with
    |xi_j| < 2 scale, a block of rows a at a time, and evaluates the profile
    only where 0.5 scale < |xi| < 2 scale (it is exactly 0 elsewhere).  The
    float32 r^2, the profile and the chirp depend only on (|a|, |b|), so each
    is computed once and scattered to the four sign images (+-a, +-b), whose
    FFT indices are a or N - a; the images of a = 0 and b = 0 are written
    once.  Since xi_ax[-m] == -xi_ax[m] exactly in float32, r^2, omega =
    xi / |xi| and every stored value are the bits a pointwise build over the
    whole lattice makes.

    Without caps the weight is 1 and omega is never formed; row -a then
    holds the values of row a, so it is not built and takes row a's
    transform.  With caps, the weight of each image is evaluated only where
    omega lies inside every cap's support: chi(2^k |omega - theta|) is
    exactly 0 once |omega|^2 + |theta|^2 - 2 omega.theta (the expansion of
    |omega - theta|^2, to rounding) reaches ((2 - glue) / 2^k)^2 (1 + 1e-9),
    so pruned points keep the zero they would have been given, and a row
    with no point inside is neither transformed nor stored.

    Rows a and -a finish in the same block, whose rows are transformed along
    axis 1 before they are stored; the axis-0 transform then runs over
    column blocks with a running max of |.|.  These are the two 1-D passes
    np.fft.fft2 makes (last axis first), so the sup is bit-identical to fft2
    of the whole buffer (the transform of a zero row is zero up to the sign
    of 0), and untouched rows stay zero pages.
    """
    scale = 2.0**om.k_f
    m = np.fft.fftfreq(N, d=1.0 / N)  # integer modes, FFT order: 0 .. N/2 - 1 first
    xi_ax = (m * dxi).astype(np.float32)
    xi_q = xi_ax[: np.count_nonzero(xi_ax[: N // 2] < 2.0 * scale)]  # modes 0 <= m, xi < 2 scale
    b = np.arange(len(xi_q))
    col_of = {1: b, -1: (N - b) % N}
    # each cap's centre and squared support radius, widened past rounding
    reach = 2.0 - CUTOFFS.glue_width
    support = [(np.asarray(th, float), (reach / 2.0**kj) ** 2 * (1.0 + 1e-9)) for th, kj in caps]
    step = max(1, _BLOCK_POINTS // N)
    g = np.zeros((N, N), dtype=np.complex64)
    half = max(1, step // 2)  # rows a per block: with their images -a, a block of step rows
    for a0 in range(0, len(xi_q), half):
        x1 = xi_q[a0 : a0 + half]
        a = np.arange(a0, a0 + len(x1))
        r2 = x1[:, None] ** 2 + xi_q[None, :] ** 2
        r = np.sqrt(r2)
        ri, ci = np.nonzero((r > 0.5 * scale) & (r < 2.0 * scale))
        prof = om.profile(r[ri, ci]).astype(np.float32)
        keep = prof > 0
        ri, ci, prof = ri[keep], ci[keep], prof[keep]
        r2_sel = r2[ri, ci].astype(np.float64)
        chirp = np.exp(-4j * np.pi**2 * t * r2_sel)
        if caps:
            norm = np.sqrt(r2_sel)
            o1, o2 = x1[ri].astype(np.float64) / norm, xi_q[ci].astype(np.float64) / norm
            o_sq = o1**2 + o2**2
        else:
            val = (prof * chirp * dxi**2).astype(np.complex64)
        # rows +a, then rows -a; without caps row -a repeats row a and is not built
        images = _SIGN_IMAGES if caps else _SIGN_IMAGES[:2]
        dest = np.concatenate([a, (N - a) % N]) if caps else a
        block = np.zeros((len(dest), N), dtype=np.complex64)
        live = np.zeros(len(dest), dtype=bool)
        row_of = {1: ri, -1: ri + len(x1)}
        for s1, s2 in images:
            sel = np.ones(len(ri), dtype=bool)
            if s1 < 0:
                sel &= a[ri] > 0
            if s2 < 0:
                sel &= ci > 0
            if caps:
                for th, lim in support:
                    sel &= o_sq + th @ th - 2.0 * (s1 * th[0] * o1 + s2 * th[1] * o2) < lim
                sel = np.flatnonzero(sel)
                pts = np.stack([s1 * o1[sel], s2 * o2[sel]], axis=1)
                v = (prof[sel] * _cap_weight(pts, caps) * chirp[sel] * dxi**2).astype(np.complex64)
            else:
                v = val[sel]
            block[row_of[s1][sel], col_of[s2][ci[sel]]] = v
            live[row_of[s1][sel]] = True
        rows = np.flatnonzero(live)  # rows with no point in a cap stay zero pages
        spec = _fft(block[rows], 1)
        g[dest[rows]] = spec
        if not caps:
            mirror = a[rows] > 0
            g[N - a[rows][mirror]] = spec[mirror]
    sup = 0.0
    for j in range(0, N, step):
        # the axis-0 transform of columns j..j+step, taken along a contiguous copy
        cols = _fft(g[:, j : j + step].T.copy(), 1)
        sup = max(sup, float(np.max(np.abs(cols))))
    return sup


def cap_oscillatory_decay(
    t_list,
    caps: list,
    k_f: int = 0,
    n: int = 2,
    fixed_axis: bool = False,
) -> dict:
    """sup_x of the cap-localized free oscillatory integral per time.

    I(t,x) = int e^{-4 pi^2 i t |xi|^2 + 2 pi i xi.x} prod_j psi(2^{k_j}(xi/|xi| -
    theta_j)) Omega(xi) dxi over the annulus at 2^{k_f} (a continuum
    quadrature, not the lattice), with the xi step tied to the stationary
    radius 4 pi t rho so the oscillation stays resolved at every t.  The full
    path samples I on an N x N x-lattice (N a power of two, N dxi >= 4.6
    scale), see ``_lattice_sup``: the integrand is built into one complex64
    N^2 buffer from the quadrant xi1, xi2 >= 0, whose r^2, profile and chirp
    serve all four sign images bit for bit; cap weights are evaluated only
    inside every cap's support, where they can be nonzero.  Each block of
    rows +-xi1 is transformed along xi2 as it is stored, and the xi1
    transform runs over column blocks keeping a running max of |I|; the peak
    is the buffer plus a few small blocks.  With
    ``fixed_axis`` the first frequency coordinate is frozen and only the
    remaining n-1 integrate, giving the (n-1)/2 decay rate: per time the sum
    J(x2) = sum_j w_j e^{-4 pi^2 i t xi2_j^2} e^{2 pi i x2 xi2_j} over
    max(4096, ~300 t scale^2) nodes xi2_j is taken at 6000 uniform x2 through
    ``_uniform_dft``, about 155 exponentials per node, with no (6000, nodes)
    phase matrix.  Returns {"t": ..., "sup": ...} plus the zero-time sanity
    value at x = 0 (full path) or the frozen coordinate "xi1" (fixed axis).
    """
    om = AnnulusCutoff(k_f)
    t_list = np.asarray(sorted(t_list), dtype=float)
    if not np.all(np.isfinite(t_list) & (t_list >= 0)):
        raise ValueError(f"t_list must hold finite times >= 0, got {t_list.tolist()}")
    for theta, _ in caps:
        if not np.all(np.isfinite(theta)):
            raise ValueError(f"cap centre {np.asarray(theta).tolist()} is not finite")
    scale = 2.0**k_f

    if n == 2 and not fixed_axis:
        # Cartesian quadrature on a full x-lattice whose window 1/dxi exceeds
        # the stationary radius 4 pi t rho_max, so the periodization images stay
        # in the rapidly decaying region; the sup comes from _lattice_sup.
        sups = []
        rho_hi = 2.05 * scale
        for t in t_list:
            r_max = 4 * np.pi * t * rho_hi * 1.12 + 8.0 / scale
            dxi = 1.0 / (2.2 * r_max)
            half = 2.3 * scale
            N = int(2 ** np.ceil(np.log2(2 * half / dxi)))
            sups.append(_lattice_sup(t, N, dxi, om, caps))
        # zero-time sanity: I(0,0) = int a Omega rho drho dphi
        n_phi_s = 2048
        phi = np.linspace(0, 2 * np.pi, n_phi_s, endpoint=False)
        omega = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        a_phi = _cap_weight(omega, caps) * (2 * np.pi / n_phi_s)
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
            w = om.profile(r) * _cap_weight(omega_pts, caps) * (xi2[1] - xi2[0])
            w = w * np.exp(-4j * np.pi**2 * t * xi2**2)
            n_x2 = 6000
            J = _uniform_dft(-x2_max, 2.0 * x2_max / (n_x2 - 1), n_x2, xi2, w)
            sups.append(float(np.max(np.abs(J))))
        return {"t": t_list, "sup": np.array(sups), "xi1": xi1}

    raise ValueError("cap_oscillatory_decay is implemented for n=2 (full and fixed-axis)")


def decay_slope(table: dict) -> float:
    """Least-squares slope of log sup|I| against log t; every t must be finite and > 0."""
    t = np.asarray(table["t"], dtype=float)
    bad = t[~(np.isfinite(t) & (t > 0))]
    if bad.size:
        raise ValueError(f"decay_slope needs finite times t > 0, got t = {bad[0]}")
    t = np.log(t)
    y = np.log(np.maximum(table["sup"], 1e-300))
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])
