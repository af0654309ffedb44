"""Reference evaluations for the parametrix and dyadic-calculus tests.

`ray_integral_trapezoid` and `gradient_identity_check` reach a ray field by a
route that shares no kernel with `magschro.parametrix`: a trapezoid rule along
the wrapped ray, and a chi'' kernel from the closed-form second derivative of
the glue.  `ray` reads one ray field alone, real; `sigma_at` reads sigma0 and
sigma1 for one frequency vector, and `spectral_gradient` is the gradient by
Fourier multipliers.  `smoothstep`, `time_derivative_4th` and
`equation_residual` write out as plain expressions what the program evaluates
on the glue ramp alone or in place; `band_error_terms` and `error_group_pass`
are the error-term passes on whole (t, n, x) arrays, which the program walks
one time block at a time.  The tests hold the program to them bit for bit.
"""

import numpy as np

from magschro.grid import _half, _real_forward, _real_inverse, fourier_forward, fourier_inverse
from magschro.lp import (
    CUTOFFS,
    _advect,
    _apply_mask,
    _gradient,
    _leq_mask,
    band_mask,
    representable_bands,
)
from magschro.parametrix import SIGMA0_FACTOR, PhaseField, _chi_prime
from magschro.potentials import VectorPotential
from magschro.solver import _time_derivative_4th


def spectral_gradient(grid, values: np.ndarray) -> np.ndarray:
    """Gradient by the multipliers 2 pi i xi_j; the output gains a leading axis of size n."""
    spec = fourier_forward(grid, values)
    return np.stack([fourier_inverse(grid, 2j * np.pi * grid.xi[j] * spec) for j in range(grid.n)])


def ray(phase: PhaseField, name: str, t_idx: int | None) -> np.ndarray:
    """The ray field ``name`` of `RAY_FIELDS` at slice t_idx for every direction
    of ``phase``, real, (D,) + shape or (n, D) + shape; t_idx None gives the
    static factor of a rank-1 field (see `PhaseField.time_groups`)."""
    field = phase.combine([(name, 1.0)], t_idx)
    return field.real.reshape(field.shape[:-1] + phase.grid.shape)


def sigma_at(phase: PhaseField, t_idx: int, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma0, sigma1) fields of ``phase`` for one frequency vector."""
    xi = np.asarray(xi, dtype=float)
    r = float(np.linalg.norm(xi))
    theta = xi / r
    sub = PhaseField(phase.A, phase.k_f, theta[None], phase.bands)
    s0 = SIGMA0_FACTOR * ray(sub, "S", t_idx)[0]
    s1 = 2j * np.pi * r * ray(sub, "T", t_idx)[0]
    return s0, s1


# -- the chi'' form of <grad T, theta> ---------------------------------------------


def _chi_dprime(u: np.ndarray) -> np.ndarray:
    """chi'' inside its support (1 + d, 2 - d), with chi = 1 - step(x) on the glue,
    step = g(x) / (g(x) + g(1 - x)), g(x) = exp(-1/x), x = (u - 1 - d) / (1 - 2d)."""
    d = CUTOFFS.glue_width
    x = (u - 1.0 - d) / (1.0 - 2.0 * d)

    def g(y):  # g, g', g''
        e = np.exp(-1.0 / y)
        return e, e / y**2, e * (1.0 - 2.0 * y) / y**4

    g0, g1, g2 = g(x)
    h0, h1, h2 = g(1.0 - x)
    total = g0 + h0
    num = g1 * h0 + g0 * h1  # step' = num / total^2
    dnum = g2 * h0 - g0 * h2
    step2 = (dnum * total - 2.0 * num * (g1 - h1)) / total**3
    return -step2 / (1.0 - 2.0 * d) ** 2


def _chi_dprime_kernel(s: np.ndarray) -> np.ndarray:
    """Q0(s) = int chi''(u) e^{2 pi i s u} du by 400-node Gauss-Legendre on the
    chi'' support (the check reads the same at 200 and 800 nodes)."""
    d = CUTOFFS.glue_width
    a, b = 1.0 + d, 2.0 - d
    x, w = np.polynomial.legendre.leggauss(400)
    u = 0.5 * (b - a) * x + 0.5 * (a + b)
    return np.exp(2j * np.pi * np.multiply.outer(s, u)) @ (0.5 * (b - a) * w * _chi_dprime(u))


def gradient_identity_check(phase: PhaseField, xi_samples: np.ndarray) -> float:
    """Relative agreement at the first time slice of <grad T, theta> with its
    chi'' ray form  -sum_k 2^{2k} int_0^inf At_k(x + z theta).theta chi''(2^{2k} z) dz,
    whose band-k Fourier kernel, weight 2^{2k} included, is Q0(2^{-2k} eta.theta)."""
    xi_samples = np.atleast_2d(np.asarray(xi_samples, dtype=float))
    dirs = xi_samples / np.linalg.norm(xi_samples, axis=1)[:, None]
    sub = PhaseField(phase.A, phase.k_f, dirs, phase.bands)
    lhs = ray(sub, "theta_grad_T", 0)
    rhs = np.zeros((len(dirs), sub.n_points), dtype=complex)
    for b in phase.bands:
        theta_dot = np.einsum("dj,jm->dm", dirs, b.coef["tilde"][0])
        rhs -= (theta_dot * _chi_dprime_kernel(4.0**-b.k * (dirs @ b.eta.T))) @ b.plane
    rhs = rhs.real.reshape(lhs.shape)
    scale = max(float(np.max(np.abs(rhs))), 1e-30)
    return float(np.max(np.abs(lhs - rhs))) / scale


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


# -- plain expressions of kernels evaluated in place or on part of the input --------


def _glue(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=float)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def smoothstep(x: np.ndarray) -> np.ndarray:
    """The exp(-1/x) glue step with both glue factors over every entry."""
    x = np.asarray(x, dtype=float)
    g = _glue(x)
    return g / (g + _glue(1.0 - x))


def time_derivative_4th(values: np.ndarray, dt: float) -> np.ndarray:
    """`solver._time_derivative_4th` with its interior as one expression of
    full-size temporaries."""
    out = _time_derivative_4th(values, dt)
    out[2:-2] = (-values[4:] + 8 * values[3:-1] - 8 * values[1:-3] + values[:-4]) / (12 * dt)
    return out


def equation_residual(u, A, F) -> np.ndarray:
    """`solver.equation_residual`'s field, each step a new array."""
    grid = u.grid
    ut = time_derivative_4th(u.values, grid.dt)
    spec = u.spectrum()
    lap = fourier_inverse(grid, -4.0 * np.pi**2 * grid.xi_norm**2 * spec)
    res = ut - 1j * lap
    if A is not None:
        res += _advect(grid, A.values, spec)
    if F is not None:
        res -= np.stack([F(t) for t in grid.times])
    return res


# -- the error-term passes on whole arrays ------------------------------------------


def band_error_terms(u, A, ks):
    """(E^k, u_hat phi_k) per band k in ks, from one transform of A and A . grad u."""
    grid = u.grid
    u_hat = fourier_forward(grid, u.values)
    a_hat = _real_forward(grid, A.values)
    adv_hat = fourier_forward(grid, _advect(grid, A.values, u_hat))
    for k in ks:
        mask = band_mask(grid, k)
        a_low = _real_inverse(grid, a_hat * _half(grid, _leq_mask(grid, k - 4)))
        uk_hat = u_hat * mask
        yield fourier_inverse(grid, adv_hat * mask) - _advect(grid, a_low, uk_hat), uk_hat


def error_group_pass(u, A, ks):
    """(k, the four groups of E^k) for each band of ks, highest first, from one
    walk down the high pieces j of whole (t, n, x) arrays."""
    grid = u.grid
    u_hat = fourier_forward(grid, u.values)
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
