"""Periodic box discretization, Fourier transforms, and the exact free propagator.

The box [0, L)^n with N points per axis stands in for R^n; fields of interest
decay below ~1e-10 at the boundary so torus wrap-around is negligible.  The
transform convention is

    fhat(xi) = integral f(x) exp(-2*pi*i x.xi) dx,

discretized as a Riemann sum with weight dx^n, so discrete norms approximate
continuum integrals with no extra factors.  Frequencies live on the dual
lattice (1/L)*{-N/2, ..., N/2-1}^n and are stored unshifted (FFT order).

Two spectral rules live here once: ``_free_phase`` (exp(-4*pi^2*i*t*|xi|^2),
shared by the free flow and the solver's Lawson steps) and ``_mass_share``
(the share of a spectrum's L^2 mass under a weight, read by every spectral
guard in the package).  Every transform of the package is made here.
``_fftn`` and ``_ifftn`` are the unweighted transforms that write into a
caller's buffer; the solver's step pairs them, so their dx^n weights cancel.
``_real_forward`` and ``_real_inverse`` are the unweighted pair for real
fields: the half spectrum keeps the N/2 + 1 columns 0 .. N/2 of the last axis
(``_half`` cuts a full-lattice mask to them), the other columns being mirror
images.  ``_fft`` and ``_ifft`` are the 1-D transforms along one axis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "SpaceTimeField",
    "make_grid",
    "fourier_forward",
    "fourier_inverse",
    "free_propagate",
    "free_evolution",
    "gaussian_wavepacket",
    "l2_norm",
    "slice_l2",
    "spatial_norm",
]


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid in n spatial dimensions plus a uniform time grid."""

    n: int
    N: int
    L: float
    dt: float
    T: float

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if not _is_power_of_two(self.N) or self.N < 8:
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if self.L <= 0:
            raise ValueError("box side L must be positive")
        if self.dt <= 0:
            raise ValueError("time step dt must be positive")
        if self.dt > self.T:
            raise ValueError(f"dt={self.dt} exceeds final time T={self.T}")
        nt = self.T / self.dt
        if abs(nt - round(nt)) > 1e-9 * max(1.0, nt):
            raise ValueError("T must be an integer multiple of dt")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def nyquist(self) -> float:
        """Largest representable frequency magnitude per axis, N/(2L)."""
        return self.N / (2.0 * self.L)

    @cached_property
    def _inv_cell(self) -> float:
        """1 / dx^n, the inverse transform's weight."""
        return 1.0 / self.dx**self.n

    @cached_property
    def x1d(self) -> np.ndarray:
        return np.arange(self.N) * self.dx

    @cached_property
    def freq1d(self) -> np.ndarray:
        """Per-axis frequencies in FFT order (spacing 1/L)."""
        return np.fft.fftfreq(self.N, d=self.dx)

    @cached_property
    def xi(self) -> np.ndarray:
        """Frequency vectors, shape (n,) + spatial shape, FFT order."""
        grids = np.meshgrid(*([self.freq1d] * self.n), indexing="ij")
        return np.stack(grids)

    @cached_property
    def xi_norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.xi**2, axis=0))

    @cached_property
    def _half_xi(self) -> np.ndarray:
        """xi on a half spectrum's columns with the Nyquist frequency set to 0:
        2 pi i times it is d_j of a real field.  The real part of the full
        complex path drops the Nyquist lines of an odd multiplier the same way."""
        freq = self.freq1d.copy()
        freq[self.N // 2] = 0.0
        return np.stack(np.meshgrid(*([freq] * self.n), indexing="ij"))[..., : self.N // 2 + 1]

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer mode vectors xi*L, shape (n,) + spatial shape, FFT order."""
        return np.rint(self.xi * self.L).astype(np.int64)

    def spatial_meshes(self) -> list[np.ndarray]:
        return np.meshgrid(*([self.x1d] * self.n), indexing="ij")


def make_grid(n: int, N: int, L: float, dt: float, T: float) -> Grid:
    """Build a grid; rejects non-power-of-two N and dt > T."""
    return Grid(n=n, N=N, L=float(L), dt=float(dt), T=float(T))


def fourier_forward(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Riemann-sum discretization of the forward transform (weight dx^n).

    Works on any array whose trailing n axes are the spatial axes.
    """
    axes = tuple(range(-grid.n, 0))
    return np.fft.fftn(values, axes=axes) * grid.dx**grid.n


def fourier_inverse(grid: Grid, spectrum: np.ndarray) -> np.ndarray:
    axes = tuple(range(-grid.n, 0))
    return np.fft.ifftn(spectrum, axes=axes) * grid._inv_cell


def _fftn(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unweighted forward transform over every axis of ``values``, written into ``out``."""
    return np.fft.fftn(values, out=out)


def _ifftn(spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unweighted inverse transform over every axis of ``spectrum``, written into ``out``."""
    return np.fft.ifftn(spectrum, out=out)


def _fft(values: np.ndarray, axis: int) -> np.ndarray:
    """Unweighted 1-D forward transform along ``axis``."""
    return np.fft.fft(values, axis=axis)


def _ifft(spectrum: np.ndarray, axis: int) -> np.ndarray:
    """Unweighted 1-D inverse transform along ``axis``."""
    return np.fft.ifft(spectrum, axis=axis)


def _real_forward(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Unweighted half spectrum (``rfftn``) of a real array over its trailing n axes."""
    return np.fft.rfftn(values, axes=tuple(range(-grid.n, 0)))


def _real_inverse(grid: Grid, half: np.ndarray) -> np.ndarray:
    """The real array (``irfftn``) of a half spectrum; inverts `_real_forward`."""
    return np.fft.irfftn(half, s=grid.shape, axes=tuple(range(-grid.n, 0)))


def _half(grid: Grid, array: np.ndarray) -> np.ndarray:
    """The N/2 + 1 columns of a full-lattice array that a half spectrum keeps."""
    return array[..., : grid.N // 2 + 1]


def slice_l2(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Discrete L^2 norms over the trailing n spatial axes, one per leading index."""
    axes = tuple(range(-grid.n, 0))
    return np.sqrt(np.sum(np.abs(values) ** 2, axis=axes) * grid.dx**grid.n)


def spatial_norm(grid: Grid, values: np.ndarray, p: float, inner: float | None = None) -> np.ndarray:
    """Discrete L^p norm over the trailing n spatial axes, one per leading index.

    Infinite exponents are maxima and every reduced axis carries the Riemann
    weight dx.  With ``inner`` the first spatial axis is reduced in L^inner
    and the remaining n-1 axes in L^p (for n = 1 only L^inner remains).
    """

    def reduce(a, q, axes):
        if np.isinf(q):
            return np.max(a, axis=axes)
        return (np.sum(a**q, axis=axes) * grid.dx ** len(axes)) ** (1.0 / q)

    a = np.abs(values)
    n = grid.n
    if inner is not None:
        a, n = reduce(a, inner, (-n,)), n - 1
        if n == 0:
            return a
    return reduce(a, p, tuple(range(-n, 0)))


def l2_norm(grid: Grid, values: np.ndarray) -> float:
    """Discrete L^2 norm over the trailing n spatial axes (all axes for a slice)."""
    return float(slice_l2(grid, values))


def _mass_share(spectrum: np.ndarray, weight: np.ndarray, half: bool = False) -> float:
    """Share of the spectrum's L^2 mass under ``weight`` (0 for a zero spectrum).

    With ``half``, ``spectrum`` is a `_real_forward` half spectrum and ``weight``
    an even weight cut by `_half`: columns 1 .. N/2 - 1 also stand for their
    mirror images, so they count twice.
    """
    power = np.abs(spectrum) ** 2
    if half:
        power[..., 1:-1] *= 2.0
    total = np.sum(power)
    if total == 0:
        return 0.0
    return float(np.sum(power * weight) / total)


def _nyquist_leak_fraction(grid: Grid, spectrum: np.ndarray) -> float:
    return _mass_share(spectrum, grid.xi_norm >= 0.9 * grid.nyquist)


def _free_phase(grid: Grid, t) -> np.ndarray:
    """exp(-4*pi^2*i*t*|xi|^2); an array t broadcasts against the spatial axes."""
    return np.exp(-4.0 * np.pi**2 * 1j * t * grid.xi_norm**2)


def free_propagate(grid: Grid, f: np.ndarray, t: float) -> np.ndarray:
    """Apply the free flow: multiplier exp(-4*pi^2*i*t*|xi|^2) in frequency.

    Unitary in L^2 and a one-parameter group; warns when the input carries
    more than 1e-6 of its spectral mass within 10% of the Nyquist frequency.
    """
    spec = fourier_forward(grid, f)
    leak = _nyquist_leak_fraction(grid, spec)
    if leak > 1e-6:
        warnings.warn(
            f"free_propagate: {leak:.2e} of spectral mass within 10% of Nyquist",
            stacklevel=2,
        )
    # bound to a name: numpy would multiply into an unnamed temporary in place,
    # and that loop rounds differently
    phase = _free_phase(grid, t)
    return fourier_inverse(grid, spec * phase)


@dataclass
class SpaceTimeField:
    """Complex samples u(t_i, x_j) on the grid's uniform time grid.

    values has shape (n_steps+1,) + grid.shape.  The spectral cache holds the
    per-slice transform; treat instances as immutable.
    """

    grid: Grid
    values: np.ndarray
    _spectrum: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        expected = (self.grid.n_steps + 1,) + self.grid.shape
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum", fourier_forward(self.grid, self.values))
        return self._spectrum

    def slice_l2(self) -> np.ndarray:
        """L^2 norm of every time slice."""
        return slice_l2(self.grid, self.values)


def free_evolution(grid: Grid, f: np.ndarray) -> SpaceTimeField:
    """Sample the free flow of f on the grid's time grid."""
    spec = fourier_forward(grid, f)
    phases = _free_phase(grid, grid.times[(...,) + (None,) * grid.n])
    return SpaceTimeField(grid, fourier_inverse(grid, spec * phases))


def gaussian_wavepacket(
    grid: Grid,
    center: np.ndarray | tuple | float,
    width: float,
    momentum: np.ndarray | tuple | float = 0.0,
) -> np.ndarray:
    """Unit-L^2 packet exp(-pi|x-c|^2/w^2) * exp(2*pi*i p.(x-c)).

    Rejects widths under 4*dx (under-resolved) and momenta beyond half the
    Nyquist frequency.
    """
    center = np.broadcast_to(np.asarray(center, dtype=float), (grid.n,))
    momentum = np.broadcast_to(np.asarray(momentum, dtype=float), (grid.n,))
    if width < 4 * grid.dx:
        raise ValueError(f"width {width} under-resolved: need >= 4*dx = {4*grid.dx}")
    if np.max(np.abs(momentum)) > 0.5 * grid.nyquist:
        raise ValueError("momentum beyond half-Nyquist")
    meshes = grid.spatial_meshes()
    r2 = sum((m - c) ** 2 for m, c in zip(meshes, center))
    phase = sum(2.0 * np.pi * p * (m - c) for m, p, c in zip(meshes, momentum, center))
    f = np.exp(-np.pi * r2 / width**2) * np.exp(1j * phase)
    return f / l2_norm(grid, f)
