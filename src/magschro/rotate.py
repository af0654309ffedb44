"""Rotation of periodic fields by Fourier shears, and rotation sampling: a sup
over rotations is the max over a `RotationSampler`'s samples.

Planar rotations decompose into three axis shears; each shear is a per-row
Fourier phase shift.  A shear is exact only while the sheared field stays
periodic, so the rotation is exact only for a field that vanishes near the
box edge.  The lab's Y inputs fill the box: at 64^2, L = 32, their rotated
bands differ from the band's own Fourier series at the rotated points by
0.07-0.36 of the band max on `gauss_bump` and 1.4-1.7 on `low_band`.
Angles are first reduced by exact quarter-turn lattice maps so the shear
factors stay bounded.  3-D rotations factor into ZYZ planar rotations.
Rotation is about the box center.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import Grid, _fft, _ifft

__all__ = [
    "rotate_field",
    "rotation_angle_2d",
    "rotation_2d",
    "RotationSampler",
]


@lru_cache(maxsize=64)  # every shear of 32 planar rotations on one grid
def _shear_table(grid: Grid, s: float) -> np.ndarray:
    """exp(2 pi i xi_f s (x_c - L/2)) indexed [f, c]: frequency f, coordinate c."""
    coords = grid.x1d - grid.L / 2.0  # relative to the box center
    return np.exp(2j * np.pi * grid.freq1d[:, None] * (s * coords[None, :]))


def _shear(grid: Grid, arr: np.ndarray, shift_axis: int, coord_axis: int, s: float) -> np.ndarray:
    """Evaluate f at (.., x_shift + s*(x_coord - c), ..): per-row spectral shift."""
    if s == 0.0:
        return arr
    table = _shear_table(grid, s)
    if shift_axis > coord_axis:
        table = table.T
    shape = [1] * arr.ndim
    shape[shift_axis] = shape[coord_axis] = grid.N
    spec = _fft(arr, shift_axis)
    spec *= table.reshape(shape)
    return _ifft(spec, shift_axis)


def _quarter_turn(arr: np.ndarray, axis_a: int, axis_b: int, grid: Grid) -> np.ndarray:
    """Exact lattice rotation by +90 degrees in the (a, b) plane about the center.

    (u, v) -> (-v, u) in centered coordinates; on the periodic lattice with the
    center at index N/2 this is an index permutation.
    """
    N = grid.N
    idx = (N - np.arange(N)) % N  # reflection through the center index N/2
    # new[u, v] = old[-v, u] in centered (a, b) coordinates
    out = np.take(arr, idx, axis=axis_a)
    out = np.swapaxes(out, axis_a, axis_b)
    return out


def rotation_angle_2d(R: np.ndarray) -> float:
    return float(np.arctan2(R[1, 0], R[0, 0]))


def _rotate_plane(grid: Grid, arr: np.ndarray, axis_a: int, axis_b: int, theta: float) -> np.ndarray:
    """Rotate in the (a, b) coordinate plane by theta (radians)."""
    quarter = int(np.round(theta / (np.pi / 2.0)))
    residual = theta - quarter * np.pi / 2.0
    out = arr
    for _ in range(quarter % 4):
        out = _quarter_turn(out, axis_a, axis_b, grid)
    if abs(residual) > 1e-15:
        a = -np.tan(residual / 2.0)
        b = np.sin(residual)
        out = _shear(grid, out, axis_a, axis_b, a)
        out = _shear(grid, out, axis_b, axis_a, b)
        out = _shear(grid, out, axis_a, axis_b, a)
    return out


def _zyz_angles(R: np.ndarray) -> tuple[float, float, float]:
    beta = float(np.arccos(np.clip(R[2, 2], -1.0, 1.0)))
    if abs(np.sin(beta)) > 1e-12:
        alpha = float(np.arctan2(R[1, 2], R[0, 2]))
        gamma = float(np.arctan2(R[2, 1], -R[2, 0]))
    else:
        alpha = float(np.arctan2(R[1, 0], R[0, 0])) if R[2, 2] > 0 else float(
            np.arctan2(-R[1, 0], -R[0, 0])
        )
        gamma = 0.0
    return alpha, beta, gamma


def rotate_field(grid: Grid, arr: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Sample w(z) = f(c + R(z - c)) on the lattice, f band-limited.

    Spatial axes are the trailing n axes of ``arr``; leading axes broadcast.
    For n=1 only the identity and the point reflection are available.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (grid.n, grid.n):
        raise ValueError(f"rotation must be {grid.n}x{grid.n}")
    off = arr.ndim - grid.n
    if grid.n == 1:
        if np.isclose(R[0, 0], 1.0):
            return arr
        if np.isclose(R[0, 0], -1.0):
            N = grid.N
            idx = (N // 2 - (np.arange(N) - N // 2)) % N
            return np.take(arr, idx, axis=-1)
        raise ValueError("1-D admits only +-1")
    if grid.n == 2:
        theta = rotation_angle_2d(R)
        return _rotate_plane(grid, arr, off, off + 1, theta)
    alpha, beta, gamma = _zyz_angles(R)
    # R = Rz(alpha) Ry(beta) Rz(gamma); composition acts right-to-left on points,
    # and sampling w(z) = f(Rz) composes in the same order on the sample maps.
    out = arr
    for axis_pair, ang in (((off, off + 1), alpha), ((off + 2, off), beta), ((off, off + 1), gamma)):
        out = _rotate_plane(grid, out, axis_pair[0], axis_pair[1], ang)
    return out


def rotation_2d(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@dataclass
class RotationSampler:
    """Seeded sample of SO(n); every sup over rotations in the lab is the max
    over ``samples()``.

    n=1: the identity and the point reflection.  n=2: uniform angle grid.
    n=3: seeded uniform quaternions.
    """

    n: int
    count: int = 16
    seed: int = 0
    refine_rounds: int = 0  # accepted only as 0: no sup refines its samples
    _samples: list = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"rotation count must be at least 1, got {self.count}")
        if self.refine_rounds != 0:
            raise ValueError(f"refine_rounds must be 0, got {self.refine_rounds}")

    def samples(self) -> list[np.ndarray]:
        if self._samples is not None:
            return self._samples
        if self.n == 1:
            mats = [np.array([[1.0]]), np.array([[-1.0]])]
        elif self.n == 2:
            mats = [rotation_2d(t) for t in np.linspace(0, 2 * np.pi, self.count, endpoint=False)]
        else:
            rng = np.random.default_rng(np.random.SeedSequence(self.seed))
            mats = []
            for _ in range(self.count):
                q = rng.normal(size=4)
                q /= np.linalg.norm(q)
                mats.append(_quat_to_matrix(q))
        self._samples = mats
        return mats
