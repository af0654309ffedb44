"""Spectral core: transforms, Parseval, free propagator, wave packets."""

import numpy as np
import pytest

from magschro.grid import (
    SpaceTimeField,
    fourier_forward,
    fourier_inverse,
    free_evolution,
    free_propagate,
    gaussian_wavepacket,
    l2_norm,
    make_grid,
    spatial_norm,
)


def gaussian_free_solution(grid, center, width, momentum, t):
    """Closed-form free evolution of the (unnormalized) Gaussian packet.

    With fhat(xi) = exp(-2pi i (xi-p).c) w^n exp(-pi w^2 |xi-p|^2) the flow
    multiplier exp(-4pi^2 i t |xi|^2) gives

        u(t,x) = e^{2pi i p.x} e^{-4pi^2 i t |p|^2} w^n beta^{-n/2}
                 exp(-pi |x - c - 4pi t p|^2 / beta),   beta = w^2 + 4pi i t.

    Independent of the FFT pipeline; used as the propagation oracle.
    """
    center = np.asarray(center, float)
    momentum = np.asarray(momentum, float)
    beta = width**2 + 4j * np.pi * t
    meshes = grid.spatial_meshes()
    shift = center + 4 * np.pi * t * momentum
    r2 = sum((m - s) ** 2 for m, s in zip(meshes, shift))
    phase = sum(2 * np.pi * p * m for m, p in zip(meshes, momentum))
    amp = width**grid.n * beta ** (-grid.n / 2.0)
    return (
        np.exp(1j * phase)
        * np.exp(-4j * np.pi**2 * t * np.sum(momentum**2))
        * amp
        * np.exp(-np.pi * r2 / beta)
        * np.exp(-2j * np.pi * np.dot(momentum, center))
        * np.exp(2j * np.pi * np.dot(momentum, center))
    )


class TestMakeGrid:
    def test_basic_arithmetic(self):
        g = make_grid(2, 64, 32, 0.01, 1)
        assert g.dx == 0.5
        assert np.isclose(g.freq1d[1], 1 / 32)

    def test_dual_lattice_frequencies(self):
        g = make_grid(1, 8, 8, 0.1, 1)
        assert np.allclose(np.sort(g.freq1d), [-0.5, -0.375, -0.25, -0.125, 0, 0.125, 0.25, 0.375])

    def test_point_count(self):
        g = make_grid(3, 16, 16, 0.05, 0.5)
        assert int(np.prod(g.shape)) == 4096

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_grid(2, 48, 32, 0.01, 1)
        with pytest.raises(ValueError):
            make_grid(2, 64, 32, 2.0, 1.0)
        with pytest.raises(ValueError):
            make_grid(4, 64, 32, 0.01, 1)


class TestFourier:
    def test_spike_flat_spectrum(self):
        g = make_grid(1, 64, 16, 0.1, 1)
        f = np.zeros(g.shape, dtype=complex)
        f[13] = 1.0
        spec = fourier_forward(g, f)
        assert np.allclose(np.abs(spec), g.dx**g.n)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(7)
        for n, N in [(1, 64), (2, 32), (3, 16)]:
            g = make_grid(n, N, 16, 0.1, 1)
            f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
            back = fourier_inverse(g, fourier_forward(g, f))
            assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_gaussian_pair_analytic(self):
        # oracle: exp(-pi|x-c|^2/w^2) has transform w^n exp(-pi w^2 |xi|^2) e^{-2pi i xi.c}
        g = make_grid(2, 128, 64, 0.1, 1)
        w, c = 4.0, np.array([32.0, 30.0])
        meshes = g.spatial_meshes()
        f = np.exp(-np.pi * sum((m - ci) ** 2 for m, ci in zip(meshes, c)) / w**2)
        spec = fourier_forward(g, f.astype(complex))
        xi = g.xi
        expected = (
            w**2
            * np.exp(-np.pi * w**2 * g.xi_norm**2)
            * np.exp(-2j * np.pi * (xi[0] * c[0] + xi[1] * c[1]))
        )
        err = np.max(np.abs(spec - expected)) / np.max(np.abs(expected))
        assert err <= 1e-8

    def test_parseval(self):
        rng = np.random.default_rng(3)
        g = make_grid(2, 64, 32, 0.1, 1)
        f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        spec = fourier_forward(g, f)
        lhs = np.sum(np.abs(f) ** 2) * g.dx**2
        rhs = np.sum(np.abs(spec) ** 2) / g.L**2
        assert abs(lhs - rhs) <= 1e-12 * lhs


class TestFreePropagate:
    def test_t0_identity(self):
        g = make_grid(2, 32, 32, 0.1, 1)
        f = gaussian_wavepacket(g, (16, 16), 4.0)
        assert np.max(np.abs(free_propagate(g, f, 0.0) - f)) <= 1e-12

    def test_unitary_and_group(self):
        g = make_grid(2, 64, 32, 0.1, 1)
        f = gaussian_wavepacket(g, (16, 16), 3.0, (0.2, -0.1))
        u1 = free_propagate(g, f, 0.7)
        assert abs(l2_norm(g, u1) - l2_norm(g, f)) <= 1e-12
        u2 = free_propagate(g, free_propagate(g, f, 0.3), 0.4)
        assert np.max(np.abs(u1 - u2)) <= 1e-12

    @pytest.mark.parametrize("n,N,L", [(1, 256, 128), (2, 128, 64)])
    def test_gaussian_oracle(self, n, N, L):
        g = make_grid(n, N, L, 0.1, 1)
        c = np.full(n, L / 2.0)
        p = np.full(n, 0.25)
        w = 4.0
        f = gaussian_free_solution(g, c, w, p, 0.0)
        u = free_propagate(g, f, 1.0)
        exact = gaussian_free_solution(g, c, w, p, 1.0)
        err = l2_norm(g, u - exact) / l2_norm(g, f)
        assert err <= 1e-6

    def test_sup_norm_decay(self):
        # direct evaluation of sup_x |e^{it Delta} f| * t^{n/2} over t in [1, 8];
        # bounded by the closed-form ceiling w^2/(4 pi) (beta = w^2 + 4 pi i t)
        w = 4.0
        g = make_grid(2, 512, 256, 0.5, 8)
        f = gaussian_free_solution(g, (128.0, 128.0), w, (0.0, 0.0), 0.0)
        vals = []
        for t in [1.0, 2.0, 4.0, 8.0]:
            u = free_propagate(g, f, t)
            vals.append(np.max(np.abs(u)) * t ** (g.n / 2.0))
        vals = np.array(vals)
        assert np.all(vals <= 1.05 * w**2 / (4 * np.pi))
        t = 4.0
        expected = w**2 / abs(w**2 + 4j * np.pi * t)
        u = free_propagate(g, f, t)
        assert abs(np.max(np.abs(u)) - expected) <= 1e-6

    def test_nyquist_leak_warning(self):
        g = make_grid(1, 32, 8, 0.1, 1)
        rng = np.random.default_rng(0)
        f = rng.normal(size=g.shape).astype(complex)  # white: heavy mass near Nyquist
        with pytest.warns(UserWarning, match="Nyquist"):
            free_propagate(g, f, 0.1)


class TestWavepacket:
    def test_zero_momentum_real_positive(self):
        g = make_grid(2, 64, 32, 0.1, 1)
        f = gaussian_wavepacket(g, (16, 16), 4.0)
        assert np.max(np.abs(f.imag)) <= 1e-14
        assert np.all(f.real > 0)
        assert abs(l2_norm(g, f) - 1.0) <= 1e-12

    def test_disjoint_packets_pythagoras(self):
        g = make_grid(1, 256, 64, 0.1, 1)
        f1 = gaussian_wavepacket(g, 16.0, 2.0)
        f2 = gaussian_wavepacket(g, 48.0, 2.0)
        total = l2_norm(g, f1 + f2)
        assert abs(total - np.sqrt(2.0)) <= 1e-10

    def test_spectrum_peak_at_momentum(self):
        g = make_grid(2, 64, 32, 0.1, 1)
        p = (0.25, -0.375)
        f = gaussian_wavepacket(g, (16, 16), 4.0, p)
        spec = np.abs(fourier_forward(g, f))
        idx = np.unravel_index(np.argmax(spec), spec.shape)
        peak = np.array([g.xi[j][idx] for j in range(2)])
        assert np.allclose(peak, p)

    def test_rejects_bad_parameters(self):
        g = make_grid(2, 64, 32, 0.1, 1)
        with pytest.raises(ValueError, match="under-resolved"):
            gaussian_wavepacket(g, (16, 16), 1.0)
        with pytest.raises(ValueError, match="Nyquist"):
            gaussian_wavepacket(g, (16, 16), 4.0, (0.9, 0.0))


def test_spacetime_field_shape_and_parseval():
    g = make_grid(2, 32, 32, 0.25, 1)
    f = gaussian_wavepacket(g, (16, 16), 4.0, (0.1, 0.0))
    u = free_evolution(g, f)
    assert isinstance(u, SpaceTimeField)
    assert u.values.shape == (5, 32, 32)
    spec = u.spectrum()
    for i in range(5):
        lhs = np.sum(np.abs(u.values[i]) ** 2) * g.dx**2
        rhs = np.sum(np.abs(spec[i]) ** 2) / g.L**2
        assert abs(lhs - rhs) <= 1e-12 * lhs
    assert np.allclose(u.slice_l2(), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, np.inf])
@pytest.mark.parametrize("inner", [None, 1.0, 2.0, np.inf])
def test_spatial_norm_matches_written_out_sums(n, p, inner):
    g = make_grid(n, 8, 3.0, 0.5, 1.0)
    rng = np.random.default_rng(n)
    values = rng.normal(size=(3,) + g.shape) + 1j * rng.normal(size=(3,) + g.shape)

    def lp(entries, q, weight):
        # (sum |v|^q weight)^(1/q) over a flat list; q = inf is the maximum
        mags = [abs(v) for v in entries]
        if np.isinf(q):
            return max(mags)
        return (sum(m**q for m in mags) * weight) ** (1.0 / q)

    expected = []
    for piece in values:
        if inner is None:
            expected.append(lp(piece.ravel(), p, g.dx**n))
            continue
        # one inner norm per fiber along the first spatial axis
        fibers = piece.reshape(g.N, -1).T
        inner_norms = [lp(fiber, inner, g.dx) for fiber in fibers]
        expected.append(inner_norms[0] if n == 1 else lp(inner_norms, p, g.dx ** (n - 1)))
    got = spatial_norm(g, values, p, inner=inner)
    assert got.shape == (3,)
    assert np.allclose(got, expected, rtol=1e-13, atol=0.0)
