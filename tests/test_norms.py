"""Admissible pairs, mixed norms, rotations, anisotropic norms, solution norm."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magschro.grid import (
    SpaceTimeField,
    fourier_inverse,
    free_evolution,
    gaussian_wavepacket,
    l2_norm,
    make_grid,
)
from magschro.lp import band_mask, representable_bands
from magschro.norms import (
    AdmissiblePair,
    admissible_pairs,
    anisotropic_norm,
    is_admissible,
    low_dim_anisotropic_exponents,
    lqlr_norm,
    path_sup_time_norm,
    time_lq,
    xdot_norm,
)
from magschro.rotate import RotationSampler, rotate_field, rotation_2d


class TestAdmissible:
    def test_endpoint_pair_every_dimension(self):
        for n in (1, 2, 3, 4):
            assert is_admissible(np.inf, 2, n)

    def test_forbidden_two_dimensional_endpoint(self):
        assert not is_admissible(2, np.inf, 2)
        assert is_admissible(2, 6, 3)  # the n=3 endpoint stays allowed

    def test_three_d_pair(self):
        assert is_admissible(2, 6, 3)

    def test_rejects_small_exponents(self):
        with pytest.raises(ValueError):
            is_admissible(1.5, 4, 2)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=3, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_generated_pairs_sit_on_scaling_line(self, n, count):
        for p in admissible_pairs(n, count):
            assert is_admissible(p.q, p.r, n)

    def test_span_reaches_endpoint(self):
        ps = admissible_pairs(3, 6)
        assert any(np.isclose(p.r, 6.0) for p in ps)


class TestLqLr:
    def setup_method(self):
        self.grid = make_grid(2, 32, 32, 0.25, 1)

    def _field(self, seed=0):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(self.grid.n_steps + 1,) + self.grid.shape) + 1j * rng.normal(
            size=(self.grid.n_steps + 1,) + self.grid.shape
        )
        return SpaceTimeField(self.grid, vals)

    def test_q2_r2_matches_spacetime_l2(self):
        u = self._field()
        v = lqlr_norm(u, 2, 2)
        direct = np.sqrt(
            np.trapezoid(u.slice_l2() ** 2, u.times)
        )
        assert abs(v - direct) <= 1e-12 * direct

    def test_qinf_r2_is_max_slice(self):
        u = self._field(1)
        assert abs(lqlr_norm(u, np.inf, 2) - np.max(u.slice_l2())) <= 1e-14

    def test_separable_product(self):
        g = self.grid
        a = np.cos(np.linspace(0, 2, g.n_steps + 1)) + 1.2
        b = gaussian_wavepacket(g, (16, 16), 4.0)
        u = SpaceTimeField(g, a[:, None, None] * b[None])
        q, r = 3.0, 5.0
        expected = time_lq(g.times, a, q) * (np.sum(np.abs(b) ** r) * g.dx**2) ** (1 / r)
        assert abs(lqlr_norm(u, q, r) - expected) <= 1e-10 * expected

    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(3)
        u = self._field(4)
        v = self._field(5)
        for q, r in [(2, 2), (4, 3), (np.inf, 2), (3, np.inf)]:
            c = 2.7
            assert abs(
                lqlr_norm(SpaceTimeField(self.grid, c * u.values), q, r) - c * lqlr_norm(u, q, r)
            ) <= 1e-10 * lqlr_norm(u, q, r)
            lhs = lqlr_norm(SpaceTimeField(self.grid, u.values + v.values), q, r)
            assert lhs <= lqlr_norm(u, q, r) + lqlr_norm(v, q, r) + 1e-10


class TestRotation:
    def test_radial_invariance(self):
        g = make_grid(2, 64, 32, 0.5, 1)
        f = gaussian_wavepacket(g, (16, 16), 4.0)
        for theta in (0.3, 1.2, 2.0, -0.7):
            w = rotate_field(g, f, rotation_2d(theta))
            assert np.max(np.abs(w - f)) <= 1e-9

    def test_matches_analytic_rotation_oracle(self):
        # oracle: anisotropic Gaussian evaluated analytically at rotated points
        g = make_grid(2, 64, 32, 0.5, 1)
        c = g.L / 2
        w1, w2 = 3.0, 5.0

        def field_at(px, py):
            return np.exp(-np.pi * ((px - c) ** 2 / w1**2 + (py - c) ** 2 / w2**2))

        xs = g.spatial_meshes()
        f = field_at(xs[0], xs[1])
        for theta in (0.53, -0.2, 2.4):
            R = rotation_2d(theta)
            px = c + R[0, 0] * (xs[0] - c) + R[0, 1] * (xs[1] - c)
            py = c + R[1, 0] * (xs[0] - c) + R[1, 1] * (xs[1] - c)
            expected = field_at(px, py)
            got = rotate_field(g, f, R)
            assert np.max(np.abs(got - expected)) <= 1e-8

    def test_quarter_turn_exact_permutation(self):
        g = make_grid(2, 16, 16, 0.5, 1)
        rng = np.random.default_rng(7)
        f = rng.normal(size=g.shape)
        w = rotate_field(g, f, rotation_2d(np.pi / 2))
        # four quarter turns = identity, exactly
        for _ in range(3):
            w = rotate_field(g, w, rotation_2d(np.pi / 2))
        assert np.array_equal(w, f)

    def test_three_d_rotation_radial_invariance(self):
        g = make_grid(3, 32, 16, 0.5, 1)
        f = gaussian_wavepacket(g, (8, 8, 8), 3.0)
        sampler = RotationSampler(3, count=3, seed=5)
        for R in sampler.samples():
            w = rotate_field(g, f, R)
            assert np.max(np.abs(w - f)) <= 1e-6

    def test_three_d_matches_analytic_rotation_oracle(self):
        # oracle: a Gaussian with three different widths evaluated at rotated
        # points, so a phase table on the wrong pair of axes shows
        g = make_grid(3, 32, 16, 0.5, 1)
        c = g.L / 2
        widths = (2.5, 2.8, 3.2)

        def field_at(p):
            return np.exp(-np.pi * sum((pj - c) ** 2 / w**2 for pj, w in zip(p, widths)))

        xs = g.spatial_meshes()
        f = field_at(xs)
        for R in RotationSampler(3, count=3, seed=11).samples():
            p = [c + sum(R[i, j] * (xs[j] - c) for j in range(3)) for i in range(3)]
            got = rotate_field(g, f, R)
            assert np.max(np.abs(got - field_at(p))) <= 1e-6

    def test_sampler_orthogonality(self):
        for n in (2, 3):
            for R in RotationSampler(n, count=12, seed=3).samples():
                assert np.max(np.abs(R @ R.T - np.eye(n))) <= 1e-12
                assert abs(np.linalg.det(R) - 1.0) <= 1e-12


class TestAnisotropic:
    def setup_method(self):
        self.grid = make_grid(2, 32, 32, 0.5, 1)

    def test_identity_separable(self):
        g = self.grid
        x = g.x1d
        a = np.exp(-np.pi * (x - 16) ** 2 / 9.0)
        b = np.exp(-np.pi * (x - 16) ** 2 / 16.0)
        f = a[:, None] * b[None, :]
        u = SpaceTimeField(g, np.repeat(f[None], g.n_steps + 1, axis=0).astype(complex))
        got = anisotropic_norm(u, np.inf, 2.0, 1.0, np.eye(2))
        inner = np.sum(np.abs(a)) * g.dx
        outer = np.sqrt(np.sum(np.abs(b) ** 2) * g.dx)
        assert abs(got - inner * outer) <= 1e-10 * (inner * outer)

    def test_radial_rotation_invariance(self):
        g = self.grid
        f = gaussian_wavepacket(g, (16, 16), 4.0)
        u = SpaceTimeField(g, np.repeat(f[None], g.n_steps + 1, axis=0))
        vals = [
            anisotropic_norm(u, np.inf, 2.0, 1.0, rotation_2d(t)) for t in (0.0, 0.4, 1.1)
        ]
        assert max(vals) - min(vals) <= 1e-3 * max(vals)

    def test_path_modes_agree_and_match_enumeration(self):
        # tiny grid: exhaustive enumeration over all lattice-valued paths; the
        # base-point-0 value must equal the supremum over them
        g = make_grid(2, 8, 8, 1.0 / 3.0, 1.0)
        rng = np.random.default_rng(9)
        u = SpaceTimeField(g, rng.normal(size=(4, 8, 8)).astype(complex))
        a = anisotropic_norm(u, np.inf, 2.0, 1.0, np.eye(2))

        def znorm(slice_vals):
            inner = np.sum(np.abs(slice_vals), axis=0) * g.dx
            return np.sqrt(np.sum(inner**2) * g.dx)

        # all base points per slice: lattice shifts permute samples, so the
        # z-norm is base-independent; enumeration over 4 time slices x 16
        # shifted origins must reproduce the same value
        site_shifts = [(i, j) for i in range(0, 8, 4) for j in range(0, 8, 4)]
        best = -np.inf
        for path in itertools.product(site_shifts, repeat=4):
            vals = []
            for ti, (si, sj) in enumerate(path):
                shifted = np.roll(u.values[ti], shift=(-si, -sj), axis=(0, 1))
                vals.append(znorm(shifted))
            best = max(best, np.max(vals))
        assert abs(best - a) <= 1e-12 * abs(a)

    def test_path_sup_factorization_oracle(self):
        # genuinely x-dependent functional: sup over paths of the time norm
        # equals the time norm of the per-time sup (monotone outer norm)
        rng = np.random.default_rng(10)
        times = np.linspace(0, 1, 4)
        gvals = rng.random(size=(4, 16))
        for q in (1.0, 2.0, np.inf):
            fact = path_sup_time_norm(times, gvals, q)
            best = -np.inf
            for path in itertools.product(range(16), repeat=4):
                series = np.array([gvals[t, site] for t, site in enumerate(path)])
                best = max(best, time_lq(times, series, q))
            assert abs(best - fact) <= 1e-12 * max(abs(best), 1e-30)

    def test_rejects_one_dimension(self):
        g = make_grid(1, 16, 16, 0.5, 1)
        u = SpaceTimeField(g, np.zeros((3, 16), dtype=complex))
        with pytest.raises(ValueError, match="n >= 2"):
            anisotropic_norm(u, 2, 2, 1, np.eye(1))


def _two_packets(g):
    """A static field with no rotational symmetry: two packets off the centre."""
    f = gaussian_wavepacket(g, (16, 18), 4.0) + 0.3 * gaussian_wavepacket(g, (20, 16), 4.5)
    return SpaceTimeField(g, np.repeat(f[None], g.n_steps + 1, axis=0))


class TestRotationSampler:
    def test_doubling_sample_count_stable(self):
        u = _two_packets(make_grid(2, 32, 32, 0.5, 1))

        def sample_max(count):
            samples = RotationSampler(2, count=count).samples()
            return max(anisotropic_norm(u, np.inf, 2.0, 1.0, U) for U in samples)

        v1, v2 = sample_max(12), sample_max(24)
        assert abs(v2 - v1) <= 0.01 * max(v1, v2)

    @pytest.mark.parametrize(
        "kwargs",
        [{"count": 0}, {"count": -1}, {"refine_rounds": -1}, {"refine_rounds": 2}],
    )
    def test_sampler_rejects_empty_sample_and_any_refinement(self, kwargs):
        # count = 0 would make the sup a max over no rotation at all, and every
        # sup over rotations is the plain max over the samples
        with pytest.raises(ValueError, match="count|refine_rounds"):
            RotationSampler(2, **kwargs)


class TestXdot:
    def test_zero_field(self):
        g = make_grid(2, 32, 32, 0.5, 1)
        u = SpaceTimeField(g, np.zeros((3, 32, 32), dtype=complex))
        with pytest.warns(UserWarning, match="sampled"):
            assert xdot_norm(u, 0.0) == 0.0

    def test_single_band_scaling_between_alphas(self):
        # band k0 free solution: alpha=1 vs alpha=0 ratio approximately 2^{k0}
        g = make_grid(2, 64, 32, 0.25, 1)
        k0 = -3
        sel = (g.xi_norm > 0.9 * 2.0**k0) & (g.xi_norm < 1.1 * 2.0**k0)
        spec = np.zeros(g.shape, dtype=complex)
        rng = np.random.default_rng(12)
        spec[sel] = rng.normal(size=int(sel.sum()))
        f = fourier_inverse(g, spec)
        f = f / l2_norm(g, f)
        u = free_evolution(g, f)
        sampler = RotationSampler(2, count=4, refine_rounds=0)
        pairs = [AdmissiblePair(np.inf, 2.0), AdmissiblePair(4.0, 4.0)]
        with pytest.warns(UserWarning):
            v0 = xdot_norm(u, 0.0, pairs=pairs, sampler=sampler)
            v1 = xdot_norm(u, 1.0, pairs=pairs, sampler=sampler)
        assert v0 > 0
        assert abs(v1 / v0 - 2.0**k0) <= 0.15 * 2.0**k0

    def test_rotated_part_is_the_sample_max(self):
        # the norm built by hand, band by band, with the plain max over the samples
        g = make_grid(2, 32, 32, 0.5, 1)
        u = _two_packets(g)
        sampler = RotationSampler(2, count=3)
        with pytest.warns(UserWarning):
            got = xdot_norm(u, 0.5, pairs=[AdmissiblePair(np.inf, 2.0)], sampler=sampler)
        (q, r), = low_dim_anisotropic_exponents(2)
        k_min, k_max = representable_bands(g)
        spec = u.spectrum()
        total = 0.0
        for k in range(k_min, k_max + 1):
            u_k = SpaceTimeField(g, fourier_inverse(g, spec * band_mask(g, k)))
            rotated = max(anisotropic_norm(u_k, q, r, 2.0, U) for U in sampler.samples())
            total += 2.0 ** (2 * 0.5 * k) * (lqlr_norm(u_k, np.inf, 2.0) ** 2 + rotated**2)
        assert got == np.sqrt(total)
