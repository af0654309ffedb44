"""Dyadic cutoffs, projections, paraproducts, Bernstein, Besov, sequence lemma."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magschro.grid import fourier_forward, fourier_inverse, gaussian_wavepacket, l2_norm, make_grid
from magschro.lp import (
    BandDecomposition,
    _leq_mask,
    band_mask,
    bernstein_ratio,
    besov_l2_norm,
    build_cutoffs,
    mixed_bernstein_ratio,
    paraproduct_split,
    project_band,
    project_below,
    project_fat,
    representable_bands,
    sequence_bound_check,
)
from oracles import spectral_gradient


def spectral_bump_field(grid, k, rng, vector=False):
    """Random real field with spectrum exactly inside band k's plateau."""
    c = build_cutoffs()
    lo = (2.0 - c.glue_width) * 2.0 ** (k - 1)
    hi = (1.0 + c.glue_width) * 2.0**k
    sel = (grid.xi_norm > lo) & (grid.xi_norm < hi)
    shape = (grid.n,) + grid.shape if vector else grid.shape
    spec = np.zeros(shape, dtype=complex)
    coeffs = rng.normal(size=(int(sel.sum()),)) + 1j * rng.normal(size=(int(sel.sum()),))
    spec[..., sel] = coeffs
    out = fourier_inverse(grid, spec)
    return out.real + out.imag  # real field, same band support


class TestCutoffs:
    def test_paper_pinned_values(self):
        c = build_cutoffs()
        assert c.chi(np.array([0.5]))[0] == 1.0
        assert c.phi(np.array([3.0]))[0] == 0.0
        ks = np.arange(-10, 11)
        s = np.sum(c.phi(1.3 * 2.0**-ks))
        assert abs(s - 1.0) <= 1e-12

    def test_support_and_range(self):
        c = build_cutoffs()
        r = np.linspace(0, 4, 4001)
        chi = c.chi(r)
        assert np.all((0 <= chi) & (chi <= 1))
        assert np.all(chi[r <= 1.0] == 1.0)
        assert np.all(chi[r >= 2.0] == 0.0)
        phi = c.phi(r)
        assert np.all(phi[(r < 0.5) | (r > 2.0)] == 0.0)

    @given(st.floats(min_value=0.02, max_value=0.25), st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity_everywhere(self, glue, r):
        c = build_cutoffs(glue)
        ks = np.arange(-24, 25)
        assert abs(np.sum(c.phi(r * 2.0**-ks)) - 1.0) <= 1e-12

    def test_smoothness_sampled_differences(self):
        # all sampled finite differences bounded: crude C^infty proxy
        c = build_cutoffs()
        r = np.linspace(0, 3, 30001)
        d = c.chi(r)
        for _ in range(4):
            d = np.diff(d) / (r[1] - r[0])
            assert np.all(np.isfinite(d))
            assert np.max(np.abs(d)) < 1e7

    def test_rejects_bad_glue(self):
        with pytest.raises(ValueError):
            build_cutoffs(0.3)


class TestProjections:
    def setup_method(self):
        self.grid = make_grid(2, 64, 32, 0.25, 1)
        self.rng = np.random.default_rng(11)

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)])
    def test_masks_are_even_in_xi(self, n, N):
        # an even mask keeps a real field's spectrum Hermitian, so its band is
        # real and a half spectrum carries it
        g = make_grid(n, N, 16, 0.25, 1)
        mirror = np.ix_(*[(N - np.arange(N)) % N] * n)
        k_min, k_max = representable_bands(g)
        for k in range(k_min, k_max + 1):
            for mask in (band_mask(g, k), _leq_mask(g, k)):
                assert np.array_equal(mask[mirror], mask)

    def test_plateau_band_is_identity(self):
        g = self.grid
        f = spectral_bump_field(g, -2, self.rng)
        pf = project_band(g, f, -2)
        assert np.max(np.abs(pf - f)) <= 1e-12 * np.max(np.abs(f))

    def test_disjoint_bands_annihilate(self):
        g = self.grid
        f = spectral_bump_field(g, -3, self.rng)
        for j in (-5, -1):
            pj = project_band(g, f, j)
            assert np.max(np.abs(pj)) <= 1e-13 * np.max(np.abs(f))

    def test_fat_projection_idempotence(self):
        g = self.grid
        rng = self.rng
        f = rng.normal(size=g.shape)
        pk = project_band(g, f, -1)
        ptilde = project_fat(g, pk, -1)
        assert np.max(np.abs(ptilde - pk)) <= 1e-12 * max(np.max(np.abs(pk)), 1e-30)

    def test_band_reconstruction(self):
        g = self.grid
        f = gaussian_wavepacket(g, (16, 16), 3.0, (0.2, 0.1))
        k_min, k_max = representable_bands(g)
        dec = BandDecomposition.compute(g, f, (k_min, k_max))
        rec = dec.reconstruct()
        assert l2_norm(g, rec - f) <= 1e-10 * l2_norm(g, f)

    def test_band_decomposition_transform_count(self, fft_calls):
        # one forward transform, then one inverse per band and per residual
        f = gaussian_wavepacket(self.grid, (16, 16), 3.0, (0.2, 0.1))
        dec = BandDecomposition.compute(self.grid, f, (-4, -1))
        assert len(dec.pieces) == 4 and len(fft_calls) == 4 + 3

    def test_mean_zero_band_limited_sum(self):
        g = self.grid
        f = spectral_bump_field(g, -2, self.rng) + spectral_bump_field(g, -3, self.rng)
        k_min, k_max = representable_bands(g)
        total = sum(project_band(g, f, k) for k in range(k_min, k_max + 1))
        assert l2_norm(g, total - f) <= 1e-10 * l2_norm(g, f)

    def test_rejects_out_of_range_band(self):
        with pytest.raises(ValueError, match="representable"):
            project_band(self.grid, np.zeros(self.grid.shape), 5)

    def test_projection_commutes_with_gradient(self):
        g = self.grid
        f = gaussian_wavepacket(g, (16, 16), 3.0)
        a = spectral_gradient(g, project_band(g, f, -2))
        b = np.stack([project_band(g, comp, -2) for comp in spectral_gradient(g, f)])
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


class TestParaproduct:
    def setup_method(self):
        self.grid = make_grid(2, 64, 32, 0.25, 1)
        self.rng = np.random.default_rng(5)

    def test_group_sum_identity(self):
        g = self.grid
        f = gaussian_wavepacket(g, (14, 16), 3.0, (0.1, 0.0)).real
        h = gaussian_wavepacket(g, (18, 15), 4.0, (-0.05, 0.1)).real
        k = -2
        groups = paraproduct_split(g, f, h, k)
        total = sum(groups.values())
        direct = project_band(g, f * h, k)
        assert l2_norm(g, total - direct) <= 1e-10 * max(l2_norm(g, direct), 1e-30)

    def test_low_high_only_configuration(self):
        g = self.grid
        k = -2
        f = project_below(g, self.rng.normal(size=g.shape), k - 4)
        h = spectral_bump_field(g, k, self.rng)
        groups = paraproduct_split(g, f, h, k)
        scale = l2_norm(g, project_band(g, f * h, k))
        assert l2_norm(g, groups["high_high"]) <= 1e-12 * max(scale, 1e-30)
        assert l2_norm(g, groups["high_low"]) <= 1e-12 * max(scale, 1e-30)
        active = l2_norm(g, groups["low_high"] + groups["commutator"])
        assert abs(active - scale) <= 1e-10 * max(scale, 1e-30)

    def test_two_gaussian_group_magnitudes(self):
        # direct evaluation; magnitudes logged for audit
        g = self.grid
        f = gaussian_wavepacket(g, (16, 16), 6.0).real
        h = spectral_bump_field(g, -2, self.rng)
        groups = paraproduct_split(g, f, h, -2)
        mags = {name: l2_norm(g, arr) for name, arr in groups.items()}
        assert all(np.isfinite(v) for v in mags.values())
        assert mags["low_high"] > 0


class TestBernstein:
    def test_p_equals_q_is_one(self):
        g = make_grid(2, 64, 32, 0.25, 1)
        f = gaussian_wavepacket(g, (16, 16), 5.0)
        Q = [(-0.5, 0.5), (-0.5, 0.5)]
        assert abs(bernstein_ratio(g, f, Q, 2, 2) - 1.0) <= 1e-12

    def test_modulated_gaussian_two_infinity(self):
        g = make_grid(2, 64, 32, 0.25, 1)
        Q = [(-0.5, 0.5), (-0.5, 0.5)]
        ratios = []
        for p in [(0.0, 0.0), (0.05, 0.0), (0.08, -0.1), (-0.1, 0.1)]:
            f = gaussian_wavepacket(g, (16, 16), 6.0, p)
            ratios.append(bernstein_ratio(g, f, Q, 2, np.inf))
        ratios = np.array(ratios)
        assert np.all(ratios <= 1.0)  # C_n >= 1 fits
        assert ratios.max() / ratios.min() <= 1.10

    def test_leak_rejected(self):
        g = make_grid(2, 64, 32, 0.25, 1)
        f = gaussian_wavepacket(g, (16, 16), 4.0)
        with pytest.raises(ValueError, match="leak"):
            bernstein_ratio(g, f, [(-0.05, 0.05), (-0.05, 0.05)], 2, 4)

    def test_annulus_scale_invariance(self):
        # one spectral shape swept across bands: the 2^{k(n-1)(1/p2-1/p1)}
        # normalization must render the ratio scale-stable
        g = make_grid(2, 128, 32, 0.25, 1)

        def banded(k):
            eta = g.xi_norm * 2.0**-k
            ang = np.arctan2(g.xi[1], g.xi[0])
            profile = np.exp(-12.0 * (eta - 1.1) ** 2) * (1.0 + 0.5 * np.cos(2 * ang))
            profile[(eta < 0.6) | (eta > 1.7)] = 0.0
            return fourier_inverse(g, profile.astype(complex)).real

        ratios = []
        for k in range(-3, 2):
            f = banded(k)
            ratios.append(mixed_bernstein_ratio(g, f, k, np.inf, 2, 1))
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() <= 1.10

    @pytest.mark.parametrize("leak, raises", [(2e-8, True), (0.5e-8, False)])
    def test_mixed_leak_threshold(self, leak, raises):
        # a wave inside the band -2 annulus [0.14, 0.47] plus one at |xi| = 0.5
        # outside it, carrying the share `leak` of the L^2 mass
        g = make_grid(2, 64, 32, 0.25, 1)
        x, _ = g.spatial_meshes()
        b = np.sqrt(leak / (1.0 - leak))
        f = np.exp(2j * np.pi * 0.25 * x) + b * np.exp(2j * np.pi * 0.5 * x)
        if raises:
            with pytest.raises(ValueError, match="leaks outside annulus"):
                mixed_bernstein_ratio(g, f, -2, np.inf, 2, 1)
        else:
            assert np.isfinite(mixed_bernstein_ratio(g, f, -2, np.inf, 2, 1))

    def test_mixed_rejects_bad_exponents(self):
        g = make_grid(2, 64, 32, 0.25, 1)
        f = np.zeros(g.shape)
        with pytest.raises(ValueError):
            mixed_bernstein_ratio(g, f, -2, 2, 4, 1)


class TestBesov:
    def setup_method(self):
        self.grid = make_grid(2, 64, 32, 0.25, 1)

    def _l2(self, piece):
        return l2_norm(self.grid, piece)

    def test_single_band_scaling(self):
        g = self.grid
        rng = np.random.default_rng(8)
        f = spectral_bump_field(g, -2, rng)
        for s in (0.0, 1.0, 0.5):
            v = besov_l2_norm(g, f, s, self._l2)
            assert abs(v - 2.0 ** (-2 * s) * self._l2(f)) <= 1e-10 * self._l2(f)

    def test_linfty_l2_nesting_with_sharp_constant(self):
        # sum phi_k^2 >= 1/2 pointwise, so the flat norm is at most sqrt(2) x besov
        # (constant 1 fails for smooth overlapping cutoffs)
        g = self.grid
        rng = np.random.default_rng(21)
        f = spectral_bump_field(g, -3, rng) + spectral_bump_field(g, -2, rng)
        besov = besov_l2_norm(g, f, 0.0, self._l2)
        assert l2_norm(g, f) <= np.sqrt(2.0) * besov + 1e-12

    def test_gradient_equivalence_at_s_one(self):
        g = self.grid
        rng = np.random.default_rng(9)
        f = spectral_bump_field(g, -2, rng) + 0.5 * spectral_bump_field(g, -1, rng)
        v = besov_l2_norm(g, f, 1.0, self._l2)
        grad = spectral_gradient(g, f)
        gn = np.sqrt(sum(l2_norm(g, c) ** 2 for c in grad)) / (2 * np.pi)
        assert v / 4.0 <= gn <= 4.0 * v

    def test_residual_warning(self):
        g = self.grid
        rng = np.random.default_rng(10)
        k_min, _ = representable_bands(g)
        spec = np.zeros(g.shape, dtype=complex)
        sel = g.xi_norm < 2.0 ** (k_min - 1)
        spec[sel] = rng.normal(size=int(sel.sum()))
        f = fourier_inverse(g, spec).real
        with pytest.warns(UserWarning, match="residual"):
            besov_l2_norm(g, f, 0.0, self._l2)


class TestSequenceLemma:
    def test_zero_sequence(self):
        lhs, _ = sequence_bound_check(np.zeros(16), np.ones(16), 0.125)
        assert lhs == 0.0

    def test_geometric_oracle(self):
        # direct summation cross-check on a small instance
        m, h = 12, 0.125
        a = np.ones(m)
        b = 2.0 ** (-np.abs(np.arange(m) - m // 2))
        lhs, ratio = sequence_bound_check(a, b, h)
        brute = 0.0
        for k in range(-400, m + 3):
            inner = sum(2.0 ** (-h * l) * a[l] * b[l] for l in range(max(k - 2, 0), m))
            brute += 2.0 ** (2 * h * k) * inner**2
        assert abs(lhs - np.sqrt(brute)) <= 1e-10 * lhs
        assert np.isfinite(ratio)

    def test_random_sweep_bounded(self):
        rng = np.random.default_rng(123)
        for h in (0.125, 0.25 - 0.0625):
            ratios = []
            for _ in range(200):
                a = rng.choice([-1.0, 1.0], size=32)
                b = rng.choice([-1.0, 1.0], size=32)
                _, r = sequence_bound_check(a, b, h)
                ratios.append(r)
            ratios = np.array(ratios)
            assert np.isfinite(ratios).all()
            # empirical constant is stable across trials
            assert ratios.max() <= 4.0 * np.median(ratios)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            sequence_bound_check(np.ones(4), np.ones(4), 0.0)
