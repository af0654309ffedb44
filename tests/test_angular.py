"""Direction nets, cap partitions, pointwise ray bound, dispersive decay."""

import tracemalloc

import numpy as np
import pytest

from magschro.angular import (
    angular_net,
    cap_oscillatory_decay,
    cap_partition,
    decay_slope,
    pointwise_ray_bound_check,
    random_caps,
    _dense_sphere_sample,
    _PhiKernel,
)
from magschro.grid import fourier_forward, fourier_inverse, make_grid
from magschro.lp import CutoffPair
from magschro.parametrix import AnnulusCutoff


class TestNets:
    def test_circle_count_and_geometry(self):
        for m in (0, 1, 2, 3, 4):
            net = angular_net(2, m)
            assert net.count == int(np.ceil(2 * np.pi * 2.0**m))
            assert net.covering <= 2.0**-m
            assert net.separation >= 0.3 * 2.0**-m
            assert np.allclose(np.linalg.norm(net.thetas, axis=1), 1.0)

    def test_sphere_net_cardinality_bound(self):
        for m in (1, 2, 3):
            net = angular_net(3, m)
            c = net.count / 4.0**m
            assert c <= 40.0  # logged constant
            assert net.covering <= 2.0**-m
            assert net.separation >= 0.1 * 2.0**-m
            assert net.max_overlap <= 80

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            angular_net(2, -1)
        with pytest.raises(ValueError):
            angular_net(4, 2)


class TestPartition:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 4), (3, 2)])
    def test_sums_to_one_at_random_points(self, n, m):
        net = angular_net(n, m)
        part = cap_partition(net)
        pts = _dense_sphere_sample(n, 1000, seed=3)
        sums = part.values(pts).sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-10

    def test_uniform_derivative_bounds(self):
        bounds = [cap_partition(angular_net(2, m)).derivative_bound() for m in (1, 2, 3)]
        bounds = np.array(bounds)
        # scaled by the cap width, the bound is uniform across scales
        assert bounds.max() <= 3.0 * bounds.min()

    def test_support_subordinate_to_balls(self):
        net = angular_net(2, 3)
        part = cap_partition(net)
        pts = _dense_sphere_sample(2, 2000, seed=4)
        vals = part.values(pts)
        d = np.linalg.norm(net.thetas[:, None, :] - pts[None, :, :], axis=2)
        outside = d > 2.0 * 2.0**-net.m
        assert np.max(vals[outside]) == 0.0


class TestPhiKernel:
    def test_table_matches_dense_formula(self):
        kern = _PhiKernel(CutoffPair(), 5.94)
        w = kern.weights * kern.phi
        dense = np.concatenate([
            np.exp(2j * np.pi * np.multiply.outer(chunk, kern.nodes)) @ w
            for chunk in np.array_split(kern.sig, 12)
        ])
        err = np.max(np.abs(kern.table - dense)) / np.max(np.abs(dense))
        assert err <= 1e-12


class TestPointwiseRayBound:
    def band_bump(self, grid, k, seed):
        c = CutoffPair()
        rng = np.random.default_rng(seed)
        lo = (2.0 - c.glue_width) * 2.0 ** (k - 1)
        hi = (1.0 + c.glue_width) * 2.0**k
        sel = (grid.xi_norm > lo) & (grid.xi_norm < hi)
        spec = np.zeros(grid.shape, dtype=complex)
        spec[sel] = rng.normal(size=int(sel.sum())) + 1j * rng.normal(size=int(sel.sum()))
        # localize with a center-bump envelope so ray truncation tails vanish
        f = fourier_inverse(grid, spec).real
        meshes = grid.spatial_meshes()
        env = np.exp(
            -sum((m - grid.L / 2) ** 2 for m in meshes) / (grid.L / 7.0) ** 2
        )
        return f * env

    def test_zero_field(self):
        g = make_grid(2, 64, 16, 0.5, 1)
        out = pointwise_ray_bound_check(g, np.zeros(g.shape), 0)
        assert out["lhs"] == 0.0

    def test_translation_invariance(self):
        g = make_grid(2, 128, 32, 0.5, 1)
        H = self.band_bump(g, 0, seed=5)
        out1 = pointwise_ray_bound_check(g, H, 0)
        out2 = pointwise_ray_bound_check(g, np.roll(H, (9, -5), axis=(0, 1)), 0)
        assert abs(out1["lhs"] - out2["lhs"]) <= 1e-8 * out1["lhs"]

    def test_one_inverse_fft_matches_per_direction_sum(self):
        g = make_grid(2, 64, 16, 0.5, 1)
        k = 0
        H = self.band_bump(g, k, seed=3)
        out = pointwise_ray_bound_check(g, H, k)
        # reference: one inverse FFT per direction, summed in space
        spec = fourier_forward(g, np.abs(H).astype(complex))
        s_max = float(np.max(np.abs(g.xi_norm))) * 2.0 ** out["l_truncated_at"] * 1.05
        kern = _PhiKernel(CutoffPair(), s_max)
        total = np.zeros(g.shape)
        for l in range(out["l_start"], out["l_truncated_at"] + 1):
            for theta in angular_net(2, l + k).thetas:
                mult = 2.0**l * kern(2.0**l * (g.xi[0] * theta[0] + g.xi[1] * theta[1]))
                total += fourier_inverse(g, spec * mult).real
        ref = float(np.max(total))
        assert abs(out["lhs"] - ref) <= 1e-12 * ref

    def test_peak_memory_bounded(self):
        # L = 32 at 128^2 puts s_max near 24: a dense (240001, 429) phase
        # matrix alone would take 1.6 GB
        g = make_grid(2, 128, 32, 0.5, 1)
        H = self.band_bump(g, 0, seed=7)
        tracemalloc.start()
        try:
            pointwise_ray_bound_check(g, H, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.slow
    def test_ratio_stable_across_bands(self):
        # per-band-scaled grids: band k needs lattice modes and Nyquist room
        ratios = {}
        for k in (-2, -1, 0, 1, 2):
            g = make_grid(2, 256, 64.0 * 2.0**-k, 0.5, 1)
            H = self.band_bump(g, k, seed=10 + k)
            out = pointwise_ray_bound_check(g, H, k)
            ratios[k] = out["ratio"]
        vals = np.array(list(ratios.values()))
        assert np.all(np.isfinite(vals))
        assert vals.max() <= 2.0 * vals.min()


class TestOscillatoryDecay:
    def test_zero_time_sanity(self):
        tab = cap_oscillatory_decay([1.0], [], k_f=0, n=2)
        assert tab["zero_time_value"] > 0

    def test_free_slope(self):
        ts = [1, 2, 4, 8]
        tab = cap_oscillatory_decay(ts, [], k_f=0, n=2)
        assert abs(decay_slope(tab) - (-1.0)) <= 0.10

    def test_capped_slopes_and_constant_growth(self):
        ts = [1, 2, 4, 8]
        sups_at_1 = []
        for mu in (0, 1, 2):
            caps = random_caps(2, mu, seed=mu + 1)
            tab = cap_oscillatory_decay(ts, caps, k_f=0, n=2)
            assert abs(decay_slope(tab) - (-1.0)) <= 0.15
            sups_at_1.append(float((tab["t"] * tab["sup"])[0]))
        # constant pattern across mu recorded; bounded growth
        assert max(sups_at_1) <= 10.0 * min(s for s in sups_at_1 if s > 0)

    def test_fixed_axis_slope(self):
        ts = [1, 2, 4, 8]
        tab = cap_oscillatory_decay(ts, [], k_f=0, n=2, fixed_axis=True)
        assert abs(decay_slope(tab) - (-0.5)) <= 0.15

    def test_fixed_axis_sups_match_dense_sum(self):
        ts = [1.0, 2.0]
        tab = cap_oscillatory_decay(ts, [], k_f=0, n=2, fixed_axis=True)
        om = AnnulusCutoff(0, CutoffPair())
        xi1 = tab["xi1"]
        for t, sup in zip(ts, tab["sup"]):
            # reference: the dense (x2, xi2) phase matrix, a few hundred rows at
            # a time; up to t = 13 the xi2 grid is the 4096-point floor
            x2_max = 4 * np.pi * t * 2.2 * 1.12 + 8.0
            xi2 = np.linspace(-2.2, 2.2, 4096)
            w = om.profile(np.sqrt(xi1**2 + xi2**2)) * (xi2[1] - xi2[0])
            ref = 0.0
            for x2 in np.array_split(np.linspace(-x2_max, x2_max, 6000), 12):
                phase = np.exp(
                    -4j * np.pi**2 * t * xi2[None, :] ** 2 + 2j * np.pi * np.outer(x2, xi2)
                )
                ref = max(ref, float(np.max(np.abs(phase @ w))))
            assert abs(sup - ref) <= 1e-12 * ref

    def test_rejects_three_d(self):
        with pytest.raises(ValueError):
            cap_oscillatory_decay([1.0], [], n=3)
