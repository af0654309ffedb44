"""Direction nets, cap partitions, pointwise ray bound, dispersive decay."""

import tracemalloc

import numpy as np
import pytest

from magschro import angular
from magschro.angular import (
    _covering_radius,
    _lattice_sup,
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
from magschro.lp import CUTOFFS, AnnulusCutoff, CutoffPair


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

    def test_sphere_net_counts(self):
        assert [angular_net(3, m).count for m in (1, 2, 3)] == [36, 144, 576]

    @pytest.mark.parametrize("n,m", [(2, 4), (3, 2), (3, 3)])
    def test_covering_radius_matches_broadcast(self, n, m):
        # reference: the full (dense, M, n) difference array, min over the net
        net = angular_net(n, m)
        dense = _dense_sphere_sample(n, 4000 + 2000 * m, seed=m)
        d2 = np.sum((dense[:, None, :] - net.thetas[None, :, :]) ** 2, axis=2)
        ref = float(np.sqrt(np.max(np.min(d2, axis=1))))
        assert _covering_radius(net.thetas, dense) == ref
        assert net.covering == ref

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4)])
    def test_audit_matches_broadcast(self, n, m):
        # reference: the full (M, M, n) difference array
        net = angular_net(n, m)
        d2 = np.sum((net.thetas[:, None, :] - net.thetas[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        assert net.separation == float(np.sqrt(d2.min()))
        radius = 4.0 * 2.0**-m
        assert net.max_overlap == int(np.max(np.sum(np.sqrt(d2) < radius, axis=1)) + 1)

    def test_audit_peak_memory_bounded(self):
        # the (M, M, n) difference array alone is 127 MB at M = 2304
        tracemalloc.start()
        try:
            angular_net(3, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

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

    @pytest.mark.parametrize("n,m", [(2, 0), (2, 4), (3, 3)])
    def test_bump_values_match_broadcast(self, n, m):
        # reference: chi of every (theta, omega) distance, off the sphere too
        net = angular_net(n, m)
        rng = np.random.default_rng(8)
        omega = np.concatenate([_dense_sphere_sample(n, 500, seed=9), rng.normal(size=(200, n))])
        d2 = np.sum((net.thetas[:, None, :] - omega[None, :, :]) ** 2, axis=2)
        ref = CUTOFFS.chi(np.sqrt(d2) * 2.0**m)
        assert np.array_equal(cap_partition(net).bump_values(omega), ref)

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
        kern = _PhiKernel(5.94)
        w = kern.weights * kern.phi
        dense = np.concatenate([
            np.exp(2j * np.pi * np.multiply.outer(chunk, kern.nodes)) @ w
            for chunk in np.array_split(kern.sig, 12)
        ])
        err = np.max(np.abs(kern.table - dense)) / np.max(np.abs(dense))
        assert err <= 1e-12

    def test_lookup_matches_interp(self):
        kern = _PhiKernel(5.94)
        rng = np.random.default_rng(11)
        lo, hi = kern.sig[0], kern.sig[-1]
        s = np.concatenate([
            rng.uniform(1.1 * lo, 1.1 * hi, size=19995),  # beyond both ends too
            kern.sig[[0, 1, 1000, -2, -1]],  # table nodes, ends included
            [lo - 1.0, hi + 1.0, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)],
        ]).reshape(4, -1)
        ref = np.interp(s, kern.sig, kern.table.real)
        ref = ref + 1j * np.interp(s, kern.sig, kern.table.imag)
        err = np.max(np.abs(kern(s) - ref)) / np.max(np.abs(kern.table))
        assert err <= 1e-14


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

    def test_box_too_small_for_any_scale_rejected(self):
        # 32^2, L = 8: the scales l > 2 start at 3, and the box holds l <= 1
        g = make_grid(2, 32, 8, 0.5, 1)
        with pytest.raises(ValueError, match="l_start 3 > l_truncated_at 1"):
            pointwise_ray_bound_check(g, self.band_bump(g, -2, seed=1), -2)

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
        kern = _PhiKernel(s_max)
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


def lattice_size(t, k_f):
    """(N, dxi) of the full-path lattice at time t."""
    scale = 2.0**k_f
    r_max = 4 * np.pi * t * 2.05 * scale * 1.12 + 8.0 / scale
    dxi = 1.0 / (2.2 * r_max)
    return int(2 ** np.ceil(np.log2(2 * 2.3 * scale / dxi))), dxi


def one_shot_sups(t_list, caps, k_f=0):
    """The full-path sups from one N^2 build and one np.fft.fft2 per time."""
    om = AnnulusCutoff(k_f)
    scale = 2.0**k_f

    def cap_weight(omega_points):
        out = np.ones(len(omega_points))
        for theta, kj in caps:
            d = np.linalg.norm(omega_points - np.asarray(theta)[None, :], axis=1)
            out *= CUTOFFS.chi(2.0**kj * d)
        return out

    sups = []
    for t in np.asarray(sorted(t_list), dtype=float):
        N, dxi = lattice_size(t, k_f)
        xi_ax = (np.fft.fftfreq(N, d=1.0 / N) * dxi).astype(np.float32)
        x1, x2 = xi_ax[:, None], xi_ax[None, :]
        r2 = x1**2 + x2**2
        prof = om.profile(np.sqrt(r2)).astype(np.float32)
        sel = prof > 0
        r2_sel = r2[sel].astype(np.float64)
        omega_pts = np.stack(
            [np.broadcast_to(x1, (N, N))[sel], np.broadcast_to(x2, (N, N))[sel]], axis=1
        ).astype(np.float64)
        omega_pts /= np.sqrt(r2_sel)[:, None]
        g = np.zeros((N, N), dtype=np.complex64)
        g[sel] = (
            prof[sel] * cap_weight(omega_pts) * np.exp(-4j * np.pi**2 * t * r2_sel) * dxi**2
        ).astype(np.complex64)
        sups.append(float(np.max(np.abs(np.fft.fft2(g)))))
    return sups


_AXIS_CAPS = [
    (np.array(theta), k) for theta in ([1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]) for k in (0, 1)
]


class TestOscillatoryDecay:
    @pytest.mark.parametrize(
        "caps, k_f, ts",
        [(random_caps(2, mu, seed=mu + 1), 0, [1.0, 2.83]) for mu in (0, 1, 2)]
        # centres on the axes: sign images on xi1 = 0 and xi2 = 0, pruning at the edges
        + [([cap], 0, [1.0, 2.83]) for cap in _AXIS_CAPS]
        + [([(np.array([1.3, 0.4]), 1)], 0, [1.0])]  # |theta| != 1
        + [(random_caps(2, 2, seed=3), -1, [1.0, 2.83]), (random_caps(2, 2, seed=3), 1, [0.5])],
        ids=["0", "1", "2"]  # mu
        + [f"theta({t[0]:g},{t[1]:g})-k{k}" for t, k in _AXIS_CAPS]
        + ["non-unit-theta", "k_f-1", "k_f+1"],
    )
    def test_full_path_sups_match_one_shot_fft2(self, caps, k_f, ts):
        tab = cap_oscillatory_decay(ts, caps, k_f=k_f, n=2)
        assert tab["sup"].tolist() == one_shot_sups(ts, caps, k_f)

    # 1 and 7 leave short last blocks (7 divides no N); a width past N is cut
    # to half the work array
    @pytest.mark.parametrize("width", [1, 7, 1 << 20])
    @pytest.mark.parametrize("mu", [0, 2])
    def test_column_blocks_of_any_width(self, width, mu, monkeypatch):
        monkeypatch.setattr(angular, "_COLUMN_WIDTH", width)
        caps = random_caps(2, mu, seed=mu + 1)
        tab = cap_oscillatory_decay([1.0, 2.83], caps)
        assert tab["sup"].tolist() == one_shot_sups([1.0, 2.83], caps)

    @pytest.mark.parametrize("mu", [0, 2])
    def test_profile_evaluated_once_per_quadrant_point(self, mu, monkeypatch):
        # the profile sees each lattice point with m1, m2 >= 0 inside the open
        # annulus once; the other three sign images reuse its value
        seen = []
        profile = AnnulusCutoff.profile

        def counting(self, r):
            seen.append(np.size(r))
            return profile(self, r)

        monkeypatch.setattr(AnnulusCutoff, "profile", counting)
        N, dxi = lattice_size(1.0, 0)
        _lattice_sup(1.0, N, dxi, AnnulusCutoff(0), random_caps(2, mu, seed=mu + 1))
        xi = (np.arange(N // 2) * dxi).astype(np.float32)
        r = np.sqrt(xi[:, None] ** 2 + xi[None, :] ** 2)
        assert sum(seen) == np.count_nonzero((r > 0.5) & (r < 2.0))

    def test_full_path_peak_memory_bounded(self):
        # t = 8 runs on a 4096^2 lattice whose complex64 buffer alone is 128 MB;
        # float64 copies of all annulus points would put the peak near 1 GB
        caps = random_caps(2, 2, seed=3)
        tracemalloc.start()
        try:
            cap_oscillatory_decay([8.0], caps, k_f=0, n=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20

    def test_benchmark_lattice_peak_memory_bounded(self):
        # t = 2.83 runs on a 1024^2 lattice: its complex64 buffer is 8 MiB and
        # the row and column blocks share one 2 MiB work array
        caps = random_caps(2, 2, seed=3, k_range=(1, 1))
        cap_oscillatory_decay([2.83], caps)  # warm caches
        tracemalloc.start()
        try:
            cap_oscillatory_decay([2.83], caps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("fixed_axis", [False, True])
    @pytest.mark.parametrize("ts", [[1.0, np.nan], [np.inf], [-1.0, 2.0]])
    def test_rejects_bad_times(self, fixed_axis, ts):
        with pytest.raises(ValueError, match="t_list"):
            cap_oscillatory_decay(ts, [], k_f=0, n=2, fixed_axis=fixed_axis)

    @pytest.mark.parametrize("fixed_axis", [False, True])
    def test_rejects_non_finite_cap_centre(self, fixed_axis):
        caps = [(np.array([1.0, 0.0]), 1), (np.array([np.nan, 1.0]), 2)]
        with pytest.raises(ValueError, match="cap centre"):
            cap_oscillatory_decay([1.0], caps, k_f=0, n=2, fixed_axis=fixed_axis)

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_decay_slope_rejects_bad_times(self, t):
        tab = {"t": np.array([t, 1.0, 2.0]), "sup": np.ones(3)}
        with pytest.raises(ValueError, match=f"t = {t}"):
            decay_slope(tab)

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
        om = AnnulusCutoff(0)
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
