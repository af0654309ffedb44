"""Phase construction, identities, operator quality, Taylor truncation, E^k."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magschro.grid import (
    SpaceTimeField,
    fourier_forward,
    fourier_inverse,
    free_evolution,
    gaussian_wavepacket,
    l2_norm,
    make_grid,
    slice_l2,
)
from magschro import parametrix
from magschro.lp import (
    AnnulusCutoff,
    CutoffPair,
    project_band,
    project_leq,
    representable_bands,
)
from magschro.norms import time_lq
from magschro.potentials import VectorPotential, make_potential
from magschro.parametrix import (
    SIGMA0_FACTOR,
    ParametrixOperator,
    _detect_envelope,
    annulus_data,
    build_sigma,
    error_term,
    error_term_besov_ratio,
    error_term_groups,
    parametrix_residual,
    phase_identity_residual,
)
from magschro.solver import lp_reduced_equation_check
from oracles import gradient_identity_check, ray_integral_trapezoid, sigma_at, spectral_gradient


def circle_directions(count):
    ang = np.linspace(0, 2 * np.pi, count, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


@pytest.fixture(scope="module")
def setup2d():
    g = make_grid(2, 64, 64, 1.0 / 64.0, 0.5)
    k_f = -2
    dirs = circle_directions(12)
    unit = make_potential("low_band", 1.0, g, seed=1, single_band=-6)
    scale = build_sigma(unit, k_f, dirs).max_sigma()
    return g, k_f, scale


def calibrated_potential(g, k_f, scale, eps, seed=1):
    return make_potential("low_band", eps / scale, g, seed=seed, single_band=-6)


def recorded(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's (args, result)."""
    calls, fn = [], getattr(owner, name)

    def wrapper(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def benchmark_operator():
    """The parametrix benchmark's size: 64^2, 33 slices, M = 120 data modes."""
    g = make_grid(2, 64, 64, 1.0 / 64.0, 0.5)
    f = annulus_data(g, -2, seed=4, rel_width=(0.92, 1.0))
    A = make_potential("low_band", 0.02, g, seed=1, single_band=-6)
    return ParametrixOperator(g, f, A, AnnulusCutoff(-2))


class TestPhase:
    def test_zero_potential_zero_phase(self, setup2d):
        g, k_f, _ = setup2d
        zero = VectorPotential(g, np.zeros((g.n_steps + 1, 2) + g.shape))
        ph = build_sigma(zero, k_f, circle_directions(4))
        assert ph.max_sigma() == 0.0
        assert phase_identity_residual(ph, zero, 0.25 * circle_directions(4)) == 0.0

    def test_direction_only_dependence(self, setup2d):
        g, k_f, scale = setup2d
        A = calibrated_potential(g, k_f, scale, 0.1)
        ph = build_sigma(A, k_f, circle_directions(6))
        xi = np.array([0.2, 0.15])
        s0_a, s1_a = sigma_at(ph, 3, xi)
        s0_b, s1_b = sigma_at(ph, 3, 2.0 * xi)
        assert np.max(np.abs(s0_a - s0_b)) <= 1e-13 * max(np.max(np.abs(s0_a)), 1e-30)
        assert np.max(np.abs(2.0 * s1_a - s1_b)) <= 1e-13 * max(np.max(np.abs(s1_b)), 1e-30)

    def test_reality_structure(self, setup2d):
        g, k_f, scale = setup2d
        A = calibrated_potential(g, k_f, scale, 0.1)
        ph = build_sigma(A, k_f, circle_directions(6))
        s0, s1 = sigma_at(ph, 0, np.array([0.25, 0.0]))
        assert np.max(np.abs(s0.imag)) <= 1e-12 * max(np.max(np.abs(s0)), 1e-30)
        assert np.max(np.abs(s1.real)) <= 1e-12 * max(np.max(np.abs(s1.imag)), 1e-30)

    def test_lost_reality_raises(self, setup2d):
        # a chi' kernel off by a constant phase makes the T fields complex;
        # the S fields, built on the chi kernel, stay real
        g, k_f, scale = setup2d
        ph = build_sigma(calibrated_potential(g, k_f, scale, 0.1), k_f, circle_directions(6))
        for b in ph.bands:
            b.kernel["chi_prime"] = b.kernel["chi_prime"] * np.exp(0.1j)
        ph.ray("grad_S", 0)
        with pytest.raises(AssertionError, match="grad_T lost reality"):
            ph.ray("grad_T", 0)

    def test_phase_identity_sixteen_directions(self, setup2d):
        g, k_f, scale = setup2d
        A = calibrated_potential(g, k_f, scale, 0.1)
        dirs = circle_directions(16)
        ph = build_sigma(A, k_f, dirs)
        xi = 2.0**k_f * dirs
        res = phase_identity_residual(ph, A, xi, t_indices=(0, g.n_steps // 2, g.n_steps))
        assert res <= 1e-6

    def test_gradient_ray_identity(self, setup2d):
        g, k_f, scale = setup2d
        A = calibrated_potential(g, k_f, scale, 0.1)
        ph = build_sigma(A, k_f, circle_directions(8))
        assert gradient_identity_check(ph, 0.25 * circle_directions(8)) <= 1e-6

    def test_rejects_high_band_potential(self, setup2d):
        g, k_f, _ = setup2d
        A = make_potential("low_band", 0.1, g, seed=2, single_band=-4)
        with pytest.raises(ValueError, match="above band"):
            build_sigma(A, k_f, circle_directions(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5])
    def test_rejects_bad_directions(self, setup2d, bad):
        g, k_f, _ = setup2d
        zero = VectorPotential(g, np.zeros((g.n_steps + 1, 2) + g.shape))
        dirs = circle_directions(4)
        dirs[2, 1] = bad
        with pytest.raises(ValueError, match="finite unit vectors"):
            build_sigma(zero, k_f, dirs)

    def test_build_sigma_peak_memory(self):
        # the parametrix experiment's first phase: 920 directions, band -6 with
        # 8 modes and 679 quadrature nodes, whose chi kernels summed in one
        # (920, 8, 679) complex exponential took a 163.6 MiB peak
        g = make_grid(2, 64, 64, 1.0 / 64.0, 0.5)
        A = make_potential("low_band", 0.01, g, seed=1, single_band=-6)
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="wrap depth"):
                build_sigma(A, -2, circle_directions(920))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_wrap_depth_warning(self, setup2d):
        g, k_f, scale = setup2d
        A = calibrated_potential(g, k_f, scale, 0.1)
        with pytest.warns(UserWarning, match="wrap depth"):
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("always")
                build_sigma(A, k_f, circle_directions(4))

    def test_multiband_phase_identity_1d(self):
        # two populated bands on a 1-D grid exercise the k-sum
        g = make_grid(1, 256, 256, 0.125, 0.5)
        rng = np.random.default_rng(3)
        spec = np.zeros((1,) + g.shape, dtype=complex)
        for m in (1, 2, 3, 4):  # spans bands -8..-6, all under the k_f-4 cap
            spec[0, m] = rng.normal() + 1j * rng.normal()
        half = fourier_inverse(g, spec)
        static = (half.real + half.imag) * 0.01

        def ev(t, _s=static):
            return np.cos(t)[None] * _s if np.ndim(t) else np.cos(t) * _s

        vals = np.stack([np.cos(t) * static for t in g.times])
        A = VectorPotential(g, vals, evaluator=ev, band_limit=-6)
        dirs = np.array([[1.0], [-1.0]])
        ph = build_sigma(A, -2, dirs)
        assert len(ph.bands) >= 2
        res = phase_identity_residual(ph, A, np.array([[0.25], [-0.25]]), t_indices=(0, 2))
        assert res <= 1e-6

    def test_trapezoid_quadrature_cross_check(self):
        # independent composite-trapezoid ray integration along the wrapped ray
        g = make_grid(1, 256, 16, 0.125, 0.5)
        spec = np.zeros((1,) + g.shape, dtype=complex)
        spec[0, 6] = 1.0 - 0.5j  # band -1 mode (|xi| = 6/16 = 0.375)
        half = fourier_inverse(g, spec)
        static = (half.real + half.imag) * 0.05
        vals = np.stack([static for _ in g.times])
        A = VectorPotential(g, vals, band_limit=-1)
        dirs = np.array([[1.0]])
        ph = build_sigma(A, 3, dirs)
        S_kernel = ph.ray("S", 0)[0]
        quad = sum(
            ray_integral_trapezoid(A, 0, k, np.array([1.0]), kernel="chi", dz=2e-4)
            for k in (-2, -1)  # the mode straddles both band masks
        )
        scale = max(np.max(np.abs(S_kernel)), 1e-30)
        assert np.max(np.abs(S_kernel - quad)) <= 1e-6 * scale

    def test_scipy_quad_kernel_oracle(self):
        # W(s) = int_0^inf chi(2^{2k} z) e^{2 pi i s z} dz against adaptive quadrature
        import scipy.integrate as si

        c = CutoffPair()
        from magschro.parametrix import _ChiKernels

        kern = _ChiKernels(sigma_max=40.0)
        for sigma in (0.0, 0.3, 2.5, 17.0, -8.0):
            re, _ = si.quad(lambda u: c.chi(np.array([u]))[0] * np.cos(2 * np.pi * sigma * u),
                            0, 2, limit=400)
            im, _ = si.quad(lambda u: c.chi(np.array([u]))[0] * np.sin(2 * np.pi * sigma * u),
                            0, 2, limit=400)
            got = kern(np.array([sigma]))["chi"][0]
            assert abs(got - (re + 1j * im)) <= 1e-9

    def test_chi_kernels_repeated_and_mirrored_arguments(self, monkeypatch):
        # the lattice's symmetries repeat and mirror the projections eta.theta:
        # each distinct one is evaluated once, and every entry as on its own
        from magschro.parametrix import _ChiKernels

        kern = _ChiKernels(sigma_max=6.0)
        base = np.random.default_rng(5).uniform(-6.0, 6.0, size=(3, 4))
        s = np.concatenate([base, -base, base[::-1]])  # (D, m) = (9, 4)
        s[0, 0] = 0.0
        v0 = recorded(monkeypatch, _ChiKernels, "_v0")
        got = kern(s)
        assert [args[1].size for args, _ in v0] == [25]  # 12 values, 12 mirrors, and 0
        for key in ("chi", "chi_prime"):
            alone = np.array([[kern(np.array([x]))[key][0] for x in row] for row in s])
            assert got[key].shape == s.shape and np.array_equal(got[key], alone)


class TestOperator:
    def test_zero_phase_is_free_solution(self, setup2d):
        g, k_f, _ = setup2d
        zero = VectorPotential(g, np.zeros((g.n_steps + 1, 2) + g.shape))
        f = annulus_data(g, k_f, seed=5)
        op = ParametrixOperator(g, f, zero, AnnulusCutoff(k_f))
        v = op.apply()
        free = free_evolution(g, f)
        assert np.max(np.abs(v.values - free.values)) <= 1e-11

    def test_rejects_data_off_plateau(self, setup2d):
        g, k_f, _ = setup2d
        zero = VectorPotential(g, np.zeros((g.n_steps + 1, 2) + g.shape))
        f = gaussian_wavepacket(g, (32, 32), 8.0)  # low-frequency data
        with pytest.raises(ValueError, match="identically 1"):
            ParametrixOperator(g, f, zero, AnnulusCutoff(k_f))

    @given(
        st.tuples(st.integers(0, 63), st.integers(0, 63)),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    @settings(max_examples=30, deadline=None)
    def test_non_finite_data_rejected(self, setup2d, x, bad):
        g, k_f, _ = setup2d
        zero = VectorPotential(g, np.zeros((g.n_steps + 1, 2) + g.shape))
        f = annulus_data(g, k_f, seed=5)
        f[x] = bad
        with pytest.raises(ValueError, match="finite"):
            ParametrixOperator(g, f, zero, AnnulusCutoff(k_f))

    def test_potential_on_another_grid_rejected(self):
        # 5 slices at dt 1/32 against the operator's 9 slices at dt 1/64
        g = make_grid(2, 64, 64, 1.0 / 64.0, 0.125)
        other = make_grid(2, 64, 64, 1.0 / 32.0, 0.125)
        A = make_potential("low_band", 0.02, other, seed=1, single_band=-6)
        f = annulus_data(g, -2, seed=4, rel_width=(0.92, 1.0))
        with pytest.raises(ValueError, match="grid"):
            ParametrixOperator(g, f, A, AnnulusCutoff(-2))

    def test_budget_guard(self, setup2d):
        g, k_f, scale = setup2d
        A = calibrated_potential(g, k_f, scale, 0.05)
        f = annulus_data(g, k_f, seed=5)
        with pytest.raises(ValueError, match="budget"):
            ParametrixOperator(g, f, A, AnnulusCutoff(k_f), product_budget=1e3)

    @pytest.mark.slow
    def test_quality_and_dual_path(self, setup2d):
        g, k_f, scale = setup2d
        f = annulus_data(g, k_f, seed=3)
        A = calibrated_potential(g, k_f, scale, 0.1)
        op = ParametrixOperator(g, f, A, AnnulusCutoff(k_f))
        v = op.apply()
        assert l2_norm(g, v.values[0] - f) <= 0.5 * 0.1  # C eps with C well under 5
        out = parametrix_residual(op, v)
        assert out["dual_gap"] <= 1e-3
        assert out["l1l2_analytic"] <= 1.0 * 0.1  # C eps ||f||

    @pytest.mark.slow
    def test_taylor_structure(self, setup2d):
        g, k_f, scale = setup2d
        f = annulus_data(g, k_f, seed=3)
        A = calibrated_potential(g, k_f, scale, 0.1)
        op = ParametrixOperator(g, f, A, AnnulusCutoff(k_f))
        v = op.apply()
        fields, terms = op.taylor_study(4)
        free = free_evolution(g, f)
        assert np.max(np.abs(fields[0].values - free.values)) <= 1e-11
        errs = []
        for a in range(5):
            errs.append(
                max(
                    l2_norm(g, fields[a].values[i] - v.values[i])
                    for i in range(0, g.n_steps + 1, 8)
                )
            )
        assert all(errs[i + 1] < errs[i] for i in range(4))
        # log-convexity of the error curve
        le = np.log(errs)
        assert np.all(np.diff(le, 2) > -0.5)
        assert errs[4] <= 1e-4
        # weighted term norms decay like (C eps)^a / a!
        assert terms[1] <= 0.2
        assert terms[2] <= 0.6 * terms[1]
        assert terms[3] <= 0.6 * terms[2]


class TestErrorTerm:
    @pytest.fixture(scope="class")
    def solved(self):
        g = make_grid(2, 128, 64, 1.0 / 64.0, 0.5)
        from magschro.solver import solve

        f = annulus_data(g, -3, seed=9, rel_width=(0.8, 1.42))
        A = make_potential("low_band", 0.1, g, seed=4, k_cap=-6)
        u = solve(g, f, A, None)
        return g, u, A

    def test_zero_potential(self):
        g = make_grid(2, 64, 32, 0.125, 0.5)
        zero = VectorPotential(g, np.zeros((g.n_steps + 1, 2) + g.shape))
        u = SpaceTimeField(g, np.zeros((g.n_steps + 1,) + g.shape, dtype=complex))
        assert np.max(np.abs(error_term(u, zero, -2))) == 0.0

    def test_reconstruction_identity(self, solved):
        g, u, A = solved
        for k in (-4, -3, -2):
            e = error_term(u, A, k)
            groups = error_term_groups(u, A, k)
            total = sum(groups.values())
            scale = max(np.max(np.abs(e)), 1e-30)
            assert np.max(np.abs(total - e)) <= 1e-10 * scale

    @pytest.mark.parametrize("k", [-4, -3, -2, "all"])
    def test_groups_match_pairwise_oracle(self, k):
        # 3 slices of 64 x 64.  The low pieces hold more than the mean only at
        # k = -2; at k = -4, -3 the commutator and high-low groups vanish, so
        # every group is measured against the size of E^k.  "all" takes the
        # three bands from one pass, which yields them highest first
        g = make_grid(2, 64, 64, 1.0 / 32.0, 1.0 / 16.0)
        if k == "all":
            u, A = random_pair(g, seed=9)
            bands = list(parametrix._error_group_pass(u, A, [-4, -3, -2]))
            assert [band for band, _ in bands] == [-2, -3, -4]
        else:
            u, A = random_pair(g, seed=k + 10)
            bands = [(k, error_term_groups(u, A, k))]
        for band, groups in bands:
            oracle, e = error_term_groups_oracle(u, A, band)
            scale = np.max(np.abs(e))
            for name, ref in oracle.items():
                assert np.max(np.abs(groups[name] - ref)) <= 1e-12 * scale, (band, name)
            assert np.max(np.abs(error_term(u, A, band) - e)) <= 1e-12 * scale

    def test_transform_counts(self, fft_calls):
        # fresh fields, so u's spectrum is taken once inside each call
        g = make_grid(2, 64, 64, 1.0 / 32.0, 1.0 / 16.0)  # 3 slices of 64 x 64
        u, A = random_pair(g, seed=1)
        error_term_groups(u, A, -4)
        # u 1, A 1, A_{<=k-4} 1, commutator 2n + 2, high-low n + 2,
        # the 7 high pieces (bands -7 .. -2 and the top) 1 + n each, two P_k 2 each;
        # A's inverses read its half spectrum, 3 * 2 * 64 * 33 points where u's
        # read 3 * 64 * 64
        assert (len(fft_calls), sum(fft_calls)) == (38, 482304)
        fft_calls.clear()
        u, A = random_pair(g, seed=1)
        list(parametrix._error_group_pass(u, A, [-4, -3, -2]))
        # u 1, A 1, the same 7 high pieces 1 + n each, walked once; per band
        # A_{<=k-4} 1, commutator 2n + 2, high-low n + 2, two P_k 2 each
        assert (len(fft_calls), sum(fft_calls)) == (68, 851712)
        fft_calls.clear()
        u, A = random_pair(g, seed=2)
        error_term(u, A, -4)
        # u 1, A 1, A . grad u n + 1, A_{<=k-4} 1, P_k 1, A_{<=k-4} . grad u_k n
        assert (len(fft_calls), sum(fft_calls)) == (9, 123264)
        fft_calls.clear()
        u, A = random_pair(g, seed=3)
        error_term_besov_ratio(u, A, 0.1, 1.0, (-4, -2))
        # u 1, A 1, A . grad u n + 1 once; per band A_{<=k-4} 1, P_k 1,
        # A_{<=k-4} . grad u_k n and u_k 1
        assert (len(fft_calls), sum(fft_calls)) == (20, 259200)
        fft_calls.clear()
        g = make_grid(2, 64, 64, 1.0 / 32.0, 0.25)  # 9 slices
        u, A = random_pair(g, seed=4)
        lp_reduced_equation_check(u, A, None, -3)
        # error_term's 9, then u_k 1, Lap u_k 1 and A_{<=k-4} . grad u_k n
        assert (len(fft_calls), sum(fft_calls)) == (13, 517248)

    def test_besov_ratio_matches_public_oracle(self):
        g = make_grid(2, 64, 64, 1.0 / 32.0, 1.0 / 16.0)
        u, A = random_pair(g, seed=5)
        eps, s = 0.1, 1.0
        num = den = 0.0
        for k in (-4, -3, -2):
            e_k = error_term(u, A, k)
            num += 4.0 ** (k * s) * time_lq(g.times, slice_l2(g, e_k), 1.0) ** 2
            den += 4.0 ** (k * s) * np.max(slice_l2(g, project_band(g, u.values, k))) ** 2
        ratio = error_term_besov_ratio(u, A, eps, s, (-4, -2))
        assert abs(ratio - num / (eps**2 * den)) <= 1e-12 * ratio

    def test_error_terms_reject_bad_inputs(self):
        g = make_grid(2, 64, 64, 1.0 / 32.0, 1.0 / 16.0)
        u, A = random_pair(g, seed=6)
        other = make_grid(2, 64, 32, 1.0 / 32.0, 1.0 / 16.0)
        _, A_other = random_pair(other, seed=6)
        k_min, k_max = representable_bands(g)
        calls = [
            lambda A, k: error_term(u, A, k),
            lambda A, k: error_term_groups(u, A, k),
            lambda A, k: error_term_besov_ratio(u, A, 0.1, 0.0, (k, k)),
            lambda A, k: lp_reduced_equation_check(u, A, None, k),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="grid"):
                call(A_other, -3)
            for k in (k_min - 1, k_max + 1, 20, -40):
                with pytest.raises(ValueError, match="representable"):
                    call(A, k)
        for eps in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps"):
                error_term_besov_ratio(u, A, eps, 0.0, (-4, -2))
        with pytest.raises(ValueError, match="empty"):
            error_term_besov_ratio(u, A, 0.1, 0.0, (-2, -4))

    def test_besov_ratio_stability(self, solved):
        g, _, _ = solved
        from magschro.solver import solve

        f = annulus_data(g, -3, seed=9, rel_width=(0.8, 1.42))
        ratios = {s: [] for s in (0.0, 1.0)}
        for eps in (0.05, 0.1, 0.2):
            A = make_potential("low_band", eps, g, seed=4, k_cap=-6)
            u = solve(g, f, A, None)
            for s in (0.0, 1.0):
                ratios[s].append(error_term_besov_ratio(u, A, eps, s, (-4, -2)))
        for s, vals in ratios.items():
            vals = np.array(vals)
            assert vals.max() <= 2.0 * vals.min()


def random_pair(g, seed):
    """Complex u and real A, white noise on every slice: every band pair is populated."""
    rng = np.random.default_rng(seed)
    shape = (g.n_steps + 1,) + g.shape
    u = SpaceTimeField(g, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return u, VectorPotential(g, rng.normal(size=(g.n_steps + 1, g.n) + g.shape))


def error_term_groups_oracle(u, A, k):
    """The four groups and E^k from cumulative P_{<=j} projections in physical
    space, with P_k applied to each high pair (A_i, u_j) on its own."""
    g = u.grid
    _, k_max = representable_bands(g)

    def pk_dot(a, v):
        return project_band(g, np.sum(a * np.moveaxis(spectral_gradient(g, v), 0, 1), axis=1), k)

    cum_a = [project_leq(g, A.values, j).real for j in range(k - 4, k_max + 1)] + [A.values]
    cum_u = [project_leq(g, u.values, j) for j in range(k - 4, k_max + 1)] + [u.values]
    a_hi = [hi - lo for lo, hi in zip(cum_a, cum_a[1:])]
    u_hi = [hi - lo for lo, hi in zip(cum_u, cum_u[1:])]
    pairs = [(i, j) for i in range(len(a_hi)) for j in range(len(u_hi))]
    a_low = cum_a[0]
    u_k = project_band(g, u.values, k)
    low_grad_uk = np.sum(a_low * np.moveaxis(spectral_gradient(g, u_k), 0, 1), axis=1)
    groups = {
        "commutator": pk_dot(a_low, u.values) - low_grad_uk,
        "high_high_a": sum(pk_dot(a_hi[i], u_hi[j]) for i, j in pairs if i > j),
        "high_high_u": sum(pk_dot(a_hi[i], u_hi[j]) for i, j in pairs if i <= j),
        "high_low": pk_dot(A.values - a_low, cum_u[0]),
    }
    return groups, pk_dot(A.values, u.values) - low_grad_uk


def dense_oracle(op, max_order):
    """apply, residual_analytic and the taylor_study terms summed over all modes
    at once per slice, (M, P) arrays throughout."""
    g, ph = op.grid, op.phase
    D, dmap, r = len(ph.directions), op.dir_of_mode, op.radii[:, None]
    X = np.stack([m.ravel() for m in g.spatial_meshes()])
    plane = np.exp(2j * np.pi * (op.xi @ X))

    def modes(field, t):
        return ph.ray(field, t).reshape(-1, D, X.shape[1])[:, dmap]

    v, res, terms = [], [], []
    for i, t in enumerate(g.times):
        S, T = modes("S", i)[0], modes("T", i)[0]
        amp = (op.coef * np.exp(-4j * np.pi**2 * t * op.radii**2))[:, None]
        wave = amp * np.exp(1j * SIGMA0_FACTOR * S - 2.0 * np.pi * r * T) * plane
        v.append(wave.sum(axis=0))
        S_dt, T_dt = modes("dt_S", i)[0], modes("dt_T", i)[0]
        dt_sigma = SIGMA0_FACTOR * S_dt + 2j * np.pi * r * T_dt
        lap_s0 = SIGMA0_FACTOR * modes("lap_S", i)[0]
        grad_sigma1_xi = 2j * np.pi * r**2 * modes("theta_grad_T", i)[0]
        g_all = SIGMA0_FACTOR * modes("grad_S", i) + 2j * np.pi * r * modes("grad_T", i)
        a_dot = np.sum(op.A.values[i].reshape(g.n, 1, -1) * g_all, axis=0)
        integrand = (
            1j * dt_sigma + lap_s0 + 4j * np.pi * grad_sigma1_xi
            + 1j * (np.sum(g_all * g_all, axis=0) + a_dot)
        )
        res.append((integrand * wave).sum(axis=0))
        sigma = SIGMA0_FACTOR * S + 2j * np.pi * r * T
        terms.append([
            (amp * (1j * sigma) ** a / math.factorial(a) * plane).sum(axis=0)
            for a in range(max_order + 1)
        ])
    shape = (-1,) + g.shape
    terms = np.moveaxis(np.array(terms), 1, 0).reshape((max_order + 1,) + shape)
    return np.array(v).reshape(shape), np.array(res).reshape(shape), terms


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestModeSumKernel:
    @pytest.fixture(scope="class")
    def short_grid(self):
        # the benchmark's data ring: M = 120 modes, several mode chunks
        g = make_grid(2, 64, 64, 1.0 / 64.0, 0.125)
        f = annulus_data(g, -2, seed=4, rel_width=(0.92, 1.0))
        return g, f

    def check_against_oracle(self, g, f, A):
        op = ParametrixOperator(g, f, A, AnnulusCutoff(-2))
        v, res, terms = dense_oracle(op, 3)
        assert rel_err(op.apply().values, v) <= 1e-12
        assert rel_err(op.residual_analytic().values, res) <= 1e-12
        fields, term_sup = op.taylor_study(3)
        partial = np.cumsum(terms, axis=0)
        for a in range(4):
            assert rel_err(fields[a].values, partial[a]) <= 1e-12
            norm = float(np.max(SpaceTimeField(g, terms[a]).slice_l2()))
            assert abs(term_sup[a] - norm) <= 1e-12 * norm

    def test_rank1_potential(self, short_grid):
        g, f = short_grid
        A = make_potential("low_band", 0.02, g, seed=1, single_band=-6)
        bands = build_sigma(A, -2, circle_directions(4)).bands
        assert _detect_envelope(bands, A.values)[0] is not None
        self.check_against_oracle(g, f, A)

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_calibrated_rank1_potential(self, setup2d, short_grid, monkeypatch, eps):
        # small phase: one envelope group per chunk, whose series needs K > 0
        g, f = short_grid
        A = calibrated_potential(g, -2, setup2d[2], eps)
        groups = recorded(monkeypatch, parametrix, "_envelope_groups")
        self.check_against_oracle(g, f, A)
        assert groups and all(len(split) == 1 for _, split in groups)
        orders = np.concatenate([K for _, split in groups for _, _, K in split])
        assert orders.max() > 0
        # the modes of a chunk stop at different orders, and still match the oracle
        assert len(np.unique(orders)) >= 3

    @staticmethod
    def not_rank1_potential(g):
        a1 = make_potential("low_band", 0.02, g, seed=1, single_band=-6).values
        a2 = make_potential("low_band", 0.02, g, seed=2, single_band=-6).values
        profile = np.cos(6.0 * g.times)[:, None, None, None]
        return VectorPotential(g, a1 + profile * a2, band_limit=-6)

    def test_potential_not_rank1_in_time(self, short_grid):
        g, f = short_grid
        A = self.not_rank1_potential(g)
        bands = build_sigma(A, -2, circle_directions(4)).bands
        assert _detect_envelope(bands, A.values)[0] is None
        self.check_against_oracle(g, f, A)

    def test_not_rank1_builds_each_plane_once_in_mode_order(self, short_grid, monkeypatch):
        # one slice per group, so every K_m is 0: no mode is reordered, and a
        # chunk's plane waves serve all of its slices
        g, f = short_grid
        op = ParametrixOperator(g, f, self.not_rank1_potential(g), AnnulusCutoff(-2))
        planes = recorded(monkeypatch, ParametrixOperator, "_plane")
        groups = recorded(monkeypatch, parametrix, "_envelope_groups")
        op.apply()
        op.residual_analytic()
        chunks = [list(range(lo, min(lo + 32, 120))) for lo in range(0, 120, 32)]
        assert len(op.xi) == 120 and g.n_steps + 1 == 9
        assert [list(args[1]) for args, _ in planes] == chunks * 2
        assert len(groups) == 2 * len(chunks) * 9
        assert all(len(split) == 1 and not split[0][2].any() for _, split in groups)

    def test_rank1_bands_with_samples_not_rank1(self, short_grid):
        # a spatially constant, time-varying vector lies in no band <= k_f - 4,
        # so the bands stay rank-1 in time while A's samples do not: the
        # residual may not fold A(t_ref) into its mode sum
        g, f = short_grid
        base = make_potential("low_band", 0.02, g, seed=1, single_band=-6).values
        mean = 0.5 * np.max(np.abs(base)) * np.stack(
            [np.sin(5.0 * g.times), np.cos(3.0 * g.times)], axis=1
        )
        A = VectorPotential(g, base + mean[:, :, None, None], band_limit=-6)
        bands = build_sigma(A, -2, circle_directions(4)).bands
        assert _detect_envelope(bands, base)[0] is not None
        assert _detect_envelope(bands, A.values)[0] is None
        self.check_against_oracle(g, f, A)

    def test_residual_is_one_pass_of_three_factors(self, short_grid, monkeypatch):
        g, f = short_grid
        A = make_potential("low_band", 0.02, g, seed=1, single_band=-6)
        op = ParametrixOperator(g, f, A, AnnulusCutoff(-2))
        passes, mode_sum = [], ParametrixOperator._mode_sum

        def spy(self, integrand=None, *args, **kwargs):
            passes.append(set())

            def counted(*integrand_args):
                factors = integrand(*integrand_args)
                passes[-1].add(len(factors))
                return factors

            return mode_sum(self, counted, *args, **kwargs)

        monkeypatch.setattr(ParametrixOperator, "_mode_sum", spy)
        op.residual_analytic()
        assert g.n == 2 and passes == [{3}]

    def test_kernels_evaluate_each_distinct_projection_once(self, monkeypatch):
        # 120 directions and the 8 modes of band -6: 960 projections, 117 distinct
        v0 = recorded(monkeypatch, parametrix._ChiKernels, "_v0")
        op = benchmark_operator()
        assert [(len(op.phase.directions), len(b.eta)) for b in op.phase.bands] == [(120, 8)]
        assert [args[1].size for args, _ in v0] == [117]

    def test_per_mode_series_orders(self, monkeypatch):
        # each mode's series stops at its own tail bound; the modes of a chunk
        # are sorted so that K_m falls along them in every envelope group
        op = benchmark_operator()
        groups = recorded(monkeypatch, parametrix, "_envelope_groups")
        op.apply()
        orders = [K for _, split in groups for _, _, K in split]
        assert len(groups) == 4 and all(np.all(np.diff(K) <= 0) for K in orders)
        assert sum(int(np.sum(K + 1)) for K in orders) == 2481
        # the per-chunk rule: every mode of a chunk to the chunk's largest K
        assert sum(len(K) * (int(K[0]) + 1) for K in orders) == 5096

    def test_residual_peak_memory(self):
        op = benchmark_operator()
        assert len(op.xi) == 120
        tracemalloc.start()
        try:
            op.residual_analytic()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_taylor_study_peak_memory(self):
        # the (n_t, 5, P) sum is 10.3 MiB; its orders are summed in place, with
        # no reordered copy and no separate cumulative sum of the same size
        op = benchmark_operator()
        tracemalloc.start()
        try:
            op.taylor_study(4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_operator_holds_no_ray_fields(self):
        # the fields of all 120 directions would take 39 MB
        op = benchmark_operator()
        tracemalloc.start()
        try:
            op.apply()
            op.residual_analytic()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**20
