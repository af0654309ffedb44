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
)
from magschro import parametrix
from magschro.lp import CutoffPair
from magschro.potentials import VectorPotential, make_potential
from magschro.parametrix import (
    SIGMA0_FACTOR,
    AnnulusCutoff,
    ParametrixOperator,
    _detect_envelope,
    annulus_data,
    build_sigma,
    error_term,
    error_term_besov_ratio,
    error_term_groups,
    gradient_identity_check,
    parametrix_residual,
    phase_identity_residual,
    ray_integral_trapezoid,
)


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
        s0_a, s1_a = ph.sigma_at(3, xi)
        s0_b, s1_b = ph.sigma_at(3, 2.0 * xi)
        assert np.max(np.abs(s0_a - s0_b)) <= 1e-13 * max(np.max(np.abs(s0_a)), 1e-30)
        assert np.max(np.abs(2.0 * s1_a - s1_b)) <= 1e-13 * max(np.max(np.abs(s1_b)), 1e-30)

    def test_reality_structure(self, setup2d):
        g, k_f, scale = setup2d
        A = calibrated_potential(g, k_f, scale, 0.1)
        ph = build_sigma(A, k_f, circle_directions(6))
        s0, s1 = ph.sigma_at(0, np.array([0.25, 0.0]))
        assert np.max(np.abs(s0.imag)) <= 1e-12 * max(np.max(np.abs(s0)), 1e-30)
        assert np.max(np.abs(s1.real)) <= 1e-12 * max(np.max(np.abs(s1.imag)), 1e-30)

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
        assert _detect_envelope(build_sigma(A, -2, circle_directions(4)).bands)[0] is not None
        self.check_against_oracle(g, f, A)

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_calibrated_rank1_potential(self, setup2d, short_grid, monkeypatch, eps):
        # small phase: one envelope group per chunk, whose series needs K > 0
        g, f = short_grid
        A = calibrated_potential(g, -2, setup2d[2], eps)
        groups, split_slices = [], parametrix._envelope_groups

        def spy(env, sigma_sup):
            groups.append(split_slices(env, sigma_sup))
            return groups[-1]

        monkeypatch.setattr(parametrix, "_envelope_groups", spy)
        self.check_against_oracle(g, f, A)
        assert groups and all(len(split) == 1 for split in groups)
        assert max(K for split in groups for _, _, K in split) > 0

    def test_potential_not_rank1_in_time(self, short_grid):
        g, f = short_grid
        a1 = make_potential("low_band", 0.02, g, seed=1, single_band=-6).values
        a2 = make_potential("low_band", 0.02, g, seed=2, single_band=-6).values
        profile = np.cos(6.0 * g.times)[:, None, None, None]
        A = VectorPotential(g, a1 + profile * a2, band_limit=-6)
        assert _detect_envelope(build_sigma(A, -2, circle_directions(4)).bands)[0] is None
        self.check_against_oracle(g, f, A)

    def test_residual_peak_memory(self):
        # the benchmark's size: 64^2, 33 slices, M = 120
        g = make_grid(2, 64, 64, 1.0 / 64.0, 0.5)
        f = annulus_data(g, -2, seed=4, rel_width=(0.92, 1.0))
        A = make_potential("low_band", 0.02, g, seed=1, single_band=-6)
        op = ParametrixOperator(g, f, A, AnnulusCutoff(-2))
        assert len(op.xi) == 120
        tracemalloc.start()
        try:
            op.residual_analytic()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_operator_holds_no_ray_fields(self):
        # the benchmark's size; the fields of all 120 directions would take 39 MB
        g = make_grid(2, 64, 64, 1.0 / 64.0, 0.5)
        f = annulus_data(g, -2, seed=4, rel_width=(0.92, 1.0))
        A = make_potential("low_band", 0.02, g, seed=1, single_band=-6)
        op = ParametrixOperator(g, f, A, AnnulusCutoff(-2))
        tracemalloc.start()
        try:
            op.apply()
            op.residual_analytic()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**20
