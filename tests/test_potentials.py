"""Potential presets, smallness functionals, homogeneity, scaling action."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magschro.grid import make_grid
from magschro.potentials import (
    VectorPotential,
    YNormParams,
    corollary_norm,
    make_potential,
    rescale_potential,
    y0_components,
    y0_norm,
    y1_norm,
    y1_tilde_norm,
    y2_norm,
    y23_report,
    y3_norm,
)
from magschro.rotate import RotationSampler


def small_params(n):
    return YNormParams(sampler=RotationSampler(n, count=6, refine_rounds=0))


@pytest.fixture(scope="module")
def grid2():
    return make_grid(2, 64, 32, 1.0 / 32.0, 1.0)


class TestPresets:
    def test_zero_amplitude(self, grid2):
        A = make_potential("gauss_bump", 0.0, grid2)
        assert np.all(A.values == 0.0)
        assert y0_norm(A, small_params(2)) == 0.0
        assert y1_norm(A) == 0.0

    def test_divfree_curl_two_d(self, grid2):
        A = make_potential("divfree_curl", 0.3, grid2, width=3.0)
        assert A.divergence_free
        div = A.divergence()
        assert np.max(np.abs(div)) <= 1e-10 * np.max(np.abs(A.values))

    def test_low_band_spectral_mass(self, grid2):
        from magschro.grid import fourier_forward
        from magschro.lp import CutoffPair

        A = make_potential("low_band", 0.5, grid2, seed=4, k_cap=-3)
        spec = fourier_forward(grid2, A.values)
        c = CutoffPair()
        inside = grid2.xi_norm <= (1.0 + c.glue_width) * 2.0**-3
        total = np.sum(np.abs(spec) ** 2)
        assert np.sum(np.abs(spec) ** 2 * inside) >= (1 - 1e-8) * total

    def test_single_band_preset_is_one_band(self, grid2):
        A = make_potential("low_band", 0.5, grid2, seed=5, single_band=-3)
        piece = A.band(-3)
        assert np.max(np.abs(piece - A.values)) <= 1e-10 * np.max(np.abs(A.values))

    def test_homogeneity_of_all_functionals(self, grid2):
        p = small_params(2)
        A1 = make_potential("gauss_bump", 0.2, grid2, seed=1, width=5.0)
        A2 = make_potential("gauss_bump", 0.4, grid2, seed=1, width=5.0)
        for fn in (
            lambda A: y0_norm(A, p),
            y1_norm,
            lambda A: y2_norm(A, p),
            lambda A: y3_norm(A, p),
            corollary_norm,
        ):
            v1, v2 = fn(A1), fn(A2)
            assert abs(v2 - 2.0 * v1) <= 1e-9 * max(v2, 1e-30)

    def test_analytic_dt_matches_finite_difference(self, grid2):
        A = make_potential("traveling_bump", 0.3, grid2, seed=2, width=5.0)
        sampled_only = VectorPotential(grid2, A.values.copy())
        fd = sampled_only.time_derivative()
        an = A.time_derivative()
        scale = np.max(np.abs(an))
        assert np.max(np.abs(fd[1:-1] - an[1:-1])) <= 5e-3 * scale

    def test_rejects_unknown_and_unresolved(self, grid2):
        with pytest.raises(ValueError, match="unknown preset"):
            make_potential("nope", 0.1, grid2)
        with pytest.raises(ValueError, match="unresolvable"):
            make_potential("gauss_bump", 0.1, grid2, width=0.5)


class TestYNorms:
    def test_component_breakdown_logged(self, grid2):
        A = make_potential("gauss_bump", 0.15, grid2, seed=3, width=5.0)
        comps = y0_components(A, small_params(2))
        assert set(comps) >= {"grad_l1_linf", "a_l2_linf", "dyadic_l1_lnh"}
        assert all(v >= 0 for k, v in comps.items() if k != "dyadic_per_band")
        assert y0_norm(A, small_params(2)) == pytest.approx(
            comps["grad_l1_linf"] + comps["a_l2_linf"] + comps["dyadic_l1_lnh"]
        )

    def test_time_independent_derivative_terms(self):
        # constant-in-time potential: dt terms of Y2/Y3 reduce to the Hessian part
        g = make_grid(2, 32, 16, 0.125, 1.0)
        bump = make_potential("gauss_bump", 0.2, g, width=3.0)
        const = VectorPotential(g, np.repeat(bump.values[:1], g.n_steps + 1, axis=0))
        dt = const.time_derivative()
        assert np.max(np.abs(dt)) <= 1e-12

    def test_y1_tilde_dominated_by_y1(self, grid2):
        # paired evaluation across presets: Y1~ <= C * Y1 with a stable fitted C
        p = small_params(2)
        ratios = []
        for seed in range(6):
            A = make_potential("gauss_bump", 0.1, grid2, seed=seed, width=4.0 + 0.5 * seed)
            with pytest.warns(UserWarning, match="diagnostic"):
                t = y1_tilde_norm(A, p)
            ratios.append(t / y1_norm(A))
        ratios = np.array(ratios)
        assert np.isfinite(ratios).all()
        assert ratios.max() <= 4.0 * ratios.min()

    def test_corollary_dominates_family(self, grid2):
        p = small_params(2)
        worst = 0.0
        for seed in range(3):
            A = make_potential("gauss_bump", 0.1, grid2, seed=seed, width=5.0)
            ref = corollary_norm(A)
            for fn in (lambda a: y0_norm(a, p), y1_norm, lambda a: y2_norm(a, p), lambda a: y3_norm(a, p)):
                worst = max(worst, fn(A) / ref)
        assert np.isfinite(worst) and worst > 0
        # fitted constant recorded; stability asserted loosely
        assert worst < 50.0

    def test_time_independent_corollary_sums_finite(self):
        g = make_grid(2, 32, 16, 0.125, 1.0)
        bump = make_potential("gauss_bump", 0.2, g, width=3.0)
        const = VectorPotential(g, np.repeat(bump.values[:1], g.n_steps + 1, axis=0))
        v = corollary_norm(const)
        assert np.isfinite(v) and v > 0


class TestScaling:
    def test_identity_and_composition(self, grid2):
        A = make_potential("gauss_bump", 0.2, grid2, seed=7, width=5.0)
        same = rescale_potential(A, 1.0)
        assert np.array_equal(same.values, A.values)
        twice = rescale_potential(rescale_potential(A, 2.0), 2.0)
        four = rescale_potential(A, 4.0)
        assert np.allclose(twice.values, four.values)
        assert (twice.grid.n, twice.grid.N) == (four.grid.n, four.grid.N)
        assert np.isclose(twice.grid.L, four.grid.L)

    def test_rejects_non_power_of_two(self, grid2):
        A = make_potential("gauss_bump", 0.2, grid2, width=5.0)
        with pytest.raises(ValueError, match="power of two"):
            rescale_potential(A, 3.0)

    @pytest.mark.parametrize("j", [0, 1])
    def test_scale_invariance_y0_y1(self, grid2, j):
        A = make_potential("gauss_bump", 0.12, grid2, seed=8, width=5.0)
        B = rescale_potential(A, 2.0)
        p = small_params(2)
        fn = (lambda a: y0_norm(a, p)) if j == 0 else y1_norm
        r = fn(B) / fn(A)
        assert 0.98 <= r <= 1.02

    @pytest.mark.parametrize("j", [2, 3])
    def test_scale_invariance_y2_y3(self, grid2, j):
        A = make_potential("divfree_curl", 0.12, grid2, seed=9, width=3.0)
        B = rescale_potential(A, 2.0)
        p = small_params(2)
        fn = (lambda a: y2_norm(a, p)) if j == 2 else (lambda a: y3_norm(a, p))
        r = fn(B) / fn(A)
        assert 0.97 <= r <= 1.03


class TestKernels:
    """The Hessian and dt-band kernels behind Y2 and Y3."""

    @pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
    def test_hessian_matches_plane_waves(self, n, N):
        # a real sum of plane waves below Nyquist, different in every (t, comp)
        g = make_grid(n, N, 8.0, 0.5, 1.0)
        rng = np.random.default_rng(n)
        x = g.spatial_meshes()
        modes = rng.integers(-N // 2 + 1, N // 2, size=(4, n))
        amps = rng.normal(size=(4, g.n_steps + 1, n))
        shifts = rng.uniform(0, 2 * np.pi, size=4)
        sampled = np.zeros((g.n_steps + 1, n) + g.shape)
        expected = np.zeros((g.n_steps + 1, n, n, n) + g.shape)
        for m, a, phi in zip(modes, amps, shifts):
            xi = m / g.L
            wave = a.reshape(a.shape + (1,) * n) * np.cos(
                2 * np.pi * sum(xi_j * x_j for xi_j, x_j in zip(xi, x)) + phi
            )
            sampled += wave
            for i in range(n):
                for j in range(n):
                    expected[:, i, j] -= 4 * np.pi**2 * xi[i] * xi[j] * wave
        A = VectorPotential(g, np.zeros((g.n_steps + 1, n) + g.shape))
        out = A.hessian_of(sampled)
        assert out.shape == expected.shape and out.dtype == np.float64
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))
        for i in range(n):
            for j in range(n):
                assert np.array_equal(out[:, i, j], out[:, j, i])

    def test_hessian_of_white_noise_matches_complex_path(self):
        # white noise fills the Nyquist lines, where an off-diagonal multiplier
        # xi_i xi_j is odd: the real part of the complex path drops them
        g = make_grid(2, 16, 8.0, 0.5, 1.0)
        sampled = np.random.default_rng(11).normal(size=(3, 2, 16, 16))
        A = VectorPotential(g, np.zeros((3, 2, 16, 16)))
        out = A.hessian_of(sampled)
        spec = np.fft.fftn(sampled, axes=(-2, -1))
        for i in range(2):
            for j in range(2):
                mult = -4 * np.pi**2 * g.xi[i] * g.xi[j]
                ref = np.fft.ifftn(mult * spec, axes=(-2, -1)).real
                assert np.max(np.abs(out[:, i, j] - ref)) <= 1e-12 * np.max(np.abs(ref)), (i, j)

    @pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
    def test_hessian_transform_count(self, n, N, fft_calls):
        g = make_grid(n, N, 8.0, 0.5, 1.0)
        A = make_potential("gauss_bump", 0.2, g, width=2.0)
        A.hessian_of(A.values)
        assert len(fft_calls) == 1 + n * (n + 1) // 2

    def test_dt_band_one_transform_per_call(self, grid2, fft_calls):
        from magschro.grid import (
            _half,
            _real_forward,
            _real_inverse,
            fourier_forward,
            fourier_inverse,
        )
        from magschro.lp import band_mask

        A = make_potential("traveling_bump", 0.3, grid2, seed=2, width=5.0)
        k = -2
        first = A.dt_band(k)
        fft_calls.clear()
        again = A.dt_band(k)
        assert len(fft_calls) == 1
        dt, mask = A.time_derivative(), band_mask(grid2, k)
        direct = _real_inverse(grid2, _real_forward(grid2, dt) * _half(grid2, mask))
        assert np.array_equal(first, direct) and np.array_equal(again, direct)
        # the complex path, to round-off on the scale of the transformed field
        full = fourier_inverse(grid2, fourier_forward(grid2, dt) * mask).real
        assert np.max(np.abs(first - full)) <= 1e-14 * np.max(np.abs(dt))

    def test_cached_bands_own_their_data(self, grid2):
        # a band that viewed a complex array would keep twice its memory alive
        A = make_potential("gauss_bump", 0.2, grid2, width=3.0)
        k_min, k_max = A.band_range()
        for k in range(k_min, k_max + 1):
            band = A.band(k)
            assert band.base is None and band.dtype == np.float64 and A.band(k) is band

    def test_derivatives_match_the_complex_path(self):
        # a rough field has mass on the Nyquist lines, whose odd part the
        # real part of the full complex path drops
        from magschro.grid import fourier_forward, fourier_inverse

        g = make_grid(2, 16, 8.0, 0.5, 1.0)
        vals = np.random.default_rng(3).normal(size=(g.n_steps + 1, 2) + g.shape)
        A = VectorPotential(g, vals)
        spec = fourier_forward(g, vals)
        grad = [fourier_inverse(g, 2j * np.pi * g.xi[i] * spec).real for i in range(2)]
        jac, div = A.jacobian(), A.divergence()
        scale = np.max(np.abs(grad))
        assert np.max(np.abs(jac - np.stack(grad, axis=1))) <= 1e-14 * scale
        assert np.max(np.abs(div - grad[0][:, 0] - grad[1][:, 1])) <= 1e-14 * scale

    def test_y23_report_reads_dt_band_once_per_band(self, monkeypatch):
        calls = {"dt_band": [], "hessian_of": []}
        for name in calls:
            original = getattr(VectorPotential, name)

            def counted(self, arg, _name=name, _original=original):
                calls[_name].append(arg)
                return _original(self, arg)

            monkeypatch.setattr(VectorPotential, name, counted)
        A = make_potential("gauss_bump", 0.2, make_grid(2, 32, 16, 0.25, 1.0), width=2.0)
        k_min, k_max = A.band_range()
        y23_report(A, small_params(2))
        bands = list(range(k_min, k_max + 1))
        assert calls["dt_band"] == bands
        # the Hessian stays one call per band and rotation, on the cached band
        assert len(calls["hessian_of"]) == 6 * len(bands)
        assert all(h is A.band(k) for h, k in zip(calls["hessian_of"], np.repeat(bands, 6)))


_WALKERS = {  # each functional that walks the bands itself
    "y0_components": lambda A, p: y0_components(A, p),
    "y1_norm": lambda A, p: y1_norm(A),
    "y1_tilde_norm": lambda A, p: y1_tilde_norm(A, p),
    "y23_report": lambda A, p: y23_report(A, p),
    "corollary_norm": lambda A, p: corollary_norm(A),
}
_WRAPPERS = {  # and each that walks them through one of those
    "y0_norm": lambda A, p: y0_norm(A, p),
    "y2_norm": lambda A, p: y2_norm(A, p),
    "y3_norm": lambda A, p: y3_norm(A, p),
}


@pytest.mark.parametrize("name", list(_WALKERS) + list(_WRAPPERS))
@pytest.mark.parametrize("share, warns", [(0.012, True), (0.008, False)])
def test_out_of_range_band_warning_threshold(name, share, warns):
    # a wave at mode (4, 0), inside bands -4..-1, plus one at mode (15, 0),
    # which no band covers, carrying the share `share` of the spectral mass
    g = make_grid(2, 32, 16, 0.25, 1.0)
    x, _ = g.spatial_meshes()
    b = np.sqrt(share / (1.0 - share))
    wave = np.cos(2 * np.pi * 4 * x / g.L) + b * np.cos(2 * np.pi * 15 * x / g.L)
    vals = np.zeros((g.n_steps + 1, 2) + g.shape)
    vals[:, 0] = 0.1 * wave
    A = VectorPotential(g, vals)
    assert A.out_of_range_mass() == pytest.approx(share, rel=1e-9)
    p = YNormParams(sampler=RotationSampler(2, count=2, refine_rounds=0))
    fn = {**_WALKERS, **_WRAPPERS}[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn(A, p)
    outside = [w for w in caught if "outside the representable band window" in str(w.message)]
    assert len(outside) == (1 if warns else 0)
    line = fn.__code__.co_firstlineno  # the lambda's line calls the functional
    assert all((w.filename, w.lineno) == (__file__, line) for w in outside)


@pytest.mark.parametrize("name", ["y23_report", "y2_norm", "y3_norm", "y1_tilde_norm"])
def test_regime_warnings_point_at_the_caller(name):
    # dt > T/4 trips the coarse-time-grid warning of y23_report, and n = 2 the
    # n >= 4 regime warning of y1_tilde_norm
    g = make_grid(2, 32, 16, 0.5, 1.0)
    A = make_potential("gauss_bump", 0.1, g, seed=10, width=5.0)
    fn = {**_WALKERS, **_WRAPPERS}[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn(A, YNormParams(sampler=RotationSampler(2, count=2, refine_rounds=0)))
    regime = [w for w in caught if "coarse" in str(w.message) or "regime" in str(w.message)]
    assert len(regime) == 1
    assert (regime[0].filename, regime[0].lineno) == (__file__, fn.__code__.co_firstlineno)


def test_y23_report_structure(grid2):
    A = make_potential("gauss_bump", 0.1, grid2, seed=10, width=5.0)
    rep = y23_report(A, small_params(2))
    assert len(rep) > 0
    for k, stats in rep.items():
        assert set(stats) == {"a_linf_t", "a_l1_t", "d_linf_t", "d_l1_t"}
        assert all(v >= 0 for v in stats.values())


@pytest.mark.parametrize("p0", [np.nan, np.inf, 0.0, -1.0])
def test_p0_must_be_finite_and_positive(p0):
    with pytest.raises(ValueError, match="p0"):
        YNormParams(p0=p0)


def test_reality_enforced(grid2):
    vals = np.zeros((grid2.n_steps + 1, 2) + grid2.shape, dtype=complex)
    vals += 1j * 0.5
    with pytest.raises(ValueError, match="real"):
        VectorPotential(grid2, vals)


def test_cutoff_pair_other_than_the_lab_pair_rejected(grid2):
    from magschro.lp import CutoffPair

    vals = np.zeros((grid2.n_steps + 1, 2) + grid2.shape)
    with pytest.raises(ValueError, match="cutoffs"):
        VectorPotential(grid2, vals, cutoffs=CutoffPair(0.2))


@given(
    st.integers(0, 2),
    st.integers(0, 1),
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
@settings(max_examples=40, deadline=None)
def test_non_finite_sample_rejected(t, comp, x, bad):
    g = make_grid(2, 8, 1.0, 0.25, 0.5)  # 3 slices of 8 x 8
    vals = np.zeros((g.n_steps + 1, 2) + g.shape)
    vals[(t, comp) + x] = bad
    with pytest.raises(ValueError, match="finite"):
        VectorPotential(g, vals)
