"""Propagator oracles: transport, convergence order, charge, Duhamel, reversal."""

import numpy as np
import pytest

from magschro.grid import (
    free_propagate,
    gaussian_wavepacket,
    l2_norm,
    make_grid,
)
from magschro.potentials import VectorPotential, make_potential
from magschro.solver import (
    CFLError,
    PropagatorHandle,
    SolverConfig,
    duhamel_solve,
    energy_bound_check,
    equation_residual,
    lp_reduced_equation_check,
    propagator_compose_check,
    solve,
)


def constant_potential(grid, a):
    """Constant vector field a as an analytic potential."""
    a = np.asarray(a, dtype=float)
    base = np.ones((grid.n,) + grid.shape)
    for j in range(grid.n):
        base[j] *= a[j]

    def evaluator(t):
        return base

    def dt_evaluator(t):
        return np.zeros_like(base)

    values = np.repeat(base[None], grid.n_steps + 1, axis=0)
    return VectorPotential(grid, values, evaluator=evaluator, dt_evaluator=dt_evaluator,
                           divergence_free=True)


def transported_free_solution(grid, f, a, t):
    """(e^{it Lap} f)(x - a t): exact solution for constant A = a (torus shift)."""
    u = free_propagate(grid, f, t)
    spec = np.fft.fftn(u)
    shift = np.exp(-2j * np.pi * sum(grid.xi[j] * a[j] * t for j in range(grid.n)))
    return np.fft.ifftn(spec * shift)


@pytest.fixture(scope="module")
def grid2():
    return make_grid(2, 64, 32, 1.0 / 64.0, 1.0)


@pytest.fixture(scope="module")
def packet2(grid2):
    return gaussian_wavepacket(grid2, (12, 16), 5.0, (0.05, -0.05))


class TestSolveOracles:
    def test_free_case_matches_free_propagator(self, grid2, packet2):
        u = solve(grid2, packet2, None, None)
        exact = free_propagate(grid2, packet2, 1.0)
        assert l2_norm(grid2, u.values[-1] - exact) <= 1e-8

    def test_constant_potential_transport_oracle(self, grid2, packet2):
        a = np.array([0.8, -0.6])
        A = constant_potential(grid2, a)
        u = solve(grid2, packet2, A, None)
        exact = transported_free_solution(grid2, packet2, a, 1.0)
        assert l2_norm(grid2, u.values[-1] - exact) <= 1e-6

    def test_dt_convergence_order(self):
        a = np.array([0.8, -0.6])
        errs = []
        dts = [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0]
        for dt in dts:
            g = make_grid(2, 64, 32, dt, 1.0)
            f = gaussian_wavepacket(g, (12, 16), 5.0, (0.05, -0.05))
            A = constant_potential(g, a)
            u = solve(g, f, A, None)
            exact = transported_free_solution(g, f, a, 1.0)
            errs.append(l2_norm(g, u.values[-1] - exact))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 3.5

    def test_charge_conservation_divfree(self, grid2, packet2):
        A = make_potential("divfree_curl", 0.2, grid2, width=2.5)
        u = solve(grid2, packet2, A, None)
        drift = np.max(np.abs(u.slice_l2() - u.slice_l2()[0]))
        assert drift <= 1e-8  # per unit time (T = 1)

    def test_initial_condition_exact(self, grid2, packet2):
        u = solve(grid2, packet2, None, None)
        assert np.array_equal(u.values[0], packet2)

    def test_residual_small(self, grid2, packet2):
        A = make_potential("gauss_bump", 0.1, grid2, width=2.5)
        u = solve(grid2, packet2, A, None)
        _, res = equation_residual(u, A, None)
        assert res <= 1e-4 * (l2_norm(grid2, packet2))

    def test_cfl_rejected(self, grid2, packet2):
        A = constant_potential(grid2, (80.0, 0.0))
        with pytest.raises(CFLError):
            solve(grid2, packet2, A, None)


def handle_march(grid, f, A, F, config=None):
    """PropagatorHandle.apply from 0 to T, called like solve (F unused)."""
    return PropagatorHandle(grid, A, config or SolverConfig(dt=grid.dt)).apply(f, grid.T)


class TestInputChecks:
    """solve, duhamel_solve and PropagatorHandle.apply reject the same inputs
    before stepping; only the handle may step at a dt other than the grid's."""

    @pytest.mark.parametrize("march", [solve, duhamel_solve])
    def test_dt_other_than_the_grid_step_rejected(self, grid2, packet2, march):
        with pytest.raises(ValueError, match="dt must match"):
            march(grid2, packet2, None, None, SolverConfig(dt=grid2.dt / 2))

    @pytest.mark.parametrize("march", [solve, duhamel_solve, handle_march])
    def test_potential_on_another_grid_rejected(self, grid2, packet2, march):
        other = make_grid(2, 64, 32, grid2.dt / 2, 1.0)
        A = constant_potential(other, (0.1, 0.0))
        with pytest.raises(ValueError, match="grid"):
            march(grid2, packet2, A, None)

    @pytest.mark.parametrize("march", [solve, duhamel_solve, handle_march])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, grid2, packet2, march, bad):
        f = packet2.copy()
        f[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            march(grid2, f, None, None)

    @pytest.mark.parametrize("speed, dt", [(80.0, 1.0 / 64.0), (0.5, 0.5)])
    def test_handle_step_over_cfl_bound_rejected(self, grid2, packet2, speed, dt):
        # the bound is 0.5 dx / max(1, |A|) = 0.25 / max(1, |A|) on this grid
        A = constant_potential(grid2, (speed, 0.0))
        with pytest.raises(CFLError):
            handle_march(grid2, packet2, A, None, SolverConfig(dt=dt))


class TestDuhamel:
    def test_reduces_to_homogeneous(self, grid2, packet2):
        A = make_potential("gauss_bump", 0.1, grid2, width=2.5)
        u1 = solve(grid2, packet2, A, None)
        u2 = duhamel_solve(grid2, packet2, A, None)
        assert l2_norm(grid2, u1.values[-1] - u2.values[-1]) <= 1e-10

    def test_linearity(self, grid2):
        g = grid2
        f1 = gaussian_wavepacket(g, (12, 16), 3.0, (0.05, 0.0))
        f2 = gaussian_wavepacket(g, (20, 16), 3.0, (-0.05, 0.05))
        bump = gaussian_wavepacket(g, (16, 12), 3.0)

        def F1(t):
            return np.cos(2 * t) * bump

        A = make_potential("gauss_bump", 0.05, g, width=2.5)
        ua = duhamel_solve(g, f1, A, F1)
        ub = duhamel_solve(g, f2, A, None)
        uc = duhamel_solve(g, f1 + 2.0 * f2, A, F1)
        comb = ua.values[-1] + 2.0 * ub.values[-1]
        assert l2_norm(g, uc.values[-1] - comb) <= 1e-10

    def test_matches_direct_solve_with_forcing(self, grid2):
        g = grid2
        rng = np.random.default_rng(14)
        f = gaussian_wavepacket(g, (12, 16), 5.0, (0.05, -0.05))
        A = make_potential("low_band", 0.1, g, seed=3, k_cap=-3)
        bump = gaussian_wavepacket(g, (18, 14), 3.0, (0.0, 0.05))

        def F(t):
            return np.exp(-2.0 * (t - 0.4) ** 2) * bump

        u1 = solve(g, f, A, F)
        u2 = duhamel_solve(g, f, A, F)
        err = max(
            l2_norm(g, u1.values[i] - u2.values[i]) for i in range(0, g.n_steps + 1, 8)
        )
        assert err <= 1e-6 * l2_norm(g, f)


class TestPropagator:
    def test_identity_at_equal_times(self, grid2, packet2):
        h = PropagatorHandle(grid2, None, SolverConfig(dt=grid2.dt))
        assert np.array_equal(h.apply(packet2, 0.3, 0.3), packet2)

    def test_composition(self, grid2, packet2):
        A = make_potential("gauss_bump", 0.1, grid2, width=2.5)
        dev = propagator_compose_check(grid2, A, 0.5, 1.0, [packet2])
        assert dev <= 1e-6

    def test_backward_forward_roundtrip(self, grid2, packet2):
        A = make_potential("traveling_bump", 0.1, grid2, width=2.5)
        h = PropagatorHandle(grid2, A, SolverConfig(dt=grid2.dt))
        fwd = h.apply(packet2, 1.0, 0.0)
        back = h.apply(fwd, 0.0, 1.0)
        assert l2_norm(grid2, back - packet2) <= 1e-6


class TestEnergyBound:
    def test_divfree_no_forcing_is_sharp(self, grid2, packet2):
        A = make_potential("divfree_curl", 0.15, grid2, width=2.5)
        out = energy_bound_check(grid2, packet2, A, None)
        assert out["premise_ok"] and out["pass"]
        assert abs(out["sup_l2"] - 1.0) <= 1e-7  # C = 1 case

    def test_with_forcing_margin(self, grid2, packet2):
        g = grid2
        A = make_potential("gauss_bump", 0.1, g, width=2.5)
        bump = gaussian_wavepacket(g, (18, 18), 3.0)

        def F(t):
            return 0.3 * np.sin(3 * t) * bump

        out = energy_bound_check(g, packet2, A, F)
        assert out["premise_ok"] and out["pass"]
        assert out["sup_l2"] <= out["bound"]

    def test_eps_sweep_approaches_one(self, grid2, packet2):
        sups = []
        for eps in (0.2, 0.1, 0.05):
            A = make_potential("gauss_bump", eps, grid2, seed=2, width=2.5)
            out = energy_bound_check(grid2, packet2, A, None)
            sups.append(abs(out["sup_l2"] - 1.0))
        assert sups[0] >= sups[1] >= sups[2] - 1e-12

    def test_premise_violation_skips(self, grid2, packet2):
        # large potential with nonzero divergence: premise fails, check skipped
        A = make_potential("gauss_bump", 30.0, grid2, width=2.5)
        out = energy_bound_check(grid2, packet2, A, None)
        if out["div_l1linf"] >= 0.5:
            assert out["pass"] is None
        else:
            pytest.skip("preset divergence too small to trip the premise")


class TestLpReduced:
    def test_free_band_residual(self, grid2, packet2):
        u = solve(grid2, packet2, None, None)
        res = lp_reduced_equation_check(u, None, None, -3)
        assert res <= 1e-4

    def test_low_band_potential_band_residual(self, grid2, packet2):
        A = make_potential("low_band", 0.05, grid2, seed=6, k_cap=-5)
        u = solve(grid2, packet2, A, None)
        res = lp_reduced_equation_check(u, A, None, -2)
        # identity up to solver discretization error
        assert res <= 1e-4

    def test_residuals_logged_across_bands(self, grid2, packet2):
        A = make_potential("gauss_bump", 0.05, grid2, width=2.5)
        u = solve(grid2, packet2, A, None)
        vals = {k: lp_reduced_equation_check(u, A, None, k) for k in (-4, -3, -2)}
        assert all(np.isfinite(v) for v in vals.values())
