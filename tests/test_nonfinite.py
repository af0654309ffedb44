"""One NaN or Inf at a drawn position of an input is a ValueError naming finiteness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magschro.angular import (
    angular_net,
    cap_oscillatory_decay,
    cap_partition,
    decay_slope,
    pointwise_ray_bound_check,
)
from magschro.grid import SpaceTimeField, gaussian_wavepacket, make_grid
from magschro.parametrix import (
    AnnulusCutoff,
    ParametrixOperator,
    build_sigma,
    error_term,
    error_term_besov_ratio,
    error_term_groups,
)
from magschro.potentials import VectorPotential, YNormParams
from magschro.solver import (
    PropagatorHandle,
    SolverConfig,
    duhamel_solve,
    lp_reduced_equation_check,
    solve,
)

G = make_grid(2, 16, 16, 0.25, 0.5)  # 3 slices of 16 x 16, dx = 1
_rng = np.random.default_rng(0)
U = _rng.normal(size=(3,) + G.shape) + 1j * _rng.normal(size=(3,) + G.shape)
A_VALUES = 0.1 * _rng.normal(size=(3, 2) + G.shape)
A = VectorPotential(G, A_VALUES)
F = gaussian_wavepacket(G, (8, 8), 4.0)
DIRECTIONS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
TIMES = np.array([1.0, 2.0, 4.0])
H = _rng.normal(size=G.shape)
OMEGA = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, -0.8]])


def _u(values):
    return SpaceTimeField(G, values)


# name -> (a finite input, the call that must reject it once one entry is poisoned)
CASES = {
    "solve": (F, lambda f: solve(G, f, A, None)),
    "duhamel_solve": (F, lambda f: duhamel_solve(G, f, A, None)),
    "PropagatorHandle.apply": (
        F, lambda f: PropagatorHandle(G, A, SolverConfig(G.dt)).apply(f, G.T)
    ),
    "ParametrixOperator": (F, lambda f: ParametrixOperator(G, f, A, AnnulusCutoff(-2))),
    "VectorPotential": (A_VALUES, lambda a: VectorPotential(G, a)),
    "build_sigma": (DIRECTIONS, lambda d: build_sigma(A, -2, d)),
    "cap_oscillatory_decay-times": (TIMES, lambda t: cap_oscillatory_decay(t, [])),
    "cap_oscillatory_decay-centre": (
        np.array([1.0, 0.0]), lambda c: cap_oscillatory_decay([1.0], [(c, 1)])
    ),
    "decay_slope": (TIMES, lambda t: decay_slope({"t": t, "sup": 1.0 / TIMES})),
    "pointwise_ray_bound_check": (H, lambda h: pointwise_ray_bound_check(G, h, 0)),
    "CapPartition.values": (OMEGA, lambda w: cap_partition(angular_net(2, 2)).values(w)),
    "YNormParams": (np.array([0.5]), lambda p0: YNormParams(p0=float(p0[0]))),
    "error_term": (U, lambda u: error_term(_u(u), A, -3)),
    "error_term_groups": (U, lambda u: error_term_groups(_u(u), A, -3)),
    "error_term_besov_ratio": (U, lambda u: error_term_besov_ratio(_u(u), A, 0.1, 0.0, (-4, -2))),
    "error_term_besov_ratio-eps": (
        np.array([0.1]), lambda e: error_term_besov_ratio(_u(U), A, float(e[0]), 0.0, (-4, -2))
    ),
    "lp_reduced_equation_check": (U, lambda u: lp_reduced_equation_check(_u(u), A, None, -3)),
}


@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_one_non_finite_entry_rejected(name, data):
    values, call = CASES[name]
    values = np.array(values, copy=True)
    index = data.draw(st.integers(0, values.size - 1), label="index")
    values.flat[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    with pytest.raises(ValueError, match="finite"):
        call(values)
