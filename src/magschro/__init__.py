"""Numerical laboratory for the magnetic Schrodinger equation.

Dyadic frequency calculus, mixed space-time norms, smallness functionals for
vector potentials, a reference propagator, and an explicit oscillatory-
integral approximate propagator with its residual identities, plus a batch
experiment driver (`magschro` on the command line).
"""

__version__ = "0.1.0"

from .grid import (
    Grid,
    SpaceTimeField,
    fourier_forward,
    fourier_inverse,
    free_evolution,
    free_propagate,
    gaussian_wavepacket,
    l2_norm,
    make_grid,
)
from .lp import (
    AnnulusCutoff,
    BandDecomposition,
    CutoffPair,
    bernstein_ratio,
    besov_l2_norm,
    build_cutoffs,
    mixed_bernstein_ratio,
    paraproduct_split,
    project_band,
    project_below,
    project_fat,
    project_leq,
    representable_bands,
    sequence_bound_check,
)
from .norms import (
    AdmissiblePair,
    admissible_pairs,
    anisotropic_norm,
    is_admissible,
    lqlr_norm,
    xdot_norm,
)
from .rotate import RotationSampler, rotate_field
from .potentials import (
    VectorPotential,
    YNormParams,
    corollary_norm,
    make_potential,
    rescale_potential,
    y0_norm,
    y1_norm,
    y1_tilde_norm,
    y2_norm,
    y3_norm,
)
from .solver import (
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
from .parametrix import (
    ParametrixOperator,
    PhaseField,
    annulus_data,
    build_sigma,
    error_term,
    error_term_besov_ratio,
    error_term_groups,
    parametrix_residual,
    phase_identity_residual,
)
from .angular import (
    AngularNet,
    CapPartition,
    angular_net,
    cap_oscillatory_decay,
    cap_partition,
    decay_slope,
    pointwise_ray_bound_check,
    random_caps,
)
from .experiments import ExperimentConfig, RunReport, list_checks, run, validate
