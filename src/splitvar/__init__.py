"""Variational problems with split anisotropic growth on the square.

The package discretizes the energy J[w] = sum over cells of
f1(grad_1 w) + f2(grad_2 w), with f1 of linear growth and f2 superlinear,
solves the regularized problems along a vanishing-delta continuation, and
evaluates the relaxed energy of discontinuous candidates, dual lower
bounds, and interior integrability diagnostics.
"""

from .densities import (
    ConjugateBoundaryWarning,
    ConjugateRangeError,
    Density1Spec,
    Density2Spec,
    DensityPair,
    IntegrabilityPrediction,
    NonConcaveObjectiveError,
    NonLinearGrowthError,
    conjugate_scalar,
    conjugate_via_slope_inversion,
    density_from_id,
    make_hencky,
    make_pair,
    make_phi_nu,
    power_density2,
    predict_integrability,
    recession,
    tlog_density2,
    young_residual,
)
from .diagnostics import (
    ApproximationTable,
    SweepTable,
    approximation_experiment,
    integrability_sweep,
    relaxation_gap,
)
from .duality import DualReport, duality_gap, stress
from .energy import (
    BVCandidate,
    CandidateInvariantError,
    EnergyBreakdown,
    EnergyOverflowError,
    JumpSegment,
    eval_J,
    eval_J_delta,
    eval_K,
    lift_to_candidate,
)
from .grid import (
    CellField2,
    Grid,
    GridFunction,
    divergence_residual,
    gradient,
    load_csv,
    load_vsgf,
    save_csv,
    save_vsgf,
)
from .solve import (
    ContinuationContractError,
    DeltaRecord,
    NonConvexDetected,
    SolveConfig,
    SolveReport,
    continuation,
    minimize_J_delta,
    multi_start,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # densities
    "ConjugateBoundaryWarning",
    "ConjugateRangeError",
    "Density1Spec",
    "Density2Spec",
    "DensityPair",
    "IntegrabilityPrediction",
    "NonConcaveObjectiveError",
    "NonLinearGrowthError",
    "conjugate_scalar",
    "conjugate_via_slope_inversion",
    "density_from_id",
    "make_hencky",
    "make_pair",
    "make_phi_nu",
    "power_density2",
    "predict_integrability",
    "recession",
    "tlog_density2",
    "young_residual",
    # grid
    "CellField2",
    "Grid",
    "GridFunction",
    "divergence_residual",
    "gradient",
    "load_csv",
    "load_vsgf",
    "save_csv",
    "save_vsgf",
    # energy
    "BVCandidate",
    "CandidateInvariantError",
    "EnergyBreakdown",
    "EnergyOverflowError",
    "JumpSegment",
    "eval_J",
    "eval_J_delta",
    "eval_K",
    "lift_to_candidate",
    # solve
    "ContinuationContractError",
    "DeltaRecord",
    "NonConvexDetected",
    "SolveConfig",
    "SolveReport",
    "continuation",
    "minimize_J_delta",
    "multi_start",
    # duality
    "DualReport",
    "duality_gap",
    "stress",
    # diagnostics
    "ApproximationTable",
    "SweepTable",
    "approximation_experiment",
    "integrability_sweep",
    "relaxation_gap",
]
