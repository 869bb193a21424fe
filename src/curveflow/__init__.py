"""Frenet frames and inextensible flows of non-null curves under an
index-1 metric, with a residual-based verification harness."""

from .curvekit import CLOSED, OPEN, CurveSpec, SampledCurve, d_ds, sample
from .errors import CurveFlowError
from .exprjet import Jet, eval_jet, eval_scalar, parse
from .flowsim import (
    FlowSpec,
    SimState,
    Trajectory,
    arclength_drift,
    dv_dt_rhs,
    evolve,
    initial_state,
    solve_inextensible_f1,
)
from .frenet import FrenetData, frenet_apparatus, frenet_residuals, stencil_curvatures
from .minkowski import CausalCharacter
from .verify import (
    CHECKS,
    VerificationReport,
    check_curvature_pde,
    check_frame_evolution,
    check_iff_condition,
    check_psi_antisymmetry,
    check_speed_evolution,
    merge_reports,
    run_check,
)

__version__ = "0.1.0"

__all__ = [
    "CLOSED",
    "OPEN",
    "CHECKS",
    "CausalCharacter",
    "CurveFlowError",
    "CurveSpec",
    "FlowSpec",
    "FrenetData",
    "Jet",
    "SampledCurve",
    "SimState",
    "Trajectory",
    "VerificationReport",
    "arclength_drift",
    "check_curvature_pde",
    "check_frame_evolution",
    "check_iff_condition",
    "check_psi_antisymmetry",
    "check_speed_evolution",
    "d_ds",
    "dv_dt_rhs",
    "eval_jet",
    "eval_scalar",
    "evolve",
    "frenet_apparatus",
    "frenet_residuals",
    "initial_state",
    "merge_reports",
    "parse",
    "run_check",
    "sample",
    "solve_inextensible_f1",
    "stencil_curvatures",
    "__version__",
]
