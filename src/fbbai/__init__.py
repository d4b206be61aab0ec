"""Fixed-budget best-arm identification for linear and GLM bandits.

The package provides problem instances, optimal-design solvers, budgeted
successive elimination, theoretical error bounds, and a seeded
Monte-Carlo harness with a CLI front end (``fbbai``).
"""

from .bounds import (BoundInputs, bound_glm_general, bound_glm_gopt,
                     bound_linear_general, bound_linear_gopt, oracle_c_min,
                     stage_norm_terms)
from .design import (Design, allocate_budget, default_iteration_cap,
                     d_opt_gradient, fw_d_optimal, fw_g_optimal,
                     fw_g_optimal_stack, g_gradient, g_value_and_argmax,
                     kw_certificate, round_allocation)
from .errors import (BudgetTooSmallError, ConfigurationError,
                     DegenerateInputError, EstimationFailureError, FbbaiError,
                     InvalidAllocationError, SingularDesignError,
                     UndefinedBoundError)
from .estimators import (ParameterEstimate, RegressionData, irls_glm,
                         least_squares, mean_estimates)
from .gse import (DesignCache, GseConfig, RunResult, StagePlan, StageSchedule,
                  StageTrace, eliminate, explore, gse_lockstep, gse_run,
                  stage_schedule)
from .harness import (PRESETS, VARIANTS, McResult, Preset, SweepPoint,
                      SweepResult, SweepRow, VariantSpec, family_source,
                      mc_accuracy, rep_seed, run_point, run_preset, write_csv,
                      write_json)
from .instances import (IDENTITY, LOGISTIC, BanditInstance, MeanFunction,
                        ProjectedArmSet, gen_adaptive_instance,
                        gen_corner_instance, gen_logistic_instance,
                        gen_sphere_instance, gen_static_instance,
                        load_features, load_instance_csv, noiseless,
                        project_to_span, sample_rewards)

__version__ = "0.1.0"

__all__ = [
    "BanditInstance", "BoundInputs", "BudgetTooSmallError",
    "ConfigurationError", "DegenerateInputError", "Design", "DesignCache",
    "EstimationFailureError", "FbbaiError", "GseConfig", "IDENTITY",
    "InvalidAllocationError", "LOGISTIC", "McResult", "MeanFunction",
    "ParameterEstimate", "PRESETS", "Preset", "ProjectedArmSet",
    "RegressionData", "RunResult", "SingularDesignError", "StagePlan",
    "StageSchedule", "StageTrace", "SweepPoint", "SweepResult", "SweepRow",
    "UndefinedBoundError", "VariantSpec", "VARIANTS", "allocate_budget",
    "bound_glm_general", "bound_glm_gopt", "bound_linear_general",
    "bound_linear_gopt", "d_opt_gradient", "default_iteration_cap",
    "eliminate", "explore", "family_source", "fw_d_optimal", "fw_g_optimal",
    "fw_g_optimal_stack", "g_gradient", "g_value_and_argmax", "gen_adaptive_instance",
    "gen_corner_instance", "gen_logistic_instance", "gen_sphere_instance",
    "gen_static_instance", "gse_lockstep", "gse_run", "irls_glm", "kw_certificate",
    "least_squares", "load_features", "load_instance_csv", "mc_accuracy",
    "mean_estimates", "noiseless", "oracle_c_min", "project_to_span",
    "rep_seed", "round_allocation", "run_point", "run_preset",
    "sample_rewards", "stage_norm_terms", "stage_schedule", "write_csv",
    "write_json",
]
