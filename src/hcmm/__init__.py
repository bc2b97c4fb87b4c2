"""Stochastic minimax optimization with Hessian-corrected momentum.

Implements the clipped (HCMM-1) and normalized (HCMM-2) bias-corrected
momentum methods, the STORM-GDA and SAGDA baselines, synthetic and robust
logistic regression saddle problems, and a deterministic benchmark harness.
"""

from .core import (HyperSchedule, ProblemConstants, clip_momentum,
                   schedule_hcmm1, schedule_hcmm2)
from .optimizers import (Hcmm1, Hcmm2, Sagda, StepState, StormGda,
                         iterate_steps)
from .oracle import MinimaxProblem, evaluate_P, finite_difference_hvp, metric_ci
from .problems import (PlToyProblem, QuadraticMinimaxProblem,
                       RobustLogisticProblem)
from .simplex import project_simplex

__all__ = [
    "HyperSchedule", "ProblemConstants", "clip_momentum", "schedule_hcmm1",
    "schedule_hcmm2",
    "Hcmm1", "Hcmm2", "StormGda", "Sagda", "StepState", "iterate_steps",
    "MinimaxProblem", "evaluate_P", "finite_difference_hvp", "metric_ci",
    "QuadraticMinimaxProblem", "PlToyProblem", "RobustLogisticProblem",
    "project_simplex",
]

__version__ = "0.1.0"
