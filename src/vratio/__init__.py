"""Density ratio estimation via V-matrices.

Direct solution of the integral equation linking the two empirical
distribution functions, regularized either in L2 at the sample points or in
an RKHS (linear INK-spline or Gaussian RBF kernel), with cross-validated
regularization and a synthetic benchmark harness.
"""

from .bench import (
    ExperimentRecord,
    SyntheticModel,
    aggregate,
    make_model,
    nrmse,
    run_experiment,
    sample_model,
    true_ratio,
)
from .domain import DomainBox, SampleSet, ScaledSamples, fit_domain_box, scale
from .estimators import (
    Method,
    RatioEstimate,
    dre_v_nonneg_values,
    fit_dre_v,
    fit_dre_vk,
    fit_ulsif_like,
)
from .kernels import KernelKind, KernelSpec, cross_gram
from .selection import CvPlan, CvReport, cross_validate, default_gamma_grid, make_folds
from .solve import solve_nonneg, solve_regularized
from .vmatrix import VMatrices, build_v_matrices, l2_residual

__all__ = [
    "DomainBox", "SampleSet", "ScaledSamples", "fit_domain_box", "scale",
    "VMatrices", "build_v_matrices", "l2_residual",
    "KernelKind", "KernelSpec", "cross_gram",
    "solve_nonneg", "solve_regularized",
    "Method", "RatioEstimate",
    "dre_v_nonneg_values", "fit_dre_v", "fit_dre_vk", "fit_ulsif_like",
    "CvPlan", "CvReport", "cross_validate", "default_gamma_grid", "make_folds",
    "SyntheticModel", "ExperimentRecord", "make_model", "sample_model", "true_ratio",
    "nrmse", "run_experiment", "aggregate",
]

__version__ = "0.1.0"
