"""Switching nonparametric regression for repeated curves.

Fits a small number of smooth state curves to replicated observations on
a shared grid, together with a latent state process (independent, Markov,
or covariate-driven) and one of several replicate covariance structures.
Estimation is a penalized ECM; smoothing parameters can be chosen by
leave-one-replicate-out cross-validation.
"""

from .basis import SplineBasis, basis_matrix, build_basis, penalty_matrix
from .cv import CVConfig, CVResult, cv_score, select_lambdas
from .datamodel import (CovSpec, FitConfig, FitReport, HomogRIParams,
                        IIDParams, IsoDiagParams, LatentSpec,
                        MarkovParams, MultiCurveDataset, NonHomogRIParams,
                        CovariateParams, StateDiagParams, Theta,
                        UnrestrictedParams, parse_config,
                        read_dataset_csv, report_from_dict,
                        report_to_dict, theta_from_dict, theta_to_dict,
                        validate, write_dataset_csv)
from .em import classify_marginals, e_step, ecm_fit
from .errors import (BadInit, BadK, BoundaryParameter,
                     DegenerateLikelihood, EnumerationTooLarge,
                     GridTooSmall, MonotonicityViolation,
                     NonIncreasingGrid, NonPositiveSigma, NotSPD,
                     NumericalError, OutOfDomain,
                     SingularInformation, SingularSystem, SpecMismatch,
                     SwitchCurveError, ValidationError, XInconsistent)
from .inference import standard_errors_for_fit
from .sim import (SimDesign, StudyReport, generate_dataset, run_study,
                  stock_design, truth_start)

__version__ = "0.1.0"

__all__ = [
    "SplineBasis", "basis_matrix", "build_basis", "penalty_matrix",
    "CVConfig", "CVResult", "cv_score", "select_lambdas",
    "CovSpec", "FitConfig", "FitReport", "HomogRIParams", "IIDParams",
    "IsoDiagParams", "LatentSpec", "MarkovParams", "MultiCurveDataset",
    "NonHomogRIParams", "CovariateParams", "StateDiagParams", "Theta",
    "UnrestrictedParams", "parse_config", "read_dataset_csv",
    "report_from_dict", "report_to_dict", "theta_from_dict",
    "theta_to_dict", "validate", "write_dataset_csv",
    "classify_marginals", "e_step", "ecm_fit",
    "BadInit", "BadK", "BoundaryParameter", "DegenerateLikelihood",
    "EnumerationTooLarge", "GridTooSmall", "MonotonicityViolation",
    "NonIncreasingGrid", "NonPositiveSigma", "NotSPD",
    "NumericalError", "OutOfDomain",
    "SingularInformation", "SingularSystem", "SpecMismatch",
    "SwitchCurveError", "ValidationError", "XInconsistent",
    "standard_errors_for_fit",
    "SimDesign", "StudyReport", "generate_dataset", "run_study",
    "stock_design", "truth_start",
    "__version__",
]
