"""Minimum penalized Hellinger distance estimation and model selection for
binned discrete data.

The package fits parametric cell-probability models (Poisson, geometric) to
binned counts by minimizing a penalized Hellinger distance, tests
goodness-of-fit against the chi-square law of the scaled distance, selects
between two competing families with an asymptotically standard-normal
studentized statistic, and reproduces replicated mixture experiments.
"""

from .asymptotics import jacobian, lambda_star_hat, m_matrix, omega_sq, sigma
from .cells import (BinnedSample, CellPartition, as_prob_vector,
                    default_partition, empirical_frequencies, parse_cuts)
from .divergence import (grad_phd_first, grad_phd_second, hellinger,
                         penalized_hellinger)
from .errors import (BoundaryParameter, DegenerateGradient,
                     DegenerateVariance, FitFailed, InvalidInput,
                     InvalidParameter, NoEquidistance, PhdselError,
                     SingularInformation)
from .fit import FitResult, fit_phd_to_probs, minimize_phd, mle_binned
from .inference import (FAVOR_FIRST, FAVOR_SECOND, INDECISIVE, GofReport,
                        SelectionReport, decide, gof_test, model_select,
                        power_approx, required_sample_size)
from .models import (MODEL_BUILDERS, DiscreteModel, MixtureDGP, geometric_model,
                     mixture_cell_probs, model_by_name, poisson_model,
                     sample_mixture)
from .quantiles import chi2_quantile, normal_cdf, normal_quantile
from .simulate import (EquidistanceResult, ExperimentConfig, ExperimentRow,
                       config_from_dict, emit_table, equidistance_gap,
                       equidistance_pi, load_config, run_experiment, substream)

__version__ = "0.1.0"

__all__ = [
    "BinnedSample", "BoundaryParameter", "CellPartition",
    "DegenerateGradient", "DegenerateVariance", "DiscreteModel",
    "EquidistanceResult", "ExperimentConfig", "ExperimentRow", "FAVOR_FIRST",
    "FAVOR_SECOND", "FitFailed", "FitResult", "GofReport", "INDECISIVE",
    "InvalidInput", "InvalidParameter", "MODEL_BUILDERS", "MixtureDGP",
    "NoEquidistance", "PhdselError", "SelectionReport",
    "SingularInformation", "as_prob_vector", "chi2_quantile",
    "config_from_dict", "decide", "default_partition", "emit_table",
    "empirical_frequencies", "equidistance_gap", "equidistance_pi",
    "fit_phd_to_probs", "geometric_model", "gof_test",
    "grad_phd_first", "grad_phd_second", "hellinger", "jacobian",
    "lambda_star_hat", "load_config", "m_matrix", "minimize_phd",
    "mixture_cell_probs", "mle_binned", "model_by_name", "model_select",
    "normal_cdf", "normal_quantile", "omega_sq", "parse_cuts",
    "penalized_hellinger", "poisson_model",
    "power_approx", "required_sample_size", "run_experiment",
    "sample_mixture", "sigma", "substream",
]
