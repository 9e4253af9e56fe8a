"""Self-affine functions on [0, 1]: evaluation with certified error bounds,
digit codings, pointwise Holder exponents and dimension spectra."""

from . import errors
from .coding import (BasicInterval, Coding, CutPointQuery, PointCoding,
                     RunStructure, basic_interval, coding_of_point,
                     default_schedule, format_coding, generate_run_structured,
                     in_T, parse_coding, project, run_structure_for_target)
from .evaluate import (EvalResult, derivative_series, divided_difference,
                       evaluate, evaluate_many, oscillation_lower_bound,
                       sample, sup_bound)
from .exponent import (CutPointResult, ExponentReport, ExponentTrace,
                       GammaBundle, SideExponent, cut_point_exponents,
                       exponent_report, exponent_trace, gammas, holder_left,
                       holder_right, is_polynomial)
from .ifs import (Branch, Regime, SelfAffineSystem, SpectrumConstants,
                  antiderivative_system, build_from_polygon,
                  compute_constants, from_branches, lambda_set,
                  two_branch_lambda_empty, validate)
from .oracle import (AeSample, DerivativeCheck, RegressionEstimate,
                     ae_exponent_sample, almost_everywhere_exponent,
                     check_derivative, default_scales, estimate_exponent)
from .presets import PRESETS, parse_preset, system_from_dict, system_to_dict
from .spectrum import (DualityResult, SpectrumPoint, alpha_of_q, beta,
                       beta_star, contraction_ratio, duality_maximizer,
                       entropy_ratio, q_star, spectrum_D, spectrum_table)

__version__ = "0.1.0"

__all__ = [
    "errors", "__version__",
    # systems
    "Branch", "SelfAffineSystem", "SpectrumConstants", "Regime",
    "build_from_polygon", "from_branches", "validate", "compute_constants",
    "lambda_set", "two_branch_lambda_empty", "antiderivative_system",
    # presets
    "PRESETS", "parse_preset", "system_from_dict",
    "system_to_dict",
    # codings
    "Coding", "PointCoding", "BasicInterval", "CutPointQuery",
    "RunStructure", "parse_coding", "format_coding", "coding_of_point",
    "project", "basic_interval", "in_T", "default_schedule",
    "run_structure_for_target", "generate_run_structured",
    # evaluation
    "EvalResult", "evaluate", "evaluate_many", "sample", "sup_bound",
    "derivative_series", "divided_difference", "oscillation_lower_bound",
    # exponents
    "ExponentTrace", "GammaBundle", "SideExponent", "CutPointResult",
    "ExponentReport", "exponent_trace", "gammas", "holder_right",
    "holder_left", "exponent_report", "cut_point_exponents", "is_polynomial",
    # spectrum
    "SpectrumPoint", "DualityResult", "beta", "alpha_of_q", "q_star",
    "beta_star", "entropy_ratio", "contraction_ratio", "duality_maximizer",
    "spectrum_D", "spectrum_table",
    # empirical checks
    "RegressionEstimate", "DerivativeCheck", "AeSample", "default_scales",
    "estimate_exponent", "check_derivative", "ae_exponent_sample",
    "almost_everywhere_exponent",
]
