"""Orlicz and Orlicz-Morrey norms, fractional maximal and Riesz operators,
and empirical Adams-type boundedness experiments on sampled functions."""

from .characterize import (
    AdamsSetup,
    check_condition,
    check_membership,
    check_pointwise_inequalities,
    estimate_operator_norm,
    necessity_witness,
    function_family,
)
from .errors import (
    ConfigError,
    DomainError,
    OlabError,
    ParameterError,
    UnrepresentableBallError,
)
from .growth import (
    GrowthFunction,
    LambdaGrowth,
    PowerGrowth,
    PowerLogGrowth,
    PowerOfGrowth,
    growth_from_config,
    growth_from_lambda,
)
from .norms import (
    MorreySampling,
    NormEvaluation,
    generalized_orlicz_morrey_norm,
    luxemburg_norm,
    triviality_probe,
    weak_orlicz_norm,
)
from .operators import maximal, riesz_potential
from .report import ConditionReport
from .sampled import (
    Ball,
    GridSpec,
    SampledFunction,
    ball_measure,
    default_grid,
    sample_function,
)
from .young import (
    ComposedPowerYoung,
    ExpMinusOneYoung,
    LinearCappedYoung,
    PowerLogYoung,
    PowerYoung,
    TabulatedYoung,
    YoungFunction,
    classify_growth,
    young_from_config,
)

__version__ = "0.1.0"

__all__ = [
    "AdamsSetup",
    "Ball",
    "ComposedPowerYoung",
    "ConditionReport",
    "ConfigError",
    "DomainError",
    "ExpMinusOneYoung",
    "GridSpec",
    "GrowthFunction",
    "LambdaGrowth",
    "LinearCappedYoung",
    "MorreySampling",
    "NormEvaluation",
    "OlabError",
    "ParameterError",
    "PowerGrowth",
    "PowerLogGrowth",
    "PowerLogYoung",
    "PowerOfGrowth",
    "PowerYoung",
    "SampledFunction",
    "TabulatedYoung",
    "UnrepresentableBallError",
    "YoungFunction",
    "ball_measure",
    "check_condition",
    "check_membership",
    "check_pointwise_inequalities",
    "classify_growth",
    "default_grid",
    "estimate_operator_norm",
    "generalized_orlicz_morrey_norm",
    "growth_from_config",
    "growth_from_lambda",
    "luxemburg_norm",
    "maximal",
    "necessity_witness",
    "riesz_potential",
    "sample_function",
    "function_family",
    "triviality_probe",
    "weak_orlicz_norm",
    "young_from_config",
]
