"""Numerical certification of midpoint-rule error bounds.

The toolkit evaluates the gap between a function's midpoint value and its
integral mean, certifies it against endpoint-derivative bounds valid under
convex |f'|^q hypotheses, cross-checks the exact integral identities and
kernel constants behind those bounds by independent adaptive quadrature,
and verifies the special-means inequalities the bounds imply.
"""

from .bounds import (
    BoundReport,
    ConjugatePair,
    SandwichReport,
    conjugate_of,
    evaluate_case,
    verify_case,
    verify_identity,
)
from .catalog import (
    ConvexityReport,
    Domain,
    FunctionDescriptor,
    Interval,
    check_convexity,
    check_hypothesis,
    lookup_function,
    parse_function_id,
)
from .errors import (
    DomainViolation,
    HHCertError,
    InvalidExponent,
    InvalidParameter,
    NonFiniteEvaluation,
    OutOfRange,
    UnknownFunction,
)
from .kernel import KernelMoment, kernel_m, kernel_p_moment, kernel_p_norm, kernel_p_numeric
from .means import (
    MeanPair,
    PropositionReport,
    check_proposition,
    mean_arithmetic,
    mean_identric,
    mean_logarithmic,
    mean_p_logarithmic,
)
from .quadrature import QuadratureResult, integrate_1d, integrate_2d
from .sampling import SplitMix64, draw_interval

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConjugatePair",
    "ConvexityReport",
    "Domain",
    "DomainViolation",
    "FunctionDescriptor",
    "HHCertError",
    "Interval",
    "InvalidExponent",
    "InvalidParameter",
    "KernelMoment",
    "MeanPair",
    "NonFiniteEvaluation",
    "OutOfRange",
    "PropositionReport",
    "QuadratureResult",
    "SandwichReport",
    "SplitMix64",
    "UnknownFunction",
    "check_convexity",
    "check_hypothesis",
    "check_proposition",
    "conjugate_of",
    "draw_interval",
    "evaluate_case",
    "integrate_1d",
    "integrate_2d",
    "kernel_m",
    "kernel_p_moment",
    "kernel_p_norm",
    "kernel_p_numeric",
    "lookup_function",
    "mean_arithmetic",
    "mean_identric",
    "mean_logarithmic",
    "mean_p_logarithmic",
    "parse_function_id",
    "verify_case",
    "verify_identity",
]
