"""Singularity-aware lifting of target paths through weighted-domain maps.

The package integrates the path-lifting equation du/ds = dF^* G^-1
gamma_dot for a C^2 map F from a weighted coordinate space to R^n,
tracking the Gramian spectrum and the second-order diagnostics that
govern approach to the singular set.  It also ships a control-system
endpoint-map frontend, a sampling-based hypothesis checker, and a
config-driven command line.
"""

from .endpoint import (ControlGrid, ControlSystem, EndpointOracle, brockett,
                       endpoint_problem, integrate, lti, make_system,
                       single_integrator, unicycle)
from .errors import (BadAnchor, ConfigurationError, GapViolation, InvalidXi,
                     NumericalError, SingularGramian, SingularStart,
                     TrajectoryBlowup)
from .hypotheses import (HypothesisReport, PowerLawXi, SamplingPlan,
                         check_report, coercivity_ratio,
                         estimate_bilinear_norm, gramian_inverse_growth,
                         xi_margin)
from .maps import FoldMap, LinearMap, MapOracle, SphereMap
from .oracle_checks import CheckResult, validate_oracle
from .paths import LinePath, PolylinePath, TargetPath, line_to_target
from .solver import (ContinuationReport, DIVERGED, LiftState, REACHED,
                     SINGULAR_INTERIOR, SINGULAR_TERMINAL, STEP_UNDERFLOW,
                     SolverOptions, gauss_newton_correct, lift, ple_rhs)
from .spectrum import (GramianSpectrum, SpectralDiagnostics, diagnostics,
                       gramian, spectral_decompose)

__all__ = [
    "BadAnchor", "CheckResult", "ConfigurationError",
    "ContinuationReport", "ControlGrid", "ControlSystem",
    "DIVERGED", "EndpointOracle", "FoldMap",
    "GapViolation", "GramianSpectrum", "HypothesisReport",
    "InvalidXi", "LiftState", "LinePath", "LinearMap",
    "MapOracle", "NumericalError", "PolylinePath", "PowerLawXi",
    "REACHED", "SINGULAR_INTERIOR", "SINGULAR_TERMINAL", "STEP_UNDERFLOW",
    "SamplingPlan", "SingularGramian", "SingularStart",
    "SolverOptions", "SpectralDiagnostics", "SphereMap",
    "TargetPath", "TrajectoryBlowup", "brockett", "check_report",
    "coercivity_ratio", "diagnostics", "endpoint_problem",
    "estimate_bilinear_norm", "gauss_newton_correct", "gramian",
    "gramian_inverse_growth", "integrate", "lift", "line_to_target", "lti",
    "make_system", "ple_rhs", "single_integrator",
    "spectral_decompose", "unicycle", "validate_oracle", "xi_margin",
]

__version__ = "0.1.0"
