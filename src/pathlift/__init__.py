"""Singularity-aware lifting of target paths through weighted-domain maps.

The package integrates the path-lifting equation du/ds = dF^* G^-1
gamma_dot for a C^2 map F from a weighted coordinate space to R^n,
tracking the Gramian spectrum and the second-order diagnostics that
govern approach to the singular set.  It also ships a control-system
endpoint-map frontend, a sampling-based hypothesis checker, and a
config-driven command line.

``_EXPORTS`` below is the public API: each submodule and the names it
exports.  ``import pathlift`` loads no submodule; a name, or a submodule
such as ``pathlift.endpoint``, loads its module on first use (PEP 562), so
a run compiles only the modules it calls.
"""

import importlib

_EXPORTS = {
    "cli": (),
    "endpoint": ("ControlGrid", "ControlSystem", "EndpointOracle",
                 "brockett", "endpoint_problem", "integrate", "lti",
                 "make_system", "single_integrator", "unicycle"),
    "errors": ("BadAnchor", "ConfigurationError", "GapViolation",
               "InvalidXi", "NumericalError", "SingularGramian",
               "SingularStart", "TrajectoryBlowup"),
    "hypotheses": ("HypothesisReport", "PowerLawXi", "SamplingPlan",
                   "check_report", "coercivity_ratio",
                   "estimate_bilinear_norm", "gramian_inverse_growth",
                   "xi_margin"),
    "maps": ("FoldMap", "LinearMap", "MapOracle", "SphereMap"),
    "oracle_checks": ("CheckResult", "validate_oracle"),
    "paths": ("LinePath", "PolylinePath", "TargetPath", "line_to_target"),
    "solver": ("ContinuationReport", "DIVERGED", "LiftState", "REACHED",
               "SINGULAR_INTERIOR", "SINGULAR_TERMINAL", "STEP_UNDERFLOW",
               "SolverOptions", "gauss_newton_correct", "lift", "ple_rhs"),
    "spectrum": ("GramianSpectrum", "SpectralDiagnostics", "diagnostics",
                 "gramian", "spectral_decompose", "spectrum_at"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = sorted(_OWNER)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
