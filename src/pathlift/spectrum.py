"""Gramian assembly and spectral tracking along a lift.

The Gramian ``G(u) = dF|_u dF|_u^*`` is an n x n symmetric PSD matrix
(``J W^-1 J^T`` in coordinates).  Its ordered eigenvalues and
sign-continuous unit eigenvectors drive every diagnostic of the solver:
the coefficients a_i of the path velocity in the eigenbasis, the
curvature contractions h and f feeding the least-eigenvalue derivative,
and the blowup indicator g = a1 / sqrt(lambda_1).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GapViolation, NumericalError, SimplicityLoss

# Relative thresholds: singular-set surrogate and simplicity of lambda_1.
LAMBDA_SING_REL = 1e-10
GAP_TOL_REL = 1e-8
DEGENERACY_REL = 1e-12


@dataclass
class GramianSpectrum:
    """Ascending eigenvalues with unit eigenvectors (columns of ``vectors``)."""

    lambdas: np.ndarray
    vectors: np.ndarray  # column i is z_i
    gap: float

    @property
    def n(self):
        return len(self.lambdas)

    @property
    def lambda_sing(self):
        return LAMBDA_SING_REL * max(1.0, float(self.lambdas[-1]))

    @property
    def singular(self):
        return bool(self.lambdas[0] < self.lambda_sing)


@dataclass
class GapReport:
    """Result of checking the uniform eigenvalue floor above lambda_1."""

    passed: bool
    margin: float            # min_{i>=2} lambda_i - lambda0 (inf when n = 1)
    simplicity_margin: float  # lambda_2 - lambda_1 (inf when n = 1)
    failing_index: int | None = None


@dataclass
class SpectralDiagnostics:
    """Per-state spectral quantities logged along the lift.

    ``h`` and ``f`` are the curvature contractions through the normalized
    switching functions; ``dlambda1_ds = 2 a1 h + 2 f sqrt(lambda_1)``;
    ``g = a1 / sqrt(lambda_1)`` is left as NaN at singular states.
    """

    a: np.ndarray
    h: float
    f: float
    g: float
    dlambda1_ds: float
    singular_flag: bool
    v1: np.ndarray | None = field(default=None, repr=False)


def gramian(oracle, u):
    """Gramian matrix J W^-1 J^T at u."""
    jac = oracle.jacobian(np.asarray(u, dtype=float))
    g = (jac / oracle.weights[None, :]) @ jac.T
    return 0.5 * (g + g.T)


def spectral_decompose(grammat, prev=None):
    """Full ascending eigendecomposition with sign continuity.

    With ``prev`` given, each eigenvector is flipped so that its overlap
    with the previous accepted eigenvector is non-negative.
    """
    grammat = np.asarray(grammat, dtype=float)
    scale = max(1.0, float(np.max(np.abs(grammat))))
    if np.max(np.abs(grammat - grammat.T)) > 1e-12 * scale:
        raise NumericalError("Gramian is not symmetric", matrix=grammat)
    try:
        lambdas, vectors = np.linalg.eigh(0.5 * (grammat + grammat.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}",
                             matrix=grammat) from exc
    norm = max(1.0, float(np.max(np.abs(lambdas))))
    if lambdas[0] < -1e-10 * norm:
        raise NumericalError(
            f"Gramian not PSD: least eigenvalue {lambdas[0]:.3e}",
            matrix=grammat)
    if prev is not None:
        for i in range(len(lambdas)):
            if np.dot(vectors[:, i], prev.vectors[:, i]) < 0.0:
                vectors[:, i] = -vectors[:, i]
    ties = np.diff(lambdas[1:]) < DEGENERACY_REL * norm
    if np.any(ties):
        warnings.warn("degenerate eigenvalues above lambda_1; eigenbasis "
                      "choice is arbitrary there", RuntimeWarning,
                      stacklevel=2)
    gap = float(lambdas[1] - lambdas[0]) if len(lambdas) > 1 else np.inf
    return GramianSpectrum(lambdas=lambdas, vectors=vectors, gap=gap)


def gap_check(spec, lambda0):
    """Check lambda_i >= lambda0 for all i >= 2 (lambda_1 is exempt)."""
    if lambda0 <= 0:
        raise ValueError("lambda0 must be positive")
    if spec.n == 1:
        return GapReport(passed=True, margin=np.inf, simplicity_margin=np.inf)
    upper = spec.lambdas[1:]
    margins = upper - lambda0
    worst = int(np.argmin(margins))
    passed = bool(margins[worst] >= 0.0)
    return GapReport(passed=passed, margin=float(margins[worst]),
                     simplicity_margin=float(spec.gap),
                     failing_index=None if passed else worst + 2)


def coefficients(gamma_dot, spec):
    """Components a_i = <gamma_dot, z_i> of the path velocity."""
    return spec.vectors.T @ np.asarray(gamma_dot, dtype=float)


def diagnostics(oracle, u, spec, gamma_dot):
    """Spectral diagnostics at a state of the lift.

    At singular states (lambda_1 below the singular threshold) the
    normalized switching function v1 does not exist; h, f, g and the
    eigenvalue derivative are reported as NaN with the singular flag set.

    Raises GapViolation when lambda_2 itself sits below the singular
    threshold, since the cross terms in f are then not stably defined.
    """
    u = np.asarray(u, dtype=float)
    a = coefficients(gamma_dot, spec)
    lam = spec.lambdas
    lam_sing = spec.lambda_sing
    if spec.n > 1 and lam[1] <= lam_sing:
        raise GapViolation(
            f"lambda_2 = {lam[1]:.3e} below singular threshold "
            f"{lam_sing:.3e}; corank > 1 is out of scope")
    if spec.singular:
        return SpectralDiagnostics(a=a, h=np.nan, f=np.nan, g=np.nan,
                                   dlambda1_ds=np.nan, singular_flag=True)
    phis = oracle.adjoint_matrix(u)          # column i = dF^* z_i in basis e
    phis = phis @ spec.vectors               # column i = dF^* z_i
    vs = phis / np.sqrt(lam)[None, :]        # normalized switching functions
    v1 = vs[:, 0]
    contractions = oracle.bilinear_second_many(
        u, spec.vectors[:, 0], v1, [vs[:, i] for i in range(spec.n)])
    h = float(contractions[0])
    f = float(np.sum(a[1:] / np.sqrt(lam[1:]) * contractions[1:]))
    g = float(a[0] / np.sqrt(lam[0]))
    dlam = 2.0 * a[0] * h + 2.0 * f * np.sqrt(lam[0])
    return SpectralDiagnostics(a=a, h=h, f=f, g=g, dlambda1_ds=float(dlam),
                               singular_flag=False, v1=v1)


def gramian_derivative_action(oracle, u, v, z):
    """Vector dG|_u(v) z, the Gramian differential along a domain direction.

    With G = J W^-1 J^T and dJ the oracle's ``jacobian_derivative`` along
    v, this is ``dJ W^-1 J^T z + J W^-1 dJ^T z``: one Jacobian and one
    Jacobian derivative, exact whenever the oracle's derivative is.
    """
    u = np.asarray(u, dtype=float)
    z = np.asarray(z, dtype=float)
    jac = oracle.jacobian(u)
    djac = oracle.jacobian_derivative(u, np.asarray(v, dtype=float))
    w = oracle.weights
    return djac @ ((jac.T @ z) / w) + jac @ ((djac.T @ z) / w)


def z1_derivative(oracle, u, spec, gamma_dot):
    """Derivative of the least eigenvector along the lift.

    Applies the reduced resolvent (G - lambda_1 I) inverted on the
    orthogonal complement of z_1 to the Gramian differential along the
    lift direction; the result is orthogonal to z_1.
    """
    u = np.asarray(u, dtype=float)
    lam = spec.lambdas
    if spec.n == 1:
        return np.zeros(1)
    gap_tol = GAP_TOL_REL * max(1.0, float(lam[-1]))
    if spec.gap < gap_tol:
        raise SimplicityLoss(
            f"spectral gap {spec.gap:.3e} below tolerance {gap_tol:.3e}")
    # lift direction dF^* G^-1 gamma_dot through the eigenbasis
    coeff = spec.vectors @ (coefficients(gamma_dot, spec) / lam)
    udot = oracle.apply_adjoint(u, coeff)
    dgz1 = gramian_derivative_action(oracle, u, udot, spec.vectors[:, 0])
    out = np.zeros(spec.n)
    for i in range(1, spec.n):
        zi = spec.vectors[:, i]
        out += zi * (np.dot(zi, dgz1) / (lam[i] - lam[0]))
    return out
