"""Gramian assembly and spectral tracking along a lift.

The Gramian ``G(u) = dF|_u dF|_u^*`` is an n x n symmetric PSD matrix
(``J W^-1 J^T`` in coordinates).  Its ordered eigenvalues and
sign-continuous unit eigenvectors drive every diagnostic of the solver:
the coefficients a_i of the path velocity in the eigenbasis, the
curvature contractions h and f feeding the least-eigenvalue derivative,
and the blowup indicator g = a1 / sqrt(lambda_1).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GapViolation, NumericalError

# Relative thresholds: singular-set surrogate and tied upper eigenvalues.
LAMBDA_SING_REL = 1e-10
DEGENERACY_REL = 1e-12


@dataclass
class GramianSpectrum:
    """Ascending eigenvalues with unit eigenvectors (columns of ``vectors``)
    and, from :func:`spectrum_at`, the coordinate Jacobian ``jac`` that G
    was formed from."""

    lambdas: np.ndarray
    vectors: np.ndarray  # column i is z_i
    jac: np.ndarray | None = None

    def jacobian(self):
        """The J this spectrum was taken from; ConfigurationError for a
        spectrum decomposed from a bare matrix, which carries none."""
        if self.jac is None:
            raise ConfigurationError(
                "spectrum carries no Jacobian: take it with spectrum_at")
        return self.jac

    @property
    def n(self):
        return len(self.lambdas)

    @property
    def lambda_sing(self):
        return LAMBDA_SING_REL * max(1.0, float(self.lambdas[-1]))

    @property
    def singular(self):
        return bool(self.lambdas[0] < self.lambda_sing)

    @property
    def floor(self):
        """min_{i>=2} lambda_i, which the uniform eigenvalue bound lambda0
        must not exceed (lambda_1 is exempt); inf when n = 1."""
        return float(np.min(self.lambdas[1:])) if self.n > 1 else np.inf


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


def _gramian(jac, weights):
    """J W^-1 J^T, symmetric bit for bit."""
    g = (jac / weights[None, :]) @ jac.T
    return 0.5 * (g + g.T)


def gramian(oracle, u):
    """Gramian matrix J W^-1 J^T at u."""
    return _gramian(oracle.jacobian(np.asarray(u, dtype=float)),
                    oracle.weights)


def spectrum_at(oracle, u, prev=None):
    """:func:`spectral_decompose` of the Gramian at u, formed from one
    ``oracle.jacobian`` call; the spectrum carries that J."""
    jac = oracle.jacobian(np.asarray(u, dtype=float))
    spec = spectral_decompose(_gramian(jac, oracle.weights), prev)
    spec.jac = jac
    return spec


def spectral_decompose(grammat, prev=None):
    """Full ascending eigendecomposition with sign continuity.

    With ``prev`` given, each eigenvector is flipped so that its overlap
    with the previous accepted eigenvector is non-negative.  Without it,
    each eigenvector's largest-magnitude component (the first, on a tie)
    is made positive, so the sign does not hang on roundoff in G.

    Raises NumericalError on a Gramian that is not finite, not symmetric
    or not PSD.  The checks run on Python floats: numpy's per-call
    overhead is most of the cost on an n <= 4 matrix.  A matrix equal to
    its transpose bit for bit, as :func:`gramian` builds it, goes to
    ``eigh`` as it is; any other is symmetrized first.
    """
    grammat = np.asarray(grammat, dtype=float)
    if not all(map(math.isfinite, grammat.ravel().tolist())):
        raise NumericalError("Gramian is not finite")
    if grammat.tobytes() != grammat.T.tobytes():
        entries = grammat.ravel().tolist()
        scale = max(1.0, max(map(abs, entries)))
        asym = max(abs(a - b) for a, b in
                   zip(entries, grammat.T.ravel().tolist()))
        if asym > 1e-12 * scale:
            raise NumericalError("Gramian is not symmetric")
        grammat = 0.5 * (grammat + grammat.T)
    try:
        lambdas, vectors = np.linalg.eigh(grammat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    lam = lambdas.tolist()
    norm = max(1.0, max(map(abs, lam)))
    if lam[0] < -1e-10 * norm:
        raise NumericalError(f"Gramian not PSD: least eigenvalue {lam[0]:.3e}")
    for i, column in enumerate(vectors.T.tolist()):
        if prev is None:
            flip = max(column, key=abs) < 0.0
        else:
            flip = np.dot(vectors[:, i], prev.vectors[:, i]) < 0.0
        if flip:
            vectors[:, i] = -vectors[:, i]
    tol = DEGENERACY_REL * norm
    if any(b - a < tol for a, b in zip(lam[1:], lam[2:])):
        warnings.warn("degenerate eigenvalues above lambda_1; eigenbasis "
                      "choice is arbitrary there", RuntimeWarning,
                      stacklevel=2)
    return GramianSpectrum(lambdas=lambdas, vectors=vectors)


def diagnostics(oracle, u, spec, gamma_dot):
    """Spectral diagnostics at a state of the lift.

    At singular states (lambda_1 below the singular threshold) the
    normalized switching function v1 does not exist; h, f, g and the
    eigenvalue derivative are reported as NaN.

    Raises GapViolation when lambda_2 itself sits below the singular
    threshold, since the cross terms in f are then not stably defined.
    The switching functions are products of the J that ``spec`` carries
    (see :func:`spectrum_at`).
    """
    u = np.asarray(u, dtype=float)
    # coefficients a_i = <gamma_dot, z_i> of the path velocity
    a = spec.vectors.T @ oracle._codomain_vec(gamma_dot, "gamma_dot")
    lam = spec.lambdas
    lam_sing = spec.lambda_sing
    if spec.n > 1 and lam[1] <= lam_sing:
        raise GapViolation(
            f"lambda_2 = {lam[1]:.3e} below singular threshold "
            f"{lam_sing:.3e}; corank > 1 is out of scope")
    if spec.singular:
        return SpectralDiagnostics(a=a, h=np.nan, f=np.nan, g=np.nan,
                                   dlambda1_ds=np.nan)
    # column i = dF^* e_i, as MapOracle.adjoint_matrix forms it
    phis = spec.jacobian().T / oracle.weights[:, None]
    phis = phis @ spec.vectors               # column i = dF^* z_i
    vs = phis / np.sqrt(lam)[None, :]        # normalized switching functions
    v1 = vs[:, 0]
    contractions = oracle.bilinear_second_many(
        u, spec.vectors[:, 0], v1, [vs[:, i] for i in range(spec.n)])
    h = float(contractions[0])
    f = float(np.sum(a[1:] / np.sqrt(lam[1:]) * contractions[1:]))
    g = float(a[0] / np.sqrt(lam[0]))
    dlam = 2.0 * a[0] * h + 2.0 * f * np.sqrt(lam[0])
    return SpectralDiagnostics(a=a, h=h, f=f, g=g, dlambda1_ds=float(dlam))
