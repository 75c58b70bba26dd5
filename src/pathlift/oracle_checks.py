"""Self-validation identities for map oracles.

These are the run-anywhere consistency checks: the Jacobian and its
adjoint must be mutually adjoint in the weighted inner product, the
second differential must be symmetric, the Jacobian must be linear in
its direction, and analytic Jacobians must agree with central finite
differences.  The CLI ``validate`` subcommand runs them on whatever
problem the config describes.

Each check draws all its samples first and evaluates their base points in
one :meth:`MapOracle.eval_many`, so an oracle that caches (the endpoint
map) integrates them as one batch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float

    def line(self):
        mark = "pass" if self.passed else "FAIL"
        return (f"{mark}  {self.name}: worst = {self.worst:.3e} "
                f"(tol {self.tol:.1e})")


def _warm(oracle, points):
    """Evaluate every base point in one batch."""
    oracle.eval_many(np.reshape(points, (-1, oracle.dim_domain)))


def check_adjoint_identity(oracle, seed=0):
    """|<dF v, z> - <v, dF^* z>_X| over random triples."""
    tol = 1e-10 if oracle.has_analytic_second else 1e-6
    rng = np.random.default_rng(seed)
    draws = [(rng.standard_normal(oracle.dim_domain),
              rng.standard_normal(oracle.dim_domain),
              rng.standard_normal(oracle.dim_codomain))
             for _ in range(50)]
    _warm(oracle, [d[0] for d in draws])
    worst = 0.0
    for u, v, z in draws:
        lhs = float(np.dot(oracle.apply_jacobian(u, v), z))
        rhs = oracle.inner(v, oracle.apply_adjoint(u, z))
        worst = max(worst, abs(lhs - rhs) / (1.0 + oracle.norm(v)
                                             * np.linalg.norm(z)))
    return CheckResult("adjoint identity", worst <= tol, worst, tol)


def check_second_symmetry(oracle, seed=1):
    """Relative asymmetry of the z-contracted second differential."""
    tol = 1e-8 if oracle.has_analytic_second else 1e-5
    rng = np.random.default_rng(seed)
    draws = [(rng.standard_normal(oracle.dim_domain),
              rng.standard_normal(oracle.dim_domain),
              rng.standard_normal(oracle.dim_domain),
              rng.standard_normal(oracle.dim_codomain))
             for _ in range(20)]
    _warm(oracle, [d[0] for d in draws])
    worst = 0.0
    for u, v, w, z in draws:
        a = oracle.bilinear_second(u, z, v, w)
        b = oracle.bilinear_second(u, z, w, v)
        denom = max(abs(a), abs(b), 1.0)
        worst = max(worst, abs(a - b) / denom)
    return CheckResult("second-differential symmetry", worst <= tol,
                       worst, tol)


def check_jacobian_linearity(oracle, seed=2):
    tol = 1e-12
    rng = np.random.default_rng(seed)
    draws = [(rng.standard_normal(oracle.dim_domain),
              rng.standard_normal(oracle.dim_domain),
              rng.standard_normal(oracle.dim_domain),
              *rng.standard_normal(2))
             for _ in range(20)]
    _warm(oracle, [d[0] for d in draws])
    worst = 0.0
    for u, v, w, a, b in draws:
        lhs = oracle.apply_jacobian(u, a * v + b * w)
        rhs = a * oracle.apply_jacobian(u, v) + b * oracle.apply_jacobian(
            u, w)
        denom = 1.0 + float(np.linalg.norm(rhs))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / denom)
    return CheckResult("jacobian linearity", worst <= tol, worst, tol)


def check_jacobian_fd(oracle, seed=3):
    """Analytic-vs-finite-difference Jacobian, relative Frobenius error."""
    tol = 1e-5
    rng = np.random.default_rng(seed)
    points = [rng.standard_normal(oracle.dim_domain) for _ in range(5)]
    _warm(oracle, points)
    worst = 0.0
    for u in points:
        ja = oracle.jacobian(u)
        jf = oracle.fd_jacobian(u)
        denom = max(float(np.linalg.norm(ja)), 1.0)
        worst = max(worst, float(np.linalg.norm(ja - jf)) / denom)
    return CheckResult("jacobian vs finite differences", worst <= tol,
                       worst, tol)


def validate_oracle(oracle, seed=0):
    """Run the full identity suite; returns a list of CheckResult."""
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return [
        check_adjoint_identity(oracle, seed=seed),
        check_second_symmetry(oracle, seed=seed + 1),
        check_jacobian_linearity(oracle, seed=seed + 2),
        check_jacobian_fd(oracle, seed=seed + 3),
    ]
