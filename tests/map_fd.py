"""Central differences of a map oracle: of its ``eval``, the tests'
reference for its Jacobian, independent of the oracle's own derivatives;
and of its own Jacobian, a reference for its second differential."""

import numpy as np


def central_jacobian(oracle, u, scale=1e-5):
    """Jacobian of ``oracle.eval`` at u from central differences with
    step scale (1 + ||u||_X), all 2N points in one ``eval_many``."""
    u = np.asarray(u, dtype=float)
    eps = scale * (1.0 + oracle.norm(u))
    steps = eps * np.eye(oracle.dim_domain)
    plus, minus = np.split(
        oracle.eval_many(np.concatenate([u + steps, u - steps])), 2)
    return ((plus - minus) / (2.0 * eps)).T


def central_second(oracle, u, v, scale=1e-5):
    """Derivative of the Jacobian at u along v from a central difference
    of the oracle's own ``jacobian`` at u +- eps v, eps = scale
    (1 + ||u||_X), both points in one ``eval_many``.  It differences the
    oracle's J, not ``eval``, so it checks dJ against J only."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    eps = scale * (1.0 + oracle.norm(u))
    plus, minus = u + eps * v, u - eps * v
    oracle.eval_many(np.stack([plus, minus]))
    return (oracle.jacobian(plus) - oracle.jacobian(minus)) / (2.0 * eps)
