"""Central differences of a map's ``eval``: the tests' reference for its
Jacobian, independent of the oracle's own derivatives."""

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
