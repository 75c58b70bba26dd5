"""Finite differences along an integrated lift: the independent check of
the eigenvalue- and eigenvector-derivative formulas in the tests."""

import numpy as np

from pathlift.solver import ple_rhs
from pathlift.spectrum import spectrum_at


def rk4_flow(oracle, path, s, u, ds, nsub=2):
    """Short classical RK4 flow of the lifting equation from (s, u)."""
    def rhs(ss, uu):
        return ple_rhs(oracle, uu, path.gamma_dot(ss))[0]

    h = ds / nsub
    for _ in range(nsub):
        k1 = rhs(s, u)
        k2 = rhs(s + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, u + 0.5 * h * k2)
        k4 = rhs(s + h, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        s = s + h
    return u


def fd_along_lift(oracle, path, state, quantity, delta=1e-3):
    """Central difference of a spectral quantity along the lift.

    ``quantity(s, u, spec)`` receives a spectrum sign-aligned with the
    base state.
    """
    def evaluate(ss, uu):
        spec = spectrum_at(oracle, uu, prev=state.spectrum)
        return quantity(ss, uu, spec)

    u_p = rk4_flow(oracle, path, state.s, state.u, delta)
    u_m = rk4_flow(oracle, path, state.s, state.u, -delta)
    qp = evaluate(state.s + delta, u_p)
    qm = evaluate(state.s - delta, u_m)
    return (np.asarray(qp) - np.asarray(qm)) / (2.0 * delta)


def lambda1_fd_along_lift(oracle, path, state, delta=1e-3):
    """Finite-difference d(lambda_1)/ds along the integrated lift."""
    return float(fd_along_lift(oracle, path, state,
                               lambda s, u, spec: spec.lambdas[0], delta))
