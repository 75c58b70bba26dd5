"""The lift's symmetries as property tests.

The lifting equation u' = W^-1 J^T G^-1 gamma' is equivariant under a
rotation of the codomain: with F' = Q F for an orthogonal Q, J' = Q J and
G' = Q G Q^T, so lifting Q gamma through F' gives the u path that lifting
gamma through F gives.  Only roundoff tells the two apart.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pathlift as pl
from pathlift.maps import MapOracle

# max |u' - u| and |s' - s| over the states of a rotated lift.  Rotating
# the codomain reorders the roundoff of every product with J, and the step
# controller and the lift carry it along: over 200 draws of Q on these
# short lifts the gap read at most 1.6e-15 (linear), 5e-11 (fold,
# unicycle-6) and 7e-11 (brockett-6) in u, and 1.6e-10 in s.  Lifts of
# Brockett and the unicycle through their critical value 0 amplify it to
# 3.6e-9 to 2.1e-8 (10 draws each, 6 and 10 segments, from (1, 1) and
# (1, 0.3)), so none is run here.
ROTATION_TOL = 1e-9


class _Rotated(MapOracle):
    """F' = Q F, with J' = Q J and dJ' = Q dJ: ``base`` with its codomain
    rotated by the orthogonal ``q``."""

    def __init__(self, base, q):
        super().__init__(base.dim_domain, base.dim_codomain, base.weights)
        self.base, self.q = base, q

    def eval(self, u):
        return self.q @ self.base.eval(u)

    def jacobian(self, u):
        return self.q @ self.base.jacobian(u)

    def jacobian_derivative(self, u, v):
        return self.q @ self.base.jacobian_derivative(u, v)


def _problem(name):
    """(oracle, anchor u0, path end): a short regular line on each."""
    if name == "fold":
        return pl.FoldMap(), np.array([0.1, 0.0]), np.array([0.2025, 0.3])
    if name == "linear":
        rng = np.random.default_rng(42)
        o = pl.LinearMap(rng.standard_normal((3, 6)))
        u0 = rng.standard_normal(6)
        return o, u0, o.eval(u0) + rng.standard_normal(3)
    o = pl.endpoint_problem(name.split("-")[0], [0.0, 0.0, 0.0], 1.0, 6)
    u0 = o.grid.constant([1.0, 0.3])
    return o, u0, o.eval(u0) + np.array([0.05, -0.04, 0.08])


@functools.cache
def _reference(name):
    o, u0, target = _problem(name)
    return pl.lift(o, pl.line_to_target(o, u0, target), u0)


def _orthogonal(seed, n):
    """A Haar-distributed orthogonal n x n matrix: the QR factor of a
    Gaussian draw, its column signs fixed by R's diagonal (Mezzadri,
    Notices AMS 54 (2007))."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


@pytest.mark.parametrize("name", ["fold", "linear", "brockett-6",
                                  "unicycle-6"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_codomain_rotation_leaves_the_lift_unchanged(name, seed):
    """Lifting Q gamma through Q F from the same anchor takes the states
    of lifting gamma through F: the same status, flags and state count,
    and s and u within ROTATION_TOL at every state."""
    base, u0, target = _problem(name)
    q = _orthogonal(seed, base.dim_codomain)
    np.testing.assert_allclose(q.T @ q, np.eye(len(q)), atol=1e-14)
    rotated = _Rotated(base, q)
    rep = pl.lift(rotated, pl.line_to_target(rotated, u0, q @ target), u0)
    ref = _reference(name)
    assert rep.status == ref.status == pl.REACHED
    assert len(rep.trace) == len(ref.trace)
    assert [st.flags for st in rep.trace] == [st.flags for st in ref.trace]
    for st, st_ref in zip(rep.trace, ref.trace):
        assert abs(st.s - st_ref.s) <= ROTATION_TOL
        assert np.max(np.abs(st.u - st_ref.u)) <= ROTATION_TOL
