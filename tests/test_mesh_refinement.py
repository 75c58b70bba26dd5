"""Mesh refinement: what the endpoint oracle measures on P segments belongs
to the continuous problem on L2[0, T], not to P."""

import numpy as np
import pytest

import pathlift as pl


@pytest.mark.parametrize("horizon", [1.0, 2.0])
@pytest.mark.parametrize("segments", [6, 12, 24, 48])
def test_brockett_c_est_is_the_closed_form(segments, horizon):
    """From x0 = 0 Brockett's form is the same at every control, and its
    norm is that of the Volterra operator on P-segment controls,
    (T/P) / (2 tan(pi / (4P))).  It rises to 2T/pi, the norm on L2[0, T]
    (Halmos, A Hilbert Space Problem Book, Problem 188), with a gap of
    T pi / (24 P^2) to leading order; the next term adds 0.12% at P = 6."""
    o = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], horizon, segments)
    u = np.random.default_rng(segments).uniform(-1.0, 1.0, o.dim_domain)
    c_est = pl.estimate_bilinear_norm(o, u)
    closed = (horizon / segments) / (2.0 * np.tan(np.pi / (4 * segments)))
    assert c_est == pytest.approx(closed, rel=1e-12)
    gap = 2.0 * horizon / np.pi - c_est
    assert 0.0 < gap <= 1.01 * horizon * np.pi / (24 * segments**2)
