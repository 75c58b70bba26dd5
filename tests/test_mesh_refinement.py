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


def test_brockett_lift_through_zero_converges_under_refinement():
    """Brockett's lift from u0 = constant (1, 1) along the line to
    -F(u0), through the critical value 0, at P = 10, 20, 40 and 80 and
    default options: every lift is reached in nearly the same number of
    states, q = the g integral converges at second order (read 2.707831,
    2.696463, 2.693580 and 2.692826: orders 1.98 and 1.94), and u(1) at
    first order in L2 (orders 1.01 and 1.00), the coarser control repeated
    onto the finer grid and weighed there with T/P.  Beyond P = 160, q's
    own error at default tolerances floors its differences."""
    reports = {}
    for segments in (10, 20, 40, 80):
        o = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, segments)
        u0 = o.grid.constant([1.0, 1.0])
        rep = pl.lift(o, pl.line_to_target(o, u0, -o.eval(u0)), u0)
        assert rep.status == pl.REACHED, rep.message
        reports[segments] = (o, rep)
    states = [len(rep.trace) for _, rep in reports.values()]
    assert max(states) - min(states) <= 2      # read 50-51
    q = np.diff([rep.g_integral for _, rep in reports.values()])
    assert np.all(np.log2(q[:-1] / q[1:]) >= 1.8)
    errors = []
    for segments in (10, 20, 40):
        fine, rep = reports[2 * segments]
        coarse = reports[segments][1].final_u.reshape(segments, -1)
        errors.append(fine.norm(coarse.repeat(2, axis=0).ravel()
                                - rep.final_u))
    assert np.all(np.log2(np.divide(errors[:-1], errors[1:])) >= 0.9)
