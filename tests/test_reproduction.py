"""The paper's claims reproduced on sample problems.

The abstract claims "the well-posedness of the continuation method
despite critical values of the endpoint maps".  For Brockett's system and
the unicycle from x0 = 0 the zero control is singular, so 0 = F(0) is a
critical value; it also has regular preimages.  The line from F(u0) to
-F(u0) crosses it at s = 0.5, and the lift goes around the singular
control instead of into it.  The lifts are also global: lines to targets
far from F(u0) are reached, sampled here in a few directions.
"""

import numpy as np
import pytest

import pathlift as pl


# each control with the unicycle lift's integrate calls at 6 and 10
# segments, which read the oracle memo's hit rate on a real lift; the
# Brockett lifts take its closed form and integrate nothing
@pytest.mark.parametrize("control, unicycle_integrations", [
    ((1.0, 1.0), {6: 372, 10: 368}),
    ((1.0, 0.3), {6: 377, 10: 379}),
    ((0.7, -0.2), {6: 381, 10: 365}),
], ids=["control0", "control1", "control2"])
@pytest.mark.parametrize("segments", [6, 10])
@pytest.mark.parametrize("system", ["brockett", "unicycle"])
def test_a_lift_through_a_critical_value_is_reached(
        monkeypatch, system, segments, control, unicycle_integrations):
    calls = []
    real = pl.endpoint.integrate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pl.endpoint, "integrate", counting)
    o = pl.endpoint_problem(system, [0.0, 0.0, 0.0], 1.0, segments)
    u0 = o.grid.constant(control)
    rep = pl.lift(o, pl.line_to_target(o, u0, -o.eval(u0)), u0)
    assert rep.status == pl.REACHED
    assert len(calls) == (unicycle_integrations[segments]
                          if system == "unicycle" else 0)
    # every lift takes 48-51 states.  lambda_1 stays bounded away from 0
    # (read 8.0e-4 to 7.8e-3; 1.7e-3 to 1.9e-3 from (1, 0.3))
    assert min(st.spectrum.lambdas[0] for st in rep.trace) >= 5e-4
    # at the crossing of 0 the control is a regular preimage, away from
    # the singular control 0 (read 0.23 to 0.72; 0.34 from (1, 0.3))
    crossing = min(rep.trace, key=lambda st: abs(st.s - 0.5))
    assert o.norm(crossing.u) >= 0.2
    # the theorem's velocity bound holds along the lift (read -1.50 to
    # -4.09; -2.17 to -2.23 from (1, 0.3))
    assert rep.bound_check_max <= 0.0


# The title theorem is global, so every target should be reached from a
# regular anchor.  Four unit directions, drawn once from default_rng(25)
# and kept whatever they give, at three distances from F(u0) on each system
_DIRECTIONS = np.random.default_rng(25).standard_normal((4, 3))
_DIRECTIONS /= np.linalg.norm(_DIRECTIONS, axis=1, keepdims=True)


@pytest.mark.parametrize("system", ["brockett", "unicycle"])
def test_lifts_to_far_targets_are_reached(system):
    o = pl.endpoint_problem(system, [0.0, 0.0, 0.0], 1.0, 6)
    u0 = o.grid.constant([1.0, 0.3])
    tol = pl.SolverOptions().tol_residual
    for distance in (0.5, 2.0, 8.0):
        for direction in _DIRECTIONS:
            target = o.eval(u0) + distance * direction
            rep = pl.lift(o, pl.line_to_target(o, u0, target), u0)
            # median states read 9, 19 and 32 on Brockett and 7, 18.5 and
            # 48 on the unicycle at the three distances, at most 53
            assert rep.status == pl.REACHED, rep.message
            # read -0.55 to -18.4, growing with the distance
            assert rep.bound_check_max <= 0.0
            # read at most 9e-11
            assert rep.final_residual <= tol


def test_affine_lti_lifts_anywhere_although_check_falsifies_it():
    """The theorem's conditions are sufficient, not necessary: lti's
    endpoint map is affine, so its second differential, and with it the
    coercivity ratio K, is 0 and ``check`` falsifies it; yet it is onto,
    and each line lifts in two states, 100 away as 0.5 away."""
    o = pl.endpoint_problem("lti", [1.0, -0.5], 1.0, 6, system_params={
        "A": [[0.0, 1.0], [-2.0, -0.3]], "B": [[0.0], [1.0]]})
    u0 = np.zeros(o.dim_domain)
    plan = pl.SamplingPlan(radii=(0.5, 1.0, 2.0), per_radius=2, z_samples=2)
    check = pl.check_report(o, plan)
    assert check.falsified and check.k_est == 0.0
    planar = _DIRECTIONS[:, :2] / np.linalg.norm(_DIRECTIONS[:, :2], axis=1,
                                                 keepdims=True)
    for distance in (0.5, 8.0, 100.0):
        for direction in planar:
            target = o.eval(u0) + distance * direction
            rep = pl.lift(o, pl.line_to_target(o, u0, target), u0)
            assert rep.status == pl.REACHED, rep.message
            assert len(rep.trace) == 2
