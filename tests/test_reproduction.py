"""The paper's claims reproduced on sample problems.

The abstract claims "the well-posedness of the continuation method
despite critical values of the endpoint maps".  For Brockett's system and
the unicycle from x0 = 0 the zero control is singular, so 0 = F(0) is a
critical value; it also has regular preimages.  The line from F(u0) to
-F(u0) crosses it at s = 0.5, and the lift goes around the singular
control instead of into it.
"""

import numpy as np
import pytest

import pathlift as pl


@pytest.mark.parametrize("control", [(1.0, 1.0), (0.7, -0.2)])
@pytest.mark.parametrize("segments", [6, 10])
@pytest.mark.parametrize("system", ["brockett", "unicycle"])
def test_a_lift_through_a_critical_value_is_reached(system, segments,
                                                    control):
    o = pl.endpoint_problem(system, [0.0, 0.0, 0.0], 1.0, segments)
    u0 = o.grid.constant(control)
    rep = pl.lift(o, pl.line_to_target(o, u0, -o.eval(u0)), u0)
    assert rep.status == pl.REACHED
    # lambda_1 stays bounded away from 0 (read 8.0e-4 to 7.8e-3)
    assert min(st.spectrum.lambdas[0] for st in rep.trace) >= 5e-4
    # at the crossing of 0 the control is a regular preimage, away from
    # the singular control 0 (read 0.23 to 0.72)
    crossing = min(rep.trace, key=lambda st: abs(st.s - 0.5))
    assert o.norm(crossing.u) >= 0.2
    # the theorem's velocity bound holds along the lift
    assert rep.bound_check_max <= 0.0
