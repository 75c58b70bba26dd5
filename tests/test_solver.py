"""Continuation solver: exactness, singular termination, diagnostics."""

import dataclasses
import logging
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import pathlift as pl
from pathlift import endpoint, solver, spectrum
from pathlift.errors import BadAnchor, ConfigurationError, SingularStart

from lift_fd import fd_along_lift, lambda1_fd_along_lift


def _sphere_problem(dim=2, seed=0):
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(dim)
    u0 /= np.linalg.norm(u0)
    o = pl.SphereMap(dim)
    path = pl.LinePath([1.0], [0.0])
    return o, path, u0


def test_linear_lift_is_pseudoinverse_update():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((3, 6))
    o = pl.LinearMap(mat)
    u0 = rng.standard_normal(6)
    target = o.eval(u0) + rng.standard_normal(3)
    rep = pl.lift(o, pl.line_to_target(o, u0, target), u0)
    assert rep.status == pl.REACHED
    expect = u0 + np.linalg.pinv(mat) @ (target - o.eval(u0))
    np.testing.assert_allclose(rep.final_u, expect, atol=1e-8)
    assert rep.final_residual <= 1e-10


def test_linear_lift_with_weights():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((2, 5))
    w = rng.uniform(0.5, 2.0, 5)
    o = pl.LinearMap(mat, weights=w)
    u0 = rng.standard_normal(5)
    target = o.eval(u0) + np.array([0.4, -0.7])
    rep = pl.lift(o, pl.line_to_target(o, u0, target), u0)
    # least-norm update in the weighted metric: W^-1 J^T (J W^-1 J^T)^-1 d
    jw = mat / w
    expect = u0 + jw.T @ np.linalg.solve(jw @ mat.T, target - o.eval(u0))
    np.testing.assert_allclose(rep.final_u, expect, atol=1e-8)


def test_sphere_lift_singular_terminal():
    o, path, u0 = _sphere_problem()
    rep = pl.lift(o, path, u0)
    assert rep.status == pl.SINGULAR_TERMINAL
    fin = rep.final_state
    assert fin.spectrum.lambdas[0] < fin.spectrum.lambda_sing
    assert fin.s == pytest.approx(1.0, abs=1e-3)
    assert o.norm(rep.final_u) < 1e-3


def test_sphere_lift_tracks_closed_form():
    o, path, u0 = _sphere_problem(dim=3, seed=4)
    rep = pl.lift(o, path, u0)
    for st in rep.trace:
        if st.s <= 0.99:
            assert o.norm(st.u) == pytest.approx(np.sqrt(1.0 - st.s),
                                                 abs=1e-6)
            if np.isfinite(st.diag.g):
                assert st.diag.g == pytest.approx(
                    -0.5 / np.sqrt(1.0 - st.s), rel=1e-6)


def test_sphere_g_integral_near_one():
    o, path, u0 = _sphere_problem()
    rep = pl.lift(o, path, u0)
    assert 0.95 <= rep.g_integral <= 1.05


def test_g_dynamics_invariant_on_sphere():
    # g' sqrt(lambda_1) + g^2 h vanishes identically for the shrinking
    # sphere lift; check it by differencing g along the flow
    o, path, u0 = _sphere_problem()
    rep = pl.lift(o, path, u0)
    for st in rep.trace:
        if 0.05 < st.s < 0.9:
            gprime = float(fd_along_lift(
                o, path, st, lambda s, u, spec: pl.diagnostics(
                    o, u, spec, path.gamma_dot(s)).g, delta=1e-4))
            lhs = gprime * np.sqrt(st.spectrum.lambdas[0])
            assert lhs + st.diag.g ** 2 * st.diag.h == pytest.approx(
                0.0, abs=1e-5)


def test_fold_lift_reaches_and_matches():
    o = pl.FoldMap()
    u0 = np.array([0.1, 0.0])
    target = np.array([0.16, 0.5])
    rep = pl.lift(o, pl.line_to_target(o, u0, target), u0)
    assert rep.status == pl.REACHED
    np.testing.assert_allclose(o.eval(rep.final_u), target, atol=1e-9)
    # positive branch of the fold is preserved
    assert rep.final_u[0] == pytest.approx(0.4, abs=1e-7)


def test_bad_anchor_raises():
    o = pl.SphereMap(2)
    path = pl.LinePath([2.0], [1.0])
    with pytest.raises(BadAnchor):
        pl.lift(o, path, np.array([1.0, 0.0]))  # F(u0) = 1 != 2


@pytest.mark.parametrize("path", [
    pl.LinePath([0.25], [0.25]),
    pl.LinePath([0.25, 0.25, 0.0], [0.5, 0.25, 0.0]),
    pl.PolylinePath([[0.25], [0.5], [0.75]]),
], ids=["line-1", "line-3", "polyline-1"])
def test_path_outside_the_codomain_raises_configuration_error(path):
    """The fold maps into R^2.  A 1-d line's gamma(0) broadcasts against
    F(u0) and passes the anchor check; every such path is refused before
    it, naming both lengths."""
    got = rf"\({len(path.gamma(0.0))},\)"
    with pytest.raises(ConfigurationError,
                       match=rf"gamma\(0\) must have length 2, got {got}"):
        pl.lift(pl.FoldMap(), path, [0.5, 0.25])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_anchor_raises_bad_anchor(bad):
    path = pl.LinePath([0.01, 0.0], [0.02, 0.1])
    with pytest.raises(BadAnchor, match="anchor u0 must be finite"):
        pl.lift(pl.FoldMap(), path, [bad, 0.0])


def test_nan_anchor_residual_raises_bad_anchor():
    class NanFold(pl.FoldMap):
        def eval(self, u):
            return np.full(2, np.nan)

    with pytest.raises(BadAnchor, match="initial residual nan"):
        pl.lift(NanFold(), pl.LinePath([0.01, 0.0], [0.02, 0.1]),
                [0.1, 0.0])


def test_singular_start_raises():
    o = pl.SphereMap(2)
    path = pl.LinePath([0.0], [1.0])
    with pytest.raises(SingularStart):
        pl.lift(o, path, np.zeros(2))


def test_velocity_bound_holds_on_trace():
    o, path, u0 = _sphere_problem(dim=4, seed=6)
    rep = pl.lift(o, path, u0)
    assert rep.bound_check_max <= 1e-8


def test_lift_decomposes_the_anchor_gramian_once(monkeypatch):
    o, path, u0 = _sphere_problem(3)
    decompositions = []
    before_first_rhs = []
    # spectrum_at is where every point's Gramian is decomposed
    real_decompose, real_rhs = spectrum.spectral_decompose, solver.ple_rhs

    def decompose(grammat, prev=None):
        decompositions.append(grammat)
        return real_decompose(grammat, prev=prev)

    def rhs(*args):
        before_first_rhs.append(len(decompositions))
        return real_rhs(*args)

    monkeypatch.setattr(spectrum, "spectral_decompose", decompose)
    monkeypatch.setattr(solver, "ple_rhs", rhs)
    pl.lift(o, path, u0)
    assert before_first_rhs[0] == 1
    np.testing.assert_array_equal(decompositions[0], pl.gramian(o, u0))


def test_polyline_knot_restarts():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((2, 4))
    o = pl.LinearMap(mat)
    u0 = rng.standard_normal(4)
    y0 = o.eval(u0)
    path = pl.PolylinePath([y0, y0 + [0.5, 0.1], y0 + [0.2, -0.4]])
    rep = pl.lift(o, path, u0)
    assert rep.status == pl.REACHED
    knot_states = [st for st in rep.trace if "knot" in st.flags]
    assert len(knot_states) == 1
    assert knot_states[0].s == 0.5
    np.testing.assert_allclose(o.eval(rep.final_u), path.gamma(1.0),
                               atol=1e-9)
    # the knot state starts the second leg: its diagnostics and velocity
    # are that leg's
    knot = knot_states[0]
    slope = path.legs[1][2].gamma_dot(0.5)
    np.testing.assert_array_equal(knot.diag.a, knot.spectrum.vectors.T @ slope)
    assert knot.udot_norm == o.norm(pl.ple_rhs(o, knot.u, slope)[0])


def _fold_line_lift(**options):
    o = pl.FoldMap()
    u0 = np.array([0.2, 0.1])
    path = pl.line_to_target(o, u0, [0.09, 0.4])
    return pl.lift(o, path, u0, pl.SolverOptions(**options))


def test_correction_stalled_near_tolerance_warns_and_continues(caplog):
    # 1e-17 is below what roundoff lets some states reach, but within 10x;
    # a stall is a log record and a trace flag, not a Python warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with caplog.at_level(logging.WARNING, logger="pathlift.solver"):
            rep = _fold_line_lift(tol_residual=1e-17)
    assert rep.status == pl.REACHED
    stalled = [st for st in rep.trace if "corr-warn" in st.flags.split()]
    assert stalled
    records = [r for r in caplog.records
               if r.getMessage().startswith("residual correction stalled")]
    assert len(records) == len(stalled)
    assert all(r.levelno == logging.WARNING for r in records)


def test_failed_correction_ends_diverged_and_keeps_the_trace():
    rep = _fold_line_lift(tol_residual=1e-30)
    assert rep.status == pl.DIVERGED
    assert rep.message.startswith("correction failed")
    assert len(rep.trace) == 2
    assert rep.trace[-1].flags == "corr-fail"


def test_exhausted_step_budget_is_step_underflow():
    o, path, u0 = _sphere_problem()
    rep = pl.lift(o, path, u0, pl.SolverOptions(max_steps=2))
    assert rep.status == pl.STEP_UNDERFLOW
    assert rep.message == "step budget 2 exhausted"


def test_step_below_ds_min_is_step_underflow():
    # the error control shortens the step under a ds_min this coarse
    o = pl.FoldMap()
    u0 = np.array([0.5, 0.0])
    rep = pl.lift(o, pl.line_to_target(o, u0, [0.04, 0.9]), u0,
                  pl.SolverOptions(ds_min=0.3, tol_ode=1e-12))
    assert rep.status == pl.STEP_UNDERFLOW
    assert rep.message.endswith("below ds_min")
    assert len(rep.trace) == 1


class _LineNaNOffStart(pl.LinePath):
    """A line whose slope is NaN everywhere but at s = 0."""

    def gamma_dot(self, s):
        slope = super().gamma_dot(s)
        return slope if s == 0.0 else slope * np.nan


def test_non_finite_state_ends_diverged():
    # every step's later stages are NaN: the step is halved below ds_min
    o = pl.FoldMap()
    u0 = np.array([0.5, 0.0])
    rep = pl.lift(o, _LineNaNOffStart(o.eval(u0), [0.04, 0.9]), u0)
    assert rep.status == pl.DIVERGED
    assert rep.message == "non-finite state produced"
    assert len(rep.trace) == 1


def test_final_residual_above_tolerance_is_diverged(caplog):
    # every correction stalls within 10x of tol_residual, so each state is
    # accepted corr-warn, and the last one is still off gamma(1)
    o = pl.FoldMap()
    u0 = np.array([0.2, 0.1])
    with caplog.at_level(logging.WARNING, logger="pathlift.solver"):
        rep = pl.lift(o, pl.line_to_target(o, u0, [0.3, -0.2]), u0,
                      pl.SolverOptions(tol_residual=2e-17))
    assert "residual correction stalled" in caplog.text
    assert rep.status == pl.DIVERGED
    assert rep.message.startswith("final residual")
    assert rep.final_state.s == 1.0
    assert "corr-warn" in rep.final_state.flags.split()
    assert rep.final_residual > 2e-17


def test_singular_state_after_regular_stages_ends_the_lift(monkeypatch):
    # the fold line crosses u1 = 0 mid-leg; at this loose tolerance a step
    # of at most DS_EVENT lands on the singular set with every stage
    # regular, and the lift ends there without the approach walk
    def no_walk(*args, **kwargs):
        raise AssertionError("approach walk entered")

    monkeypatch.setattr(solver._Lift, "_approach_singularity", no_walk)
    o = pl.FoldMap()
    u0 = np.array([0.4, 0.0])
    rep = pl.lift(o, pl.line_to_target(o, u0, [-0.5, 0.0]), u0,
                  pl.SolverOptions(tol_ode=1e-3, tol_ode_abs=1e-6))
    assert rep.status == pl.SINGULAR_INTERIOR
    final = rep.final_state
    assert final.flags == "singular" and final.spectrum.singular
    assert final.step_size <= solver.DS_EVENT


def test_approach_walk_out_of_steps_is_step_underflow(monkeypatch):
    # the fold line leaves the fold's image mid-leg (u1^2 cannot go
    # negative): the walk ends a hair past s = 0.5 with lambda_1 just
    # above the threshold, and each later Euler step overshoots u1 = 0.
    # Once its step is capped at DS_EVENT, the next attempt would repeat
    # the last one, so the walk stops there instead of retrying it until
    # its 300 steps run out
    calls = []
    real = spectrum.spectral_decompose

    def decompose(grammat, prev=None):
        calls.append(1)
        return real(grammat, prev=prev)

    monkeypatch.setattr(spectrum, "spectral_decompose", decompose)
    o = pl.FoldMap()
    u0 = np.array([0.5, 0.0])
    rep = pl.lift(o, pl.line_to_target(o, u0, [-0.25, 0.5]), u0)
    assert rep.status == pl.STEP_UNDERFLOW
    assert rep.message == "could not cross the singular threshold"
    assert rep.final_state.flags == "approach"
    assert not rep.final_state.spectrum.singular
    assert len(rep.trace) == 78
    assert len(calls) <= 1000


_FLOAT_OPTIONS = [f.name for f in dataclasses.fields(pl.SolverOptions)
                  if f.type is float]


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, "a", True,
                                   np.array([1e-8, 1e-8])])
@pytest.mark.parametrize("name", _FLOAT_OPTIONS)
def test_solver_options_reject_non_positive_or_non_finite(name, value):
    with pytest.raises(ConfigurationError,
                       match=f"^solver.{name} must be positive$"):
        pl.SolverOptions(**{name: value})


@pytest.mark.parametrize("max_steps", [0, -3])
def test_solver_options_reject_empty_step_budget(max_steps):
    with pytest.raises(ConfigurationError,
                       match="^solver.max_steps must be >= 1$"):
        pl.SolverOptions(max_steps=max_steps)


def test_solver_options_cannot_be_changed_past_their_checks():
    opts = pl.SolverOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.tol_ode = float("nan")


def test_stop_short_of_the_end_is_not_reached():
    # ds_min above the whole interval: the loop stops at s = 0, which is
    # not gamma(1), so the run must not report Reached
    o = pl.FoldMap()
    u0 = np.array([0.1, 0.0])
    path = pl.line_to_target(o, u0, [0.16, 0.5])
    rep = pl.lift(o, path, u0, pl.SolverOptions(ds_min=2.0))
    assert rep.status == pl.STEP_UNDERFLOW
    assert "stopped at s = 0" in rep.message
    assert len(rep.trace) == 1


@pytest.mark.parametrize("seed", [[303, 119], [307, 85]])
def test_sub_ds_min_gap_to_end_still_resolves_singular(seed):
    # weighted sphere draws whose Cash-Karp steps in s stopped less than
    # ds_min short of s = 1 with lambda_1 just above the singular
    # threshold; the endgame in sigma now finishes them before that gap
    # (test_sub_ds_min_gap_to_a_near_singular_end_is_resolved covers it)
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    weights = rng.uniform(0.5, 2.0, dim)
    direction = rng.standard_normal(dim)
    o = pl.SphereMap(dim, weights=weights)
    rep = pl.lift(o, pl.LinePath([1.0], [0.0]), direction / o.norm(direction))
    assert rep.status == pl.SINGULAR_TERMINAL, rep.message
    assert rep.final_state.spectrum.singular
    assert rep.g_integral == pytest.approx(1.0, abs=1e-3)


def _endgame_states(rep):
    return [state for state in rep.trace if "endgame" in state.flags.split()]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_endgame_lifts_weighted_spheres_onto_the_singular_point(data):
    # lambda_1 = 4 (1 - s) on every weighted sphere, so the endgame fires
    # at the anchor; u = sigma u0 is linear in sigma = sqrt(1 - s)
    dim = data.draw(st.integers(2, 6), label="dim")
    weights = data.draw(arrays(float, dim, elements=st.floats(0.5, 2.0)),
                        label="weights")
    direction = data.draw(
        arrays(float, dim, elements=st.floats(-1.0, 1.0)).filter(
            lambda v: np.linalg.norm(v) > 1e-3), label="direction")
    o = pl.SphereMap(dim, weights=weights)
    rep = pl.lift(o, pl.LinePath([1.0], [0.0]), direction / o.norm(direction))
    assert rep.status == pl.SINGULAR_TERMINAL, rep.message
    assert abs(rep.g_integral - 1.0) <= 1e-4
    deviation = max(abs(o.norm(state.u) - np.sqrt(1.0 - state.s))
                    for state in rep.trace if state.s <= 1.0 - 1e-9)
    assert deviation <= 1e-9
    assert _endgame_states(rep)
    # the endgame lands next to the singular threshold and the walk
    # crosses it: no halving onto sigma = 0
    assert len(rep.trace) <= 6


@pytest.mark.parametrize("gap", [1e-5, 1e-7, 1e-9, 3e-10, 1e-10, 3e-11])
def test_endgame_near_miss_of_the_fold_is_reached(gap):
    # lambda_1 extrapolates to zero within the terminal window of s = 1,
    # but the path ends gap above the fold value, so the end is regular
    o = pl.FoldMap()
    rep = pl.lift(o, pl.LinePath([0.25, 0.0], [gap, 0.3]),
                  np.array([0.5, 0.0]))
    assert rep.status == pl.REACHED, rep.message
    np.testing.assert_allclose(rep.final_u, [np.sqrt(gap), 0.3], rtol=1e-5)
    assert _endgame_states(rep)


def test_terminal_fold_line_lands_on_the_fold_in_a_few_states():
    # lambda_1 = 1 - s is linear in s, so the step aimed at the landing
    # sigma arrives next to the threshold, and one walk step crosses it
    o = pl.FoldMap()
    rep = pl.lift(o, pl.LinePath([0.25, 0.0], [0.0, 0.3]),
                  np.array([0.5, 0.0]))
    assert rep.status == pl.SINGULAR_TERMINAL, rep.message
    assert rep.final_state.spectrum.singular
    assert len(rep.trace) <= 6
    assert abs(rep.g_integral - 0.5) <= 1e-4


def test_sub_ds_min_gap_to_a_near_singular_end_is_resolved():
    # the endgame stops less than ds_min short of s = 1 with lambda_1 near
    # the singular threshold; contracting at s = 1 then lands on the
    # regular fiber point
    o = pl.FoldMap()
    opts = pl.SolverOptions(ds_min=1e-8)
    rep = pl.lift(o, pl.LinePath([0.25, 0.0], [1e-8, 0.3]),
                  np.array([0.5, 0.0]), opts)
    assert rep.status == pl.REACHED, rep.message
    np.testing.assert_allclose(rep.final_u, [1e-4, 0.3], rtol=1e-9)
    assert 0.0 < 1.0 - _endgame_states(rep)[-1].s < opts.ds_min
    assert rep.trace[-1].s == 1.0 and rep.trace[-1].flags == "approach"


def test_endgame_near_miss_walks_once(monkeypatch):
    # the approach walk stalls regular at s = 1; the end-of-run checks
    # must not walk a second time from the same state
    calls = []
    real = solver._Lift._approach_singularity

    def walk(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(solver._Lift, "_approach_singularity", walk)
    rep = pl.lift(pl.FoldMap(), pl.LinePath([0.25, 0.0], [1e-10, 0.3]),
                  np.array([0.5, 0.0]))
    assert rep.status == pl.REACHED, rep.message
    assert len(calls) == 1


def test_approach_walk_adds_h_g_at_each_euler_steps_start(monkeypatch):
    # an Euler step of the walk from (s, u) to (s + h, u') adds h |g(s)| to
    # the g integral; a pinned contraction at s = 1 adds nothing
    walks = []
    real = solver._Lift._approach_singularity

    def walk(self, *args, **kwargs):
        start, q = len(self.trace) - 1, self.q
        real(self, *args, **kwargs)
        walks.append((self.trace[start:], self.q - q))

    monkeypatch.setattr(solver._Lift, "_approach_singularity", walk)
    rep = pl.lift(pl.FoldMap(), pl.LinePath([0.25, 0.0], [1e-10, 0.3]),
                  np.array([0.5, 0.0]))
    assert rep.status == pl.REACHED, rep.message
    (states, added), = walks
    expect = 0.0
    for before, after in zip(states, states[1:]):
        if after.s > before.s:
            expect += after.step_size * abs(before.diag.g)
    assert expect > 0.0
    assert added == pytest.approx(expect, rel=1e-9)


_FOLD_POLYLINE = [[0.25, 0.0], [0.0, 0.3], [0.25, 0.6]]


def test_fold_polyline_ends_singular_interior_at_its_knot():
    # the polyline touches the fold at its knot s = 0.5; the endgame in
    # sigma = sqrt(0.5 - s) runs into it, and the lift stops there
    o = pl.FoldMap()
    path = pl.PolylinePath(_FOLD_POLYLINE)
    rep = pl.lift(o, path, np.array([0.5, 0.0]))
    assert rep.status == pl.SINGULAR_INTERIOR, rep.message
    assert rep.final_state.s == pytest.approx(0.5, abs=1e-5)
    np.testing.assert_allclose(rep.final_u, [5e-6, 0.3], atol=1e-5)
    assert abs(rep.g_integral - 0.5) <= 0.01
    assert _endgame_states(rep)


@pytest.mark.parametrize(
    "opts",
    [pl.SolverOptions(ds_init=d) for d in np.geomspace(1e-3, 1.0, 25)]
    + [pl.SolverOptions(tol_ode=t) for t in np.geomspace(1e-10, 1e-6, 13)]
    + [pl.SolverOptions(ds_min=m) for m in np.geomspace(1e-12, 1e-7, 6)],
    ids=[f"ds_init={d:.3g}" for d in np.geomspace(1e-3, 1.0, 25)]
    + [f"tol_ode={t:.3g}" for t in np.geomspace(1e-10, 1e-6, 13)]
    + [f"ds_min={m:.3g}" for m in np.geomspace(1e-12, 1e-7, 6)])
def test_fold_polyline_end_does_not_depend_on_the_step_history(opts):
    rep = pl.lift(pl.FoldMap(), pl.PolylinePath(_FOLD_POLYLINE),
                  np.array([0.5, 0.0]), opts)
    assert rep.status == pl.SINGULAR_INTERIOR, rep.message
    assert rep.final_state.s == pytest.approx(0.5, abs=1e-12)
    assert len(rep.trace) <= 10


@pytest.mark.parametrize("height", [1e2, 1e3, 1e5])
def test_steep_fold_lands_no_closer_than_ds_min(height):
    # lambda_1 = 4 height (1 - 2 s) falls so steeply that it reaches twice
    # the singular threshold less than ds_min short of the knot; the
    # landing must stay far enough out for the step onto the knot
    o = pl.FoldMap()
    path = pl.PolylinePath([[height, 0.0], [0.0, 0.3], [height, 0.6]])
    rep = pl.lift(o, path, np.array([np.sqrt(height), 0.0]))
    assert rep.status == pl.SINGULAR_INTERIOR, rep.message
    assert rep.final_state.s == pytest.approx(0.5, abs=1e-12)
    rep = pl.lift(o, pl.LinePath([height, 0.0], [0.0, 0.3]),
                  np.array([np.sqrt(height), 0.0]))
    assert rep.status == pl.SINGULAR_TERMINAL, rep.message
    assert rep.final_state.spectrum.singular


@pytest.mark.parametrize(
    "gap", [1e-3, 1e-5, 1e-7, 1e-9, 2e-10, 1.5e-10, 1e-10, 4e-11, 3e-11])
def test_fold_polyline_near_miss_passes_its_knot(gap):
    # the knot stops gap short of the fold value; the endgame toward the
    # knot lands on it regular, or its approach walk stalls there, and
    # the second leg is lifted in s
    o = pl.FoldMap()
    path = pl.PolylinePath([[0.25, 0.0], [gap, 0.3], [0.25, 0.6]])
    rep = pl.lift(o, path, np.array([0.5, 0.0]))
    assert rep.status == pl.REACHED, rep.message
    np.testing.assert_allclose(rep.final_u, [0.5, 0.6], atol=1e-9)
    assert any(state.s == 0.5 for state in rep.trace)


def _endpoint_polyline(system, control, offsets):
    o = pl.endpoint_problem(system, [0.0, 0.0, 0.0], 1.0, 10)
    u0 = o.grid.constant(control)
    y0 = o.eval(u0)
    return o, pl.PolylinePath([y0] + [y0 + offset for offset in offsets]), u0


_REGULAR_POLYLINES = {
    # name -> (oracle, path, anchor)
    "fold-3-legs": lambda: (pl.FoldMap(), pl.PolylinePath(
        [[0.04, 0.0], [0.09, 0.3], [0.01, 0.6], [0.16, 0.9]]), [0.2, 0.0]),
    "fold-2-legs": lambda: (pl.FoldMap(), pl.PolylinePath(
        [[0.25, 0.0], [0.36, 0.3], [0.16, 0.6]]), [0.5, 0.0]),
    "brockett-10": lambda: _endpoint_polyline(
        "brockett", [1.0, 1.0],
        [[0.2, -0.1, 0.1], [0.3, 0.1, -0.1], [0.1, 0.2, 0.1]]),
    "unicycle-10": lambda: _endpoint_polyline(
        "unicycle", [1.0, 0.3], [[0.05, -0.04, 0.08], [0.1, 0.0, 0.1]]),
}


@pytest.mark.parametrize("name", list(_REGULAR_POLYLINES))
def test_regular_polyline_knots_cost_no_states(name):
    # every stage reads the slope of the leg it steps on, so a step that
    # ends on a knot sees no slope jump and is not shrunk toward it
    o, path, u0 = _REGULAR_POLYLINES[name]()
    rep = pl.lift(o, path, u0)
    assert rep.status == pl.REACHED, rep.message
    assert len(rep.trace) <= 40
    knots = [state.s for state in rep.trace if "knot" in state.flags.split()]
    assert knots == [a for a, _, _ in path.legs[1:]]
    np.testing.assert_allclose(o.eval(rep.final_u), path.gamma(1.0),
                               atol=1e-9)


def test_three_leg_fold_polyline_integrates_g_exactly():
    # |g| ds = |d sqrt(F_1)| on the fold below its eigenvalue crossing, so
    # the g integral is 0.1 + 0.2 + 0.3
    o, path, u0 = _REGULAR_POLYLINES["fold-3-legs"]()
    assert abs(pl.lift(o, path, u0).g_integral - 0.6) <= 1e-5


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_g_integral_on_regular_fold_polylines_is_the_variation_of_sqrt_f1(
        data):
    # with 0 < F_1 < 0.25, lambda_1 = 4 F_1 stays below lambda_2 = 1, so
    # z_1 = e_1 and |g| = |dF_1/ds| / (2 sqrt(F_1)); F_1 is linear on each
    # leg, so the integral is the sum of |delta sqrt(F_1)| over the legs
    count = data.draw(st.integers(2, 5), label="waypoints")
    f1 = np.array(data.draw(st.lists(st.floats(0.01, 0.24), min_size=count,
                                     max_size=count), label="F_1"))
    f2 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=count,
                                     max_size=count), label="F_2"))
    rep = pl.lift(pl.FoldMap(), pl.PolylinePath(np.column_stack([f1, f2])),
                  [np.sqrt(f1[0]), f2[0]])
    assert rep.status == pl.REACHED, rep.message
    exact = float(np.sum(np.abs(np.diff(np.sqrt(f1)))))
    assert abs(rep.g_integral - exact) <= 1e-5


def test_endgame_started_on_a_knot_takes_the_new_legs_slope():
    # b - sigma0^2 rounds to 0.4999999999999999 at the knot s = 0.5, on
    # the first leg's side; the first stage still sees the second leg's
    # slope, because it reads the leg it steps on
    o = pl.FoldMap()
    path = pl.PolylinePath([[0.25, 0.0], [0.25, 0.3], [0.0, 0.6]])
    run = solver._Lift(o, path, [0.5, 0.3], pl.SolverOptions())
    _, run.b, run.leg = path.legs[1]
    run.s, run.sigma0 = 0.5, float(np.sqrt(0.5))
    assert run.b - run.sigma0**2 < run.s
    udot, g = solver.ple_rhs(o, run.u, [-0.5, 0.6])
    k1, q1 = run._fun(0.0, run.u)
    np.testing.assert_array_equal(k1, 2.0 * run.sigma0 * udot)
    assert q1 == 2.0 * run.sigma0 * g


def _short_lift(opts=None, system="brockett", scale=1.0):
    o = pl.endpoint_problem(system, [0.0, 0.0, 0.0], 1.0, 10)
    u0 = o.grid.constant([1.0, 1.0])
    y0 = o.eval(u0)
    step = scale * np.array([0.05, -0.03, 0.02])
    return pl.lift(o, pl.LinePath(y0, y0 + step), u0, opts)


def test_short_lift_takes_one_cash_karp_step(monkeypatch):
    # the first step spans the whole path; ds_init only caps it
    calls = []
    real = endpoint.integrate

    def integrate(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(endpoint, "integrate", integrate)
    rep = _short_lift(system="unicycle")    # an RK4 oracle
    assert rep.status == pl.REACHED, rep.message
    assert [state.s for state in rep.trace] == [0.0, 1.0]
    assert len(calls) <= 8


def test_rejected_correction_integrates_one_control_twice(monkeypatch):
    # tol_residual = 1e-30 makes every correction try until one fails to
    # reduce the residual; that try integrates its control, which
    # replaces the accepted one in the oracle's memo, so the state's log
    # integrates the accepted control again: the one control integrated
    # twice.  On the unicycle, an RK4 oracle, over twice the short path:
    # 16 integrations of 15 controls
    controls = []
    real = endpoint.integrate

    def integrate(system, x0, u_values, *args):
        batch = np.asarray(u_values)
        batch = batch[..., None] if batch.ndim == 2 else batch
        controls.extend(batch[..., b].tobytes()
                        for b in range(batch.shape[-1]))
        return real(system, x0, u_values, *args)

    monkeypatch.setattr(endpoint, "integrate", integrate)
    rep = _short_lift(pl.SolverOptions(tol_residual=1e-30), "unicycle", 2.0)
    assert rep.status == pl.DIVERGED
    assert len(controls) >= 10
    counts = Counter(controls)
    assert len(controls) == len(counts) + 1
    assert counts[rep.trace[-1].u.tobytes()] == 2


def test_small_ds_init_keeps_the_growing_step_sequence():
    rep = _short_lift(pl.SolverOptions(ds_init=0.01))
    assert rep.status == pl.REACHED, rep.message
    np.testing.assert_allclose([state.s for state in rep.trace],
                               [0.0, 0.01, 0.06, 0.31, 1.0], atol=1e-12)


def test_ple_rhs_matches_closed_form_on_sphere():
    o = pl.SphereMap(2)
    u = np.array([0.6, 0.8])
    rhs, g = pl.ple_rhs(o, u, np.array([-1.0]))
    # dF^* G^-1 (-1) = -2u / (4 ||u||^2) = -u/2 on the unit shell, and
    # |g| = 1 / sqrt(lambda_1) = 1/2
    np.testing.assert_allclose(rhs, -u / 2.0, atol=1e-12)
    assert g == pytest.approx(0.5, abs=1e-12)


def test_ple_rhs_raises_on_singular():
    o = pl.SphereMap(2)
    with pytest.raises(pl.SingularGramian):
        pl.ple_rhs(o, np.zeros(2), np.array([1.0]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       extra=st.integers(0, 4))
def test_ple_rhs_matches_a_dense_solve(seed, n, extra):
    # dF^* G^-1 gamma_dot = W^-1 J^T solve(G, gamma_dot) on a
    # well-conditioned LinearMap with random weights
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, n + extra))
    w = rng.uniform(0.2, 5.0, n + extra)
    G = (mat / w) @ mat.T
    assume(np.linalg.cond(G) <= 1e3)
    gd, u = rng.standard_normal(n), rng.standard_normal(n + extra)
    expect = (mat.T @ np.linalg.solve(G, gd)) / w
    rhs, g = pl.ple_rhs(pl.LinearMap(mat, weights=w), u, gd)
    assert np.linalg.norm(rhs - expect) <= 1e-12 * np.linalg.norm(expect)
    # |g| = |<gamma_dot, z_1>| / sqrt(lambda_1) for the least eigenpair
    lam, vecs = np.linalg.eigh(G)
    assert g == pytest.approx(abs(vecs[:, 0] @ gd) / np.sqrt(lam[0]),
                              rel=1e-9)


# one oracle per kind; an endpoint oracle's memo may hold any earlier u
_ONE_J_ORACLES = {
    "fold": pl.FoldMap(weights=[0.7, 1.6]),
    "sphere": pl.SphereMap(3, weights=[0.5, 1.0, 2.0]),
    "linear": pl.LinearMap(np.random.default_rng(5).standard_normal((2, 4)),
                           weights=[0.6, 1.2, 0.9, 1.8]),
    "brockett": pl.endpoint_problem("brockett", [0.1, -0.2, 0.3], 1.0, 4),
    "unicycle": pl.endpoint_problem("unicycle", [0.0, 0.0, 0.0], 1.0, 4),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ple_rhs_takes_one_jacobian_for_the_gramian_and_the_adjoint(data):
    # the velocity is W^-1 J^T V (V^T gamma_dot / lambda) bit for bit,
    # from the one J that also formed G
    name = data.draw(st.sampled_from(sorted(_ONE_J_ORACLES)), label="map")
    o = _ONE_J_ORACLES[name]
    entries = st.floats(-2.0, 2.0, allow_nan=False)
    u = data.draw(arrays(float, o.dim_domain, elements=entries), label="u")
    gd = data.draw(arrays(float, o.dim_codomain, elements=entries),
                   label="gamma_dot")
    spec = pl.spectral_decompose(pl.gramian(o, u))
    assume(not spec.singular)
    expect = (o.jacobian(u).T @ (spec.vectors @ ((spec.vectors.T @ gd)
                                                 / spec.lambdas))) / o.weights
    calls = []
    real = o.jacobian
    o.jacobian = lambda uu: calls.append(1) or real(uu)
    try:
        rhs, g = pl.ple_rhs(o, u, gd)
    finally:
        del o.jacobian
    assert len(calls) == 1
    assert rhs.tobytes() == expect.tobytes()
    assert g == abs(float((spec.vectors.T @ gd)[0]
                          / np.sqrt(spec.lambdas[0])))


def test_a_lift_through_tied_eigenvalues_warns_nothing():
    # the single integrator's G = T I ties lambda_2 = lambda_3 at every
    # state: an expected condition that each spectrum reads, not a warning
    o = pl.endpoint_problem("single-integrator", [0.0, 0.0, 0.0], 1.0, 6,
                            system_params={"dim": 3})
    u0 = o.grid.constant([1.0, 0.5, -0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = pl.lift(o, pl.line_to_target(o, u0, [0.3, -0.4, 0.9]), u0)
    assert rep.status == pl.REACHED
    assert all(st.spectrum.degenerate for st in rep.trace)


def test_a_lift_takes_one_jacobian_per_point(monkeypatch):
    # every point the lift reaches, a Cash-Karp stage in ple_rhs or a
    # step's end, a corrected state or the anchor, takes its spectrum
    # with spectrum_at, which asks for J once; nothing else asks for it
    calls = {"jacobian": 0, "spectrum_at": 0, "ple_rhs": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(pl.FoldMap, "jacobian")
    counted(solver, "spectrum_at")
    counted(solver, "ple_rhs")
    o = pl.FoldMap()
    u0 = np.array([0.4, 0.1])
    rep = pl.lift(o, pl.line_to_target(o, u0, [0.05, 0.3]), u0)
    assert rep.status == pl.REACHED and len(rep.trace) == 7
    assert calls == {"jacobian": 66, "spectrum_at": 66, "ple_rhs": 55}


def _fold_lift():
    o = pl.FoldMap()
    u0 = np.array([0.1, 0.0])
    return o, pl.line_to_target(o, u0, [0.2025, 0.3]), u0


def _brockett10_lift():
    o = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 10)
    u0 = o.grid.constant([1.0, 1.0])
    return o, pl.line_to_target(o, u0, [0.5, -0.3, 0.2]), u0


def test_step_in_s_reuses_the_state_velocity_as_its_first_stage(
        monkeypatch):
    # an attempt in s evaluates 5 of its 6 stages, and a retry 5 more;
    # an endgame attempt, in tau, evaluates all 6
    calls = []
    real_rhs, real_step = solver.ple_rhs, solver._ck_step

    def rhs(*args):
        calls.append(1)
        return real_rhs(*args)

    def step(fun, t, u, h, first=None):
        start = len(calls)
        result = real_step(fun, t, u, h, first)
        mode = "s" if fun.__self__.sigma0 is None else "tau"
        attempts.append((mode, t, len(calls) - start))
        return result

    monkeypatch.setattr(solver, "ple_rhs", rhs)
    monkeypatch.setattr(solver, "_ck_step", step)
    attempts = []
    pl.lift(*_fold_lift())
    assert {(mode, count) for mode, _, count in attempts} == {("s", 5)}
    starts = [t for _, t, _ in attempts]
    assert len(set(starts)) < len(starts)       # a rejected step retried
    attempts = []
    pl.lift(pl.SphereMap(3), pl.LinePath([1.0], [0.0]), [0.8, -0.36, 0.48])
    assert {(mode, count) for mode, _, count in attempts} == {("tau", 6)}


def _trace_bits(report):
    return [(np.array([st.s, st.diag.h, st.diag.f, st.diag.g,
                       st.diag.dlambda1_ds, st.residual, st.step_size,
                       st.udot_norm]).tobytes(), st.u.tobytes(),
             st.spectrum.lambdas.tobytes(), st.spectrum.vectors.tobytes(),
             st.diag.a.tobytes(), st.flags)
            for st in report.trace]


def _lift_bits(problem):
    report = pl.lift(*problem())
    return _trace_bits(report), report.g_integral


def test_first_stage_from_the_state_moves_no_bit(monkeypatch):
    # the state's velocity and |g| are the first stage's, bit for bit
    problems = (_fold_lift, _brockett10_lift)
    before = [_lift_bits(problem) for problem in problems]
    real_step = solver._ck_step
    monkeypatch.setattr(solver, "_ck_step", lambda fun, t, u, h, first=None:
                        real_step(fun, t, u, h))
    after = [_lift_bits(problem) for problem in problems]
    assert min(len(bits) for bits, _ in before) > 10
    assert after == before


def _ck_step_loop_form(fun, s, u, h, first=None):
    """``_ck_step`` with each stage point summed term by term and the
    velocities stacked after the loop, which the stage buffer must equal
    bit for bit."""
    stages = [] if first is None else [first]
    for i in range(len(stages), 6):
        ui = u
        for aij, (kj, _) in zip(solver._CK_A[i], stages):
            ui = ui + (h * aij) * kj
        if not np.isfinite(ui).all():
            return ui, ui, np.nan
        stages.append(fun(s + solver._CK_C[i] * h, ui))
    ks, gs = zip(*stages)
    kmat = np.stack(ks, axis=0)
    u5 = u + h * (solver._CK_B5 @ kmat)
    err = h * (solver._CK_ERR @ kmat)
    return u5, err, h * float(solver._CK_B5 @ gs)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ck_step_equals_the_loop_form_reference(data):
    # the stage points from the row buffer are the loop's left-to-right
    # sums, bit for bit; a stage point that is not finite is returned at
    # once, with no call to fun for it
    n = data.draw(st.integers(1, 6), label="N")
    entries = st.floats(-3.0, 3.0, allow_nan=False)
    mat = data.draw(arrays(float, (n, n), elements=entries), label="A")
    c = data.draw(arrays(float, n, elements=entries), label="c")
    u = data.draw(arrays(float, n, elements=entries), label="u")
    kind = data.draw(st.sampled_from(["linear", "quadratic", "blowup"]))
    blowup = data.draw(st.integers(0, 5)) if kind == "blowup" else None
    s = data.draw(st.floats(0.0, 1.0))
    h = data.draw(st.floats(1e-9, 2.0))

    def fun(t, uu, calls):
        calls.append(t)
        k = mat @ uu + t * c
        if kind == "quadratic":
            k = k + uu * uu
        if len(calls) - 1 == blowup:
            k = k + np.inf
        return k, abs(float(c @ uu))

    calls, ref_calls = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        first = fun(s, u, []) if data.draw(st.booleans()) else None
        got = solver._ck_step(lambda t, uu: fun(t, uu, calls), s, u, h,
                              first)
        ref = _ck_step_loop_form(lambda t, uu: fun(t, uu, ref_calls), s, u,
                                 h, first)
    event(kind if np.isfinite(ref[2]) else "non-finite stage point")

    def bits(step):
        u5, err, dq = step
        return u5.tobytes(), err.tobytes(), np.float64(dq).tobytes()

    assert calls == ref_calls
    assert bits(got) == bits(ref)


def test_correction_starts_from_the_spectrum_at_u5(monkeypatch):
    # the correction's first update solves through the spectrum the step
    # loop took at u5, which it would otherwise take again: one
    # decomposition fewer per state whose u5 needed correcting, and not
    # one bit of the trace moves, as the update ignores eigenvector signs
    real_decompose, real_correct = (spectrum.spectral_decompose,
                                    solver.gauss_newton_correct)
    decompositions, corrected = [], []

    def decompose(grammat, prev=None):
        decompositions.append(1)
        return real_decompose(grammat, prev=prev)

    def run(problem, reuse):
        def correct(oracle, u, target, tol, spec=None):
            corrected.append(np.linalg.norm(target - oracle.eval(u)) > tol)
            return real_correct(oracle, u, target, tol,
                                spec if reuse else None)

        monkeypatch.setattr(solver, "gauss_newton_correct", correct)
        del decompositions[:], corrected[:]
        return _lift_bits(problem), len(decompositions), sum(corrected)

    monkeypatch.setattr(spectrum, "spectral_decompose", decompose)
    for problem in (_fold_lift, _brockett10_lift):
        bits, fewer, count = run(problem, True)
        assert run(problem, False) == (bits, fewer + count, count)
        assert count > 0


def test_lambda_1_at_the_singular_threshold_is_regular():
    # G = diag(1e-10, 1): lambda_1 equals lambda_sing exactly, which the
    # anchor check, the step loop and the right-hand side all call regular
    o = pl.LinearMap(np.diag([1e-10, 1.0]), weights=[1e-10, 1.0])
    u0 = np.zeros(2)
    spec = pl.spectral_decompose(pl.gramian(o, u0))
    assert spec.lambdas[0] == spec.lambda_sing and not spec.singular
    pl.ple_rhs(o, u0, np.array([1e-10, 1.0]))
    rep = pl.lift(o, pl.line_to_target(o, u0, [1e-10, 1.0]), u0)
    assert rep.status == pl.REACHED
    assert len(rep.trace) == 2


def test_gauss_newton_correct_converges():
    rng = np.random.default_rng(8)
    o = pl.FoldMap()
    target = np.array([0.25, 0.3])
    u = np.array([0.52, 0.28])  # near the fiber point (0.5, 0.3)
    u_new, res, ok = pl.gauss_newton_correct(o, u, target, 1e-12)
    assert ok and res <= 1e-12
    np.testing.assert_allclose(o.eval(u_new), target, atol=1e-11)


def test_report_fields_consistent():
    o, path, u0 = _sphere_problem()
    rep = pl.lift(o, path, u0)
    assert rep.final_state is rep.trace[-1]
    assert rep.max_gamma_dot == pytest.approx(1.0)
    assert rep.u_norm_variation == pytest.approx(1.0, abs=1e-3)
    assert np.isinf(rep.lambda0_measured)  # scalar-valued map
    assert rep.trace[0].flags == "start"


def test_fd_along_lift_matches_formula():
    o = pl.FoldMap()
    u0 = np.array([0.15, 0.0])
    path = pl.line_to_target(o, u0, [0.13, 0.25])
    rep = pl.lift(o, path, u0)
    for st in rep.trace:
        if 0.05 < st.s < 0.95:
            fd = lambda1_fd_along_lift(o, path, st, delta=1e-4)
            assert st.diag.dlambda1_ds == pytest.approx(fd, abs=1e-6)
