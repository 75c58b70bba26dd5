"""Map oracles, weighted geometry, and target paths."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pathlift as pl
from pathlift import cli
from pathlift.errors import BadAnchor, ConfigurationError
from pathlift.solver import gauss_newton_correct, ple_rhs

from map_fd import central_jacobian, central_second


def test_weighted_inner_and_norm():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 2.0, 5)
    o = pl.SphereMap(5, weights=w)
    a, b = rng.standard_normal((2, 5))
    assert o.inner(a, b) == pytest.approx(np.sum(w * a * b))
    assert o.norm(a) == pytest.approx(np.sqrt(np.sum(w * a * a)))


def test_adjoint_is_weighted_transpose():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((3, 7))
    w = rng.uniform(0.2, 3.0, 7)
    o = pl.LinearMap(mat, weights=w)
    u = rng.standard_normal(7)
    for _ in range(20):
        v = rng.standard_normal(7)
        z = rng.standard_normal(3)
        lhs = float(np.dot(o.jacobian(u) @ v, z))
        # the switching function dF|_u^* z that every caller forms
        rhs = o.inner(v, (o.jacobian(u).T @ z) / o.weights)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sphere_closed_forms():
    rng = np.random.default_rng(3)
    o = pl.SphereMap(4)
    u = rng.standard_normal(4)
    assert o.eval(u)[0] == pytest.approx(np.dot(u, u))
    np.testing.assert_allclose(o.jacobian(u), (2 * u)[None, :])
    v, w = rng.standard_normal((2, 4))
    z = rng.standard_normal(1)
    assert o.bilinear_second(u, z, v, w) == pytest.approx(
        2 * z[0] * np.dot(v, w))


def test_fold_closed_forms():
    o = pl.FoldMap()
    u = np.array([0.3, -1.2])
    np.testing.assert_allclose(o.eval(u), [0.09, -1.2])
    np.testing.assert_allclose(o.jacobian(u), [[0.6, 0.0], [0.0, 1.0]])
    assert o.bilinear_second(u, [1.0, 5.0], [2.0, 7.0], [3.0, -1.0]) \
        == pytest.approx(12.0)


def test_linear_second_is_zero():
    rng = np.random.default_rng(4)
    o = pl.LinearMap(rng.standard_normal((3, 5)))
    u, v, w = rng.standard_normal((3, 5))
    z = rng.standard_normal(3)
    assert o.bilinear_second(u, z, v, w) == 0.0


def test_linear_map_does_not_alias_its_matrix():
    mat = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
    o = pl.LinearMap(mat)
    u = np.array([1.0, -1.0, 0.5])
    y = o.eval(u)
    with pytest.raises(ValueError):
        o.jacobian(u)[0, 0] = 9.0
    mat[0, 0] = 9.0   # the caller's array is not the oracle's
    np.testing.assert_array_equal(o.eval(u), y)
    np.testing.assert_array_equal(o.jacobian(u),
                                  [[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])


def test_map_oracle_does_not_alias_its_weights():
    w = np.array([1.0, 2.0])
    o = pl.SphereMap(2, weights=w)
    w[1] = 5.0   # the caller's array is not the oracle's
    assert o.eval([1, 1]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        o.weights[0] = 9


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
def test_map_oracle_rejects_non_positive_or_non_finite_weights(bad):
    with pytest.raises(ConfigurationError,
                       match="weights must be strictly positive and finite"):
        pl.SphereMap(2, weights=[1.0, bad])


def _refined(refine):
    ep = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 2)
    return ep.endpoint_refined(np.zeros(ep.dim_domain), refine=refine)


# (field named in the error, build from one count); each count is
# checked where its value is held
_COUNTS = {
    "sphere-dim": ("dim_domain", lambda k: pl.SphereMap(k)),
    "codomain": ("dim_codomain", lambda k: pl.MapOracle(3, k)),
    "grid-segments": ("segments", lambda k: pl.ControlGrid(1.0, k, 2)),
    "problem-segments": ("segments", lambda k: pl.endpoint_problem(
        "brockett", [0.0, 0.0, 0.0], 1.0, k)),
    "control-dim": ("control_dim", lambda k: pl.ControlGrid(1.0, 2, k)),
    "integrator-dim": ("dim", lambda k: pl.single_integrator(k)),
    "per-radius": ("per_radius",
                   lambda k: pl.SamplingPlan((1.0,), per_radius=k)),
    "z-samples": ("z_samples",
                  lambda k: pl.SamplingPlan((1.0,), z_samples=k)),
    "seed": ("seed", lambda k: pl.SamplingPlan((1.0,), seed=k)),
    "max-steps": ("solver.max_steps",
                  lambda k: pl.SolverOptions(max_steps=k)),
    "refine": ("refine", _refined),
    "substeps": ("substeps", lambda k: pl.integrate(
        pl.brockett(), [0.0, 0.0, 0.0], np.zeros((2, 2)), 1.0, k)),
}


@pytest.mark.parametrize("name", sorted(_COUNTS))
def test_counts_must_be_integers(name):
    """A count is an int or a numpy integer; a float (even a whole one),
    a bool, a string or None is a ConfigurationError naming the field."""
    field, build = _COUNTS[name]
    for good in (2, np.int64(2), np.int32(2)):
        build(good)
    for bad in (2.0, 2.5, np.float64(2.0), True, "2", None):
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be an integer, got "):
            build(bad)


@pytest.mark.parametrize("control_dim", [0, -2])
def test_control_grid_needs_a_control(control_dim):
    """``control_dim`` is checked as ``segments`` is: an integer, and at
    least one, before any property such as ``weights`` reads it."""
    with pytest.raises(ConfigurationError,
                       match="^control_dim must be >= 1$"):
        pl.ControlGrid(1.0, 6, control_dim)


@pytest.mark.parametrize("dim", [0, -1])
def test_single_integrator_needs_a_state(dim):
    """The single integrator's ``dim`` is checked where it is held: at
    least one, named as ``dim``, before any array is shaped by it."""
    with pytest.raises(ConfigurationError, match="^dim must be >= 1$"):
        pl.single_integrator(dim)


def test_fd_second_matches_analytic():
    rng = np.random.default_rng(5)
    o = pl.SphereMap(3)
    u, v, w = rng.standard_normal((3, 3))
    z = rng.standard_normal(1)
    exact = o.bilinear_second(u, z, v, w)
    fd = float(z @ central_second(o, u, v) @ w)
    assert fd == pytest.approx(exact, abs=1e-8)


def _weighted_map(kind, data):
    """A sphere, fold or linear map with non-unit weights."""
    dim = {"fold": 2}.get(kind, data.draw(st.integers(2, 5)))
    weights = np.array(data.draw(st.lists(
        st.floats(0.2, 5.0), min_size=dim, max_size=dim)))
    if kind == "sphere":
        return pl.SphereMap(dim, weights=weights)
    if kind == "fold":
        return pl.FoldMap(weights=weights)
    rows = data.draw(st.integers(1, dim))
    mat = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    return pl.LinearMap(mat.standard_normal((rows, dim)), weights=weights)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["sphere", "fold", "linear"]), data=st.data())
def test_closed_form_jacobian_derivative_matches_fd(kind, data):
    o = _weighted_map(kind, data)
    vec = st.lists(st.floats(-2.0, 2.0), min_size=o.dim_domain,
                   max_size=o.dim_domain)
    u = np.array(data.draw(vec))
    v = np.array(data.draw(vec))
    exact = o.jacobian_derivative(u, v)
    fd = central_second(o, u, v)
    assert exact.shape == (o.dim_codomain, o.dim_domain)
    scale = 1.0 + float(np.max(np.abs(o.jacobian(u))))
    np.testing.assert_allclose(fd, exact, rtol=1e-9, atol=1e-9 * scale)


def test_second_operator_is_exact_on_quadratic_maps():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = rng.uniform(0.2, 5.0, 3)
        sphere = pl.SphereMap(3, weights=w)
        u, v = rng.uniform(-2.0, 2.0, (2, 3))
        z = rng.standard_normal(1)
        np.testing.assert_allclose(sphere.second_operator(u, z, v),
                                   2.0 * z[0] * v, rtol=1e-14, atol=0.0)
        fold = pl.FoldMap(weights=w[:2])
        u, v = rng.uniform(-2.0, 2.0, (2, 2))
        z = rng.standard_normal(2)
        np.testing.assert_allclose(fold.second_operator(u, z, v),
                                   [2.0 * z[0] * v[0] / w[0], 0.0],
                                   rtol=1e-14, atol=0.0)


def test_bilinear_second_many_matches_single():
    rng = np.random.default_rng(6)
    o = pl.FoldMap()
    u, v = rng.standard_normal((2, 2))
    z = rng.standard_normal(2)
    ws = [rng.standard_normal(2) for _ in range(4)]
    many = o.bilinear_second_many(u, z, v, ws)
    for got, w in zip(many, ws):
        assert got == pytest.approx(o.bilinear_second(u, z, v, w))


def test_second_operator_represents_bilinear():
    rng = np.random.default_rng(7)
    w = rng.uniform(0.5, 2.0, 3)
    o = pl.SphereMap(3, weights=w)
    u, v = rng.standard_normal((2, 3))
    z = rng.standard_normal(1)
    bv = o.second_operator(u, z, v)
    for _ in range(5):
        probe = rng.standard_normal(3)
        assert o.inner(bv, probe) == pytest.approx(
            o.bilinear_second(u, z, v, probe), abs=1e-7)


def test_central_jacobian_matches_analytic():
    rng = np.random.default_rng(8)
    for o in (pl.SphereMap(3), pl.FoldMap(),
              pl.LinearMap(rng.standard_normal((2, 4)))):
        u = rng.standard_normal(o.dim_domain)
        np.testing.assert_allclose(central_jacobian(o, u), o.jacobian(u),
                                   atol=1e-7)


def test_dimension_validation():
    o = pl.SphereMap(3)
    with pytest.raises(ConfigurationError):
        o.eval(np.zeros(4))
    # a switching-function sample takes u in R^3 and z in the R^1 of F
    for u, z in [(np.zeros(3), np.zeros(2)), (np.zeros(4), np.zeros(1))]:
        with pytest.raises(ConfigurationError):
            pl.coercivity_ratio(o, u, z)
        with pytest.raises(ConfigurationError):
            pl.xi_margin(o, u, z, pl.PowerLawXi(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        pl.SphereMap(3, weights=np.zeros(3))
    with pytest.raises(ConfigurationError):
        pl.LinearMap(np.ones((5, 3)))  # codomain larger than domain
    # a target vector the fold's R^2 does not hold, named by its role
    fold, u = pl.FoldMap(), np.array([0.5, 0.1])
    spec = pl.spectrum_at(fold, u)
    for name, got, call in [
        ("gamma_dot", "(3,)", lambda: pl.ple_rhs(fold, u, np.ones(3))),
        ("gamma_dot", "(2, 1)", lambda: pl.ple_rhs(fold, u, np.ones((2, 1)))),
        ("gamma_dot", "(3,)",
         lambda: pl.diagnostics(fold, u, spec, np.ones(3))),
        ("target", "(3,)",
         lambda: pl.gauss_newton_correct(fold, u, np.ones(3), 1e-10)),
    ]:
        with pytest.raises(ConfigurationError,
                           match=rf"^{name} must have length 2, got "
                                 rf"{re.escape(got)}$"):
            call()


@pytest.mark.parametrize("bad", ["u", "v"])
@pytest.mark.parametrize("oracle", [pl.LinearMap(np.eye(2, 3)),
                                    pl.SphereMap(3), pl.FoldMap()],
                         ids=["linear", "sphere", "fold"])
def test_jacobian_derivative_checks_u_and_v(oracle, bad):
    """A u or v of the wrong length is the ConfigurationError of eval and
    jacobian, not a dJ broadcast from it or numpy's broadcast error."""
    dim = oracle.dim_domain
    for length in (1, dim + 1, 5):
        args = {"u": np.full(dim, 0.5), "v": np.full(dim, 0.5)}
        args[bad] = np.ones(length)
        with pytest.raises(ConfigurationError,
                           match=rf"^{bad} must have length {dim}, got "
                                 rf"\({length},\)$"):
            oracle.jacobian_derivative(**args)


def test_make_map_registry():
    """The problem registry builds each analytic map by name."""
    name_key = cli._PROBLEMS["builtin-map"][0]
    builders = cli._builders("builtin-map")
    assert builders is pl.maps.MAP_BUILDERS
    assert (name_key, sorted(builders)) == ("map", ["fold", "linear",
                                                    "sphere"])
    o, _ = cli.build_problem(cli.parse_config(
        "[problem]\nkind = builtin-map\nmap = sphere\ndim = 2\n"))
    assert isinstance(o, pl.SphereMap) and o.dim_domain == 2
    with pytest.raises(ConfigurationError, match="unknown builtin map"):
        cli.build_problem(cli.parse_config(
            "[problem]\nkind = builtin-map\nmap = nope\n"))


# -- target paths ----------------------------------------------------------


def test_line_path():
    p = pl.LinePath([1.0, 0.0], [0.0, 2.0])
    np.testing.assert_allclose(p.gamma(0.5), [0.5, 1.0])
    np.testing.assert_allclose(p.gamma_dot(0.3), [-1.0, 2.0])
    assert p.legs == ((0.0, 1.0, p),)
    assert p.max_speed() == pytest.approx(np.sqrt(5.0))


def test_polyline_path_knots_and_slopes():
    p = pl.PolylinePath([[0.0], [1.0], [3.0]])
    assert [(a, b) for a, b, _ in p.legs] == [(0.0, 0.5), (0.5, 1.0)]
    # each leg keeps its own slope up to and including its end, and hits
    # the waypoints exactly at its ends
    first, second = (leg for _, _, leg in p.legs)
    np.testing.assert_array_equal(first.gamma_dot(0.5), [2.0])
    np.testing.assert_array_equal(second.gamma_dot(0.5), [4.0])
    assert first.gamma(0.5) == second.gamma(0.5) == [1.0]
    assert first.gamma(0.0) == [0.0] and second.gamma(1.0) == [3.0]
    np.testing.assert_allclose(p.gamma(0.25), [0.5])
    np.testing.assert_allclose(p.gamma(0.75), [2.0])
    # right-continuous slope at the knot
    np.testing.assert_allclose(p.gamma_dot(0.5), [4.0])
    np.testing.assert_allclose(p.gamma_dot(0.49), [2.0])
    np.testing.assert_allclose(p.gamma(1.0), [3.0])


def test_polyline_legs_hit_their_waypoints_exactly():
    # a leg's own ends are exact, so the lift, which steps leg by leg,
    # meets every waypoint on its knot; the path's own lookup takes the
    # leg that starts at a knot, so it is exact there too
    rng = np.random.default_rng(11)
    for n in range(1, 200):
        p = pl.PolylinePath(rng.standard_normal((n + 1, 2)))
        assert [(a, b) for a, b, _ in p.legs] == [
            (k / n, (k + 1) / n) for k in range(n)]
        assert np.array_equal([leg.gamma(a) for a, _, leg in p.legs],
                              p.points[:-1])
        assert np.array_equal([leg.gamma(b) for _, b, leg in p.legs],
                              p.points[1:])
        assert np.array_equal([leg.gamma_dot(b) for _, b, leg in p.legs],
                              p.slopes)
        assert np.array_equal([p.gamma(a) for a, _, _ in p.legs],
                              p.points[:-1])
        assert np.array_equal([p.gamma_dot(a) for a, _, _ in p.legs],
                              p.slopes)


def test_polyline_path_just_below_zero_takes_the_first_segment():
    # s a rounding below 0 is on the first segment, not the last one
    # wrapped around
    p = pl.PolylinePath([[0.25, 0.0], [0.0, 0.3], [0.25, 0.6]])
    np.testing.assert_allclose(p.gamma_dot(-1e-16), [-0.5, 0.6])
    np.testing.assert_allclose(p.gamma(-1e-16), [0.25, 0.0], atol=1e-15)


def test_polyline_max_speed_sees_every_segment():
    # at 400 segments the 201-point grid of the sampled maximum hits only
    # a few odd segments; the fastest one, 201, is not among them
    steps = np.ones(400)
    steps[201] = 3.0
    points = np.column_stack([np.concatenate([[0.0], np.cumsum(steps)]),
                              np.zeros(401)])
    p = pl.PolylinePath(points)
    assert pl.TargetPath.max_speed(p) == 400.0
    assert p.max_speed() == 1200.0


@pytest.mark.parametrize("segments", [1, 2, 7, 50, 200])
def test_exact_max_speed_equals_the_sampled_one_up_to_200_segments(segments):
    """Up to 200 segments the grid hits every segment, and the exact
    maximum takes the same norm of the same slopes, so report.txt keeps
    its digits."""
    rng = np.random.default_rng(segments)
    paths = [pl.PolylinePath(rng.standard_normal((segments + 1, 3))),
             pl.LinePath(*rng.standard_normal((2, 3)))]
    for p in paths:
        assert p.max_speed() == pl.TargetPath.max_speed(p)


def test_line_to_target_starts_at_image():
    o = pl.SphereMap(2)
    u0 = np.array([1.0, 1.0])
    p = pl.line_to_target(o, u0, [0.5])
    np.testing.assert_allclose(p.gamma(0.0), o.eval(u0))
    np.testing.assert_allclose(p.gamma(1.0), [0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_paths_reject_non_finite_points(bad):
    with pytest.raises(ConfigurationError, match="line start must be finite"):
        pl.LinePath([bad, 0.0], [0.0, 1.0])
    with pytest.raises(ConfigurationError, match="line end must be finite"):
        pl.LinePath([0.0, 0.0], [0.0, bad])
    with pytest.raises(ConfigurationError, match="line end must be finite"):
        pl.line_to_target(pl.FoldMap(), [0.1, 0.0], [bad, 0.5])
    with pytest.raises(ConfigurationError,
                       match="polyline waypoints must be finite"):
        pl.PolylinePath([[0.0, 0.0], [bad, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("error, what, build", [
    (ConfigurationError, "x0",
     lambda: pl.endpoint_problem("brockett", "abc", 1.0, 2)),
    (ConfigurationError, "x0",
     lambda: pl.endpoint_problem("brockett", [[0.0], [0.0, 0.0]], 1.0, 2)),
    (ConfigurationError, "lti matrix A", lambda: pl.lti("x", [[1.0]])),
    (ConfigurationError, "linear map matrix", lambda: pl.LinearMap("abc")),
    (ConfigurationError, "line start", lambda: pl.LinePath("a", "b")),
    (ConfigurationError, "polyline waypoints",
     lambda: pl.PolylinePath([[0.0, 0.0], [1.0]])),
    (ConfigurationError, "x0",
     lambda: pl.integrate(pl.brockett(), "abc", np.zeros((2, 2)), 1.0)),
    (BadAnchor, "anchor u0",
     lambda: pl.lift(pl.FoldMap(), pl.LinePath([0.0, 0.0], [0.1, 0.1]),
                     "ab")),
], ids=["x0-string", "x0-ragged", "lti-string", "linear-map-string",
        "line-string", "polyline-ragged", "integrate-x0-string",
        "anchor-string"])
def test_non_numeric_values_raise_the_callers_error(error, what, build):
    """Not numpy's bare ValueError from the float conversion."""
    with pytest.raises(error, match=f"^{what} must be finite numbers, got"):
        build()


def _brockett2():
    return pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 2)


@pytest.mark.parametrize("name, call", [
    ("u", lambda: pl.FoldMap().eval("ab")),
    ("v", lambda: pl.FoldMap().jacobian_derivative([0.5, 1.0], "ab")),
    ("us", lambda: pl.FoldMap().eval_many([["a", "b"]])),
    ("u", lambda: _brockett2().eval(["x"] * 4)),
    ("u", lambda: _brockett2().eval(object())),
    ("vs", lambda: _brockett2().jacobian_derivative_many(
        np.ones((1, 4)), [["a", "b", "c", "d"]])),
    ("z", lambda: pl.FoldMap().bilinear_second([1.0, 0.0], "ab",
                                               [1.0, 0.0], [1.0, 0.0])),
    ("gamma_dot", lambda: ple_rhs(_brockett2(), np.ones(4), "ab")),
    ("target", lambda: gauss_newton_correct(_brockett2(), np.ones(4), "ab",
                                            1e-10)),
    ("u", lambda: gauss_newton_correct(_brockett2(), "abcd", np.zeros(3),
                                       1e-10)),
], ids=["fold-eval", "fold-jacobian-derivative", "fold-eval-many",
        "endpoint-eval", "endpoint-eval-object",
        "endpoint-jacobian-derivative-many", "bilinear-second", "ple-rhs",
        "gauss-newton-target", "gauss-newton-u"])
def test_non_numeric_oracle_input_is_a_configuration_error(name, call):
    """Each of the oracle's gates converts its input and names the
    argument, not numpy's bare ValueError or TypeError; non-finite
    numbers pass the gates (an endpoint eval of inf is TrajectoryBlowup)."""
    with pytest.raises(ConfigurationError,
                       match=f"^{name} must be real numbers: "):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: pl.MapOracle(3, 0), "codomain dimension must be >= 1"),
    (lambda: pl.SphereMap(3, weights=[1.0, 2.0]),
     "weights must have length 3, got (2,)"),
    (lambda: pl.LinearMap([1.0, 2.0, 3.0]), "linear map needs a 2-d matrix"),
    (lambda: pl.LinePath([0.0, 0.0], [1.0]),
     "line endpoints must be 1-d and match"),
    (lambda: pl.PolylinePath([[0.0, 0.0]]), "polyline needs >= 2 waypoints"),
    (lambda: pl.line_to_target(pl.FoldMap(), [0.1, 0.0], [1.0, 2.0, 3.0]),
     "target must have length 2, got (3,)"),
], ids=["no-codomain", "weights-length", "linear-1d", "line-endpoints",
        "one-waypoint", "target-length"])
def test_map_and_path_input_rules(call, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_linear_map_rejects_non_finite_matrix(bad):
    with pytest.raises(ConfigurationError,
                       match="linear map matrix must be finite"):
        pl.LinearMap([[1.0, bad, 0.0]])


def test_public_names_resolve():
    assert set(pl.__all__) <= set(dir(pl))
    for name in pl.__all__:
        assert hasattr(pl, name), name
    for module in ("cli", "endpoint", "errors", "hypotheses", "maps",
                   "oracle_checks", "paths", "solver", "spectrum"):
        assert getattr(pl, module) is sys.modules[f"pathlift.{module}"]
    for gone in ("AnalyticPath", "GapReport", "SimplicityLoss", "gap_check",
                 "gramian_derivative_action", "z1_derivative",
                 "fd_along_lift", "lambda1_fd_along_lift", "coefficients",
                 "make_map", "MAP_NAMES", "SYSTEM_NAMES"):
        assert gone not in pl.__all__ and not hasattr(pl, gone), gone


# -- oracle identity suite -------------------------------------------------


def test_validate_oracle_passes_builtin_maps():
    rng = np.random.default_rng(9)
    for o in (pl.SphereMap(3), pl.FoldMap(),
              pl.LinearMap(rng.standard_normal((3, 6)))):
        results = pl.validate_oracle(o, seed=0)
        assert all(r.passed for r in results), \
            [r.line() for r in results if not r.passed]


def test_check_result_line_format():
    r = pl.CheckResult("thing", True, 1e-12, 1e-10)
    assert r.line().startswith("pass")
    r = pl.CheckResult("thing", False, 1.0, 1e-10)
    assert r.line().startswith("FAIL")


def test_vacuous_identity_checks_and_tolerance_flag_are_gone():
    for gone in ("check_adjoint_identity", "check_jacobian_linearity",
                 "check_second_symmetry", "_draws"):
        assert not hasattr(pl.oracle_checks, gone), gone
    for cls in (pl.MapOracle, pl.LinearMap, pl.SphereMap, pl.FoldMap):
        assert not hasattr(cls, "has_analytic_second"), cls


def _rows(oracle, seed=0):
    return {r.name: r for r in pl.validate_oracle(oracle, seed=seed)}


TAYLOR_J = "jacobian Taylor order deficit"
TAYLOR_DJ = "second-differential Taylor order deficit"
SYMMETRY = "second-differential symmetry"


def test_polynomial_maps_leave_only_roundoff_in_their_exact_rows():
    """F(u + t v) is a polynomial of degree p in t, so the Taylor
    remainder of order p is roundoff and its row reads 0."""
    rng = np.random.default_rng(3)
    linear = _rows(pl.LinearMap(rng.standard_normal((2, 5))))
    assert linear[TAYLOR_J].worst == 0.0
    assert linear[TAYLOR_DJ].worst == 0.0
    assert linear[SYMMETRY].worst == 0.0        # every bound is 0: skipped
    for o in (pl.SphereMap(4), pl.FoldMap()):
        rows = _rows(o)
        assert rows[TAYLOR_DJ].worst == 0.0
        assert rows[TAYLOR_J].worst < 1e-6      # observed order 2


def test_sign_flipped_second_differential_fails_the_taylor_row():
    """A flipped closed-form dJ stays symmetric, so only the Taylor row
    sees it: the remainder keeps order 2 where 3 is due."""

    class FlippedFold(pl.FoldMap):
        def jacobian_derivative(self, u, v):
            return -super().jacobian_derivative(u, v)

    rows = _rows(FlippedFold())
    assert not rows[TAYLOR_DJ].passed
    assert rows[TAYLOR_DJ].worst == pytest.approx(1.0, abs=1e-6)
    assert rows[SYMMETRY].passed
    assert rows[TAYLOR_J].passed


class _Scaled(pl.MapOracle):
    """c F for a map oracle F, with every derivative scaled alike."""

    def __init__(self, base, c):
        super().__init__(base.dim_domain, base.dim_codomain, base.weights)
        self.base = base
        self.c = c

    def eval(self, u):
        return self.c * self.base.eval(u)

    def jacobian(self, u):
        return self.c * self.base.jacobian(u)

    def jacobian_derivative(self, u, v):
        return self.c * self.base.jacobian_derivative(u, v)


class _DoubledJacobian(pl.LinearMap):
    """A wrong oracle: F(u) = A u with Jacobian 2 A."""

    def jacobian(self, u):
        return 2.0 * super().jacobian(u)


def test_doubled_jacobian_fails_at_small_scale():
    """The Taylor row is relative to the remainders' own scale: at F
    scaled by 1e-6 a Jacobian off by a factor 2 leaves a remainder of
    order 1 where 2 is due, as it does at scale 1."""
    mat = np.random.default_rng(4).standard_normal((2, 4))
    for c in (1.0, 1e-6):
        rows = _rows(_Scaled(_DoubledJacobian(mat), c))
        assert rows[TAYLOR_J].worst == pytest.approx(1.0, abs=1e-6)
        assert not rows[TAYLOR_J].passed


_PERTURBED_BASES = {
    "linear": lambda: pl.LinearMap([[1.0, 2.0, 0.0, 1.0],
                                    [0.0, 1.0, 3.0, -1.0]]),
    "sphere": lambda: pl.SphereMap(3),
    "fold": lambda: pl.FoldMap(),
    "brockett": lambda: pl.endpoint_problem("brockett", [0.0, 0.0, 0.0],
                                            1.0, 6),
    "unicycle": lambda: pl.endpoint_problem("unicycle", [0.0, 0.0, 0.0],
                                            1.0, 6),
    "lti": lambda: pl.endpoint_problem(
        "lti", [1.0, -0.5], 1.0, 6,
        system_params={"A": [[0.0, 1.0], [-2.0, -0.3]], "B": [[0.0], [1.0]]}),
}


class _PerturbedJacobian(pl.MapOracle):
    """A wrong oracle: F with J replaced by J + e |J| E / |E| (Frobenius
    norms), E a fixed Gaussian matrix or its first or last column alone;
    F and dJ are the base oracle's own."""

    def __init__(self, base, e, pattern):
        super().__init__(base.dim_domain, base.dim_codomain, base.weights)
        self.base = base
        big_e = np.random.default_rng(5).standard_normal(
            (base.dim_codomain, base.dim_domain))
        if pattern != "dense":
            keep = {"first": 0, "last": -1}[pattern]
            big_e[:, np.arange(base.dim_domain) != keep % base.dim_domain] = 0
        self.delta = e * big_e / np.linalg.norm(big_e)

    def eval(self, u):
        return self.base.eval(u)

    def eval_many(self, us):
        return self.base.eval_many(us)

    def jacobian(self, u):
        jac = self.base.jacobian(u)
        return jac + np.linalg.norm(jac) * self.delta

    def jacobian_derivative_many(self, us, vs):
        return self.base.jacobian_derivative_many(us, vs)


@pytest.mark.parametrize("e", [0.0, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("pattern", ["dense", "first", "last"])
@pytest.mark.parametrize("name", sorted(_PERTURBED_BASES))
def test_every_jacobian_perturbation_fails_a_remaining_row(name, pattern, e):
    """A Jacobian off by a relative 1e-2 down to 1e-6, over all of J or
    one column, fails at least one of the Taylor and symmetry rows at
    every seed; the exact J (e = 0) passes them all."""
    oracle = _PerturbedJacobian(_PERTURBED_BASES[name](), e, pattern)
    for seed in range(3):
        rows = pl.validate_oracle(oracle, seed=seed)
        assert all(r.passed for r in rows) == (e == 0.0), \
            [r.line() for r in rows]


class _AntisymmetricCurvature(pl.MapOracle):
    """A wrong oracle: dJ(v) with row i replaced by dJ(v)_i + e s (S_i v)^T,
    each S_i a fixed antisymmetric matrix (the stack of them of unit
    Frobenius norm) and s the operand scale |dJ(v)| / |v|, or |J| where
    dJ(v) = 0.  (S_i v)^T v = 0, so the Taylor remainders cannot see the
    change; only the symmetry row can."""

    def __init__(self, base, e):
        super().__init__(base.dim_domain, base.dim_codomain, base.weights)
        self.base = base
        big_s = np.random.default_rng(5).standard_normal(
            (base.dim_codomain, base.dim_domain, base.dim_domain))
        big_s -= big_s.swapaxes(1, 2)
        self.delta = e * big_s / np.linalg.norm(big_s)

    def eval(self, u):
        return self.base.eval(u)

    def eval_many(self, us):
        return self.base.eval_many(us)

    def jacobian(self, u):
        return self.base.jacobian(u)

    def jacobian_derivative_many(self, us, vs):
        out = self.base.jacobian_derivative_many(us, vs)
        for dj, u, v in zip(out, us, vs):
            scale = np.linalg.norm(dj) / np.linalg.norm(v)
            if scale == 0.0:
                scale = np.linalg.norm(self.base.jacobian(u))
            dj += scale * (self.delta @ v)
        return out


@pytest.mark.parametrize("e", [0.0, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("name", ["sphere", "fold", "brockett", "unicycle",
                                  "lti"])
def test_every_antisymmetric_curvature_fails_the_symmetry_row(name, e):
    """A dJ off by an antisymmetric relative 1e-2 down to 1e-6 passes both
    Taylor rows and fails the symmetry row at every seed; the exact dJ
    (e = 0) passes all three."""
    oracle = _AntisymmetricCurvature(_PERTURBED_BASES[name](), e)
    for seed in range(3):
        rows = {r.name: r for r in pl.validate_oracle(oracle, seed=seed)}
        assert rows[TAYLOR_J].passed and rows[TAYLOR_DJ].passed
        assert rows[SYMMETRY].passed == (e == 0.0), rows[SYMMETRY].line()


class _NanFold(pl.FoldMap):
    """A fold whose ``eval``, ``jacobian`` or ``jacobian_derivative``
    (``broken``) returns all NaN."""

    def __init__(self, broken):
        super().__init__()
        self.broken = broken

    def eval(self, u):
        return self._maybe_nan("eval", super().eval(u))

    def jacobian(self, u):
        return self._maybe_nan("jacobian", super().jacobian(u))

    def jacobian_derivative(self, u, v):
        return self._maybe_nan("jacobian_derivative",
                               super().jacobian_derivative(u, v))

    def _maybe_nan(self, name, value):
        return np.full_like(value, np.nan) if name == self.broken else value


@pytest.mark.parametrize("broken, failing", [
    ("eval", {TAYLOR_J, TAYLOR_DJ}),
    ("jacobian", {TAYLOR_J, TAYLOR_DJ}),
    ("jacobian_derivative", {TAYLOR_DJ, SYMMETRY}),
])
def test_non_finite_values_fail_their_rows(broken, failing):
    """A NaN remainder or asymmetry is not below the floor or the
    tolerance: its row fails, and reads inf."""
    rows = _rows(_NanFold(broken))
    assert {name for name, r in rows.items() if not r.passed} == failing
    assert all(rows[name].worst == np.inf for name in failing)


@pytest.mark.parametrize("name", sorted(_PERTURBED_BASES))
def test_validate_takes_one_eval_stack_and_one_curvature_stack(name):
    oracle = _PERTURBED_BASES[name]()
    calls = []
    for method in ("eval_many", "jacobian_derivative_many"):
        def counting(*args, _real=getattr(oracle, method), _name=method):
            calls.append(_name)
            return _real(*args)
        setattr(oracle, method, counting)
    assert all(r.passed for r in pl.validate_oracle(oracle, seed=0))
    assert sorted(calls) == ["eval_many", "jacobian_derivative_many"]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["sphere", "fold", "linear", "doubled"]),
       log_c=st.floats(-8.0, 8.0), seed=st.integers(0, 1000),
       data=st.data())
def test_every_check_verdict_is_scale_invariant(kind, log_c, seed, data):
    if kind == "doubled":
        base = _weighted_map("linear", data)
        base = _DoubledJacobian(base.matrix, base.weights)
    else:
        base = _weighted_map(kind, data)
    plain = pl.validate_oracle(_Scaled(base, 1.0), seed=seed)
    scaled = pl.validate_oracle(_Scaled(base, 10.0 ** log_c), seed=seed)
    assert [r.name for r in plain] == [r.name for r in scaled]
    assert [r.passed for r in plain] == [r.passed for r in scaled], \
        [r.line() for r in plain + scaled]
    assert all(r.passed for r in plain) == (kind != "doubled")
