"""Endpoint maps of control systems as oracles."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

import pathlift as pl
from pathlift.endpoint import BLOWUP_NORM, steps_per_segment
from pathlift.errors import ConfigurationError, TrajectoryBlowup

from map_fd import central_jacobian, central_second


def test_control_grid_geometry():
    g = pl.ControlGrid(horizon=2.0, segments=4, control_dim=2)
    assert g.dim == 8
    assert g.dt == pytest.approx(0.5)
    np.testing.assert_allclose(g.weights, 0.5)
    u = np.arange(8.0)
    np.testing.assert_array_equal(g.unpack(u), u.reshape(4, 2))
    np.testing.assert_allclose(g.constant([1.0, -1.0]),
                               [1, -1, 1, -1, 1, -1, 1, -1])


def test_weighted_norm_is_l2_of_step_function():
    # ||u||_X^2 = sum (T/P) u_k^2 = integral of the step function squared
    ep = pl.endpoint_problem("single-integrator", [0.0], 2.0, 4)
    u = np.array([1.0, 2.0, -1.0, 0.5])
    assert ep.norm(u) ** 2 == pytest.approx(0.5 * np.sum(u ** 2))


def test_single_integrator_endpoint_is_mean_control():
    ep = pl.endpoint_problem("single-integrator", [0.3], 1.0, 5)
    u = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    assert ep.eval(u)[0] == pytest.approx(0.3 + 0.2 * np.sum(u))
    # Jacobian row is the segment weights
    np.testing.assert_allclose(ep.jacobian(u), np.full((1, 5), 0.2),
                               atol=1e-12)


_LTI_A = np.array([[0.0, 1.0], [-2.0, -0.3]])
_LTI_B = np.array([[0.0], [1.0]])


def _lti_oracle(segments):
    return pl.endpoint_problem("lti", [1.0, -0.5], 1.0, segments,
                               system_params={"A": _LTI_A, "B": _LTI_B})


def _lti_exact(u):
    """The lti endpoint from x0 = (1, -0.5) on [0, 1] under the scalar
    controls ``u``, one per segment, through the matrix exponential of
    each segment's augmented generator."""
    x = np.array([1.0, -0.5])
    dt = 1.0 / len(u)
    for uk in u:
        big = expm(np.block([[_LTI_A, _LTI_B * uk], [np.zeros((1, 3))]]) * dt)
        x = big[:2, :2] @ x + big[:2, 2]
    return x


def test_lti_endpoint_matches_expm():
    ep = _lti_oracle(8)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(8)
    x = _lti_exact(u)
    np.testing.assert_allclose(ep.eval(u), x, atol=1e-8)
    np.testing.assert_allclose(ep.endpoint_refined(u, refine=4), x,
                               atol=1e-10)


@pytest.mark.parametrize("segments", [12, 20, 40, 80])
def test_lti_long_grids_stay_within_1e_8_of_expm(segments):
    """Fewer RK4 steps per segment on long grids, never a coarser step
    than the 10-segment grid's: still test_lti_endpoint_matches_expm's
    1e-8."""
    ep = _lti_oracle(segments)
    assert ep.grid.substeps < 6
    u = np.random.default_rng(segments).standard_normal(segments)
    np.testing.assert_allclose(ep.eval(u), _lti_exact(u), rtol=0, atol=1e-8)


@pytest.mark.parametrize("segments", [8, 20, 80])
def test_discretisation_error_estimates_the_lti_error(segments):
    """Richardson's (16/15) |F_S - F_2S| is the error of the computed
    F_S against the matrix exponential within 1%, at S = 6, 3 and 1."""
    ep = _lti_oracle(segments)
    u = np.random.default_rng([segments, 1]).standard_normal(segments)
    error = np.linalg.norm(ep.eval(u) - _lti_exact(u))
    assert error > 1e-10
    assert abs(ep.discretisation_error(u) / error - 1.0) <= 0.01


@settings(max_examples=200, deadline=None)
@given(segments=st.integers(1, 10**6))
def test_steps_per_segment_is_the_least_that_keeps_the_ten_segment_step(
        segments):
    """S(P) takes at most 6 steps per segment, no grid steps coarser than
    T / 60 unless it takes 6, and one step fewer would break one of the
    two: S is the least value that meets both."""
    substeps = pl.ControlGrid(1.0, segments, 1).substeps
    assert substeps == steps_per_segment(segments)
    assert 1 <= substeps <= 6
    if substeps < 6:
        assert segments * substeps >= 60
    assert substeps == 1 or segments * (substeps - 1) < 60


def test_jacobian_matches_fd():
    rng = np.random.default_rng(1)
    for name in ("brockett", "unicycle"):
        ep = pl.endpoint_problem(name, [0.0, 0.0, 0.0], 1.0, 4)
        u = rng.standard_normal(ep.dim_domain)
        ja = ep.jacobian(u)
        jf = central_jacobian(ep, u)
        assert np.linalg.norm(ja - jf) <= 1e-6 * max(np.linalg.norm(ja), 1.0)


def test_brockett_endpoint_closed_form():
    ep = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 20)
    u = ep.grid.constant([1.0, 1.0])
    # x1 = t, x2 = t, x3 = t^2/2 under u = (1, 1)
    np.testing.assert_allclose(ep.eval(u), [1.0, 1.0, 0.5], atol=1e-10)


def test_brockett_gramian_singular_at_zero():
    ep = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 10)
    spec = pl.spectral_decompose(pl.gramian(ep, np.zeros(ep.dim_domain)))
    assert spec.degenerate
    assert spec.lambdas[0] <= 1e-10
    np.testing.assert_allclose(sorted(spec.lambdas[1:]), [1.0, 1.0],
                               atol=1e-10)
    assert abs(spec.vectors[2, 0]) >= 1.0 - 1e-8  # z1 = +-e3


def test_brockett_second_variation_closed_form():
    # z = e3, v = w constant (1, 1): z* d2E(v, v) = 2 int_0^1 t dt = 1
    ep = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 20)
    u = np.zeros(ep.dim_domain)
    v = ep.grid.constant([1.0, 1.0])
    z = np.array([0.0, 0.0, 1.0])
    assert ep.bilinear_second(u, z, v, v) == pytest.approx(1.0, abs=1e-6)


# name -> (x0, system params, fewest segments with P*m >= n)
_SYSTEMS = {
    "brockett": ([0.0, 0.0, 0.0], None, 2),
    "unicycle": ([0.0, 0.0, 0.0], None, 2),
    "lti": ([1.0, -0.5], {"A": [[0.0, 1.0], [-2.0, -0.3]],
                          "B": [[0.0, 0.5], [1.0, 0.0]]}, 1),
    "single-integrator": ([0.5, -1.0], {"dim": 2}, 1),
}


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_partials_broadcast_over_leading_axes(name):
    params = _SYSTEMS[name][1]
    system = pl.make_system(name, **(params or {}))
    rng = np.random.default_rng(3)
    n, m = system.state_dim, system.control_dim
    xs, dxs = rng.standard_normal((2, 5, n))
    us, dus = rng.standard_normal((2, 5, m))
    for fn, args in [(system.partials, (xs, us)),
                     (system.d_partials, (xs, us, dxs, dus))]:
        stacked = fn(*args)
        assert stacked.shape == (5, n, n + m)
        for i in range(5):
            np.testing.assert_array_equal(stacked[i],
                                          fn(*(arg[i] for arg in args)))


def _stage_zeros(*arrays, shape):
    """Zeros of ``shape`` at each point of the broadcast leading axes of
    stacked states and controls ``arrays``."""
    lead = np.broadcast_shapes(*(np.shape(a)[:-1] for a in arrays))
    return np.zeros(lead + shape)


def _mixed_system():
    """Two states, two controls, with every second partial nonzero:
    x1' = x2 u1^2 / 2 + sin(x1) u2,  x2' = x1 x2 / 2 + u1 u2 - x2."""
    def f(x, u):
        return np.array([0.5 * x[1] * u[0] ** 2 + np.sin(x[0]) * u[1],
                         0.5 * x[0] * x[1] + u[0] * u[1] - x[1]])

    def partials(x, u):
        out = _stage_zeros(x, u, shape=(2, 4))
        out[..., 0, 0] = np.cos(x[..., 0]) * u[..., 1]
        out[..., 0, 1] = 0.5 * u[..., 0] ** 2
        out[..., 1, 0] = 0.5 * x[..., 1]
        out[..., 1, 1] = 0.5 * x[..., 0] - 1.0
        out[..., 0, 2] = x[..., 1] * u[..., 0]
        out[..., 0, 3] = np.sin(x[..., 0])
        out[..., 1, 2] = u[..., 1]
        out[..., 1, 3] = u[..., 0]
        return out

    def d_partials(x, u, dx, du):
        out = _stage_zeros(x, u, dx, du, shape=(2, 4))
        sin, cos = np.sin(x[..., 0]), np.cos(x[..., 0])
        out[..., 0, 0] = cos * du[..., 1] - sin * u[..., 1] * dx[..., 0]
        out[..., 0, 1] = u[..., 0] * du[..., 0]
        out[..., 1, 0] = 0.5 * dx[..., 1]
        out[..., 1, 1] = 0.5 * dx[..., 0]
        out[..., 0, 2] = u[..., 0] * dx[..., 1] + x[..., 1] * du[..., 0]
        out[..., 0, 3] = cos * dx[..., 0]
        out[..., 1, 2] = du[..., 1]
        out[..., 1, 3] = du[..., 0]
        return out

    return pl.ControlSystem("mixed", 2, 2, f, partials, d_partials)


def _oracle(name, segments):
    """Endpoint oracle of a registered system from _SYSTEMS, or of
    _mixed_system() from x0 = (0.1, -0.2), on [0, 1]."""
    if name == "mixed":
        grid = pl.ControlGrid(horizon=1.0, segments=segments, control_dim=2)
        return pl.EndpointOracle(_mixed_system(), [0.1, -0.2], grid)
    x0, params, _ = _SYSTEMS[name]
    return pl.endpoint_problem(name, x0, 1.0, segments, system_params=params)


@pytest.mark.parametrize("name", sorted(_SYSTEMS) + ["mixed"])
def test_grids_of_at_most_ten_segments_take_six_steps(name):
    """An oracle on P <= 10 segments computes the map of 6 RK4 steps per
    segment bit for bit, and refines from 6."""
    rng = np.random.default_rng(len(name))
    fewest = 1 if name == "mixed" else _SYSTEMS[name][2]
    for segments in range(fewest, 11):
        ep = _oracle(name, segments)
        assert ep.grid.substeps == 6
        u = rng.uniform(-2.0, 2.0, ep.dim_domain)
        u_values = ep.grid.unpack(u)
        expect = pl.integrate(ep.system, ep.x0, u_values, 1.0, substeps=6)
        for got, ref in zip(ep.trajectory(u), expect):
            assert got.tobytes() == ref.tobytes()
        refined = pl.integrate(ep.system, ep.x0, u_values, 1.0, substeps=12)
        assert ep.endpoint_refined(u, refine=2).tobytes() == \
            refined[1][-1].tobytes()


@pytest.mark.parametrize("segments", [12, 20, 40, 80])
def test_brockett_long_grids_equal_six_steps_to_roundoff(segments):
    """RK4 integrates Brockett's segment flow exactly (x1 and x2 linear
    in t, x3 quadratic), so fewer steps per segment change its endpoint
    by roundoff only."""
    ep = _oracle("brockett", segments)
    rng = np.random.default_rng(segments)
    for _ in range(5):
        u = rng.uniform(-2.0, 2.0, ep.dim_domain)
        six = pl.integrate(ep.system, ep.x0, ep.grid.unpack(u), 1.0,
                           substeps=6)[1][-1]
        np.testing.assert_allclose(ep.eval(u), six, rtol=0, atol=1e-13)


def test_mixed_system_partials_match_differences():
    system = _mixed_system()
    rng = np.random.default_rng(4)
    x, u = rng.standard_normal((2, 2))
    eps = 1e-6
    e = np.eye(2)

    def diff(fn, wrt):
        return np.stack([
            (fn(x + eps * e[k], u) - fn(x - eps * e[k], u)) if wrt == "x"
            else (fn(x, u + eps * e[k]) - fn(x, u - eps * e[k]))
            for k in range(2)], axis=-1) / (2 * eps)

    rows = system.partials(x, u)
    for got, expect in [(rows[..., :2], diff(system.f, "x")),
                        (rows[..., 2:], diff(system.f, "u"))]:
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-9)


@pytest.mark.parametrize("name", sorted(_SYSTEMS) + ["mixed"])
def test_d_partials_match_differences_of_the_partials(name):
    """[dA | dB] along (dx, du) against central differences of the
    partials along the same line, at a few random points."""
    system = _oracle(name, 2).system
    n, m = system.state_dim, system.control_dim
    rng = np.random.default_rng(len(name))
    eps = 1e-6
    for _ in range(5):
        x, dx = rng.standard_normal((2, n))
        u, du = rng.standard_normal((2, m))
        got = system.d_partials(x, u, dx, du)
        expect = (system.partials(x + eps * dx, u + eps * du)
                  - system.partials(x - eps * dx, u - eps * du)) / (2 * eps)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-8)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_exact_jacobian_derivative_matches_fd(data):
    """The exact pass against D(v), the central difference of the
    oracle's own J of ``map_fd.central_second``.

    D(v) has step eps = 1e-5 (1 + ||u||_X) and truncation error
    (eps^2 / 6) d3J[v, v, v], about 1.5e-8 at most in a sample at |u|
    near 2 on the mixed system.  2 D(v / 2) is the same difference with
    step eps / 2, so the Richardson combination R = (8 D(v / 2) - D(v)) / 3
    cancels that term, leaving O(eps^4) truncation and under 1e-10 of
    roundoff.  Both differentiate the same computed Jacobian, so no
    discretisation term separates them.
    """
    name = data.draw(st.sampled_from(sorted(_SYSTEMS) + ["mixed"]),
                     label="system")
    fewest = 1 if name == "mixed" else _SYSTEMS[name][2]
    segments = data.draw(st.integers(fewest, 12), label="segments")
    ep = _oracle(name, segments)
    u = data.draw(arrays(float, ep.dim_domain,
                         elements=st.floats(-2.0, 2.0)), label="u")
    v = data.draw(arrays(float, ep.dim_domain,
                         elements=st.floats(-1.0, 1.0)), label="v")
    exact = ep.jacobian_derivative(u, v)
    fd = central_second(ep, u, v)
    richardson = (8.0 * central_second(ep, u, 0.5 * v) - fd) / 3.0
    assert exact.shape == (ep.dim_codomain, ep.dim_domain)
    np.testing.assert_allclose(exact, richardson, rtol=0, atol=1e-9)


@pytest.mark.parametrize("name", ["unicycle", "mixed"])
@pytest.mark.parametrize("segments", [4, 6, 10])
def test_second_order_taylor_remainder_is_third_order(name, segments):
    """|F(u + tv) - F(u) - t J v - t^2/2 dJ(v) v| = O(t^3), from eval only.

    J and dJ are the exact derivatives of the computed RK4 map, so only
    roundoff floors the remainder.  The window t = 2^-4 ... 2^-8 keeps
    the remainder above 1e-12, and far enough below t = 1 that the t^4
    term moves the observed order by under 0.15 (the mixed system's t^4
    term is the largest).
    """
    ep = _oracle(name, segments)
    rng = np.random.default_rng([segments, len(name)])
    u = rng.uniform(-1.0, 1.0, ep.dim_domain)
    v = rng.uniform(-1.0, 1.0, ep.dim_domain)
    f0 = ep.eval(u)
    jv = ep.jacobian(u) @ v
    djvv = ep.jacobian_derivative(u, v) @ v
    ts = 2.0 ** -np.arange(4, 9)
    rem = np.array([np.linalg.norm(ep.eval(u + t * v) - f0 - t * jv
                                   - 0.5 * t * t * djvv) for t in ts])
    assert rem.min() > 1e-12
    orders = np.log2(rem[:-1] / rem[1:])
    np.testing.assert_allclose(orders, 3.0, atol=0.15)


def test_taylor_remainder_vanishes_on_brockett():
    # brockett's computed endpoint map is quadratic in u: each RK4 stage
    # state is affine in u and x3' = x1 u2 multiplies two of them.  J and
    # dJ are its exact derivatives, so the second-order Taylor polynomial
    # reproduces F up to roundoff
    ep = _oracle("brockett", 6)
    rng = np.random.default_rng(8)
    u, v = rng.uniform(-1.0, 1.0, (2, ep.dim_domain))
    f0, jv = ep.eval(u), ep.jacobian(u) @ v
    djvv = ep.jacobian_derivative(u, v) @ v
    for t in (1.0, 0.5, 0.125):
        rem = ep.eval(u + t * v) - f0 - t * jv - 0.5 * t * t * djvv
        assert np.abs(rem).max() <= 1e-13


def _count_integrate(monkeypatch):
    """Record the control shape of every ``integrate`` call."""
    calls = []
    real = pl.endpoint.integrate

    def counting(*args, **kwargs):
        calls.append(np.shape(args[2]))
        return real(*args, **kwargs)

    monkeypatch.setattr(pl.endpoint, "integrate", counting)
    return calls


def test_jacobian_derivative_at_cached_point_integrates_nothing(monkeypatch):
    calls = _count_integrate(monkeypatch)
    ep = _oracle("unicycle", 6)
    rng = np.random.default_rng(9)
    u, v, w = rng.standard_normal((3, ep.dim_domain))
    ep.jacobian(u)
    assert len(calls) == 1
    ep.jacobian_derivative(u, v)
    ep.bilinear_second(u, np.ones(3), v, w)
    ep.second_operator(u, np.ones(3), w)
    assert len(calls) == 1


class _FirstOrderOnly(pl.MapOracle):
    """A base oracle's F and J, with no second differential of its own."""

    def __init__(self, base):
        super().__init__(base.dim_domain, base.dim_codomain, base.weights)
        self.base = base

    def eval(self, u):
        return self.base.eval(u)

    def jacobian(self, u):
        return self.base.jacobian(u)


def test_oracle_without_second_differential_is_rejected():
    """dJ is part of the oracle contract: a system must give
    ``d_partials``, and a map oracle that gives only F and J has no
    second differential to differentiate, sample or validate."""
    full = pl.make_system("unicycle")
    with pytest.raises(TypeError, match="d_partials"):
        pl.ControlSystem(full.name, full.state_dim, full.control_dim,
                         full.f, full.partials)
    oracle = _FirstOrderOnly(_unicycle(segments=4))
    u, v = np.random.default_rng(10).standard_normal((2, oracle.dim_domain))
    for call, args in [(oracle.jacobian_derivative, (u, v)),
                       (oracle.jacobian_derivative_many, ([u], [v])),
                       (pl.validate_oracle, (oracle,))]:
        with pytest.raises(NotImplementedError):
            call(*args)


def _count_flows(monkeypatch):
    """Count the calls of the backward pass ``_flows`` and of its
    running products ``_chain``."""
    calls = {"_flows": 0, "_chain": 0}
    for name in calls:
        real = getattr(pl.endpoint, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(pl.endpoint, name, counting)
    return calls


def test_second_variation_after_jacobian_forms_no_flows(monkeypatch):
    """J and dJ share one backward pass: dJ right after J at the same
    control (a lift's diagnostics), or a stack after J at its points
    (``check_report``'s C_est), forms no flows, and J of a fresh stack
    forms them once."""
    calls = _count_flows(monkeypatch)

    def formed(call, *args):
        before = dict(calls)
        call(*args)
        return {name: calls[name] - before[name] for name in calls}

    once, none = {"_flows": 1, "_chain": 1}, {"_flows": 0, "_chain": 0}
    ep = _oracle("unicycle", 10)
    rng = np.random.default_rng(23)
    u, v = rng.uniform(-1.0, 1.0, (2, ep.dim_domain))
    assert formed(ep.jacobian, u) == once
    assert formed(ep.jacobian_derivative, u, v) == none
    points = rng.uniform(-1.0, 1.0, (3, ep.dim_domain))
    assert formed(ep.jacobian_many, points) == once
    assert formed(ep.jacobian_derivative_many, points[[0, 1, 2, 1]],
                  rng.uniform(-1.0, 1.0, (4, ep.dim_domain))) == none


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["brockett", "unicycle", "lti"]),
       segments=st.sampled_from([2, 6, 10, 20, 80]),
       seed=st.integers(0, 2**32 - 1))
def test_j_only_linearization_gives_dj_bit_for_bit(name, segments, seed):
    """dJ after a J-only formation, in a stacked pass with repeated
    controls, or at a control kept from a ``jacobian_many`` batch equals,
    bit for bit, the dJ of a pass that forms J itself."""
    rng = np.random.default_rng(seed)
    dim = _oracle(name, segments).dim_domain
    u, w, v, z = rng.uniform(-1.5, 1.5, (4, dim))

    def one_pass(us, vs):
        # a fresh oracle forms J inside the dJ pass, in one batch
        return _oracle(name, segments).jacobian_derivative_many(us, vs)

    single = {(k, j): one_pass([point], [direction])[0]
              for k, point in enumerate((u, w))
              for j, direction in enumerate((v, z))}
    batch = one_pass([u, w], [v, z])

    def same_bits(got, expect):
        return got.tobytes() == expect.tobytes()

    # J alone, then dJ at its control
    ep = _oracle(name, segments)
    ep.jacobian(u)
    assert same_bits(ep.jacobian_derivative(u, v), single[0, 0])
    # a stack over that control and a fresh one, each repeated
    stack = ep.jacobian_derivative_many([u, w, u, w], [z, v, v, z])
    for got, key in zip(stack, [(0, 1), (1, 0), (0, 0), (1, 1)]):
        assert same_bits(got, single[key])
    # controls kept from a jacobian_many batch, integrated with it
    ep = _oracle(name, segments)
    ep.jacobian_many([u, w])
    assert same_bits(ep.jacobian_derivative(w, z), batch[1])
    assert same_bits(ep.jacobian_derivative_many([u, w], [v, z]), batch)
    # a pass at fresh controls forms them in one batch, repeats or not
    got = _oracle(name, segments).jacobian_derivative_many(
        [u, w, u], [v, z, v])
    assert same_bits(got, batch[[0, 1, 0]])
    assert same_bits(one_pass([u, w], [v, z]), batch)


def test_second_variation_leaves_the_kept_linearization_as_j_left_it():
    """dJ reads what J formed at a control and forms nothing to keep: after
    dJ there, each slot of the control's kept entry holds the object J
    left in it."""
    ep = _oracle("unicycle", 6)
    u, v = np.random.default_rng(6).uniform(-1.0, 1.0, (2, ep.dim_domain))
    ep.jacobian(u)
    kept = ep._memo[u.tobytes()]
    slots = {name: getattr(kept, name) for name in kept.__slots__}
    ep.jacobian_derivative(u, v)
    ep.jacobian_derivative_many([u, u], [v, -v])
    assert ep._memo[u.tobytes()] is kept
    for name, value in slots.items():
        assert getattr(kept, name) is value, name


def _forward_mode(ep, u, v):
    """Reference J and dJ(v) of the computed RK4 map in forward mode, one
    step at a time on single states.

    Through each step's stages X_1 = x, X_{i+1} = x + c_i h f(X_i, u),
    c = (1/2, 1/2, 1), it carries the sensitivity Z = dx/du (n, N), the
    tangent y = Z v and the derivative dZ of Z along v by the same
    recurrence; the step then adds h/6 (k_1 + 2 k_2 + 2 k_3 + k_4) of
    the slopes of each."""
    sys_ = ep.system
    _, states = ep.trajectory(u)
    u_values, v_values = ep.grid.unpack(u), ep.grid.unpack(v)
    n, m, dim = sys_.state_dim, sys_.control_dim, ep.dim_domain
    h = ep.grid.dt / ep.grid.substeps
    z, dz, y = np.zeros((n, dim)), np.zeros((n, dim)), np.zeros(n)
    for k in range(len(states) - 1):
        seg = k // ep.grid.substeps
        us, vs = u_values[seg], v_values[seg]
        select = np.zeros((m, dim))     # d(control of this segment) / du
        select[:, seg * m:(seg + 1) * m] = np.eye(m)
        x = states[k]
        sx, sz, sdz, sy = x, z, dz, y
        slopes = []
        for c in (0.5, 0.5, 1.0, None):
            a, b = np.split(sys_.partials(sx, us), [n], axis=-1)
            da, db = np.split(sys_.d_partials(sx, us, sy, vs), [n], axis=-1)
            slope = (a @ sz + b @ select, a @ sy + b @ vs,
                     da @ sz + a @ sdz + db @ select)
            slopes.append(slope)
            if c is not None:
                sx = x + c * h * sys_.f(sx, us)
                sz, sy, sdz = (base + c * h * d
                               for base, d in zip((z, y, dz), slope))
        z, y, dz = (base + (h / 6.0) * (s1 + 2 * s2 + 2 * s3 + s4)
                    for base, s1, s2, s3, s4 in zip((z, y, dz), *slopes))
    return z, dz


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_jacobian_matches_loop_form_reference(data):
    name = data.draw(st.sampled_from(sorted(_SYSTEMS)), label="system")
    x0, params, fewest = _SYSTEMS[name]
    segments = data.draw(st.integers(fewest, 12), label="segments")
    ep = pl.endpoint_problem(name, x0, 1.0, segments, system_params=params)
    u = data.draw(arrays(float, ep.dim_domain,
                         elements=st.floats(-2.0, 2.0)), label="u")
    expect, _ = _forward_mode(ep, u, np.zeros(ep.dim_domain))
    np.testing.assert_allclose(
        ep.jacobian(u), expect, rtol=0,
        atol=1e-12 * max(1.0, np.abs(expect).max()))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_jacobian_derivative_matches_loop_form_reference(data):
    """Forward mode through the stages against the blocked pullback of
    the step polynomial: two derivations of the same discrete
    derivative, which pin the scheme to roundoff."""
    name = data.draw(st.sampled_from(sorted(_SYSTEMS) + ["mixed"]),
                     label="system")
    fewest = 1 if name == "mixed" else _SYSTEMS[name][2]
    segments = data.draw(st.integers(fewest, 12), label="segments")
    ep = _oracle(name, segments)
    u = data.draw(arrays(float, ep.dim_domain,
                         elements=st.floats(-2.0, 2.0)), label="u")
    v = data.draw(arrays(float, ep.dim_domain,
                         elements=st.floats(-1.0, 1.0)), label="v")
    _, expect = _forward_mode(ep, u, v)
    np.testing.assert_allclose(
        ep.jacobian_derivative(u, v), expect, rtol=0,
        atol=1e-12 * max(1.0, np.abs(expect).max()))


@pytest.mark.parametrize("name", ["brockett", "unicycle", "mixed"])
@pytest.mark.parametrize("segments", [20, 40, 80])
def test_long_grids_match_the_step_at_a_time_forward_mode(name, segments):
    """J and dJ(v) on long grids, where the doubling scans over the
    segments take 5 to 7 levels (the draws above, at most 12 segments,
    take at most 4), against forward mode one step at a time; with the
    draws above, this pins the tangent recurrence within a segment at
    S = 1, 2, 3 and 6 steps."""
    ep = _oracle(name, segments)
    rng = np.random.default_rng([segments, len(name)])
    u = rng.uniform(-2.0, 2.0, ep.dim_domain)
    v = rng.uniform(-1.0, 1.0, ep.dim_domain)
    for got, expect in zip((ep.jacobian(u), ep.jacobian_derivative(u, v)),
                           _forward_mode(ep, u, v)):
        np.testing.assert_allclose(
            got, expect, rtol=0,
            atol=1e-12 * max(1.0, np.abs(expect).max()))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stacked_second_variations_equal_single_calls(data):
    """Each member of a stack is bit for bit the single call, for stacks
    that do and do not cross the STACK_LIMIT split, with distinct and
    repeated u, with and without one u's linearization held from
    ``jacobian``, and again once the memo holds every u's flows."""
    name = data.draw(st.sampled_from(sorted(_SYSTEMS) + ["mixed"]),
                     label="system")
    fewest = 1 if name == "mixed" else _SYSTEMS[name][2]
    segments = data.draw(st.integers(fewest, 12), label="segments")
    count = data.draw(st.integers(1, 50), label="K")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    ep = _oracle(name, segments)
    us = rng.uniform(-2.0, 2.0, (count, ep.dim_domain))
    if data.draw(st.booleans(), label="repeated u"):
        us = us[rng.integers(0, max(1, count // 3), count)]
    vs = rng.uniform(-1.0, 1.0, (count, ep.dim_domain))
    held = data.draw(st.integers(-1, count - 1), label="jacobian first at")
    if held >= 0:       # that u's linearization comes from the memo
        ep.jacobian(us[held])
    stack = ep.jacobian_derivative_many(us, vs)
    assert stack.shape == (count, ep.dim_codomain, ep.dim_domain)
    assert ep.jacobian_derivative_many(us, vs).tobytes() == stack.tobytes()
    single = _oracle(name, segments)
    for k in range(count):
        one = single.jacobian_derivative(us[k], vs[k])
        assert np.array_equal(stack[k].view(np.int64), one.view(np.int64))


_CALLS = ("eval", "eval_many", "trajectory", "jacobian", "jacobian_many",
          "jacobian_derivative", "jacobian_derivative_many")


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_results_do_not_depend_on_the_call_history(data):
    """A sequence of calls on one oracle, over four controls so that they
    meet its kept batch and linearization, rows repeated within a stack:
    each result is bit for bit the same call on a fresh oracle.  lti's
    to roundoff only: a row the oracle still keeps is not integrated
    again, and a stacked A @ x may round differently from the batch a
    fresh oracle integrates."""
    name = data.draw(st.sampled_from(["brockett", "lti", "unicycle"]),
                     label="system")
    segments = data.draw(st.integers(2, 6), label="segments")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    ep = _oracle(name, segments)
    us = rng.uniform(-2.0, 2.0, (4, ep.dim_domain))
    vs = rng.uniform(-1.0, 1.0, (4, ep.dim_domain))
    for _ in range(data.draw(st.integers(1, 12), label="calls")):
        call = data.draw(st.sampled_from(_CALLS), label="call")
        rows = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=6)
                         if call.endswith("_many") else
                         st.integers(0, 3), label="rows")
        args = (us[rows],)
        if call.startswith("jacobian_derivative"):
            args += (vs[rng.integers(0, 4, np.shape(rows))],)
        got = getattr(ep, call)(*args)
        expect = getattr(_oracle(name, segments), call)(*args)
        if call != "trajectory":
            got, expect = (got,), (expect,)
        for a, b in zip(got, expect):
            if name == "lti":
                np.testing.assert_allclose(a, b, rtol=1e-15,
                                           atol=1e-15 * np.abs(b).max())
            else:
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), call


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_closed_form_equals_the_rk4_oracle(data):
    """Brockett's and the single integrator's closed forms against the
    RK4 oracle of the same system without one: F, J and dJ(v) within
    1e-14 of max(1, |.|) (RK4 integrates both exactly; this is the two
    roundoffs).  Each row of a stack is bit for bit its single call, and
    each call is that on a fresh oracle, after any history."""
    name = data.draw(st.sampled_from(["brockett", "single-integrator"]),
                     label="system")
    params = ({} if name == "brockett" else
              {"dim": data.draw(st.integers(1, 3), label="dim")})
    system = pl.make_system(name, **params)
    n, m = system.state_dim, system.control_dim
    segments = data.draw(st.sampled_from(
        [p for p in (1, 2, 3, 6, 10, 40, 80) if p * m >= n]),
        label="segments")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    grid = pl.ControlGrid(horizon=1.0, segments=segments, control_dim=m)
    x0 = rng.uniform(-2.0, 2.0, n)
    ep = pl.EndpointOracle(system, x0, grid)
    rk4 = pl.EndpointOracle(dataclasses.replace(system, closed_form=None),
                            x0, grid)
    us = rng.uniform(-2.0, 2.0, (3, grid.dim))[[0, 1, 0, 2]]
    vs = rng.uniform(-2.0, 2.0, us.shape)
    stacks = (ep.eval_many(us), ep.jacobian_many(us),
              ep.jacobian_derivative_many(us, vs))
    for k, (u, v) in enumerate(zip(us, vs)):
        fresh = pl.EndpointOracle(system, x0, grid)
        first = (fresh.jacobian_derivative(u, v), fresh.jacobian(u),
                 fresh.eval(u))[::-1]
        singles = (ep.eval(u), ep.jacobian(u), ep.jacobian_derivative(u, v))
        refs = (rk4.eval(u), rk4.jacobian(u), rk4.jacobian_derivative(u, v))
        for stack, one, again, ref in zip(stacks, singles, first, refs):
            assert one.shape == ref.shape
            assert stack[k].tobytes() == one.tobytes() == again.tobytes()
            assert (np.abs(one - ref).max()
                    <= 1e-14 * max(1.0, np.abs(ref).max()))


def test_closed_form_integrates_only_trajectories(monkeypatch):
    """On Brockett, F, J and dJ come from the closed form: eval, J, dJ,
    their stacks, ``validate_oracle`` and a short lift call ``integrate``
    0 times, and return fresh writable arrays; ``trajectory`` and
    ``endpoint_refined`` still integrate."""
    calls = _count_integrate(monkeypatch)
    ep = _oracle("brockett", 10)
    rng = np.random.default_rng(24)
    u, v = rng.uniform(-1.0, 1.0, (2, ep.dim_domain))
    ep.eval(u)
    ep.jacobian_derivative(u, v)
    ep.eval_many([u, v])
    ep.jacobian_many([u, v])
    ep.jacobian_derivative_many([u, v], [v, u])
    ep.jacobian(u)[...] = 0.0       # not kept: writing changes nothing
    assert ep.jacobian(u).any()
    assert all(r.passed for r in pl.validate_oracle(ep, seed=0))
    u0 = ep.grid.constant([1.0, 1.0])
    rep = pl.lift(ep, pl.line_to_target(ep, u0, ep.eval(u0) + 0.05), u0)
    assert rep.status == pl.REACHED, rep.message
    assert calls == []
    ep.trajectory(u)
    ep.endpoint_refined(u, refine=2)
    assert calls == [(10, 2, 1), (10, 2)]


def test_closed_form_of_the_wrong_shape_is_a_configuration_error():
    """A closed form whose F, J or dJ is not of its stated shape is a
    ConfigurationError naming the shapes, raised at each call."""
    base = pl.make_system("brockett")

    def short(x0, us, dt, *vs):     # drops the last column of J and dJ
        ends, jac = base.closed_form(x0, us, dt, *vs)
        return ends, jac[..., :-1]

    grid = pl.ControlGrid(horizon=1.0, segments=4, control_dim=2)
    ep = pl.EndpointOracle(dataclasses.replace(base, closed_form=short),
                           np.zeros(3), grid)
    u = np.ones(ep.dim_domain)
    for call, args in [("eval", (u,)), ("jacobian_many", ([u],)),
                       ("jacobian_derivative", (u, u))]:
        with pytest.raises(ConfigurationError,
                           match=r"^closed_form must return arrays of "
                                 r"shapes \[.*\(1, 3, 8\)\], got .*7\)\]$"):
            getattr(ep, call)(*args)


@pytest.mark.parametrize("segments", [10, 60])
def test_closed_form_blowup_matches_rk4(segments):
    """Brockett at the constant control 1e5 escapes near t = 0.1414: both
    paths raise TrajectoryBlowup, the closed form at a segment end no
    earlier than RK4's step end, at the same one on 60 segments (one step
    each)."""
    grid = pl.ControlGrid(horizon=1.0, segments=segments, control_dim=2)
    system = pl.make_system("brockett")
    u = grid.constant([1e5, 1e5])
    times = []
    for form in (system.closed_form, None):
        ep = pl.EndpointOracle(
            dataclasses.replace(system, closed_form=form), np.zeros(3), grid)
        for call, args in [("eval", (u,)), ("jacobian", (u,)),
                           ("jacobian_derivative", (u, u)),
                           ("eval_many", ([np.zeros_like(u), u],))]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TrajectoryBlowup) as info:
                    getattr(ep, call)(*args)
            times.append(info.value.escape_time)
    exact, rk4 = times[:4], times[4:]
    assert len(set(exact)) == len(set(rk4)) == 1
    assert 0.1414 < rk4[0] <= exact[0] <= 1.0
    assert (exact[0] == rk4[0]) == (segments == 60)


def test_a_closed_form_of_algebra_alone_escapes_through_the_oracle():
    """The oracle runs the escape test on a closed form's segment-end
    states: a single-integrator closed form with no escape code raises
    TrajectoryBlowup from every entry point, with no warning, at the
    built-in's escape_time, the end of segment 3 of 5, the first past
    BLOWUP_NORM."""
    def algebra(x0, us, dt, *vs):
        count, segments, n = us.shape
        jac = (np.zeros((count, n, segments * n)) if vs else
               np.tile(dt * np.eye(n), (count, 1, segments)))
        return x0 + dt * np.cumsum(us, axis=1), jac

    base = pl.single_integrator(2)
    grid = pl.ControlGrid(horizon=1.0, segments=5, control_dim=2)
    u = np.zeros(grid.dim)
    u[4:] = 1e9     # 2e8 at the end of segment 3
    times = []
    for form in (base.closed_form, algebra):
        ep = pl.EndpointOracle(dataclasses.replace(base, closed_form=form),
                               np.zeros(2), grid)
        for call, args in [("eval", (u,)), ("jacobian", (u,)),
                           ("jacobian_derivative", (u, u)),
                           ("eval_many", ([np.zeros_like(u), u],)),
                           ("jacobian_derivative_many", ([u], [u]))]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TrajectoryBlowup) as info:
                    getattr(ep, call)(*args)
            times.append(info.value.escape_time)
    assert times == [grid.dt * 3] * 10


@pytest.mark.parametrize("name,call", [("lti", "eval"), ("unicycle", "eval"),
                                       ("brockett", "trajectory")])
def test_a_non_finite_control_escapes_with_no_warning(name, call):
    """A non-finite control reaches ``f`` in integrate's check of stacked
    calls as well as in its sweeps, and escapes at the first RK4 step's
    end with no warning."""
    ep = _oracle(name, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrajectoryBlowup) as info:
            getattr(ep, call)(np.full(ep.dim_domain, np.inf))
    assert info.value.escape_time == np.linspace(0.0, 1.0, 25)[1]


def test_stack_split_bounds_the_working_memory(monkeypatch):
    """40 pairs at 10 segments, 60 RK4 steps each, go through passes of
    STACK_LIMIT // 60 = 4 members, so they need no more working memory
    (the traced peak above what the call leaves allocated: its result)
    than one pair at STACK_LIMIT = 240 steps, 240 segments of one step;
    the 1% covers the split's bookkeeping, a few hundred bytes.  Without
    the split the same stack needs about ten times as much."""
    def working_memory(segments, count):
        ep = _oracle("unicycle", segments)
        us, vs = np.random.default_rng(segments).uniform(
            -1.0, 1.0, (2, count, ep.dim_domain))
        ep.eval_many(us)
        tracemalloc.start()
        try:
            result = ep.jacobian_derivative_many(us, vs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.shape == (count, 3, 2 * segments)
        return peak - held

    assert pl.endpoint.STACK_LIMIT == 240
    assert 10 * steps_per_segment(10) == 60
    assert 240 * steps_per_segment(240) == 240
    single = working_memory(240, 1)
    assert working_memory(10, 40) <= 1.01 * single
    monkeypatch.setattr(pl.endpoint, "STACK_LIMIT", 10**6)
    assert working_memory(10, 40) > 5 * single


def test_retained_memory_does_not_grow_with_the_controls_seen():
    """``eval`` then ``jacobian`` at one control after another: the oracle
    keeps the rows of its last request and of its last request for J, so
    what it retains after 100 controls exceeds what it retains after 10 by
    far less than the 90 extra trajectories and Jacobians would occupy."""
    def retained(count):
        ep = pl.endpoint_problem("unicycle", [0.1, -0.2, 0.3], 1.0, 20)
        us = np.random.default_rng(17).uniform(-1.0, 1.0,
                                               (count, ep.dim_domain))
        tracemalloc.start()
        try:
            for u in us:
                ep.eval(u)
                jac = ep.jacobian(u)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        times, states = ep.trajectory(us[-1])
        return held, times.nbytes + states.nbytes + jac.nbytes

    few, per_control = retained(10)
    many, _ = retained(100)
    assert many - few <= 0.25 * 90 * per_control


def _counted_system(points, name="unicycle"):
    """The registered system ``name``, with each function named in
    ``points`` adding the number of points it is evaluated at to that
    entry."""
    def counted(name, fn):
        def wrapper(x, *args):
            points[name] += (np.shape(x)[-1] if name == "f"
                             else int(np.prod(np.shape(x)[:-1])))
            return fn(x, *args)
        return wrapper

    base = pl.make_system(name)
    return dataclasses.replace(base, **{
        name: counted(name, getattr(base, name)) for name in points})


def test_a_pass_takes_the_stage_partials_once_per_distinct_u():
    """In one pass, ``partials`` is evaluated at each distinct u's
    stages once, however many members share that u, and ``f`` not at
    all: the stage states are the ones ``integrate`` stepped through.
    Only ``d_partials`` is evaluated per member."""
    points = dict.fromkeys(["f", "partials", "d_partials"], 0)
    segments = 4
    grid = pl.ControlGrid(horizon=1.0, segments=segments, control_dim=2)
    ep = pl.EndpointOracle(_counted_system(points), [0.1, -0.2, 0.3],
                           grid)
    rng = np.random.default_rng(15)
    distinct = rng.uniform(-1.0, 1.0, (3, ep.dim_domain))
    us = distinct[[0, 1, 0, 2, 2, 1, 0, 2]]
    vs = rng.uniform(-1.0, 1.0, us.shape)
    steps = segments * grid.substeps
    assert len(us) <= pl.endpoint.STACK_LIMIT // steps    # one pass
    ep.eval_many(distinct)
    points.update(dict.fromkeys(points, 0))
    ep.jacobian_derivative_many(us, vs)
    assert points == {"f": 0,
                      "partials": 4 * steps * len(distinct),
                      "d_partials": 4 * steps * len(us)}


def test_jacobian_after_eval_makes_no_f_call():
    """``jacobian`` at a control that ``eval`` has integrated reads the
    stage states the trajectory kept: no ``f`` call, and J bit for bit
    that of an oracle that integrates inside ``jacobian``."""
    points = dict.fromkeys(["f", "partials"], 0)
    grid = pl.ControlGrid(horizon=1.0, segments=4, control_dim=2)
    x0 = [0.1, -0.2, 0.3]
    ep = pl.EndpointOracle(_counted_system(points), x0, grid)
    u = np.random.default_rng(18).uniform(-1.0, 1.0, ep.dim_domain)
    ep.eval(u)
    points.update(dict.fromkeys(points, 0))
    jac = ep.jacobian(u)
    assert points == {"f": 0,
                      "partials": 4 * grid.segments * grid.substeps}
    fresh = pl.EndpointOracle(pl.make_system("unicycle"), x0, grid)
    assert jac.tobytes() == fresh.jacobian(u).tobytes()


def test_second_variation_reads_the_linearization_of_the_last_jacobian():
    """dJ right after ``jacobian`` at the same u evaluates no ``f`` or
    ``partials``, and is bit for bit the dJ of an oracle that
    linearizes afresh.  The memo keeps the controls of the last request
    for J or dJ, read-only, across a request that integrates others, so a
    stack over them linearizes nothing; a control that has left the memo
    is linearized again, once."""
    points = dict.fromkeys(["f", "partials"], 0)
    grid = pl.ControlGrid(horizon=1.0, segments=4, control_dim=2)
    x0 = [0.1, -0.2, 0.3]
    ep = pl.EndpointOracle(_counted_system(points), x0, grid)
    fresh = pl.EndpointOracle(pl.make_system("unicycle"), x0, grid)
    rng = np.random.default_rng(16)
    u, w, z, v = rng.uniform(-1.0, 1.0, (4, ep.dim_domain))
    per_u = 4 * grid.segments * grid.substeps     # partials points at one u

    def same_bits(got, expect):
        return np.array_equal(got.view(np.int64), expect.view(np.int64))

    for point in (u, w):
        ep.jacobian(point)
        points.update(dict.fromkeys(points, 0))
        assert same_bits(ep.jacobian_derivative(point, v),
                         fresh.jacobian_derivative(point, v))
        assert points == dict.fromkeys(points, 0)
    # jacobian(w) integrated w, and u, whose J was the last asked, stayed
    stack = ep.jacobian_derivative_many([u, w, u, w], [v, v, -v, -v])
    assert points == dict.fromkeys(points, 0)
    for got, point, sign in zip(stack, (u, w, u, w), (1, 1, -1, -1)):
        assert same_bits(got, fresh.jacobian_derivative(point, sign * v))
    kept = ep._memo[u.tobytes()]
    jac = ep.jacobian(u)
    assert np.shares_memory(jac, kept.jac) and not jac.flags.writeable
    for arr in (*kept.trajectory, *kept.linear, kept.jac):
        with pytest.raises(ValueError):
            arr[...] = 0.0
    # J at z becomes the last request, so integrating -z drops u and w
    ep.jacobian(z)
    ep.eval(-z)
    points.update(dict.fromkeys(points, 0))
    ep.jacobian_derivative(u, v)
    ep.jacobian_derivative(u, -v)
    assert points["partials"] == per_u


def test_repeated_stacks_linearize_each_control_once():
    """Eight ``jacobian_derivative_many`` calls over the same three
    controls, as the C_est sweeps make them, evaluate ``partials`` at each
    control's stage states once."""
    points = dict.fromkeys(["partials"], 0)
    grid = pl.ControlGrid(horizon=1.0, segments=4, control_dim=2)
    ep = pl.EndpointOracle(_counted_system(points), [0.1, -0.2, 0.3],
                           grid)
    rng = np.random.default_rng(19)
    distinct = rng.uniform(-1.0, 1.0, (3, ep.dim_domain))
    for _ in range(8):
        us = distinct[rng.integers(0, 3, 5)]
        ep.jacobian_derivative_many(us, rng.uniform(-1.0, 1.0, us.shape))
    per_u = 4 * grid.segments * grid.substeps
    assert points == dict.fromkeys(points, 3 * per_u)


def test_validate_linearizes_each_base_point_once():
    """Unicycle-10 ``validate``: its curvature stack and its Taylor
    rows' Jacobians read one linearization of each of the five base
    points, 5 x 10 segments x 6 steps x 4 stages = 1200 stage rows."""
    points = dict.fromkeys(["partials"], 0)
    grid = pl.ControlGrid(horizon=1.0, segments=10, control_dim=2)
    ep = pl.EndpointOracle(_counted_system(points), [0.0, 0.0, 0.0], grid)
    assert all(r.passed for r in pl.validate_oracle(ep, seed=0))
    assert points == dict.fromkeys(points, 1200)


@pytest.mark.parametrize("name", ["brockett", "lti", "unicycle"])
def test_jacobian_many_equals_single_calls(name):
    """J of a stack, rows repeated and one row's J kept beforehand, is
    each row's ``jacobian`` on a fresh oracle: bit for bit, lti to
    roundoff (a fresh oracle integrates the row alone, and a stacked
    A @ x may round differently)."""
    ep = _oracle(name, 5)
    rng = np.random.default_rng(len(name))
    us = rng.uniform(-2.0, 2.0, (4, ep.dim_domain))[[0, 1, 0, 2, 3]]
    ep.jacobian(us[1])
    many = ep.jacobian_many(us)
    assert many.shape == (len(us), ep.dim_codomain, ep.dim_domain)
    for got, u in zip(many, us):
        one = _oracle(name, 5).jacobian(u)
        if name == "lti":
            np.testing.assert_allclose(got, one, rtol=1e-15,
                                       atol=1e-15 * np.abs(one).max())
        else:
            assert got.tobytes() == one.tobytes()


def test_jacobian_derivative_many_checks_its_rows():
    # on the closed form (brockett) and on RK4 (unicycle)
    for name in ("brockett", "unicycle"):
        ep = _oracle(name, 3)
        us = np.zeros((2, ep.dim_domain))
        for bad in (us[:1], us[:, :-1], us[0]):
            with pytest.raises(ConfigurationError,
                               match="vs must have the shape"):
                ep.jacobian_derivative_many(us, bad)
        with pytest.raises(ConfigurationError, match="us must have shape"):
            ep.jacobian_derivative_many(us[0], us[0])
        assert ep.jacobian_derivative_many(us[:0], us[:0]).shape == (
            0, 3, ep.dim_domain)


_EXACT = ["brockett", "lti", "mixed", "unicycle"]


@pytest.mark.parametrize("name", _EXACT)
@pytest.mark.parametrize("segments", [2, 5, 10])
def test_jacobian_is_the_derivative_of_the_computed_map(name, segments):
    """J against the Richardson central difference (4 D(eps/2) - D(eps)) / 3
    of eval, eps = 1e-3: O(eps^4) truncation and about 1e-13 of roundoff."""
    ep = _oracle(name, segments)
    u = np.random.default_rng([segments, len(name)]).uniform(
        -1.0, 1.0, ep.dim_domain)
    steps = np.eye(ep.dim_domain)

    def central(eps):
        plus, minus = np.split(
            ep.eval_many(np.concatenate([u + eps * steps, u - eps * steps])),
            2)
        return ((plus - minus) / (2.0 * eps)).T

    richardson = (4.0 * central(5e-4) - central(1e-3)) / 3.0
    assert (np.abs(ep.jacobian(u) - richardson).max()
            <= 1e-10 * max(1.0, np.abs(richardson).max()))


@pytest.mark.parametrize("name", _EXACT)
@pytest.mark.parametrize("segments", [2, 5, 10])
def test_second_differential_is_symmetric(name, segments):
    ep = _oracle(name, segments)
    rng = np.random.default_rng([segments, len(name), 1])
    for _ in range(5):
        u, v, w = rng.uniform(-1.0, 1.0, (3, ep.dim_domain))
        z = rng.standard_normal(ep.dim_codomain)
        a = ep.bilinear_second(u, z, v, w)
        b = ep.bilinear_second(u, z, w, v)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def test_cached_arrays_are_read_only():
    ep = pl.endpoint_problem("unicycle", [0.0, 0.0, 0.0], 1.0, 4)
    u = 0.3 * np.ones(ep.dim_domain)
    y = ep.eval(u)
    jac = ep.jacobian(u).copy()
    times, states = ep.trajectory(u)
    for arr in (times, states, ep.jacobian(u)):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    np.testing.assert_array_equal(ep.eval(u), y)
    np.testing.assert_array_equal(ep.jacobian(u), jac)


def test_trajectory_cache_reuses_results():
    ep = pl.endpoint_problem("unicycle", [0.0, 0.0, 0.0], 1.0, 4)
    u = 0.2 * np.ones(ep.dim_domain)
    t1, s1 = ep.trajectory(u)
    t2, s2 = ep.trajectory(u)
    assert s1 is s2
    jac = ep.jacobian(u)
    assert np.shares_memory(jac, ep._memo[u.tobytes()].jac)
    assert np.shares_memory(jac, ep.jacobian(u)) and not jac.flags.writeable


def _first_escape(a, x0, horizon, segments):
    """First step time of a plain RK4 loop on xdot = a x whose state is
    non-finite or has norm above BLOWUP_NORM."""
    steps = segments * steps_per_segment(segments)
    h = horizon / steps
    x = np.array([x0])
    for k in range(1, steps + 1):
        k1 = a * x
        k2 = a * (x + 0.5 * h * k1)
        k3 = a * (x + 0.5 * h * k2)
        k4 = a * (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > BLOWUP_NORM:
            return np.linspace(0.0, horizon, steps + 1)[k]
    return None


def test_blowup_detection():
    # a = 30 escapes in the second segment; a = 1e8 escapes at the first
    # step and overflows before its segment ends
    for a in (30.0, 1e8):
        ep = pl.endpoint_problem("lti", [1.0], 1.0, 2,
                                 system_params={"A": [[a]], "B": [[1.0]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrajectoryBlowup) as info:
                ep.eval(np.zeros(2))
        assert 0.0 < info.value.escape_time <= 1.0
        assert info.value.escape_time == _first_escape(a, 1.0, 1.0, 2)


_GRID = pl.ControlGrid(horizon=1.0, segments=2, control_dim=2)


@pytest.mark.parametrize("call, message", [
    (lambda: pl.lti([[1.0, 2.0]], [[1.0]]), "A must be square"),
    (lambda: pl.lti([[1.0]], [[1.0], [2.0]]),
     "B must have the same row count as A"),
    (lambda: pl.ControlGrid(horizon=1.0, segments=0, control_dim=1),
     "segments must be >= 1"),
    (lambda: _GRID.unpack(np.zeros(3)),
     "control vector must have length 4, got (3,)"),
    (lambda: _GRID.constant([1.0]), "need 2 channel values"),
    (lambda: pl.integrate(pl.brockett(), np.zeros(3), np.zeros(4), 1.0),
     "u_values must be (segments, control_dim) or "
     "(segments, control_dim, batch)"),
    (lambda: pl.EndpointOracle(pl.single_integrator(1), [0.0], _GRID),
     "grid control_dim does not match the system"),
], ids=["lti-square", "lti-rows", "no-segments", "unpack-length",
        "constant-length", "integrate-1d", "control-dim-mismatch"])
def test_endpoint_input_rules(call, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call()


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        pl.endpoint_problem("nope", [0.0], 1.0, 2)
    with pytest.raises(ConfigurationError):
        pl.endpoint_problem("brockett", [0.0], 1.0, 2)  # x0 wrong length
    with pytest.raises(ConfigurationError):
        pl.ControlGrid(horizon=-1.0, segments=2, control_dim=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_x0_and_lti_matrices_are_configuration_errors(bad):
    with pytest.raises(ConfigurationError, match="x0 must be finite"):
        pl.endpoint_problem("brockett", [bad, 0.0, 0.0], 1.0, 2)
    good = {"A": [[0.0, 1.0], [-2.0, -0.3]], "B": [[0.0], [1.0]]}
    for key in ("A", "B"):
        params = dict(good)
        params[key] = np.array(good[key])
        params[key][-1, 0] = bad
        with pytest.raises(ConfigurationError,
                           match=f"lti matrix {key} must be finite"):
            pl.endpoint_problem("lti", [1.0, -0.5], 1.0, 2,
                                system_params=params)


@pytest.mark.parametrize("horizon", [np.nan, np.inf])
def test_control_grid_rejects_non_finite_horizon(horizon):
    with pytest.raises(ConfigurationError,
                       match="horizon must be positive and finite"):
        pl.ControlGrid(horizon=horizon, segments=2, control_dim=1)
    with pytest.raises(ConfigurationError,
                       match="horizon must be positive and finite"):
        pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], horizon, 2)


@pytest.mark.parametrize("where,horizon,x0", [
    ("integrate", np.nan, [0.0, 0.0, 0.0]),
    ("integrate", -1.0, [0.0, 0.0, 0.0]),
    ("integrate", True, [0.0, 0.0, 0.0]),
    ("integrate", 1.0, [0.0, 0.0]),
    ("integrate", 1.0, [0.0, np.nan, 0.0]),
    ("grid", "x", None),
    ("grid", None, None),
    ("grid", [1.0], None),
    ("grid", True, None),
])
def test_horizon_and_x0_rules_hold_in_integrate_and_the_grid(where, horizon,
                                                             x0):
    """``integrate`` and ``ControlGrid`` share one positive-finite horizon
    rule, and ``integrate`` checks x0 as the oracle does: each bad value
    is a ConfigurationError, not a blowup, a backward flow, a bare
    TypeError or a misleading message about ``f``."""
    with pytest.raises(ConfigurationError, match="horizon|x0"):
        if where == "grid":
            pl.ControlGrid(horizon=horizon, segments=2, control_dim=1)
        else:
            pl.integrate(pl.make_system("brockett"), x0, np.ones((2, 2)),
                         horizon)


def test_refinement_must_be_at_least_one():
    ep = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 2)
    u = np.ones(ep.dim_domain)
    for refine in (0, -1):
        with pytest.raises(ConfigurationError, match="refine must be >= 1"):
            ep.endpoint_refined(u, refine=refine)
    with pytest.raises(ConfigurationError, match="substeps must be >= 1"):
        pl.integrate(ep.system, ep.x0, ep.grid.unpack(u), 1.0, substeps=0)


@pytest.mark.parametrize("shape", [(0, 2), (0, 2, 3)])
def test_integrate_needs_one_segment(shape):
    # an empty grid has no step length: a ConfigurationError, not a
    # ZeroDivisionError
    with pytest.raises(ConfigurationError,
                       match="u_values must hold at least one segment"):
        pl.integrate(pl.brockett(), [0.0, 0.0, 0.0], np.zeros(shape), 1.0)


@pytest.mark.parametrize("shape", [(2, 2, 0), (1, 2, 0)])
def test_integrate_needs_one_trajectory_in_a_batch(shape):
    # an empty batch is the caller's, not a fault of f
    with pytest.raises(ConfigurationError,
                       match="at least one trajectory in its batch axis"):
        pl.integrate(pl.brockett(), [0.0, 0.0, 0.0], np.zeros(shape), 1.0)


def test_endpoint_lift_plans_single_integrator():
    ep = pl.endpoint_problem("single-integrator", [0.0, 0.0], 1.0, 4,
                             system_params={"dim": 2})
    u0 = np.zeros(ep.dim_domain)
    target = np.array([0.5, -0.25])
    rep = pl.lift(ep, pl.line_to_target(ep, u0, target), u0)
    assert rep.status == pl.REACHED
    np.testing.assert_allclose(ep.eval(rep.final_u), target, atol=1e-9)
    # least-norm control is constant in time
    vals = ep.grid.unpack(rep.final_u)
    np.testing.assert_allclose(vals, np.tile(vals[0], (4, 1)), atol=1e-8)


# -- stacked trajectories ---------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stacked_integrate_equals_per_member_integrate(data):
    """Componentwise f steps every member with the same arithmetic, so
    members are bitwise equal to their own integration; lti's stacked
    A @ x runs through a matrix product that may round differently."""
    name = data.draw(st.sampled_from(sorted(_SYSTEMS) + ["mixed"]),
                     label="system")
    fewest = 1 if name == "mixed" else _SYSTEMS[name][2]
    segments = data.draw(st.integers(fewest, 12), label="segments")
    batch = data.draw(st.integers(1, 50), label="batch")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    ep = _oracle(name, segments)
    us = np.random.default_rng(seed).uniform(
        -2.0, 2.0, (segments, ep.system.control_dim, batch))
    times, states, _ = pl.integrate(ep.system, ep.x0, us, 1.0)
    assert states.shape == (batch,) + times.shape + (ep.system.state_dim,)
    for b in range(batch):
        t_one, s_one, _ = pl.integrate(ep.system, ep.x0, us[..., b], 1.0)
        np.testing.assert_array_equal(times, t_one)
        if name == "lti":
            np.testing.assert_allclose(states[b], s_one, rtol=1e-15,
                                       atol=1e-15 * np.abs(s_one).max())
        else:
            np.testing.assert_array_equal(states[b], s_one)


def _loop_integrate(system, x0, u_values, horizon):
    """Reference flow: the RK4 recurrence x_{j+1} = x_j + h/6 (k1 + 2 k2 +
    2 k3 + k4), S(P) steps per segment as ``integrate`` takes by default,
    one step at a time on the (n, B) stack of members, stepping on past
    any escape.  Returns (times, states, stages) shaped as
    ``integrate``'s, stages the states x, x + h/2 k1, x + h/2 k2 and
    x + h k3 that each step evaluates ``f`` at."""
    u_values = np.asarray(u_values, dtype=float)
    single = u_values.ndim == 2
    u_values = u_values[..., None] if single else u_values
    substeps = steps_per_segment(u_values.shape[0])
    h = horizon / u_values.shape[0] / substeps
    x = np.repeat(np.asarray(x0, dtype=float)[:, None], u_values.shape[2],
                  axis=1)
    states, stages = [x], []
    with np.errstate(all="ignore"):
        for u in np.repeat(u_values, substeps, axis=0):
            k1 = system.f(x, u)
            x2 = x + 0.5 * h * k1
            k2 = system.f(x2, u)
            x3 = x + 0.5 * h * k2
            k3 = system.f(x3, u)
            x4 = x + h * k3
            k4 = system.f(x4, u)
            stages.append([x, x2, x3, x4])
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            states.append(x)
    states = np.moveaxis(np.stack(states), -1, 0)
    stages = np.moveaxis(np.array(stages), -1, 0)
    times = np.linspace(0.0, horizon, states.shape[1])
    return (times, *((states[0], stages[0]) if single else (states, stages)))


def _loop_escape_time(system, x0, u_values, horizon):
    """Time of the reference flow's first state, over all members, that is
    non-finite or has norm above BLOWUP_NORM; None if there is none."""
    times, states, _ = _loop_integrate(system, x0, u_values, horizon)
    with np.errstate(all="ignore"):
        bad = (~np.isfinite(states).all(axis=-1)
               | (np.linalg.norm(states, axis=-1) > BLOWUP_NORM))
    bad = bad.reshape(-1, len(times)).any(axis=0)
    return float(times[np.argmax(bad)]) if bad.any() else None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integrate_equals_the_step_by_step_reference(data):
    """The sweeps reproduce the step-by-step recurrence bit for bit, the
    states and the stage states of every step, for a single trajectory
    and for a batch.  lti's stacked A @ x on a sweep's (n, L*B) stack may
    round differently from the (n, B) one."""
    name = data.draw(st.sampled_from(sorted(_SYSTEMS) + ["mixed"]),
                     label="system")
    fewest = 1 if name == "mixed" else _SYSTEMS[name][2]
    segments = data.draw(st.integers(fewest, 12), label="segments")
    batch = data.draw(st.none() | st.integers(1, 50), label="batch")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    ep = _oracle(name, segments)
    shape = (segments, ep.system.control_dim) + (
        () if batch is None else (batch,))
    us = np.random.default_rng(seed).uniform(-2.0, 2.0, shape)
    times, *got = pl.integrate(ep.system, ep.x0, us, 1.0)
    t_ref, *expect = _loop_integrate(ep.system, ep.x0, us, 1.0)
    np.testing.assert_array_equal(times, t_ref)
    for arr, ref in zip(got, expect):
        assert arr.shape == ref.shape
        if name == "lti":
            np.testing.assert_allclose(arr, ref, rtol=1e-15,
                                       atol=1e-15 * np.abs(ref).max())
        else:
            assert arr.tobytes() == ref.tobytes()


@pytest.mark.parametrize("batch", [None, 3])
def test_non_cascade_escape_time_matches_the_reference(batch):
    """x' = x^2 + u from x = 2, at u = 1, escapes near t = pi/2 - atan 2.
    It is no cascade, so the sweeps fix one step each and the steps after
    n + 1 sweeps are taken one at a time; the escape time is the reference
    loop's, and in a batch the earliest member's.  The controls are
    constant, on 240 segments of one RK4 step each: h = 1/240."""
    system = pl.ControlSystem("riccati", 1, 1, lambda x, u: x * x + u,
                              _zeros(1, 2), _not_called)
    us = np.ones((240, 1)) if batch is None else np.stack(
        [np.full((240, 1), u) for u in (0.5, 1.0, -1.0)], axis=-1)
    expect = _loop_escape_time(system, [2.0], us, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrajectoryBlowup) as info:
            pl.integrate(system, [2.0], us, 1.0)
    assert info.value.escape_time == expect
    assert round(expect, 4) == 0.4708


def test_cascade_escape_in_its_second_component_matches_the_reference():
    """x1' = u, x2' = exp(x1): a cascade, exact after two sweeps, whose
    second component passes BLOWUP_NORM; the member with the larger
    control escapes first."""
    system = pl.ControlSystem(
        "exp-cascade", 2, 1,
        lambda x, u: np.stack([u[0], np.exp(x[0])]), _zeros(2, 3),
        _not_called)
    us = np.stack([np.full((5, 1), 30.0), np.full((5, 1), 40.0)], axis=-1)
    expect = [_loop_escape_time(system, [0.0, 0.0], us[..., b], 1.0)
              for b in range(2)]
    assert 0.0 < expect[1] < expect[0] < 1.0
    for u_values, t in ((us[..., 0], expect[0]), (us, expect[1])):
        with pytest.raises(TrajectoryBlowup) as info:
            pl.integrate(system, [0.0, 0.0], u_values, 1.0)
        assert info.value.escape_time == t


def _counting_f(system):
    """The system with ``f`` wrapped to record the shape of each state it
    is called on."""
    shapes = []

    def f(x, u):
        shapes.append(np.shape(x))
        return system.f(x, u)

    return dataclasses.replace(system, f=f), shapes


@pytest.mark.parametrize("name,params", [
    ("brockett", None), ("unicycle", None),
    ("single-integrator", {"dim": 2})])
def test_a_cascade_takes_at_most_n_plus_one_sweeps(name, params):
    """Four stacked ``f`` calls per sweep, at most n + 1 sweeps, next to
    _check_stacked's 1 + B calls at each end: 4 (n + 1) + 4 calls for one
    trajectory instead of 4 * 80 at 80 segments."""
    system, shapes = _counting_f(pl.make_system(name, **(params or {})))
    n = system.state_dim
    us = np.random.default_rng(14).uniform(
        -1.0, 1.0, (80, system.control_dim))
    _, states, _ = pl.integrate(system, np.full(n, 0.1), us, 1.0)
    assert len(shapes) <= 4 * (n + 1) + 4
    _, ref, _ = _loop_integrate(system, np.full(n, 0.1), us, 1.0)
    assert states.tobytes() == ref.tobytes()


def test_lti_falls_back_to_single_steps_after_n_plus_one_sweeps():
    """lti is no cascade: each sweep fixes one step, so after n + 1 = 3
    sweeps over the open steps the rest go one at a time."""
    a = [[0.0, 1.0], [-2.0, -0.3]]
    system, shapes = _counting_f(pl.lti(a, [[0.0, 0.5], [1.0, 0.0]]))
    batch, steps = 4, 10 * steps_per_segment(10)
    us = np.random.default_rng(15).uniform(-1.0, 1.0, (10, 2, batch))
    _, states, _ = pl.integrate(system, [1.0, -0.5], us, 1.0)
    stages = [shape[1] for shape in shapes[1 + batch:-1 - batch]]
    assert stages == ([(steps - i) * batch for i in range(3) for _ in "1234"]
                      + [batch] * 4 * (steps - 3))
    _, ref, _ = _loop_integrate(system, [1.0, -0.5], us, 1.0)
    np.testing.assert_allclose(states, ref, rtol=1e-15,
                               atol=1e-15 * np.abs(ref).max())


def test_eval_many_matches_eval_with_duplicates_and_small_cache(
        monkeypatch):
    calls = _count_integrate(monkeypatch)
    grid = pl.ControlGrid(horizon=1.0, segments=4, control_dim=2)
    system = pl.make_system("unicycle")
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((6, grid.dim))
    us = rows[[0, 1, 0, 2, 3, 4, 5, 1, 5]]
    small = pl.EndpointOracle(system, [0.1, -0.2, 0.3], grid)
    got = small.eval_many(us)
    assert calls == [(4, 2, 6)]     # one stacked call, duplicates merged
    ref = pl.EndpointOracle(system, [0.1, -0.2, 0.3], grid)
    np.testing.assert_array_equal(got, [ref.eval(u) for u in us])
    kept = [row.tobytes() for row in rows]
    assert list(small._memo) == kept      # the distinct rows, once each
    # the batch's rows are kept read-only; their Jacobian integrates
    # nothing, and requests that integrate nothing leave the batch as is
    del calls[:]
    _, states = small.trajectory(us[-1])
    with pytest.raises(ValueError):
        states[0] = 9.0
    np.testing.assert_array_equal(small.jacobian(us[-1]),
                                  ref.jacobian(us[-1]))
    np.testing.assert_array_equal(small.eval_many(us[-2:]), got[-2:])
    assert calls == []
    assert list(small._memo) == kept
    # a request with a new row integrates that row alone, and its rows
    # become the memo, with the row whose Jacobian was asked last
    new = rng.standard_normal(grid.dim)
    pair = small.eval_many([us[0], new])
    assert calls == [(4, 2, 1)]
    np.testing.assert_array_equal(pair, [got[0], ref.eval(new)])
    assert list(small._memo) == [us[0].tobytes(), new.tobytes(),
                                 us[-1].tobytes()]


def test_batch_blowup_reports_the_first_escape():
    def escape_time(evaluate, *args):
        ep = pl.endpoint_problem("lti", [1.0], 1.0, 4,
                                 system_params={"A": [[1.0]], "B": [[1.0]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrajectoryBlowup) as info:
                getattr(ep, evaluate)(*args)
        return info.value.escape_time

    us = np.zeros((5, 4))
    us[1, 2] = 1e9      # escapes in the third segment
    us[3, 1] = 4e8      # escapes in the second segment
    alone = [escape_time("eval", us[row]) for row in (1, 3)]
    assert alone[1] < alone[0]
    assert escape_time("eval_many", us) == alone[1]
    assert escape_time("eval_many", us[:3]) == alone[0]


def test_validate_integrates_each_check_as_one_batch(monkeypatch):
    """The 50 Taylor line points in one trajectory call; dJ and J at the
    five base points read their cached trajectories."""
    calls = _count_integrate(monkeypatch)
    results = pl.validate_oracle(_oracle("unicycle", 6), seed=0)
    assert all(r.passed for r in results)
    assert calls == [(6, 2, 50)]


def test_non_conforming_f_fails_on_a_batch():
    """``x @ A.T`` is A x on one (n,) state but mixes members on (n, B)
    states, and keeps the right shape when B == n.  One trajectory steps
    as a batch of one, so ``eval`` rejects it as ``eval_many`` does."""
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])
    bm = np.array([[0.0, 0.5], [1.0, 0.0]])
    good = pl.lti(a, bm)
    bad = pl.ControlSystem("bad", 2, 2, lambda x, u: x @ a.T + u @ bm.T,
                           good.partials, good.d_partials)
    grid = pl.ControlGrid(horizon=1.0, segments=3, control_dim=2)
    us = np.random.default_rng(13).standard_normal((2, grid.dim))
    ep = pl.EndpointOracle(bad, [1.0, -0.5], grid)
    with pytest.raises(ConfigurationError, match="stacked"):
        ep.eval(us[0])
    with pytest.raises(ConfigurationError, match="stacked"):
        ep.eval_many(us)
    grid1 = pl.ControlGrid(horizon=1.0, segments=2, control_dim=1)
    scalar_only = pl.ControlSystem(
        "scalar", 1, 1, lambda x, u: np.array([float(x[0]) * u[0]]),
        good.partials, _not_called)
    with pytest.raises(ConfigurationError, match="stacked"):
        pl.EndpointOracle(scalar_only, [1.0], grid1).eval_many(
            np.ones((3, 2)))
    # right at the first stage, where every member has the same state and
    # control, and wrong once the second segments' controls differ
    mean_of_batch = pl.ControlSystem(
        "mean", 1, 1, lambda x, u: x * np.mean(u), good.partials,
        _not_called)
    with pytest.raises(ConfigurationError, match="stacked"):
        pl.EndpointOracle(mean_of_batch, [1.0], grid1).eval_many(
            [[0.5, 1.0], [0.5, -1.0]])


# -- validation of the second differential ----------------------------------


def _unicycle(segments=6, x0=(0.0, 0.0, 0.0), d_partials=None):
    """Unicycle endpoint oracle from x0 on [0, 1], with its own
    ``d_partials`` or, if given, ``d_partials`` in its place."""
    system = pl.make_system("unicycle")
    if d_partials is not None:
        system = dataclasses.replace(system, d_partials=d_partials)
    grid = pl.ControlGrid(horizon=1.0, segments=segments, control_dim=2)
    return pl.EndpointOracle(system, x0, grid)


def _zeros(*shape):
    """Partials that are identically zero."""
    return lambda x, u: _stage_zeros(x, u, shape=shape)


def _not_called(x, u, dx, du):
    """``d_partials`` of a test system whose test takes no second
    variation."""
    raise AssertionError("d_partials called")


class _DifferencedSecond(_FirstOrderOnly):
    """A base oracle's F and J, with dJ the central difference of that J
    (``map_fd.central_second``): a second differential written by
    differences."""

    def eval_many(self, us):
        return self.base.eval_many(us)

    def jacobian_derivative(self, u, v):
        return central_second(self.base, u, v)


def test_fd_second_differential_integrates_its_pair_as_one_batch(
        monkeypatch):
    """The central difference of J integrates u + eps v and u - eps v in
    one batch, and the exact dJ at a fresh u integrates u alone and
    agrees with it to the difference's truncation."""
    calls = _count_integrate(monkeypatch)
    ep = _unicycle()
    u, v = np.random.default_rng(13).standard_normal((2, ep.dim_domain))
    got = ep.jacobian_derivative(u, v)
    assert calls == [(6, 2, 1)]
    calls.clear()
    expect = central_second(_unicycle(), u, v)
    assert calls == [(6, 2, 2)]         # u + eps v and u - eps v together
    np.testing.assert_allclose(got, expect, rtol=0,
                               atol=1e-8 * np.max(np.abs(expect)))
    # a stack of K pairs, one u repeated: its distinct u in one batch,
    # each member bit for bit its own pair's dJ
    us, vs = np.random.default_rng(14).standard_normal((2, 5, ep.dim_domain))
    us[3] = us[0]
    calls.clear()
    stack = _unicycle().jacobian_derivative_many(us, vs)
    assert calls == [(6, 2, 4)]
    for k in range(5):
        one = _unicycle().jacobian_derivative(us[k], vs[k])
        assert np.array_equal(stack[k].view(np.int64), one.view(np.int64))


def test_validate_passes_the_fd_second_differential():
    """``validate`` passes the exact unicycle dJ, and the same oracle
    with dJ written as the central difference of its J."""
    for oracle in (_unicycle(), _DifferencedSecond(_unicycle())):
        results = pl.validate_oracle(oracle, seed=0)
        assert len(results) == 3
        assert all(r.passed for r in results), [r.line() for r in results]
        symmetry = [r for r in results
                    if r.name == "second-differential symmetry"]
        assert symmetry[0].tol == 1e-8


@pytest.mark.parametrize("x0_seed", [0, 2, 7])
def test_fd_second_differential_is_symmetric_on_a_coarse_grid(x0_seed):
    """At two segments the exact dJ is symmetric to roundoff.  A central
    difference of J leaves its O(eps^2) truncation as asymmetry: a step
    of 1e-4 (1 + ||u||_X) left 1.4e-8 to 3.6e-8 there, above the 1e-8
    tolerance, and 1e-5 leaves at most 3.6e-10."""
    x0 = np.random.default_rng(x0_seed).uniform(-0.5, 0.5, 3)
    ep = _unicycle(segments=2, x0=x0)
    for oracle in (ep, _DifferencedSecond(ep)):
        for seed in range(1, 16):
            row = pl.validate_oracle(oracle, seed=seed)[2]
            assert row.name == "second-differential symmetry"
            assert row.passed, row.line()


def _without_f_xx(x, u, dx, du):
    """Unicycle's d_partials without its f_xx term, the dx part of dA."""
    full = pl.make_system("unicycle").d_partials
    rows = full(x, u, dx, du)
    rows[..., :3] = full(x, u, 0 * dx, du)[..., :3]
    return rows


def _without_f_xu(x, u, dx, du):
    """Unicycle's d_partials without its mixed term f_xu, the du part of
    dA and the dx part of dB."""
    full = pl.make_system("unicycle").d_partials
    rows = full(x, u, dx, 0 * du)
    rows[..., 3:] = full(x, u, 0 * dx, du)[..., 3:]
    return rows


@pytest.mark.parametrize("dropped", ["f_xx", "f_xu"])
def test_dropped_second_partial_fails_the_taylor_row(dropped):
    """The exact second variation without one second partial is still
    symmetric, so only the second-order Taylor remainder sees the missing
    term."""
    ep = _unicycle(d_partials={"f_xx": _without_f_xx,
                               "f_xu": _without_f_xu}[dropped])
    rows = {r.name: r for r in pl.validate_oracle(ep, seed=0)}
    assert not rows["second-differential Taylor order deficit"].passed
    assert rows["second-differential symmetry"].passed
    assert rows["jacobian Taylor order deficit"].passed


# wrong stage rows made from right ones (..., 3, 5)
_WRONG_ROWS = {
    "column-short": lambda rows: rows[..., :4],
    "row-short": lambda rows: rows[..., :2, :],
    "pair": lambda rows: (rows[..., :3], rows[..., 3:]),   # (dA, dB)
}


@pytest.mark.parametrize("field, wrong", [
    ("partials", "column-short"), ("partials", "row-short"),
    ("d_partials", "column-short"), ("d_partials", "pair")])
def test_partials_of_the_wrong_shape_are_configuration_errors(field, wrong):
    """Stage rows of any shape but (..., n, n + m), or a pair of arrays, are
    a ConfigurationError naming the shape expected and the one received,
    raised where the oracle reads them: J for ``partials``, dJ for
    ``d_partials``."""
    base, bad = pl.make_system("unicycle"), _WRONG_ROWS[wrong]
    full = getattr(base, field)
    system = dataclasses.replace(
        base, **{field: lambda *args: bad(full(*args))})
    grid = pl.ControlGrid(horizon=1.0, segments=6, control_dim=2)
    ep = pl.EndpointOracle(system, [0.1, -0.2, 0.3], grid)
    u, v = np.random.default_rng(21).uniform(-1.0, 1.0, (2, ep.dim_domain))
    # stage rows at the 4 stages of 1 control's 6 segments of 6 steps
    expect = (4, 1, 6, 6, 3, 5)
    got = bad(np.zeros(expect))
    got = "tuple" if isinstance(got, tuple) else got.shape
    with pytest.raises(ConfigurationError, match="^" + re.escape(
            f"{field} must return one (..., n, n + m) array, {expect} "
            f"here, got {got}") + "$"):
        ep.jacobian_derivative(u, v)
    if field == "d_partials":       # J reads only the partials
        fresh = pl.EndpointOracle(base, [0.1, -0.2, 0.3], grid)
        assert ep.jacobian(u).tobytes() == fresh.jacobian(u).tobytes()


# -- a state beyond n = 3 ----------------------------------------------------


def _chained_system():
    """The chained form of length 4, x1' = u1, x2' = u2, x3' = x2 u1,
    x4' = x3 u1 (Murray & Sastry, IEEE Trans. Automat. Control 38
    (1993)): n = 4, m = 2, whose fourth direction needs a Lie bracket of
    order three.  Each segment's flow is polynomial in t, of degree 3 in
    x4, so RK4 integrates it exactly."""
    def f(x, u):
        return np.array([u[0], u[1], x[1] * u[0], x[2] * u[0]])

    def partials(x, u):
        out = _stage_zeros(x, u, shape=(4, 6))
        out[..., 2, 1] = out[..., 3, 2] = u[..., 0]
        out[..., 0, 4] = out[..., 1, 5] = 1.0
        out[..., 2, 4] = x[..., 1]
        out[..., 3, 4] = x[..., 2]
        return out

    def d_partials(x, u, dx, du):
        out = _stage_zeros(x, u, dx, du, shape=(4, 6))
        out[..., 2, 1] = out[..., 3, 2] = du[..., 0]
        out[..., 2, 4] = dx[..., 1]
        out[..., 3, 4] = dx[..., 2]
        return out

    return pl.ControlSystem("chained", 4, 2, f, partials, d_partials)


def _chained(segments, d_partials=None):
    """Chained-form endpoint oracle from rest on [0, 1], with its own
    ``d_partials`` or, if given, ``d_partials`` in its place."""
    system = _chained_system()
    if d_partials is not None:
        system = dataclasses.replace(system, d_partials=d_partials)
    grid = pl.ControlGrid(horizon=1.0, segments=segments, control_dim=2)
    return pl.EndpointOracle(system, np.zeros(4), grid)


@pytest.mark.parametrize("segments", [6, 10])
def test_chained_form_passes_validate_and_steps_exactly(segments):
    """An n = 4 system with a 4 x 6 stage-row block: ``validate`` passes
    its three rows, and the Richardson estimate of the RK4 error is
    roundoff."""
    ep = _chained(segments)
    rows = pl.validate_oracle(ep, seed=0)
    assert len(rows) == 3
    assert all(r.passed for r in rows), [r.line() for r in rows]
    u = np.random.default_rng(segments).uniform(-1.0, 1.0, ep.dim_domain)
    assert ep.discretisation_error(u) <= 1e-14


@pytest.mark.parametrize("segments", [6, 10])
def test_chained_form_lifts_a_line_to_a_nearby_target(segments):
    """A line from a random control to a target 0.1 away is lifted to
    its end through the n = 4 backward pass."""
    ep = _chained(segments)
    rng = np.random.default_rng(2)
    u0 = rng.uniform(-1.0, 1.0, ep.dim_domain)
    step = rng.standard_normal(4)
    target = ep.eval(u0) + 0.1 * step / np.linalg.norm(step)
    rep = pl.lift(ep, pl.line_to_target(ep, u0, target), u0)
    assert rep.status == pl.REACHED
    np.testing.assert_allclose(ep.eval(rep.final_u), target, rtol=0,
                               atol=1e-9)


def test_chained_form_without_a_second_partial_fails_the_taylor_row():
    """Its d_partials without the term dx3 of d(x4')/du1 fails the
    second-order Taylor row, and J's row still passes."""
    full = _chained_system().d_partials

    def dropped(x, u, dx, du):
        rows = full(x, u, dx, du)
        rows[..., 3, 4] = 0.0
        return rows

    rows = {r.name: r
            for r in pl.validate_oracle(_chained(6, dropped), seed=0)}
    assert not rows["second-differential Taylor order deficit"].passed
    assert rows["jacobian Taylor order deficit"].passed
