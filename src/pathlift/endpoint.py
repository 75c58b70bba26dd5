"""Endpoint maps of nonlinear control systems as map oracles.

A control system xdot = f(x, u) over a horizon [0, T], with piecewise
constant controls on P uniform segments, induces the endpoint map
sending the flattened control vector (length P*m) to the terminal state
in R^n.  The induced weighted inner product with weights T/P equals the
L2 inner product of the piecewise-constant representatives exactly, so
the oracle adjoint discretizes the continuous one.

A system that declares ``closed_form`` (Brockett's and the single
integrator) has its exact endpoint map computed from it: F, J and dJ
from a few cumulative sums over the segments, with no integration and no
memo.  The closed form is algebra alone; the oracle checks its shapes
and runs the escape test of ``integrate`` on its segment-end states.
What follows describes the map of every other system, and the
trajectories of all of them (``trajectory``, ``endpoint_refined``).

That map F is the one ``integrate`` computes: S classical RK4 steps per
segment, S(P) = min(6, ceil(60 / P)) on P segments
(``ControlGrid.substeps``).  No grid steps coarser than the 10-segment
one, h <= T / 60, and none takes more than 6 steps per segment; every
grid of P <= 10 takes 6.  The RK4 error is of order h^4, so
(16/15) |F_S(u) - F_2S(u)|, from ``endpoint_refined(u, refine=2)``,
estimates the error of F_S(u) (Richardson; Hairer, Norsett & Wanner,
Solving ODEs I, 2nd ed. (1993), II.4); ``pathlift lift`` reports it for
an endpoint problem.  Against 96 steps per segment, at the worst of five
random controls in [-2, 2] at each P = 10, 12, 20, 40 and 80, F is exact
to roundoff (8e-15) for Brockett, whose segment flow is polynomial of
degree 2 and so integrated exactly, and within 9e-11 for the unicycle
and 5e-9 for lti.

``integrate`` takes B independent trajectories at once with the batch on
the last axis, one trajectory as a batch of one: ``f`` is written on
components, so one call steps every member.  The steps are
taken in exact Picard sweeps over the whole grid (see ``integrate``):
the states are bit for bit those of stepping one step at a time, and
``integrate`` returns the stage states it stepped through.  J and dJ are
the exact derivatives of that computed map, on the same grid (discretise,
then differentiate).  An RK4 step Phi(x, u) has partials M_j = dPhi/dx
and N_j = dPhi/du, a polynomial in the system's ``partials``, the stage
rows [df/dx | df/du], at those stage states (no ``f`` call): with the
control frozen as a state (udot = 0), ``_propagators`` of the stage
blocks [[df/dx, df/du], [0, 0]] gives the step block [[M_j, N_j], [0, I]],
in one batch over the whole control grid (the partials broadcast over
leading axes).  One backward pass, :func:`_flows`, composes each
segment's steps into its map [A_p | C_p] and scans the maps back from T:
J's block on segment p is K_{p,S} C_p, K_{p,S} = A_{P-1} ... A_{p+1},
and that is all J reads.  The recurrences across the P segments, this
scan and the second variation's two below, are doubling scans (Hillis &
Steele, CACM 29 (1986); Blelloch, CMU-CS-90-190 (1990)): ceil(log2 P)
batched compositions of the segments' [A | C] blocks, not one Python
iteration per segment; only the S steps within a segment are a loop.

Second differentials are exact: every system gives ``d_partials``, the
derivative [dA | dB] of its stage rows along a direction (dx, du), and
``EndpointOracle.jacobian_derivative_many`` differentiates J along v at
u for a stack of (u, v) pairs on a leading axis, in forward mode through
the fixed scheme, and ``jacobian_derivative`` is the stack of one.  What
does not depend on v is formed once per control, with J: the stage
states and rows, the step rows and their intermediates and the flows.
dJ reads only those.  Each member pays for its tangent, its stage rows'
derivatives, the tangent of J's running products within each segment,
D_{s+1} = M_s D_s + T_s over its S steps (one batched product per step),
and two scans over the segments (see
``EndpointOracle._second_variations``).

The oracle keeps a read-only memo keyed by control bytes (see
``EndpointOracle``), and ``eval`` is the stack of one of ``eval_many``.
F, J and dJ at a kept control integrate nothing, evaluate no ``f`` or
``partials``, form no flows and keep nothing new, and a dJ pass there
pays only for its members.
"""

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, TrajectoryBlowup, finite, integer,
                     positive)
from .maps import MapOracle

BLOWUP_NORM = 1e8
# RK4 steps per control segment, S(P) = min(STEPS_PER_SEGMENT,
# ceil(GRID_STEPS / P)) on P segments: the most steps per segment are the
# fewest that keep the 10-segment lti endpoint within 1e-8 of its matrix
# exponential (5 steps give 1.6e-8), and no grid steps coarser than that
# one, h <= T / GRID_STEPS
STEPS_PER_SEGMENT = 6
GRID_STEPS = 60
# members x RK4 steps of one second-variation pass.  A pass's arrays grow
# with members x steps, so a longer stack is split to bound its working
# memory by that of one member at STACK_LIMIT steps
STACK_LIMIT = 240


@dataclass(frozen=True)
class ControlSystem:
    """Dynamics f written on components, and its partials, which take
    stacks on leading axes for the whole-grid backward pass.

    ``f`` takes one state (n,) and control (m,), or B of each stacked on
    the last axis, (n, B) and (m, B), and returns (n,) or (n, B) with
    ``f(X, U)[:, b] == f(X[:, b], U[:, b])``; code such as
    ``np.array([u[0], x[0] * u[1]])`` or ``A @ x`` does both.
    ``integrate`` steps even one trajectory as a batch of one, and raises
    ConfigurationError for an ``f`` that does not.

    ``partials(x, u)`` returns f's Jacobian, the stage rows [df/dx |
    df/du], as one (..., n, n + m) array, ``partials(X, U)[i] ==
    partials(X[i], U[i])``; the oracle passes x and u of one leading
    shape.  ``d_partials(x, u, dx, du)`` returns its derivative
    [dA | dB] along (dx, du), its four arguments and result shaped the
    same way, from which ``EndpointOracle`` forms the exact second variation of
    the endpoint map.  The oracle keeps both read-only and raises
    ConfigurationError for another shape.  ``pathlift.validate_oracle``
    checks a hand-written ``d_partials``: a wrong term fails its
    second-order Taylor row.

    ``closed_form``, optional, is the exact endpoint map of P constant
    controls on segments of length dt, as pure algebra.
    ``closed_form(x0, us, dt)``, with K controls stacked on the leading
    axis of ``us`` (K, P, m), returns the states at the P segment ends
    (K, P, n), F the last, and J (K, n, P m), J's columns segment by
    segment as the flattened control; ``closed_form(x0, us, dt, vs)``,
    with directions ``vs`` (K, P, m), returns the same states and dJ(v_k)
    at u_k (K, n, P m), the derivative of J along v_k.  Each member's rows
    are those of the stack of one, bit for bit, in fresh arrays.  Where it
    is set, ``EndpointOracle`` takes F, J and dJ from it, with
    floating-point warnings off, and keeps no memo; the oracle raises
    TrajectoryBlowup on the segment-end states as ``integrate`` does on
    its step ends.  ``trajectory`` and ``endpoint_refined`` still
    integrate ``f``.
    """

    name: str
    state_dim: int
    control_dim: int
    f: Callable          # (n,), (m,) -> (n,); (n, B), (m, B) -> (n, B)
    partials: Callable   # (..., n), (..., m) -> (..., n, n + m)
    # (..., n), (..., m), (..., n), (..., m) -> (..., n, n + m)
    d_partials: Callable
    # x0 (n,), us (K, P, m), dt -> ends (K, P, n), J (K, n, P m); with vs
    # (K, P, m) -> ends, dJ (K, n, P m)
    closed_form: Callable = None


def _constant(mat):
    """Partials equal to ``mat`` at every (x, u)."""
    return lambda x, u: np.broadcast_to(mat, x.shape[:-1] + mat.shape)


def _zero_d_partials(n, m):
    """d_partials of a system that is affine in (x, u)."""
    return lambda x, u, dx, du: np.zeros(x.shape[:-1] + (n, n + m))


def _check_escape(ends, times):
    """Raise TrajectoryBlowup at the first of the end times ``times`` (T,)
    at which a member's state in ``ends`` (K, T, n) is non-finite or has
    |x|^2 > BLOWUP_NORM^2: the one escape test, of :func:`integrate` on
    its step ends and of ``EndpointOracle._closed`` on a closed form's
    segment ends, its ``escape_time`` that time."""
    squares = np.add.reduce(ends * ends, axis=-1)
    # |x| <= BLOWUP_NORM as |x|^2 <= BLOWUP_NORM^2, the same test for every
    # float; NaN, inf and large states alike fail it on the largest
    if squares.size and not squares.max() <= BLOWUP_NORM ** 2:
        fine = (squares <= BLOWUP_NORM ** 2).all(axis=0)
        t = float(times[int(fine.argmin())])
        raise TrajectoryBlowup(
            f"trajectory escaped near t = {t:.4f}", escape_time=t)


def _integrator_closed_form(x0, us, dt, vs=None):
    """The single integrator's endpoint map, F = x0 + dt sum_p u_p, with
    J = dt [I ... I] and dJ = 0 (``ControlSystem.closed_form``)."""
    count, segments, n = us.shape
    # the states at the segment ends, x0 first, summed from x0 on
    states = np.empty((count, segments + 1, n))
    states[:, 0] = x0
    np.multiply(us, dt, out=states[:, 1:])
    np.add.accumulate(states, axis=1, out=states)
    if vs is not None:
        return states[:, 1:], np.zeros((count, n, segments * n))
    return states[:, 1:], np.tile(dt * np.eye(n), (count, 1, segments))


def single_integrator(dim=1):
    dim = integer(dim, "dim")
    if dim < 1:
        raise ConfigurationError("dim must be >= 1")
    return ControlSystem(
        name="single-integrator", state_dim=dim, control_dim=dim,
        f=lambda x, u: np.asarray(u, float),
        partials=_constant(np.eye(dim, 2 * dim, dim)),      # [0 | I]
        d_partials=_zero_d_partials(dim, dim),
        closed_form=_integrator_closed_form)


def lti(A, B):
    A = finite(A, "lti matrix A")
    B = finite(B, "lti matrix B")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigurationError("A must be square")
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ConfigurationError("B must have the same row count as A")
    return ControlSystem(
        name="lti", state_dim=A.shape[0], control_dim=B.shape[1],
        f=lambda x, u: A @ x + B @ u, partials=_constant(np.hstack([A, B])),
        d_partials=_zero_d_partials(*B.shape))


def brockett():
    """Nonholonomic integrator x1' = u1, x2' = u2, x3' = x1 u2.

    Its endpoint map from the zero control is the textbook corank-1
    singular point: the third direction is invisible to the first
    variation there.
    """
    def f(x, u):
        return np.array([u[0], u[1], x[0] * u[1]])

    def partials(x, u):
        out = np.zeros(x.shape[:-1] + (3, 5))
        out[..., 2, 0] = u[..., 1]
        out[..., 0, 3] = out[..., 1, 4] = 1.0
        out[..., 2, 4] = x[..., 0]
        return out

    def d_partials(x, u, dx, du):
        out = np.zeros(x.shape[:-1] + (3, 5))
        out[..., 2, 0] = du[..., 1]
        out[..., 2, 4] = dx[..., 0]
        return out

    return ControlSystem(name="brockett", state_dim=3, control_dim=2, f=f,
                         partials=partials, d_partials=d_partials,
                         closed_form=_brockett_closed_form)


def _half_sums(w, dt, out, reverse=False):
    """Writes dt^2 (sum_{r<q} w_r + w_q / 2) at each segment q of ``w``
    (K, P) into ``out``, dt^2 (sum_{r>q} w_r + w_q / 2) with ``reverse``."""
    if reverse:
        w, out = w[:, ::-1], out[:, ::-1]
    np.add.accumulate(w, axis=1, out=out)
    out -= 0.5 * w
    out *= dt * dt


def _brockett_closed_form(x0, us, dt, vs=None):
    """Brockett's endpoint map (``ControlSystem.closed_form``).  On segment
    p with control (a_p, b_p), x_1 and x_2 gain dt a_p and dt b_p, and x_3
    gains b_p c_p, c_p = dt x1_p + dt^2 a_p / 2 = dt x_1 at the segment's
    midpoint, x1_p the x_1 at its start.  So F is quadratic in u: J's third
    row is c_p on b_p and dt^2 (b_q / 2 + sum_{p>q} b_p) on a_q.  dJ(v),
    v = (alpha, beta), is 0 but for its third row, the same two cumulative
    sums over v: dt^2 (sum_{r<q} alpha_r + alpha_q / 2) on b_q and
    dt^2 (beta_q / 2 + sum_{p>q} beta_p) on a_q."""
    count, segments, _ = us.shape
    # the states at the segment ends, x0 first, summed from x0 on
    states = np.empty((count, segments + 1, 3))
    states[:, 0] = x0
    np.multiply(us, dt, out=states[:, 1:, :2])
    np.add.accumulate(states[..., :2], axis=1, out=states[..., :2])
    gains = np.add(states[:, :-1, 0], states[:, 1:, 0])
    gains *= 0.5 * dt       # c_p
    np.multiply(us[..., 1], gains, out=states[:, 1:, 2])
    np.add.accumulate(states[..., 2], axis=1, out=states[..., 2])
    jac = np.zeros((count, 3, segments, 2))
    third = jac[:, 2]
    if vs is not None:
        _half_sums(vs[..., 1], dt, third[..., 0], reverse=True)
        _half_sums(vs[..., 0], dt, third[..., 1])
    else:
        jac[:, 0, :, 0] = jac[:, 1, :, 1] = dt
        _half_sums(us[..., 1], dt, third[..., 0], reverse=True)
        third[..., 1] = gains
    return states[:, 1:], jac.reshape(count, 3, 2 * segments)


def unicycle():
    def f(x, u):
        return np.array([u[0] * np.cos(x[2]), u[0] * np.sin(x[2]), u[1]])

    def partials(x, u):
        out = np.zeros(x.shape[:-1] + (3, 5))
        cos, sin = np.cos(x[..., 2]), np.sin(x[..., 2])
        out[..., 0, 2] = -u[..., 0] * sin
        out[..., 1, 2] = u[..., 0] * cos
        out[..., 0, 3], out[..., 1, 3] = cos, sin
        out[..., 2, 4] = 1.0
        return out

    def d_partials(x, u, dx, du):
        out = np.zeros(x.shape[:-1] + (3, 5))
        cos, sin = np.cos(x[..., 2]), np.sin(x[..., 2])
        turn = u[..., 0] * dx[..., 2]
        out[..., 0, 2] = -du[..., 0] * sin - turn * cos
        out[..., 1, 2] = du[..., 0] * cos - turn * sin
        out[..., 0, 3] = -sin * dx[..., 2]
        out[..., 1, 3] = cos * dx[..., 2]
        return out

    return ControlSystem(name="unicycle", state_dim=3, control_dim=2, f=f,
                         partials=partials, d_partials=d_partials)


# name -> builder; the CLI feeds config keys to its parameters by name
SYSTEM_BUILDERS = {
    "single-integrator": single_integrator,
    "lti": lti,
    "brockett": brockett,
    "unicycle": unicycle,
}


def make_system(name, **params):
    try:
        builder = SYSTEM_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown system {name!r}; known: {sorted(SYSTEM_BUILDERS)}"
        ) from None
    return builder(**params)


def _initial_state(system, x0):
    """``x0`` as a new float array; ConfigurationError unless it is finite
    and of length ``system.state_dim``."""
    x0 = finite(x0, "x0")
    if x0.shape != (system.state_dim,):
        raise ConfigurationError(f"x0 must have length {system.state_dim}")
    return x0


@dataclass(frozen=True)
class ControlGrid:
    """Uniform piecewise-constant control discretization."""

    horizon: float
    segments: int
    control_dim: int

    def __post_init__(self):
        object.__setattr__(self, "horizon", positive(self.horizon, "horizon"))
        if integer(self.segments, "segments") < 1:
            raise ConfigurationError("segments must be >= 1")
        if integer(self.control_dim, "control_dim") < 1:
            raise ConfigurationError("control_dim must be >= 1")

    @property
    def dim(self):
        return self.segments * self.control_dim

    @property
    def substeps(self):
        """RK4 steps per segment of the endpoint map on this grid."""
        return steps_per_segment(self.segments)

    @property
    def dt(self):
        return self.horizon / self.segments

    @property
    def weights(self):
        return np.full(self.dim, self.dt)

    def unpack(self, u_flat):
        u_flat = np.asarray(u_flat, dtype=float)
        if u_flat.shape != (self.dim,):
            raise ConfigurationError(
                f"control vector must have length {self.dim}, "
                f"got {u_flat.shape}")
        return u_flat.reshape(self.segments, self.control_dim)

    def constant(self, per_channel):
        """Flat control with the same value on every segment."""
        per_channel = np.asarray(per_channel, dtype=float)
        if per_channel.shape != (self.control_dim,):
            raise ConfigurationError(
                f"need {self.control_dim} channel values")
        return np.tile(per_channel, self.segments)


def steps_per_segment(segments):
    """S(P) = min(STEPS_PER_SEGMENT, ceil(GRID_STEPS / P)): the RK4 steps
    per segment of a P-segment grid, the fewest that keep P * S >=
    GRID_STEPS, and at most STEPS_PER_SEGMENT."""
    return min(STEPS_PER_SEGMENT, -(-GRID_STEPS // segments))


def _stages(f, x, u, h, stages):
    """One RK4 step at states x (n, K) and controls u (m, K): writes its
    stage states x + h/2 k1, x + h/2 k2 and x + h k3 into ``stages`` (3,
    n, K) and returns the increment h/6 (k1 + 2 k2 + 2 k3 + k4), summed in
    that order, in place."""
    k1 = f(x, u)
    np.add(x, 0.5 * h * k1, out=stages[0])
    k2 = f(stages[0], u)
    total = k1 + 2 * k2
    del k1
    np.add(x, 0.5 * h * k2, out=stages[1])
    k3 = f(stages[1], u)
    del k2
    total += 2 * k3
    np.add(x, h * k3, out=stages[2])
    total += f(stages[2], u)
    total *= h / 6.0
    return total


def _check_stacked(f, x, u):
    """Raise ConfigurationError unless ``f`` at stacked (n, B) states and
    (m, B) controls equals ``f`` at each member's own state and control."""
    try:
        stacked = np.asarray(f(x, u), dtype=float)
        if x.shape[1] == 1:
            members = np.asarray(f(x[:, 0], u[:, 0]), dtype=float)[..., None]
        else:
            members = np.stack([np.asarray(f(x[:, b], u[:, b]), dtype=float)
                                for b in range(x.shape[1])], axis=-1)
    except (ValueError, IndexError, TypeError) as exc:
        raise ConfigurationError(
            f"f fails on stacked (n, B) states: {exc}") from exc
    # a stacked A @ x may round differently from one column's A @ x; equal
    # bytes, the common case, need no elementwise test
    if stacked.shape != x.shape or not (
            stacked.tobytes() == members.tobytes()
            or np.allclose(stacked, members, rtol=1e-9, atol=1e-9,
                           equal_nan=True)):
        raise ConfigurationError(
            "f must map stacked (n, B) states and (m, B) controls column "
            "by column, as it maps one (n,) state and (m,) control")


@functools.lru_cache(maxsize=64)
def _step_times(horizon, steps):
    """The step-start times of ``steps`` uniform steps over [0, horizon],
    made once per (horizon, steps) and shared read-only."""
    times = np.linspace(0.0, horizon, steps + 1)
    times.flags.writeable = False
    return times


@functools.lru_cache(maxsize=16)
def _eye(r, c=None, signed=False):
    """The identity's rows [I | Z] (r, c), made once per shape and shared
    read-only: Z = 0, or with ``signed`` Z = -0.0, which added to any float
    leaves it as it is, so adding [I | -0] to a block adds I to its first r
    columns alone, in one contiguous pass."""
    eye = np.zeros((r, c or r))
    if signed:
        eye[:, r:] = -0.0
    eye[:, :r] = np.eye(r)
    eye.flags.writeable = False
    return eye


# integrate's default substeps: steps_per_segment of the grid's segments
_BY_GRID = object()


def integrate(system, x0, u_values, horizon, substeps=_BY_GRID):
    """Fixed-step RK4 flow of the control system, ``substeps`` steps per
    segment (by default :func:`steps_per_segment` of the P segments, as an
    ``EndpointOracle`` steps), in exact Picard sweeps over the whole grid.

    ``u_values`` has shape (P, m) for one trajectory, or (P, m, B) for B
    independent trajectories from the same x0.  Returns (times, states,
    stages): the step-start times, (T,), T = P * substeps + 1, one
    read-only array shared by every call on the same (horizon, steps); the
    states at the step starts, (T, n), and each step's four stage states,
    (T - 1, 4, n); (B, T, n) and (B, T - 1, 4, n) for a batch.  ``f`` is
    checked against single-member calls at the first and last states, and
    :func:`_check_escape` on the step-end times raises TrajectoryBlowup,
    all with floating-point warnings off.
    ``horizon`` and ``x0`` follow the rules of ``ControlGrid`` and
    ``EndpointOracle``.

    The states are bit for bit those of stepping x_{j+1} = x_j + inc(x_j)
    one step at a time.  States up to x_d are exact, the later ones are
    guesses (x0 at first).  A sweep takes the steps from d on at their
    guessed starts, one :func:`_stages` on an (n, L*B) stack, and
    accumulates their increments in order from x_d.  Up to the first state
    whose bits differ from its guess, each step was taken at its true
    start, so those states and their steps' stages are exact: at least one
    more per sweep.  A cascade (each component driven only by the controls
    and earlier ones) is exact after n sweeps, confirmed by sweep n + 1;
    after n + 1 sweeps the steps left are taken one at a time.
    """
    u_values = np.asarray(u_values, dtype=float)
    if u_values.ndim not in (2, 3) or u_values.shape[1] != system.control_dim:
        raise ConfigurationError(
            "u_values must be (segments, control_dim) or "
            "(segments, control_dim, batch)")
    if len(u_values) < 1:
        raise ConfigurationError("u_values must hold at least one segment")
    if u_values.ndim == 3 and u_values.shape[2] < 1:
        raise ConfigurationError(
            "u_values must hold at least one trajectory in its batch axis")
    if substeps is _BY_GRID:
        substeps = steps_per_segment(len(u_values))
    elif integer(substeps, "substeps") < 1:
        raise ConfigurationError(f"substeps must be >= 1, got {substeps}")
    single = u_values.ndim == 2
    u_values = u_values[..., None] if single else u_values
    segments, m, batch = u_values.shape
    steps = segments * substeps
    horizon = positive(horizon, "horizon")
    h = horizon / segments / substeps
    x0 = _initial_state(system, x0)
    n = len(x0)
    # column j*B + b holds member b at step j: a run of steps is a slice
    states = np.empty((n, (steps + 1) * batch))
    states.reshape(n, steps + 1, batch)[...] = x0[:, None, None]
    stages = np.empty((4, n, steps * batch))
    controls = np.repeat(u_values, substeps, axis=0).transpose(1, 0, 2)
    controls = controls.reshape(m, -1)
    done = sweeps = 0
    # flags raised at guesses mean nothing, nor at a non-finite control; a
    # real escape fails the test below
    with np.errstate(all="ignore"):
        _check_stacked(system.f, states[:, :batch], u_values[0])
        while done < steps:
            stop = steps if sweeps <= n else done + 1
            sweeps += 1
            a, b = done * batch, stop * batch
            new = _stages(system.f, states[:, a:b], controls[:, a:b], h,
                          stages[1:, :, a:b])
            new[:, :batch] += states[:, a:a + batch]
            if stop > done + 1:
                runs = new.reshape(n, -1, batch)
                np.add.accumulate(runs, axis=1, out=runs)
                moved = np.logical_or.reduce(
                    new[:, :-batch].view(np.int64)
                    != states[:, a + batch:b].view(np.int64), axis=0)
                if batch > 1:
                    moved = moved.reshape(-1, batch).any(axis=1)
                first = int(moved.argmax())
                if moved[first]:
                    stop = done + 1 + first
            states[:, a + batch:b + batch] = new
            done = stop
        # each step's first stage is its start, exact once the step is
        stages[0] = states[:, :-batch]
        states = states.reshape(n, steps + 1, batch)
        times = _step_times(horizon, steps)
        _check_escape(states[:, 1:].T, times[1:])
        _check_stacked(system.f, states[:, -1], u_values[-1])
    out = (states.transpose(2, 1, 0),
           stages.reshape(4, n, steps, batch).transpose(3, 2, 0, 1))
    return times, *(np.ascontiguousarray(a[0] if single else a) for a in out)


def _propagators(a, h):
    """RK4 step blocks of a linear flow, from its four stage matrices.

    ``a`` (4, ..., r, c), c >= r, holds the nonzero rows [A_i | C_i] of
    the stage blocks [[A_i, C_i], [0, 0]] at a step's stage states i = 1..4,
    stage i in ``a[i - 1]``.
    Returns [M | N] (..., r, c), the nonzero rows of the step block
    [[M, N], [0, I]] = I + h/6 (a_4 + 2 b_2 + 2 b_3 + b_4) with
    b_2 = (I + h/2 a_4) a_3, b_3 = (I + h/2 b_2) a_2, b_4 = (I + h b_3) a_1:
    the forward RK4 step (y, w) -> (M y + N w, w) of ydot = A y + C w,
    wdot = 0, expanded.  Fed a system's ``partials`` it gives M = dPhi/dx
    and N = dPhi/du of the RK4 step Phi(x, u).  Also returns b_2 and b_3,
    the intermediates :func:`_propagator_derivatives` differentiates.
    """
    r = a.shape[-2]
    a1, a2, a3, a4 = a
    # every sum in place, in the order of the formula: dJ's peak memory.
    # Each scaling runs over whole blocks, not their strided first r
    # columns: the same products, in fewer inner loops
    b2 = (0.5 * h * a4)[..., :r] @ a3
    b2 += a3
    b3 = (0.5 * h * b2)[..., :r] @ a2
    b3 += a2
    b4 = (h * b3)[..., :r] @ a1
    b4 += a1
    b4 += a4    # h/6 (a4 + 2 (b2 + b3) + b4)
    twice = b3 + b2
    twice *= 2
    b4 += twice
    b4 *= h / 6.0
    b4 += _eye(r, b4.shape[-1], signed=True)
    return b4, b2, b3


def _propagator_derivatives(a, da, b2, b3, h):
    """[dM | dN] (..., r, c), the derivative of :func:`_propagators`' step
    rows along stage rows ``da`` (4, ..., r, c), from its stage rows ``a``
    and intermediates ``b2``, ``b3``: each line of the polynomial
    differentiated, db_2 = h/2 (da_4 a_3 + a_4 da_3) + da_3 and so on
    (forward mode through the fixed scheme)."""
    r = a.shape[-2]
    a1, a2, a3, a4 = a
    d1, d2, d3, d4 = da
    db2 = d4[..., :r] @ a3
    db2 += a4[..., :r] @ d3
    db2 *= 0.5 * h
    db2 += d3
    db3 = db2[..., :r] @ a2
    db3 += b2[..., :r] @ d2
    db3 *= 0.5 * h
    db3 += d2
    db4 = db3[..., :r] @ a1
    db4 += b3[..., :r] @ d1
    db4 *= h
    db4 += d1
    db4 += d4    # h/6 (da4 + 2 (db2 + db3) + db4)
    db3 += db2
    db3 *= 2
    db4 += db3
    db4 *= h / 6.0
    return db4


def _gains(blocks):
    """[-0 | C] (..., r, c): ``blocks``' C columns next to -0.0.  Added to
    a block it adds C to the C columns alone, since adding -0.0 leaves
    every float as it is, in one contiguous pass."""
    gains = blocks.copy()
    gains[..., :blocks.shape[-2]].fill(-0.0)
    return gains


def _compose(later, earlier, gains=None):
    """[A_l | C_l] o [A_e | C_e] = [A_l A_e | A_l C_e + C_l]: the nonzero
    rows (..., r, c) of two affine maps' blocks [[A, C], [0, I]] composed,
    the later on the left; ``gains`` is :func:`_gains` of ``later`` where
    the caller has it."""
    r = later.shape[-2]
    out = later[..., :r] @ earlier
    if out.shape[-1] > r:   # linear blocks, as J's segment scan has, skip
        out += _gains(later) if gains is None else gains
    return out


def _chain(steps):
    """Running products of each segment's step blocks, for all segments
    at once: entry j of the (..., P, S + 1, r, c) result holds the nonzero
    rows of the product of the first j blocks ``steps`` (..., P, S, r, c)."""
    *lead, count, r, c = steps.shape
    out = np.empty((*lead, count + 1, r, c))
    out[..., 0, :, :] = _eye(r, c)
    # the step axis leading, so that step j is one index
    later, chain = steps.swapaxes(-3, 0), out.swapaxes(-3, 0)
    gains = _gains(later)
    for j in range(count):
        chain[j + 1] = _compose(later[j], chain[j], gains[j])
    return out


def _scan(blocks, reverse=False):
    """Inclusive scan of ``blocks`` (..., P, r, c) along the segment axis
    under :func:`_compose`: entry p of the result composes blocks p, ...,
    0 (blocks P - 1, ..., p with ``reverse``).  Doubling (Hillis &
    Steele, CACM 29 (1986)): ceil(log2 P) batched compositions, level d
    composing each entry with the one d segments before it (after it,
    with ``reverse``)."""
    out = blocks.copy()
    segments = out.swapaxes(-3, 0)      # the segment axis leading
    d = 1
    while d < len(segments):
        later, earlier = segments[d:], segments[:-d]
        (earlier if reverse else later)[...] = _compose(later, earlier)
        d *= 2
    return out


def _flows(steps):
    """J's backward pass at a control, from its step rows [M_j | N_j]
    (..., P, S, n, n + m): the running products [Phi_s | C_s] (..., P,
    S + 1, n, n + m) of :func:`_chain`, whose last entries are the segment
    maps [A_p | C_p], and their reverse :func:`_scan` K_{p,S} = A_{P-1}
    ... A_{p+1} from the end of segment p to T, (..., P - 1, n, n), for
    p < P - 1 (K_{P-1,S} = I).  J's block on segment p is K_{p,S} C_p."""
    chain = _chain(steps)
    n = steps.shape[-2]
    return chain, _scan(chain[..., 1:, -1, :, :n], reverse=True)


class _Kept:
    """What an oracle keeps for one control u (read-only, as are all its
    arrays): u's trajectory (times, states, stages); once J or dJ is asked
    at u, J and what :meth:`EndpointOracle._linearized` formed with it,
    ``linear`` = (x, a, b_2, b_3, chain, step rows, K_{p,S}), which every
    dJ at u reads and none changes.  A unicycle control on 80 segments
    (80 RK4 steps), linearized alone, keeps 10 KB of trajectory, 4 KB of
    J and 92 KB of linearization (its x is a view of the stage
    states)."""

    __slots__ = ("u", "trajectory", "jac", "linear")

    def __init__(self, key, trajectory):
        self.u = np.frombuffer(key)
        self.trajectory = trajectory
        self.jac = self.linear = None


def _stage_rows(system, name, x, u, *tangent):
    """``system``'s ``partials`` (``name``), or its ``d_partials`` along
    ``tangent``, at stage states x (..., n) and controls u (..., m);
    ConfigurationError unless they are one (..., n, n + m) array."""
    rows = getattr(system, name)(x, u, *tangent)
    shape = x.shape[:-1] + (x.shape[-1], x.shape[-1] + u.shape[-1])
    if getattr(rows, "shape", None) != shape:
        raise ConfigurationError(
            f"{name} must return one (..., n, n + m) array, {shape} here, "
            f"got {getattr(rows, 'shape', type(rows).__name__)}")
    return rows


def _read_only(arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _stacked(arrays):
    """``arrays`` stacked on a new leading axis: a view of one array, a
    copy of several."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


class EndpointOracle(MapOracle):
    """Map oracle for the endpoint map of a control system.

    It keeps one memo keyed by control bytes: the rows of the last
    request that integrated and those of the last request for J or dJ,
    each with its trajectory and stage states, and, where J or dJ was
    asked, its linearization, J and the flows of :func:`_flows`.  So
    repeated calls at the points a caller has reached (spectral assembly,
    adjoints, correction, C_est sweeps) integrate and linearize each
    control once, and the backward pass calls no ``f``.  Any call may
    replace the memo, with no lock: use one oracle from one thread at a
    time.  What it keeps is read-only.

    For a system with a ``closed_form``, :meth:`eval`, :meth:`jacobian`,
    :meth:`jacobian_derivative` and their ``_many`` forms return the
    closed form's fresh arrays, computed anew at each call (a fresh
    Brockett J in a tenth of the time of one by RK4), and only the RK4
    trajectories keep the memo.  Either way a request takes one path:
    :meth:`eval`, :meth:`jacobian` and :meth:`jacobian_derivative` are
    the stacks of one of their ``_many`` forms.
    """

    def __init__(self, system, x0, grid):
        if grid.control_dim != system.control_dim:
            raise ConfigurationError(
                "grid control_dim does not match the system")
        x0 = _initial_state(system, x0)
        super().__init__(grid.dim, system.state_dim, grid.weights)
        self.system = system
        self.x0 = x0
        self.grid = grid
        self._h = grid.dt / grid.substeps
        # the segment-end times, which a closed form's escape test reads
        self._end_times = grid.dt * np.arange(1, grid.segments + 1)
        self._end_times.flags.writeable = False
        # control bytes -> _Kept, for the rows of the last request that
        # integrated and those of the last request for J or dJ
        self._memo = {}
        self._asked = []    # keys of the last request for J or dJ

    def trajectory(self, u):
        """(times, states) of the controlled flow at the RK4 step starts."""
        return self._kept(self._domain_vec(u)[None])[0].trajectory[:2]

    # -- oracle contract ---------------------------------------------------

    def eval(self, u):
        """F(u): the stack of one."""
        return self.eval_many(self._domain_vec(u)[None])[0]

    def _closed(self, us, vs=None):
        """The system's ``closed_form`` at the rows of ``us`` (K, N): (F, J),
        or with directions ``vs`` (K, N) (F, dJ(v_k) at u_k).
        ConfigurationError unless it returns the segment-end states (K, P,
        n) and J or dJ (K, n, N); TrajectoryBlowup by :func:`_check_escape`
        on those states at the segment-end times, as :func:`integrate`
        raises it.  F is the last of them.  Floating-point warnings are
        off throughout, as in :func:`integrate`."""
        grid, count = self.grid, len(us)
        shape = (count, grid.segments, grid.control_dim)
        args = (self.x0, us.reshape(shape), grid.dt)
        if vs is not None:
            args += (vs.reshape(shape),)
        want = [shape[:2] + (self.dim_codomain,),
                (count, self.dim_codomain, self.dim_domain)]
        with np.errstate(all="ignore"):
            out = self.system.closed_form(*args)
            got = [getattr(a, "shape", None) for a in out]
            if got != want:
                raise ConfigurationError(
                    f"closed_form must return arrays of shapes {want}, "
                    f"got {got}")
            ends, jac = out
            _check_escape(ends, self._end_times)
        return ends[:, -1], jac

    def _kept(self, us, ask=False):
        """The memo's entries for the rows of ``us`` (B, N), the rows it
        lacks integrated by :func:`integrate` in one stacked call; if there
        are any, the memo becomes the request's rows and those of the last
        request for J or dJ, which the request becomes if ``ask``."""
        keys = [u.tobytes() for u in us]
        todo = {key: u for key, u in zip(keys, us) if key not in self._memo}
        if todo:
            rows = _stacked(list(todo.values()))
            out = _read_only(integrate(
                self.system, self.x0,
                rows.reshape(len(rows), self.grid.segments, -1).transpose(
                    1, 2, 0),
                self.grid.horizon, self.grid.substeps))
            new = {key: _Kept(key, (out[0], states, stages))
                   for key, states, stages in zip(todo, *out[1:])}
            self._memo = {key: self._memo.get(key) or new[key]
                          for key in keys + self._asked}
        if ask:
            self._asked = keys
        return [self._memo[key] for key in keys]

    def eval_many(self, us):
        """F at each row of ``us`` (B, N), shape (B, n), from the closed
        form, else from :meth:`_kept`: a later :meth:`jacobian` costs no
        integration."""
        us = self._domain_rows(us)
        if self.system.closed_form is not None:
            return self._closed(us)[0]
        ends = [e.trajectory[1][-1] for e in self._kept(us)]
        return np.array(ends).reshape(len(us), self.dim_codomain)

    def endpoint_refined(self, u, refine=4):
        """Terminal state re-integrated with refine times as many steps as
        the oracle takes, ``refine * grid.substeps`` per segment."""
        if integer(refine, "refine") < 1:
            raise ConfigurationError(f"refine must be >= 1, got {refine}")
        _, states, _ = integrate(self.system, self.x0,
                                 self.grid.unpack(self._domain_vec(u)),
                                 self.grid.horizon,
                                 self.grid.substeps * refine)
        return states[-1].copy()

    def discretisation_error(self, u):
        """(16/15) |F_S(u) - F_2S(u)|: Richardson's estimate of the RK4
        error |F_S(u) - F(u)| of the computed map.  The error is of order
        h^4, so halving h leaves 1/16 of it, and F_S - F_2S is 15/16 of
        F_S's error.  On a system with a ``closed_form``, F_S is the exact
        map and F_2S still RK4's, so it reads how far RK4 on 2S steps is
        from the exact map: roundoff for Brockett and the single
        integrator, whose segment flows RK4 integrates exactly."""
        return 16.0 / 15.0 * float(np.linalg.norm(
            self.eval(u) - self.endpoint_refined(u, refine=2)))

    def _stage_controls(self, kept):
        """Each entry's control at every stage of its steps, (4, K, P, S,
        m), stage-major as the stage states."""
        substeps = self.grid.substeps
        controls = _stacked([e.u for e in kept]).reshape(
            len(kept), self.grid.segments, 1, -1)
        return controls.repeat(4 * substeps, axis=2).reshape(
            controls.shape[:2] + (substeps, 4, -1)).transpose(3, 0, 1, 2, 4)

    def _linearized(self, kept):
        """J at the distinct entries of ``kept`` that lack it, in one
        stacked call that forms only what J reads: at their kept stage
        states x (4, K, P, S, n), stage i of every step in ``x[i - 1]``,
        with no ``f`` call, the stage rows a = [df/dx | df/du] as the
        system's ``partials`` return them;
        :func:`_propagators`' step rows [M_j | N_j] with its b_2 and b_3;
        their :func:`_flows` [Phi_s | C_s] and K_{p,S}; and J's block on
        segment p, K_{p,S} C_p (C_{P-1} on the last).  Each entry keeps J
        and ``linear`` = (x, a, b_2, b_3, chain, step rows, K_{p,S}), all
        that dJ reads there.  Returns ``linear`` stacked if every entry of
        ``kept`` was formed here, else None."""
        todo = [e for e in dict.fromkeys(kept) if e.jac is None]
        if not todo:
            return None
        count, n = len(todo), self.dim_codomain
        x = _stacked([e.trajectory[2] for e in todo]).reshape(
            count, self.grid.segments, self.grid.substeps, 4, n).transpose(
                3, 0, 1, 2, 4)
        a = _stage_rows(self.system, "partials", x, self._stage_controls(todo))
        steps, b2, b3 = _propagators(a, self._h)
        chain, ends = _flows(steps)
        gains = chain[:, :, -1, :, n:]      # C_p
        jacs = np.empty((count, n, self.grid.segments, gains.shape[-1]))
        blocks = jacs.transpose(0, 2, 1, 3)     # segment p's block
        blocks[:, -1] = gains[:, -1]
        np.matmul(ends, gains[:, :-1], out=blocks[:, :-1])
        jacs = jacs.reshape(count, n, -1)
        linear = (x, a, b2, b3, chain, steps, ends)
        _read_only((*linear, jacs))
        for k, e in enumerate(todo):
            e.jac = jacs[k]
            e.linear = (x[:, k], a[:, k], b2[k], b3[k], chain[k], steps[k],
                        ends[k])
        return linear if count == len(kept) else None

    def jacobian(self, u):
        """J = dF/du: the stack of one."""
        return self.jacobian_many(self._domain_vec(u)[None])[0]

    def jacobian_many(self, us):
        """J at each row of ``us`` (B, N), shape (B, n, N), each bit for
        bit the stack of one (of a row integrated in the same batch): one
        closed-form call, or the rows the memo lacks integrated, then
        linearized with their flows and J in one stacked call.  The memo
        keeps each J read-only with its linearization and flows for dJ at
        its row; a stack of one is a view of the kept J, more rows a
        copy."""
        us = self._domain_rows(us)
        if self.system.closed_form is not None:
            return self._closed(us)[1]
        kept = self._kept(us, ask=True)
        self._linearized(kept)
        return _stacked([e.jac for e in kept]).reshape(
            len(kept), self.dim_codomain, self.dim_domain)

    def jacobian_derivative(self, u, v):
        """Second variation dJ(v): the stack of one."""
        return self.jacobian_derivative_many(
            self._domain_vec(u)[None], self._domain_vec(v, "v")[None])[0]

    def jacobian_derivative_many(self, us, vs):
        """Exact derivatives of :meth:`jacobian` along v_k at u_k, (K, n,
        N), each bit for bit the stack of one: one closed-form call, or
        passes of at most STACK_LIMIT // (P S) members, S =
        ``grid.substeps``, the memory of one call at STACK_LIMIT RK4
        steps."""
        us, vs = self._pair_rows(us, vs)
        if self.system.closed_form is not None:
            return self._closed(us, vs)[1]
        kept = self._kept(us, ask=True)     # one batch for the new rows
        out = np.empty((len(us), self.dim_codomain, self.dim_domain))
        size = max(1, STACK_LIMIT // (self.grid.segments
                                      * self.grid.substeps))
        for k in range(0, len(us), size):
            out[k:k + size] = self._second_variations(kept[k:k + size],
                                                      vs[k:k + size])
        return out

    def _second_variations(self, kept, vs):
        """dJ(v_k) at the controls of the entries ``kept`` (K, n, N) in one
        pass, the stack leading.

        Per control, from :meth:`_linearized` (formed with its J): the
        stage states x, the stage rows a_i = [df/dx | df/du], the step rows
        [M_s | N_s] and their intermediates b_2 and b_3, and the
        :func:`_flows` [Phi_s | C_s] and K_{p,S}.  Per member: the tangent
        y = Phi y_p + C v_p at every step, y_p at segment p's start from a
        :func:`_scan` of [A_p | C_p v_p]; the stage tangents Y_1 = y_j and
        Y_{i+1} = y_j + c_i h a_i [Y_i; v], c = (1/2, 1/2, 1); the stage
        rows' derivatives [dA_i | dB_i] from ``d_partials`` along
        (Y_i, v); and from those :func:`_propagator_derivatives`'
        [dM_s | dN_s].  The tangent of :func:`_chain`'s recurrence,
        D_{s+1} = M_s D_s + T_s from D_0 = 0 with
        T_s = [dM_s Phi_s | dM_s C_s + dN_s], gives in D_p = D_S the
        derivative of [A_p | C_p]: S - 1 batched products over the
        stack's segments, one per step.  With Q_p = K_{p,S} D_p (D_{P-1}
        on the last), that derivative carried to T, dJ(v)'s block on
        segment p's controls is Q_p[:, n:] + L_{p+1} C_p, where
        L_q = Q_q[:, :n] + L_{q+1} A_q, L_P = 0, is the derivative of
        A_{P-1} ... A_q: one affine scan, transposed, over the reversed
        segments, so that it composes g_q o ... o g_{P-1}.
        """
        h = self._h
        # the arrays just formed if each member is a control first met
        # here, else each member's kept arrays, stacked
        formed = self._linearized(kept)
        if formed is None:
            x, a, b2, b3, chain, steps, kernels = map(
                _stacked, zip(*(e.linear for e in kept)))
            x, a = x.swapaxes(0, 1), a.swapaxes(0, 1)     # stage-major
        else:
            x, a, b2, b3, chain, steps, kernels = formed
        n, m = self.dim_codomain, self.grid.control_dim
        count, segments = len(kept), self.grid.segments
        # each segment's v, broadcast over its steps
        v = vs.reshape(count, segments, 1, m)
        ends = chain[:, :, -1]      # [A_p | C_p]
        # [y_p; v_p] at each segment's start, then y at every step start
        starts = np.zeros((count, segments, n + m, 1))
        starts[:, :, n:] = v.swapaxes(-1, -2)
        starts[:, 1:, :n] = _scan(np.concatenate(
            [ends[..., :n], ends[..., n:] @ starts[:, :, n:]],
            axis=-1))[:, :-1, :, n:]
        y = (chain[:, :, :-1] @ starts[:, :, None])[..., 0]
        # stage tangents next to v: each stage's slope is one product
        yv = np.empty(x.shape[:-1] + (n + m,))
        yv[..., n:] = v
        yv[0, ..., :n] = y
        for i, c in enumerate((0.5, 0.5, 1.0)):
            slope = a[i] @ yv[i, ..., None]
            yv[i + 1, ..., :n] = y + c * h * slope[..., 0]
        da = _stage_rows(self.system, "d_partials", x,
                         self._stage_controls(kept), yv[..., :n], yv[..., n:])
        dsteps = _propagator_derivatives(a, da, b2, b3, h)
        del x, a, da, b2, b3    # free the stage rows for the sums
        terms = dsteps[..., :n] @ chain[:, :, :-1]
        dsteps[..., :n].fill(-0.0)      # as _gains: adds dN alone
        terms += dsteps
        del dsteps
        # D_{s+1} = M_s D_s + T_s from D_1 = T_0, each D_{s+1} in place of
        # T_s: the last is D_p, the derivative of [A_p | C_p]
        product = np.empty_like(terms[:, :, 0])
        for s in range(1, self.grid.substeps):
            np.matmul(steps[:, :, s, :, :n], terms[:, :, s - 1], out=product)
            terms[:, :, s] += product
        q = terms[:, :, -1]     # Q_p = K_{p,S} D_p, carried to T
        q[:, :-1] = kernels @ q[:, :-1]
        # g_q = [A_q^T | Q_q[:, :n]^T] maps L_{q+1}^T to L_q^T
        g = np.concatenate([ends[..., :n].swapaxes(-1, -2),
                            q[..., :n].swapaxes(-1, -2)], axis=-1)
        dtail = _scan(g[:, ::-1])[:, ::-1, :, n:].swapaxes(-1, -2)   # L_q
        out = q[..., n:]
        out[:, :-1] += dtail[:, 1:] @ ends[:, :-1, :, n:]
        return out.swapaxes(-2, -3).reshape(count, n, -1)


def endpoint_problem(system_name, x0, horizon, segments, system_params=None):
    """Convenience builder: registered system -> EndpointOracle."""
    system = make_system(system_name, **(system_params or {}))
    grid = ControlGrid(horizon=horizon, segments=segments,
                       control_dim=system.control_dim)
    return EndpointOracle(system, x0, grid)
