"""Endpoint maps of nonlinear control systems as map oracles.

A control system xdot = f(x, u) over a horizon [0, T], with piecewise
constant controls on P uniform segments, induces the endpoint map
sending the flattened control vector (length P*m) to the terminal state
in R^n.  The induced weighted inner product with weights T/P equals the
L2 inner product of the piecewise-constant representatives exactly, so
the oracle adjoint discretizes the continuous one.

The forward RK4 flow steps the state as an (n,) vector, or B independent
trajectories at once as an (n, B) array with the batch on the last axis:
``f`` is written on components, so one call steps every member.  The
partials f_x and f_u broadcast over leading axes, so the rest runs on the
whole control grid at once.  The transition kernel K(t) = M(T) M(t)^-1
(Kdot = -K f_x, K(T) = I) is linear in K, so each backward RK4 step is a
product with a propagator, K_j = K_{j+1} M_j, and
``EndpointOracle._propagators`` builds every M_j in one batch.  Simpson
quadrature of K(t) f_u per segment gives the coordinate Jacobian.

Second differentials are exact for systems that give f_xx, f_xu and f_uu:
``EndpointOracle.jacobian_derivative`` differentiates that quadrature
along v on the cached trajectory.  Every linear flow there steps with
``_propagators`` of a block matrix: the tangent y_v (ydot = f_x y + f_u v)
with those of [[f_x, f_u v], [0, 0]] on (y_v, 1), the kernel derivative
dK with [[M_j, dM_j], [0, M_j]], those of [[f_x, dA], [0, f_x]] for
dA = f_xx[y_v] + f_xu[v] (the block-triangular identity for Frechet
derivatives).  A system without the second partials keeps the
base-class central finite difference.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, TrajectoryBlowup, finite
from .maps import MapOracle

BLOWUP_NORM = 1e8


@dataclass(frozen=True)
class ControlSystem:
    """Dynamics f written on components, and partials that broadcast over
    leading axes, ``f_x(X, U)[i] == f_x(X[i], U[i])``, for the whole-grid
    backward pass.

    ``f`` takes one state (n,) and control (m,), or B of each stacked on
    the last axis, (n, B) and (m, B), and returns (n,) or (n, B) with
    ``f(X, U)[:, b] == f(X[:, b], U[:, b])``; code such as
    ``np.array([u[0], x[0] * u[1]])`` or ``A @ x`` does both.  Batched
    integration raises ConfigurationError for an ``f`` that does not.

    The second partials are optional and broadcast the same way; entry
    ``f_xu[..., i, a, k]`` is d2 f_i / dx_a du_k.  A system that gives all
    three gets the exact second variation of its endpoint map; without
    them ``EndpointOracle`` falls back to the base-class finite difference.
    """

    name: str
    state_dim: int
    control_dim: int
    f: Callable          # (n,), (m,) -> (n,); (n, B), (m, B) -> (n, B)
    f_x: Callable        # (..., n), (..., m) -> (..., n, n)
    f_u: Callable        # (..., n), (..., m) -> (..., n, m)
    f_xx: Callable | None = None  # -> (..., n, n, n)
    f_xu: Callable | None = None  # -> (..., n, n, m)
    f_uu: Callable | None = None  # -> (..., n, m, m)


def _lead(x, u):
    """Broadcast leading shape of stacked states and controls."""
    return np.broadcast_shapes(np.shape(x)[:-1], np.shape(u)[:-1])


def _constant(mat):
    """Partial equal to ``mat`` at every (x, u)."""
    return lambda x, u: np.broadcast_to(mat, _lead(x, u) + mat.shape)


def _zero_second_partials(n, m):
    """f_xx, f_xu and f_uu of a system that is affine in (x, u)."""
    return dict(f_xx=_constant(np.zeros((n, n, n))),
                f_xu=_constant(np.zeros((n, n, m))),
                f_uu=_constant(np.zeros((n, m, m))))


def single_integrator(dim=1):
    dim = int(dim)
    return ControlSystem(
        name="single-integrator", state_dim=dim, control_dim=dim,
        f=lambda x, u: np.asarray(u, float),
        f_x=_constant(np.zeros((dim, dim))), f_u=_constant(np.eye(dim)),
        **_zero_second_partials(dim, dim))


def lti(A, B):
    A = finite(A, "lti matrix A")
    B = finite(B, "lti matrix B")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigurationError("A must be square")
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ConfigurationError("B must have the same row count as A")
    return ControlSystem(
        name="lti", state_dim=A.shape[0], control_dim=B.shape[1],
        f=lambda x, u: A @ x + B @ u,
        f_x=_constant(A), f_u=_constant(B),
        **_zero_second_partials(*B.shape))


def brockett():
    """Nonholonomic integrator x1' = u1, x2' = u2, x3' = x1 u2.

    Its endpoint map from the zero control is the textbook corank-1
    singular point: the third direction is invisible to the first
    variation there.
    """
    def f(x, u):
        return np.array([u[0], u[1], x[0] * u[1]])

    def f_x(x, u):
        out = np.zeros(_lead(x, u) + (3, 3))
        out[..., 2, 0] = u[..., 1]
        return out

    def f_u(x, u):
        out = np.zeros(_lead(x, u) + (3, 2))
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        out[..., 2, 1] = x[..., 0]
        return out

    f_xu = np.zeros((3, 3, 2))
    f_xu[2, 0, 1] = 1.0
    return ControlSystem(name="brockett", state_dim=3, control_dim=2,
                         f=f, f_x=f_x, f_u=f_u,
                         f_xx=_constant(np.zeros((3, 3, 3))),
                         f_xu=_constant(f_xu),
                         f_uu=_constant(np.zeros((3, 2, 2))))


def unicycle():
    def f(x, u):
        return np.array([u[0] * np.cos(x[2]), u[0] * np.sin(x[2]), u[1]])

    def f_x(x, u):
        out = np.zeros(_lead(x, u) + (3, 3))
        out[..., 0, 2] = -u[..., 0] * np.sin(x[..., 2])
        out[..., 1, 2] = u[..., 0] * np.cos(x[..., 2])
        return out

    def f_u(x, u):
        out = np.zeros(_lead(x, u) + (3, 2))
        out[..., 0, 0], out[..., 1, 0] = np.cos(x[..., 2]), np.sin(x[..., 2])
        out[..., 2, 1] = 1.0
        return out

    def f_xx(x, u):
        out = np.zeros(_lead(x, u) + (3, 3, 3))
        out[..., 0, 2, 2] = -u[..., 0] * np.cos(x[..., 2])
        out[..., 1, 2, 2] = -u[..., 0] * np.sin(x[..., 2])
        return out

    def f_xu(x, u):
        out = np.zeros(_lead(x, u) + (3, 3, 2))
        out[..., 0, 2, 0] = -np.sin(x[..., 2])
        out[..., 1, 2, 0] = np.cos(x[..., 2])
        return out

    return ControlSystem(name="unicycle", state_dim=3, control_dim=2,
                         f=f, f_x=f_x, f_u=f_u, f_xx=f_xx, f_xu=f_xu,
                         f_uu=_constant(np.zeros((3, 2, 2))))


_SYSTEM_BUILDERS = {
    "single-integrator": single_integrator,
    "lti": lti,
    "brockett": brockett,
    "unicycle": unicycle,
}

SYSTEM_NAMES = tuple(sorted(_SYSTEM_BUILDERS))


def make_system(name, **params):
    try:
        builder = _SYSTEM_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown system {name!r}; known: {sorted(_SYSTEM_BUILDERS)}"
        ) from None
    return builder(**params)


@dataclass(frozen=True)
class ControlGrid:
    """Uniform piecewise-constant control discretization."""

    horizon: float
    segments: int
    control_dim: int

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ConfigurationError("horizon must be positive and finite")
        if self.segments < 1:
            raise ConfigurationError("segments must be >= 1")

    @property
    def dim(self):
        return self.segments * self.control_dim

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

    def pack(self, values):
        return np.asarray(values, dtype=float).reshape(self.dim)

    def constant(self, per_channel):
        """Flat control with the same value on every segment."""
        per_channel = np.asarray(per_channel, dtype=float)
        if per_channel.shape != (self.control_dim,):
            raise ConfigurationError(
                f"need {self.control_dim} channel values")
        return np.tile(per_channel, self.segments)


def _rk4(f, x, u, h):
    k1 = f(x, u)
    k2 = f(x + 0.5 * h * k1, u)
    k3 = f(x + 0.5 * h * k2, u)
    k4 = f(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _check_stacked(f, x, u):
    """Raise ConfigurationError unless ``f`` at stacked (n, B) states and
    (m, B) controls equals ``f`` at each member's own state and control."""
    try:
        stacked = np.asarray(f(x, u), dtype=float)
        members = np.stack([np.asarray(f(x[:, b], u[:, b]), dtype=float)
                            for b in range(x.shape[1])], axis=-1)
    except (ValueError, IndexError, TypeError) as exc:
        raise ConfigurationError(
            f"f fails on stacked (n, B) states: {exc}") from exc
    # a stacked A @ x may round differently from one column's A @ x
    if stacked.shape != x.shape or not np.allclose(
            stacked, members, rtol=1e-9, atol=1e-9, equal_nan=True):
        raise ConfigurationError(
            "f must map stacked (n, B) states and (m, B) controls column "
            "by column, as it maps one (n,) state and (m,) control")


def integrate(system, x0, u_values, horizon, substeps=8):
    """Fixed-step RK4 flow of the control system.

    ``u_values`` has shape (P, m) for one trajectory, or (P, m, B) for B
    independent trajectories from the same x0.  The state is stored on a
    fine grid of 2*substeps intervals per segment (the resolution the
    backward variational pass needs).  Returns (times, states) with states
    of shape (T, n), T = P * 2*substeps + 1, or (B, T, n) for a batch.  A
    batch steps an (n, B) state through one ``system.f`` call per RK4
    stage, and ``f`` is checked against single-member calls at the first
    and last states.  Blowup is checked once per segment on every member;
    the escape time is the first non-finite or too-large fine state's,
    over the members that escape first.
    """
    u_values = np.asarray(u_values, dtype=float)
    if u_values.ndim not in (2, 3) or u_values.shape[1] != system.control_dim:
        raise ConfigurationError(
            "u_values must be (segments, control_dim) or "
            "(segments, control_dim, batch)")
    if substeps < 1:
        raise ConfigurationError(f"substeps must be >= 1, got {substeps}")
    segments = u_values.shape[0]
    fine = 2 * substeps
    h = horizon / segments / fine
    x = np.asarray(x0, dtype=float).copy()
    if u_values.ndim == 3:
        x = np.repeat(x[:, None], u_values.shape[2], axis=1)
        _check_stacked(system.f, x, u_values[0])
    states = np.empty((segments * fine + 1,) + x.shape)
    times = np.linspace(0.0, horizon, segments * fine + 1)
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for seg in range(segments):
            u = u_values[seg]
            block = states[seg * fine + 1:(seg + 1) * fine + 1]
            for j in range(fine):
                x = _rk4(system.f, x, u, h)
                block[j] = x
            bad = (~np.isfinite(block).all(axis=1)
                   | (np.linalg.norm(block, axis=1) > BLOWUP_NORM))
            if bad.any():
                first = np.argmax(bad.reshape(fine, -1).any(axis=1))
                t = float(times[seg * fine + 1 + first])
                raise TrajectoryBlowup(
                    f"trajectory escaped near t = {t:.4f}", escape_time=t)
    if u_values.ndim == 3:
        _check_stacked(system.f, x, u_values[-1])
        states = np.ascontiguousarray(np.moveaxis(states, -1, 0))
    return times, states


class EndpointOracle(MapOracle):
    """Map oracle for the endpoint map of a control system.

    Trajectory and Jacobian results are memoized per control vector in a
    bounded LRU cache, so repeated oracle calls at the same point
    (spectral assembly, adjoints, correction) cost one forward and one
    backward pass.  Every call may reorder or extend that cache, which
    has no lock: use one oracle from one thread at a time.  The cached
    times, states and Jacobian are returned read-only.
    """

    def __init__(self, system, x0, grid, substeps=8, cache_size=512):
        if grid.control_dim != system.control_dim:
            raise ConfigurationError(
                "grid control_dim does not match the system")
        x0 = finite(x0, "x0")
        if x0.shape != (system.state_dim,):
            raise ConfigurationError(
                f"x0 must have length {system.state_dim}")
        substeps = int(substeps)
        if substeps < 2 or substeps % 2:
            raise ConfigurationError(
                "substeps must be even and >= 2 (Simpson quadrature nodes)")
        super().__init__(grid.dim, system.state_dim, grid.weights)
        self.system = system
        self.x0 = x0
        self.grid = grid
        self.substeps = substeps
        # Simpson weights over the substeps+1 kernel nodes of a segment
        self._simpson = (grid.dt / substeps / 3.0) * np.r_[
            1.0, np.tile([4.0, 2.0], substeps // 2)[:-1], 1.0]
        # fine-grid index of each segment's nodes, (P, 2*substeps+1)
        self._nodes = (np.arange(grid.segments)[:, None] * 2 * substeps
                       + np.arange(2 * substeps + 1))
        self._cache = OrderedDict()
        self._cache_size = int(cache_size)

    # -- caching -----------------------------------------------------------

    def _entry(self, u):
        key = u.tobytes()
        entry = self._cache.get(key)
        if entry is None:
            entry = {}
            self._cache[key] = entry
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(key)
        return entry

    def trajectory(self, u):
        """(times, states) of the controlled flow on the fine grid."""
        u = self._domain_vec(u)
        entry = self._entry(u)
        if "traj" not in entry:
            times, states = integrate(self.system, self.x0,
                                      self.grid.unpack(u), self.grid.horizon,
                                      self.substeps)
            times.flags.writeable = False
            states.flags.writeable = False
            entry["traj"] = (times, states)
        return entry["traj"]

    # -- oracle contract ---------------------------------------------------

    def eval(self, u):
        _, states = self.trajectory(u)
        return states[-1].copy()

    def eval_many(self, us):
        """F at each row of ``us`` (B, N), shape (B, n).

        The rows not in the cache are integrated in one stacked call, and
        each member's trajectory is cached read-only as :meth:`trajectory`
        caches it, so a later :meth:`jacobian` costs only the backward
        pass.  Values come from the batch itself, so B may exceed the
        cache size.
        """
        us = self._domain_rows(us)
        keys = [u.tobytes() for u in us]
        trajs = {key: self._cache[key]["traj"] for key in keys
                 if "traj" in self._cache.get(key, {})}
        todo = {key: u for key, u in zip(keys, us) if key not in trajs}
        if todo:
            times, states = integrate(
                self.system, self.x0,
                np.stack([self.grid.unpack(u) for u in todo.values()],
                         axis=-1),
                self.grid.horizon, self.substeps)
            times.flags.writeable = False
            states.flags.writeable = False
            trajs.update((key, (times, member))
                         for key, member in zip(todo, states))
        # touch the cache in row order, as one eval per row would
        out = np.empty((len(us), self.dim_codomain))
        for i, (key, u) in enumerate(zip(keys, us)):
            self._entry(u)["traj"] = trajs[key]
            out[i] = trajs[key][1][-1]
        return out

    def endpoint_refined(self, u, refine=4):
        """Terminal state re-integrated on a refine-times finer grid."""
        if refine < 1:
            raise ConfigurationError(f"refine must be >= 1, got {refine}")
        _, states = integrate(self.system, self.x0,
                              self.grid.unpack(self._domain_vec(u)),
                              self.grid.horizon, self.substeps * refine)
        return states[-1].copy()

    def jacobian(self, u):
        u = self._domain_vec(u)
        entry = self._entry(u)
        if "jac" in entry:
            return entry["jac"]
        _, states = self.trajectory(u)
        jac = self._jacobian_from_states(u, states)
        jac.flags.writeable = False
        entry["jac"] = jac
        return jac

    def _propagators(self, a):
        """Step propagators of the linear flow with matrix ``a``.

        ``a`` (P, 2*substeps+1, k, k) holds each segment's matrix on the
        fine grid; a step spans two fine intervals.  Returns M_j, shape
        (P, substeps, k, k): M_j = I + h/6 (A_e + 2 B2 + 2 B3 + B4) with
        B2 = (I + h/2 A_e) A_m, B3 = (I + h/2 B2) A_m, B4 = (I + h B3) A_s.
        K_j = K_{j+1} M_j is a backward RK4 step of Kdot = -K a, and the
        same polynomial, expanded, is the forward RK4 step of ydot = a y.
        Fed [[a, c], [0, d]] (:func:`_block`) it steps the coupled flow:
        every linear flow in this module takes its RK4 step from here.
        """
        h = self.grid.dt / self.substeps
        a_s, a_m, a_e = a[:, 0:-1:2], a[:, 1::2], a[:, 2::2]
        eye = np.eye(a.shape[-1])
        b2 = (eye + 0.5 * h * a_e) @ a_m
        b3 = (eye + 0.5 * h * b2) @ a_m
        b4 = (eye + h * b3) @ a_s
        return eye + (h / 6.0) * (a_e + 2 * b2 + 2 * b3 + b4)

    def _backward_products(self, props):
        """K at the coarse nodes from K_j = K_{j+1} M_j, K(T) = I, shape
        (P, substeps+1, k, k) for propagators (P, substeps, k, k)."""
        knodes = np.empty((self.grid.segments, self.substeps + 1)
                          + props.shape[-2:])
        kernel = np.eye(props.shape[-1])
        for seg in range(self.grid.segments - 1, -1, -1):
            knodes[seg, -1] = kernel
            for j in range(self.substeps - 1, -1, -1):
                kernel = kernel @ props[seg, j]
                knodes[seg, j] = kernel
        return knodes

    def _on_fine_grid(self, u):
        """Each segment's control at its fine-grid states, shape
        (P, 2*substeps+1, m)."""
        return np.broadcast_to(self.grid.unpack(u)[:, None],
                               self._nodes.shape + (self.grid.control_dim,))

    def _bands(self, u, states):
        """B = K f_u at every coarse node, shape (P, substeps+1, n, m);
        shared segment ends appear in both segments, each with its own
        control."""
        x, u = states[self._nodes], self._on_fine_grid(u)
        knodes = self._backward_products(
            self._propagators(self.system.f_x(x, u)))
        return knodes @ self.system.f_u(x[:, ::2], u[:, ::2])

    def _jacobian_from_states(self, u, states):
        """Backward kernel pass plus per-segment Simpson quadrature."""
        jac = np.einsum("j,pjam->apm", self._simpson, self._bands(u, states))
        return jac.reshape(self.dim_codomain, self.dim_domain)

    def _tangent(self, a, b):
        """Tangent y (ydot = a y + b, y(0) = 0) on the fine grid.

        ``a`` (P, 2*substeps+1, n, n) and ``b`` (P, 2*substeps+1, n) are
        f_x and f_u v on the fine grid.  The affine flow is the linear flow
        of [[a, b], [0, 0]] acting on (y, 1), so its step propagators are
        [[M_j, c_j], [0, 1]]: a forward RK4 step is y_{j+1} = M_j y_j + c_j,
        c_j its response from y_j = 0.  Every segment's running products
        are formed for all segments at once, then chained across segments.
        A cubic Hermite interpolant through the two ends of each step, with
        slopes a y + b, gives the midpoint.
        """
        h = self.grid.dt / self.substeps
        segments, n = self.grid.segments, b.shape[-1]
        props = self._propagators(_block(a, b[..., None], np.zeros((1, 1))))
        flows = np.empty((segments, self.substeps + 1, n + 1, n + 1))
        flows[:, 0] = np.eye(n + 1)
        for j in range(self.substeps):
            flows[:, j + 1] = props[:, j] @ flows[:, j]
        starts = np.empty((segments, n + 1))
        state = np.r_[np.zeros(n), 1.0]
        for seg in range(segments):
            starts[seg] = state
            state = flows[seg, -1] @ state
        ends = np.einsum("pjab,pb->pja", flows[..., :n, :], starts)
        slope = np.einsum("...ab,...b->...a", a[:, ::2], ends) + b[:, ::2]
        y = np.empty(b.shape)
        y[:, ::2] = ends
        y[:, 1::2] = (0.5 * (ends[:, :-1] + ends[:, 1:])
                      + (h / 8.0) * (slope[:, :-1] - slope[:, 1:]))
        return y

    def jacobian_derivative(self, u, v):
        """Second variation: J = sum Simpson K f_u differentiated along v
        on the cached trajectory, with no new integration.

        The state's variation is the tangent y_v of :meth:`_tangent`, so
        this matches the derivative of the computed Jacobian to O(h^4),
        h the kernel pass's step.  The kernel derivative dK solves
        dKdot = -dK f_x - K dA, dK(T) = 0, dA = f_xx[y_v] + f_xu[v]:
        :meth:`_propagators` of [[f_x, dA], [0, f_x]] gives the block
        propagators [[M_j, dM_j], [0, M_j]], dM_j the derivative of M_j
        along dA, and one backward pass of them yields [[K, dK], [0, K]]
        at every node.  Then dJ(v) = sum Simpson (dK f_u + K dB),
        dB = f_xu[y_v] + f_uu[v] contracting f_xu's state index.  Systems
        without the second partials use the base-class finite difference.
        """
        system = self.system
        if None in (system.f_xx, system.f_xu, system.f_uu):
            return super().jacobian_derivative(u, v)
        u = self._domain_vec(u)
        v = self._domain_vec(v, "v")
        _, states = self.trajectory(u)
        x, uu, vv = (states[self._nodes], self._on_fine_grid(u),
                     self._on_fine_grid(v))
        a = system.f_x(x, uu)
        b = system.f_u(x, uu)
        y = self._tangent(a, np.einsum("...ik,...k->...i", b, vv))
        f_xu = system.f_xu(x, uu)
        da = (np.einsum("...iab,...b->...ia", system.f_xx(x, uu), y)
              + np.einsum("...iak,...k->...ia", f_xu, vv))
        db = (np.einsum("...iak,...a->...ik", f_xu[:, ::2], y[:, ::2])
              + np.einsum("...ikl,...l->...ik",
                          system.f_uu(x[:, ::2], uu[:, ::2]), vv[:, ::2]))
        del f_xu  # the largest array here; free it before the block pass
        knodes = self._backward_products(self._propagators(_block(a, da, a)))
        n = self.dim_codomain
        bands = knodes[..., :n, n:] @ b[:, ::2] + knodes[..., :n, :n] @ db
        djac = np.einsum("j,pjam->apm", self._simpson, bands)
        return djac.reshape(n, self.dim_domain)


def _block(a, c, d):
    """Block matrices [[a, c], [0, d]] over the leading axes.  A polynomial
    in [[a, da], [0, a]]'s carries its derivative along da in the upper
    right block; [[a, b], [0, 0]], b (n, 1), is the matrix of the affine
    flow ydot = a y + b acting on (y, 1)."""
    n, k = c.shape[-2:]
    out = np.zeros(c.shape[:-2] + (n + k, n + k))
    out[..., :n, :n] = a
    out[..., :n, n:] = c
    out[..., n:, n:] = d
    return out


def endpoint_problem(system_name, x0, horizon, segments,
                     system_params=None, substeps=8):
    """Convenience builder: registered system -> EndpointOracle."""
    system = make_system(system_name, **(system_params or {}))
    grid = ControlGrid(horizon=float(horizon), segments=int(segments),
                       control_dim=system.control_dim)
    return EndpointOracle(system, x0, grid, substeps=substeps)
