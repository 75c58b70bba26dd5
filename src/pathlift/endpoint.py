"""Endpoint maps of nonlinear control systems as map oracles.

A control system xdot = f(x, u) over a horizon [0, T], with piecewise
constant controls on P uniform segments, induces the endpoint map
sending the flattened control vector (length P*m) to the terminal state
in R^n.  The induced weighted inner product with weights T/P equals the
L2 inner product of the piecewise-constant representatives exactly, so
the oracle adjoint discretizes the continuous one.

The forward RK4 flow steps one state at a time; the partials f_x and
f_u broadcast over leading axes, so the rest runs on the whole control
grid at once.  The transition kernel K(t) = M(T) M(t)^-1 (Kdot = -K f_x,
K(T) = I) is linear in K, so each backward RK4 step is a product with a
propagator, K_j = K_{j+1} M_j, and ``EndpointOracle._kernel_pass`` builds
every M_j in one batch.  Simpson quadrature of K(t) f_u per segment gives
the coordinate Jacobian.  Second differentials come from the base-class
``jacobian_derivative``, a central finite difference of that Jacobian.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, TrajectoryBlowup
from .maps import MapOracle

BLOWUP_NORM = 1e8


@dataclass(frozen=True)
class ControlSystem:
    """Dynamics f of one state; partials that broadcast over leading axes,
    ``f_x(X, U)[i] == f_x(X[i], U[i])``, for the whole-grid backward pass."""

    name: str
    state_dim: int
    control_dim: int
    f: Callable          # f(x, u) -> (n,)
    f_x: Callable        # (..., n), (..., m) -> (..., n, n)
    f_u: Callable        # (..., n), (..., m) -> (..., n, m)


def _lead(x, u):
    """Broadcast leading shape of stacked states and controls."""
    return np.broadcast_shapes(np.shape(x)[:-1], np.shape(u)[:-1])


def _constant(mat):
    """Partial equal to ``mat`` at every (x, u)."""
    return lambda x, u: np.broadcast_to(mat, _lead(x, u) + mat.shape)


def single_integrator(dim=1):
    dim = int(dim)
    return ControlSystem(
        name="single-integrator", state_dim=dim, control_dim=dim,
        f=lambda x, u: np.asarray(u, float),
        f_x=_constant(np.zeros((dim, dim))), f_u=_constant(np.eye(dim)))


def lti(A, B):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigurationError("A must be square")
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ConfigurationError("B must have the same row count as A")
    return ControlSystem(
        name="lti", state_dim=A.shape[0], control_dim=B.shape[1],
        f=lambda x, u: A @ x + B @ u,
        f_x=_constant(A), f_u=_constant(B))


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

    return ControlSystem(name="brockett", state_dim=3, control_dim=2,
                         f=f, f_x=f_x, f_u=f_u)


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

    return ControlSystem(name="unicycle", state_dim=3, control_dim=2,
                         f=f, f_x=f_x, f_u=f_u)


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
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
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


def integrate(system, x0, u_values, horizon, substeps=8):
    """Fixed-step RK4 flow of the control system.

    ``u_values`` has shape (P, m); the state is stored on a fine grid of
    2*substeps intervals per segment (the resolution the backward
    variational pass needs).  Returns (times, states) with states of
    shape (P * 2*substeps + 1, n).  Blowup is checked once per segment;
    the escape time is the first non-finite or too-large fine state's.
    """
    u_values = np.asarray(u_values, dtype=float)
    if u_values.ndim != 2 or u_values.shape[1] != system.control_dim:
        raise ConfigurationError("u_values must be (segments, control_dim)")
    segments = u_values.shape[0]
    fine = 2 * substeps
    h = horizon / segments / fine
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((segments * fine + 1, system.state_dim))
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
                t = float(times[seg * fine + 1 + np.argmax(bad)])
                raise TrajectoryBlowup(
                    f"trajectory escaped near t = {t:.4f}", escape_time=t)
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
        x0 = np.asarray(x0, dtype=float)
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

    def trajectory(self, u, substeps=None):
        """(times, states) of the controlled flow on the fine grid."""
        u = self._domain_vec(u)
        sub = self.substeps if substeps is None else int(substeps)
        if sub == self.substeps:
            entry = self._entry(u)
            if "traj" not in entry:
                times, states = integrate(self.system, self.x0,
                                          self.grid.unpack(u),
                                          self.grid.horizon, sub)
                times.flags.writeable = False
                states.flags.writeable = False
                entry["traj"] = (times, states)
            return entry["traj"]
        return integrate(self.system, self.x0, self.grid.unpack(u),
                         self.grid.horizon, sub)

    # -- oracle contract ---------------------------------------------------

    def eval(self, u):
        _, states = self.trajectory(u)
        return states[-1].copy()

    def endpoint_refined(self, u, refine=4):
        """Terminal state re-integrated on a refine-times finer grid."""
        _, states = self.trajectory(u, substeps=self.substeps * refine)
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

    def _kernel_pass(self, x, u):
        """Backward RK4 pass of the kernel K (Kdot = -K f_x, K(T) = I).

        ``x`` (P, 2*substeps+1, n) and ``u`` (P, 2*substeps+1, m) are each
        segment's fine-grid states and control.  Returns K at the coarse
        nodes x[:, ::2], shape (P, substeps+1, n, n).  A step spans two
        fine intervals: K_j = K_{j+1} (I + h/6 (A_e + 2 B2 + 2 B3 + B4)),
        B2 = (I + h/2 A_e) A_m, B3 = (I + h/2 B2) A_m, B4 = (I + h B3) A_s.
        """
        h = self.grid.dt / self.substeps
        a = self.system.f_x(x, u)
        a_s, a_m, a_e = a[:, 0:-1:2], a[:, 1::2], a[:, 2::2]
        eye = np.eye(self.system.state_dim)
        b2 = (eye + 0.5 * h * a_e) @ a_m
        b3 = (eye + 0.5 * h * b2) @ a_m
        b4 = (eye + h * b3) @ a_s
        props = eye + (h / 6.0) * (a_e + 2 * b2 + 2 * b3 + b4)
        knodes = np.empty(a[:, ::2].shape)
        kernel = eye
        for seg in range(self.grid.segments - 1, -1, -1):
            knodes[seg, -1] = kernel
            for j in range(self.substeps - 1, -1, -1):
                kernel = kernel @ props[seg, j]
                knodes[seg, j] = kernel
        return knodes

    def _bands(self, u, states):
        """B = K f_u at every coarse node, shape (P, substeps+1, n, m);
        shared segment ends appear in both segments, each with its own
        control."""
        x = states[self._nodes]
        u = np.broadcast_to(self.grid.unpack(u)[:, None],
                            self._nodes.shape + (self.grid.control_dim,))
        knodes = self._kernel_pass(x, u)
        return knodes @ self.system.f_u(x[:, ::2], u[:, ::2])

    def _jacobian_from_states(self, u, states):
        """Backward kernel pass plus per-segment Simpson quadrature."""
        jac = np.einsum("j,pjam->apm", self._simpson, self._bands(u, states))
        return jac.reshape(self.dim_codomain, self.dim_domain)

    def kernel_nodes(self, u):
        """Times and first-variation kernel B(t) = K(t) f_u on the
        backward-pass nodes, for inspection and tests; each segment gives
        its substeps+1 nodes, so inner segment ends appear twice."""
        u = self._domain_vec(u)
        times, states = self.trajectory(u)
        bands = self._bands(u, states)
        return times[self._nodes[:, ::2]].ravel(), np.concatenate(bands)


def endpoint_problem(system_name, x0, horizon, segments,
                     system_params=None, substeps=8):
    """Convenience builder: registered system -> EndpointOracle."""
    system = make_system(system_name, **(system_params or {}))
    grid = ControlGrid(horizon=float(horizon), segments=int(segments),
                       control_dim=system.control_dim)
    return EndpointOracle(system, x0, grid, substeps=substeps)
