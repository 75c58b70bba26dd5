"""Endpoint maps of nonlinear control systems as map oracles.

A control system xdot = f(x, u) over a horizon [0, T], with piecewise
constant controls on P uniform segments, induces the endpoint map
sending the flattened control vector (length P*m) to the terminal state
in R^n.  The induced weighted inner product with weights T/P equals the
L2 inner product of the piecewise-constant representatives exactly, so
the oracle adjoint discretizes the continuous one.

First variations are computed by one backward pass of the transition
kernel K(t) = M(T) M(t)^-1 (Kdot = -K f_x, K(T) = I) rather than by
inverting the forward transition matrix; the n x m kernel K(t) f_u is
then integrated per segment by Simpson quadrature to form the coordinate
Jacobian.  That backward pass lives in one generator,
``EndpointOracle._kernel_pass``, which both the Jacobian and
``kernel_nodes`` consume.  Second differentials use the base-class finite
difference of the switching function.
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
    """Dynamics f with its state and control partials."""

    name: str
    state_dim: int
    control_dim: int
    f: Callable          # f(x, u) -> (n,)
    f_x: Callable        # (n, n)
    f_u: Callable        # (n, m)


def single_integrator(dim=1):
    dim = int(dim)
    eye = np.eye(dim)
    zero = np.zeros((dim, dim))
    return ControlSystem(
        name="single-integrator", state_dim=dim, control_dim=dim,
        f=lambda x, u: np.asarray(u, float),
        f_x=lambda x, u: zero,
        f_u=lambda x, u: eye)


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
        f_x=lambda x, u: A,
        f_u=lambda x, u: B)


def brockett():
    """Nonholonomic integrator x1' = u1, x2' = u2, x3' = x1 u2.

    Its endpoint map from the zero control is the textbook corank-1
    singular point: the third direction is invisible to the first
    variation there.
    """
    def f(x, u):
        return np.array([u[0], u[1], x[0] * u[1]])

    def f_x(x, u):
        return np.array([[0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0],
                         [u[1], 0.0, 0.0]])

    def f_u(x, u):
        return np.array([[1.0, 0.0],
                         [0.0, 1.0],
                         [0.0, x[0]]])

    return ControlSystem(name="brockett", state_dim=3, control_dim=2,
                         f=f, f_x=f_x, f_u=f_u)


def unicycle():
    def f(x, u):
        return np.array([u[0] * np.cos(x[2]), u[0] * np.sin(x[2]), u[1]])

    def f_x(x, u):
        return np.array([[0.0, 0.0, -u[0] * np.sin(x[2])],
                         [0.0, 0.0, u[0] * np.cos(x[2])],
                         [0.0, 0.0, 0.0]])

    def f_u(x, u):
        return np.array([[np.cos(x[2]), 0.0],
                         [np.sin(x[2]), 0.0],
                         [0.0, 1.0]])

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


def _rk4(f, x, u, t, h):
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
    shape (P * 2*substeps + 1, n).
    """
    u_values = np.asarray(u_values, dtype=float)
    if u_values.ndim != 2 or u_values.shape[1] != system.control_dim:
        raise ConfigurationError("u_values must be (segments, control_dim)")
    segments = u_values.shape[0]
    fine = 2 * substeps
    dt = horizon / segments
    h = dt / fine
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((segments * fine + 1, system.state_dim))
    times = np.linspace(0.0, horizon, segments * fine + 1)
    states[0] = x
    idx = 1
    for seg in range(segments):
        u = u_values[seg]
        for j in range(fine):
            x = _rk4(system.f, x, u, times[idx - 1], h)
            if not np.all(np.isfinite(x)) or np.linalg.norm(x) > BLOWUP_NORM:
                raise TrajectoryBlowup(
                    f"trajectory escaped near t = {times[idx]:.4f}",
                    escape_time=float(times[idx]))
            states[idx] = x
            idx += 1
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
        self.substeps = int(substeps)
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

    def _kernel_pass(self, u_values, states):
        """Backward RK4 pass of the kernel K (Kdot = -K f_x, K(T) = I).

        Yields ``(seg, knodes)`` from the last segment to the first, with
        ``knodes[j]`` the kernel at the segment's j-th coarse node, fine
        index ``seg * 2*substeps + 2*j``; the substeps+1 nodes include both
        segment ends.
        """
        f_x = self.system.f_x
        n = self.system.state_dim
        fine = 2 * self.substeps
        h = self.grid.dt / self.substeps        # backward RK4 step (2 fine)
        kernel = np.eye(n)
        for seg in range(self.grid.segments - 1, -1, -1):
            useg = u_values[seg]
            base = seg * fine
            knodes = np.empty((self.substeps + 1, n, n))
            knodes[-1] = kernel
            for j in range(self.substeps - 1, -1, -1):
                x_end = states[base + 2 * j + 2]
                x_mid = states[base + 2 * j + 1]
                x_start = states[base + 2 * j]
                k1 = kernel @ f_x(x_end, useg)
                k2 = (kernel + 0.5 * h * k1) @ f_x(x_mid, useg)
                k3 = (kernel + 0.5 * h * k2) @ f_x(x_mid, useg)
                k4 = (kernel + h * k3) @ f_x(x_start, useg)
                kernel = kernel + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                knodes[j] = kernel
            yield seg, knodes

    def _jacobian_from_states(self, u, states):
        """Backward kernel pass plus per-segment Simpson quadrature."""
        system = self.system
        m = system.control_dim
        u_values = self.grid.unpack(u)
        fine = 2 * self.substeps
        jac = np.empty((system.state_dim, self.dim_domain))
        # Simpson weights over the substeps+1 kernel nodes per segment
        sw = np.ones(self.substeps + 1)
        sw[1:-1:2] = 4.0
        sw[2:-1:2] = 2.0
        sw *= self.grid.dt / self.substeps / 3.0
        for seg, knodes in self._kernel_pass(u_values, states):
            useg = u_values[seg]
            base = seg * fine
            block = np.zeros((system.state_dim, m))
            for j in range(self.substeps + 1):
                x_j = states[base + 2 * j]
                block += sw[j] * (knodes[j] @ system.f_u(x_j, useg))
            jac[:, seg * m:(seg + 1) * m] = block
        return jac

    def kernel_nodes(self, u):
        """Times and first-variation kernel B(t) = K(t) f_u on the
        backward-pass nodes, for inspection and tests; each segment gives
        its substeps+1 nodes, so inner segment ends appear twice."""
        u = self._domain_vec(u)
        times, states = self.trajectory(u)
        f_u = self.system.f_u
        u_values = self.grid.unpack(u)
        fine = 2 * self.substeps
        out_t, out_b = [], []
        for seg, knodes in self._kernel_pass(u_values, states):
            for j in range(self.substeps, -1, -1):
                idx = seg * fine + 2 * j
                out_t.append(times[idx])
                out_b.append(knodes[j] @ f_u(states[idx], u_values[seg]))
        return np.array(out_t[::-1]), np.array(out_b[::-1])


def endpoint_problem(system_name, x0, horizon, segments,
                     system_params=None, substeps=8):
    """Convenience builder: registered system -> EndpointOracle."""
    system = make_system(system_name, **(system_params or {}))
    grid = ControlGrid(horizon=float(horizon), segments=int(segments),
                       control_dim=system.control_dim)
    return EndpointOracle(system, x0, grid, substeps=substeps)
