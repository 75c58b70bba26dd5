"""Twice-differentiable maps from a weighted coordinate space to R^n.

The domain is R^N carrying a diagonal weighted inner product
``<u, v> = sum_k w_k u_k v_k``, which is the discrete stand-in for an L2
control space when the weights are quadrature weights.  Every adjoint in
this package is taken with respect to that inner product: in coordinates
the adjoint of the Jacobian J is ``W^-1 J^T``, never the bare transpose.
"""

import numpy as np

from .errors import ConfigurationError, finite, integer


class MapOracle:
    """Base class for C^2 maps F: (R^N, W) -> R^n.

    Subclasses implement :meth:`eval`, :meth:`jacobian` and
    :meth:`jacobian_derivative`, the second differential that the theorem
    bounds; every second-order quantity derives from it.  Callers with many
    points or (u, v) pairs use :meth:`jacobian_many` and
    :meth:`jacobian_derivative_many`, which loop unless overridden
    (``EndpointOracle`` takes a stack in one pass).
    :func:`pathlift.validate_oracle` (``pathlift validate``) holds a
    hand-written J and dJ to :meth:`eval` through Taylor remainders.

    Oracles are not thread-safe: an oracle may keep its last results in
    unlocked state that any call may replace (see ``EndpointOracle``), so
    use each one from one thread at a time.  The weights and
    ``LinearMap``'s matrix are private copies of the caller's arrays.
    They, and ``EndpointOracle``'s kept trajectories and Jacobian, are
    read-only; writing to them raises ValueError.
    """

    def __init__(self, dim_domain, dim_codomain, weights=None):
        dim_domain = integer(dim_domain, "dim_domain")
        dim_codomain = integer(dim_codomain, "dim_codomain")
        if dim_codomain < 1:
            raise ConfigurationError("codomain dimension must be >= 1")
        if dim_codomain > dim_domain:
            raise ConfigurationError(
                f"codomain dimension {dim_codomain} exceeds domain dimension "
                f"{dim_domain}")
        if weights is None:
            weights = np.ones(dim_domain)
        weights = np.array(weights, dtype=float)
        if weights.shape != (dim_domain,):
            raise ConfigurationError(
                f"weights must have length {dim_domain}, got {weights.shape}")
        if not np.all((weights > 0) & (weights < np.inf)):
            raise ConfigurationError(
                "weights must be strictly positive and finite")
        self.dim_domain = dim_domain
        self.dim_codomain = dim_codomain
        weights.flags.writeable = False
        self.weights = weights

    # -- weighted geometry -------------------------------------------------

    def inner(self, a, b):
        """Weighted inner product on the domain."""
        return float(np.dot(self.weights * np.asarray(a, float), b))

    def norm(self, a):
        return float(np.sqrt(max(self.inner(a, a), 0.0)))

    # -- dimension checks --------------------------------------------------

    def _domain_vec(self, u, name="u"):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim_domain,):
            raise ConfigurationError(
                f"{name} must have length {self.dim_domain}, got {u.shape}")
        return u

    def _domain_rows(self, us):
        us = np.asarray(us, dtype=float)
        if us.ndim != 2 or us.shape[1] != self.dim_domain:
            raise ConfigurationError(
                f"us must have shape (B, {self.dim_domain}), got {us.shape}")
        return us

    def _pair_rows(self, us, vs):
        us, vs = self._domain_rows(us), np.asarray(vs, dtype=float)
        if vs.shape != us.shape:
            raise ConfigurationError(
                f"vs must have the shape of us {us.shape}, got {vs.shape}")
        return us, vs

    def _codomain_vec(self, z, name="z"):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim_codomain,):
            raise ConfigurationError(
                f"{name} must have length {self.dim_codomain}, got {z.shape}")
        return z

    # -- primitives to implement --------------------------------------------

    def eval(self, u):
        """F(u) in R^n."""
        raise NotImplementedError

    def jacobian(self, u):
        """Coordinate Jacobian of F at u, shape (n, N)."""
        raise NotImplementedError

    def jacobian_derivative(self, u, v):
        """Derivative of the coordinate Jacobian along v, shape (n, N).

        Row i paired with w is e_i^* d2F|_u(v, w)."""
        raise NotImplementedError

    # -- derived operations --------------------------------------------------

    def eval_many(self, us):
        """F at each row of ``us`` (B, N), shape (B, n).  Oracles that can
        evaluate independent points together override it."""
        us = self._domain_rows(us)
        return np.array([self.eval(u) for u in us]).reshape(
            len(us), self.dim_codomain)

    def jacobian_many(self, us):
        """:meth:`jacobian` at each row of ``us`` (B, N), shape (B, n, N),
        by default one call per row."""
        us = self._domain_rows(us)
        return np.array([self.jacobian(u) for u in us]).reshape(
            len(us), self.dim_codomain, self.dim_domain)

    def jacobian_derivative_many(self, us, vs):
        """:meth:`jacobian_derivative` at each row pair of ``us`` and
        ``vs`` (K, N), shape (K, n, N), by default one call per pair."""
        us, vs = self._pair_rows(us, vs)
        return np.array([self.jacobian_derivative(u, v)
                         for u, v in zip(us, vs)]).reshape(
            len(us), self.dim_codomain, self.dim_domain)

    def bilinear_second(self, u, z, v, w):
        """z-contracted second differential z^* d2F|_u(v, w)."""
        return float(self._contract(u, z, v) @ self._domain_vec(w, "w"))

    def bilinear_second_many(self, u, z, v, ws):
        """z^* d2F|_u(v, w) for several w sharing one derivative along v."""
        row = self._contract(u, z, v)
        return np.array([float(row @ self._domain_vec(w, "w")) for w in ws])

    def second_operator(self, u, z, v):
        """Domain vector B(v) with <B(v), w>_X = z^* d2F|_u(v, w)."""
        return self._contract(u, z, v) / self.weights

    def _contract(self, u, z, v):
        """z^T dJ(v), the derivative of J^T z along v."""
        u = self._domain_vec(u)
        z = self._codomain_vec(z)
        v = self._domain_vec(v, "v")
        return z @ self.jacobian_derivative(u, v)


class LinearMap(MapOracle):
    """F(u) = A u for a dense matrix A; the zero second differential makes
    it the degenerate reference case for every curvature diagnostic."""

    def __init__(self, matrix, weights=None):
        matrix = finite(matrix, "linear map matrix")  # private read-only copy
        if matrix.ndim != 2:
            raise ConfigurationError("linear map needs a 2-d matrix")
        n, big_n = matrix.shape
        super().__init__(big_n, n, weights)
        matrix.flags.writeable = False
        self.matrix = matrix

    def eval(self, u):
        return self.matrix @ self._domain_vec(u)

    def jacobian(self, u):
        self._domain_vec(u)
        return self.matrix

    def jacobian_derivative(self, u, v):
        return np.zeros_like(self.matrix)


class SphereMap(MapOracle):
    """F(u) = ||u||_X^2 into R^1.

    The origin is the only singular point; shrinking the target value to
    zero drives the lift into it, with every spectral quantity available
    in closed form (G = 4 ||u||^2, h = 2, g = a1 / (2||u||)).
    """

    def __init__(self, dim, weights=None):
        super().__init__(dim, 1, weights)

    def eval(self, u):
        u = self._domain_vec(u)
        return np.array([self.inner(u, u)])

    def jacobian(self, u):
        u = self._domain_vec(u)
        return (2.0 * self.weights * u)[None, :]

    def jacobian_derivative(self, u, v):
        return (2.0 * self.weights * v)[None, :]


class FoldMap(MapOracle):
    """F(u) = (u1^2, u2): a fold with curvature in the first component only."""

    def __init__(self, weights=None):
        super().__init__(2, 2, weights)

    def eval(self, u):
        u = self._domain_vec(u)
        return np.array([u[0] ** 2, u[1]])

    def jacobian(self, u):
        u = self._domain_vec(u)
        return np.array([[2.0 * u[0], 0.0], [0.0, 1.0]])

    def jacobian_derivative(self, u, v):
        return np.array([[2.0 * v[0], 0.0], [0.0, 0.0]])


# name -> builder; the CLI feeds config keys to its parameters by name
MAP_BUILDERS = {
    "linear": LinearMap,
    "sphere": SphereMap,
    "fold": FoldMap,
}
