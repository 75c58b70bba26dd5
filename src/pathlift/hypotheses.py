"""Sampling-based falsification checks for the solver's sufficient conditions.

Four conditions are probed on seeded shells ||u||_X = r:

* a uniform bound C on the z-contracted second differential over unit
  directions (at each sample, the best attained value of an alternating
  maximisation over z, v and w, so still a bound from below);
* the coercivity ratio |z^* d2F(phi_z, phi_z)| / ||phi_z||^2 whose
  infimum K keeps the blowup indicator integrable into a terminal
  singularity;
* the weighted product condition with a power-law weight xi(s) = c s^p,
  whose divergence requirement restricts p <= 1;
* quadratic growth of the Gramian inverse norm 1/lambda_1 in 1 + ||u||.

Estimates are one-sided sample bounds, never suprema or infima; every
report records the seed and sample counts, and a report states at most
"not falsified on this sample".
"""

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidXi, finite, integer, positive
from .spectrum import _gramian, spectral_decompose

POWER_ITERATIONS = 12
GROWTH_SLOPE_LIMIT = 2.0
GROWTH_SLOPE_TOL = 0.1
DEGENERATE_SWITCHING = 1e-12


@dataclass(frozen=True)
class SamplingPlan:
    """Seeded shell-sampling plan; radii are the shell norms ||u||_X."""

    radii: tuple
    per_radius: int = 8
    z_samples: int = 8
    seed: int = 0

    def __post_init__(self):
        if integer(self.seed, "seed") < 0:
            raise ConfigurationError(
                f"seed must be >= 0, got {self.seed}")
        radii = finite(self.radii, "radii")
        if radii.ndim != 1 or not radii.size or not (radii > 0).all():
            raise ConfigurationError("radii must be a list of positive "
                                     f"numbers, got {self.radii!r}")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigurationError("radii must be increasing")
        if (integer(self.per_radius, "per_radius") < 1
                or integer(self.z_samples, "z_samples") < 1):
            raise ConfigurationError(
                "per_radius and z_samples must be >= 1")
        object.__setattr__(self, "radii", tuple(radii.tolist()))


@dataclass(frozen=True)
class PowerLawXi:
    """xi(s) = c * s^p; the reciprocal integral diverges iff p <= 1."""

    c: float
    p: float

    def __post_init__(self):
        c = finite(self.c, "xi coefficient c", InvalidXi)
        p = finite(self.p, "xi exponent p", InvalidXi)
        if c.ndim or not c > 0:
            raise InvalidXi("xi coefficient c must be positive and finite")
        if p.ndim or not p <= 1.0:
            raise InvalidXi(
                f"xi exponent p = {self.p}: the reciprocal integral of xi "
                "must diverge, which requires a finite p <= 1")
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "p", float(p))

    def __call__(self, s):
        """c * s^p in float64: inf where it overflows."""
        with np.errstate(over="ignore"):
            return self.c * np.float64(s) ** self.p


@dataclass
class ShellStats:
    radius: float
    samples: int
    skipped: int
    c_max: float
    k_min: float
    xi_margin_min: float
    inv_gramian_max: float
    gap_margin_min: float
    singular_found: int


@dataclass
class HypothesisReport:
    plan: SamplingPlan
    lambda0: float
    xi: PowerLawXi | None
    c_est: float                 # best attained |z* d2F(v, w)|, unit z, v, w
    k_est: float                 # min observed coercivity ratio
    xi_margin_min: float         # min product-condition margin (pass >= 1)
    xi_pass: bool
    growth_slope: float
    growth_intercept: float
    growth_pass: bool
    gap_margin: float            # min over samples of min_{i>=2} lam_i - lam0
    gap_pass: bool
    remark_alpha: float
    remark_k1: float
    remark_k2: float
    shells: list = field(default_factory=list)
    skipped_samples: int = 0
    singular_samples: int = 0

    @property
    def falsified(self):
        return not (self.xi_pass and self.growth_pass and self.gap_pass
                    and self.k_est > 0.0)

    def to_text(self):
        out = io.StringIO()
        w = out.write
        w("hypothesis check report\n")
        w(f"seed = {self.plan.seed}, per_radius = {self.plan.per_radius}, "
          f"z_samples = {self.plan.z_samples}\n")
        w(f"radii = {list(self.plan.radii)}\n")
        w("estimates are sample bounds only; 'pass' means not falsified "
          "on this sample\n\n")
        w(f"second-differential bound  C_est = {self.c_est:.17g}\n")
        w(f"coercivity ratio           K_est = {self.k_est:.17g}  "
          f"({'pass' if self.k_est > 0 else 'FAIL'})\n")
        if self.xi is not None:
            w(f"product condition (xi = {self.xi.c:g} * s^{self.xi.p:g}): "
              f"min margin = {self.xi_margin_min:.17g}  "
              f"({'pass' if self.xi_pass else 'FAIL'})\n")
            w(f"power-law split fit: alpha = {self.remark_alpha:.6g}, "
              f"K1 = {self.remark_k1:.6g}, K2 = {self.remark_k2:.6g}\n")
        w(f"Gramian-inverse growth: slope = {self.growth_slope:.6g} "
          f"(limit {GROWTH_SLOPE_LIMIT + GROWTH_SLOPE_TOL:g}), "
          f"intercept = {self.growth_intercept:.6g}  "
          f"({'pass' if self.growth_pass else 'FAIL'})\n")
        w(f"eigenvalue floor lambda0 = {self.lambda0:g}: worst margin = "
          f"{self.gap_margin:.6g}  "
          f"({'pass' if self.gap_pass else 'FAIL'})\n")
        w(f"skipped degenerate samples = {self.skipped_samples}, "
          f"singular samples = {self.singular_samples}\n\n")
        w("per-shell breakdown\n")
        w(self.shells_csv())
        return out.getvalue()

    def shells_csv(self):
        """Per-shell table as CSV text, floats at 17 significant digits."""
        out = ["radius,samples,skipped,c_max,k_min,xi_margin_min,"
               "inv_gramian_max,gap_margin_min,singular_found\n"]
        for sh in self.shells:
            out.append(
                f"{sh.radius:.17g},{sh.samples},{sh.skipped},"
                f"{sh.c_max:.17g},{sh.k_min:.17g},{sh.xi_margin_min:.17g},"
                f"{sh.inv_gramian_max:.17g},{sh.gap_margin_min:.17g},"
                f"{sh.singular_found}\n")
        return "".join(out)


def _unit(rng, dim, norm=np.linalg.norm):
    """A standard normal draw of length ``dim`` scaled to unit ``norm``;
    a draw of norm below 1e-12 is drawn again."""
    while True:
        v = rng.standard_normal(dim)
        nv = norm(v)
        if nv >= 1e-12:
            return v / nv


def _orthonormal_part(basis, forms, p, form):
    """The part of each unit vector p (K, N) orthogonal to its point's
    orthonormal basis rows (K, k, N), normalised, and the form along it,
    by linearity from G(p) (K, n, N) and the forms along the basis (K, k,
    n, N); zeros where p lies within 1e-6 of the span."""
    coef = (basis @ p[..., None])[..., 0]
    rest = p - (coef[:, None, :] @ basis)[:, 0]
    again = (basis @ rest[..., None])[..., 0]    # reorthogonalise once
    rest -= (again[:, None, :] @ basis)[:, 0]
    coef += again
    norm = np.linalg.norm(rest, axis=1)
    inverse = np.divide(1.0, norm, out=np.zeros_like(norm),
                        where=norm > 1e-6)
    rest *= inverse[:, None]
    along = form - (coef[:, None, :] @ forms.reshape(coef.shape + (-1,))
                    ).reshape(form.shape)
    along *= inverse[:, None, None]
    return rest, along


def _ritz_direction(forms, z):
    """The next direction of each point, from its forms (K, k, n, N) along
    an orthonormal basis and the top left singular vector z (K, n) of its
    last sweep: alternating maximisation of z^T G(p) w over unit z, unit w
    and unit p in the basis's span, which needs no oracle call.  For fixed
    z, p's coordinates are the top eigenvector of R R^T for the rows
    R = [z^T G(q_j)]_j, and w is along R^T of them; for fixed (p, w), z is
    along G(p) w.  Stops once a z step gains at most 1e-12 relative, or
    after POWER_ITERATIONS steps.  Returns the last w (K, N)."""
    z = z.copy()
    active = np.ones(len(z), dtype=bool)
    w = np.empty((len(z), forms.shape[-1]))
    for _ in range(POWER_ITERATIONS):
        along = forms[active]
        rows = (z[active, None, None, :] @ along)[..., 0, :]
        coef = np.linalg.eigh(rows @ rows.swapaxes(-1, -2))[1][..., -1]
        step = (coef[:, None, :] @ rows)[:, 0]
        sigma = np.linalg.norm(step, axis=1)
        w[active] = step / sigma[:, None]
        form = (coef[:, None, :] @ along.reshape(along.shape[:2] + (-1,))
                ).reshape(along.shape[:1] + along.shape[2:])
        step = (form @ w[active, :, None])[..., 0]
        gain = np.linalg.norm(step, axis=1)
        z[active] = step / gain[:, None]
        active[active] = gain > sigma * (1.0 + 1e-12)
        if not active.any():
            break
    return w


def estimate_bilinear_norm(oracle, u, v_count=8, seed=0):
    """Lower estimate of sup |z^* d2F|_u(v, w)| over unit z and X-unit v, w
    by alternating maximisation, accelerated by Rayleigh-Ritz steps over
    the directions it has visited (subspace-accelerated higher-order
    power method).

    In X-orthonormal coordinates p = W^1/2 v the form is G(p) = dJ(v)
    W^-1/2, linear in p.  A sweep at a unit p takes the SVD of G(p): its
    largest singular value is the exact supremum over z and w at that p,
    so an attained value of the form.  Since G is linear, each point keeps
    an orthonormal basis of the directions swept so far (all ``v_count``
    seeded starts among them) with G along each, and
    :func:`_ritz_direction` maximises the form over p in their span with
    no oracle call; the w of that maximum is the next p.  The span holds
    the last p, and d2F is symmetric (z^T G(w) p = z^T G(p) w), so the
    sweeps never decrease.  The best start is swept until a sweep gains
    at most 1e-12 relative, or POWER_ITERATIONS times.  Points ``u`` (K,
    N) with one seed each give (K,) estimates, each what the point gets
    alone: all starts in one stack, then one per sweep of the points still
    sweeping.
    """
    u = np.asarray(u, dtype=float)
    us = oracle._domain_vec(u)[None] if u.ndim <= 1 else oracle._domain_rows(u)
    if not len(us):
        raise ConfigurationError("u must hold at least one point")
    scale = 1.0 / np.sqrt(oracle.weights)
    count, big_n = us.shape
    if integer(v_count, "v_count") < 1:
        raise ConfigurationError(f"v_count must be >= 1, got {v_count}")
    try:
        seeds = np.broadcast_to(np.array(seed, dtype=object), count)
    except ValueError:
        raise ConfigurationError(
            f"seed must be one integer or one per point ({count} points), "
            f"got {seed!r}") from None
    if any(integer(s, "seed") < 0 for s in seeds):
        raise ConfigurationError(f"seed must be >= 0, got {seed}")

    def sweep(points, ps):
        form = oracle.jacobian_derivative_many(points, ps * scale) * scale
        left, sigma, _ = np.linalg.svd(form, full_matrices=False)
        return form, sigma[:, 0], left[..., 0]

    rngs = [np.random.default_rng([s, 7]) for s in seeds]
    starts = np.array([_unit(rng, big_n, oracle.norm) for rng in rngs
                       for _ in range(v_count)]).reshape(-1, big_n) / scale
    form, sigma, z = sweep(np.repeat(us, v_count, axis=0), starts)
    slots = v_count + POWER_ITERATIONS
    basis = np.zeros((count, slots, big_n))
    forms = np.zeros((count, slots) + form.shape[1:])
    form = form.reshape((count, v_count) + form.shape[1:])
    starts = starts.reshape(count, v_count, big_n)
    for k in range(v_count):
        basis[:, k], forms[:, k] = _orthonormal_part(
            basis, forms, starts[:, k], form[:, k])
    first = np.argmax(sigma.reshape(-1, v_count), axis=1)
    first += np.arange(count) * v_count
    sigma, z = sigma[first], z[first]
    best, running = np.zeros(count), np.ones(count, dtype=bool)
    for k in range(v_count, slots):
        running &= sigma > best * (1.0 + 1e-12)
        if not running.any():
            break
        best[running] = sigma[running]
        p = _ritz_direction(forms[running], z[running])
        form, sigma[running], z[running] = sweep(us[running], p)
        basis[running, k], forms[running, k] = _orthonormal_part(
            basis[running], forms[running], p, form)
    best = np.maximum(best, sigma)
    return float(best[0]) if np.ndim(u) == 1 else best


def _switching_samples(oracle, us, jacs, zs, xi=None):
    """(P, Z) tables of ||phi_z||_X, the coercivity ratio (NaN where phi_z
    is degenerate) and the margin ratio * ||phi_z|| * xi(||u||)^2 (NaN
    without ``xi``) at points ``us`` (P, N) with their J (P, n, N) and z
    samples ``zs`` (P, Z, n), phi_z = W^-1 J^T z: one stack of dJ, xi^2
    once per point.  In float64: a margin is inf where xi^2 overflows."""
    shape = zs.shape[:2]
    phis = np.array([(jac.T @ z) / oracle.weights
                     for jac, u_zs in zip(jacs, zs) for z in u_zs])
    zs = zs.reshape(len(phis), -1)
    nphi2 = np.array([oracle.inner(phi, phi) for phi in phis])
    keep = np.flatnonzero(nphi2 > DEGENERATE_SWITCHING ** 2)
    ratio = np.full(len(phis), np.nan)
    curvatures = oracle.jacobian_derivative_many(us[keep // shape[1]],
                                                 phis[keep])
    for k, dj in zip(keep, curvatures):
        curv = abs(oracle.inner(phis[k], (zs[k] @ dj) / oracle.weights))
        ratio[k] = curv / nphi2[k]
    nphi, ratio = np.sqrt(nphi2).reshape(shape), ratio.reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        xi_u2 = [np.nan if xi is None else xi(oracle.norm(u)) ** 2
                 for u in us]
        margin = ratio * nphi * np.reshape(xi_u2, (-1, 1))
    return nphi, ratio, margin


def _one_sample(oracle, u, z, xi=None):
    """(ratio, margin) of :func:`_switching_samples` at one sample."""
    u, z = oracle._domain_vec(u), oracle._codomain_vec(z)
    _, ratio, margin = _switching_samples(
        oracle, u[None], oracle.jacobian(u)[None], z[None, None], xi)
    return ratio.item(), margin.item()


def coercivity_ratio(oracle, u, z):
    """|z^* d2F(phi_z, phi_z)| / ||phi_z||_X^2, or None when the
    switching function is degenerate at the sample."""
    ratio, _ = _one_sample(oracle, u, z)
    return None if np.isnan(ratio) else ratio


def xi_margin(oracle, u, z, xi):
    """Margin ratio * ||phi_z|| * xi(||u||)^2 of the product condition at
    one sample, None where phi_z is degenerate; pass is >= 1.  In float64:
    inf where xi^2 overflows, NaN where the ratio is 0 there."""
    ratio, margin = _one_sample(oracle, u, z, xi)
    return None if np.isnan(ratio) else margin


def _sample_u(oracle, plan, shell_idx, sample_idx):
    rng = np.random.default_rng([plan.seed, shell_idx, sample_idx])
    return plan.radii[shell_idx] * _unit(rng, oracle.dim_domain, oracle.norm)


def _sample_z(oracle, plan, shell_idx, sample_idx, z_idx):
    rng = np.random.default_rng([plan.seed, shell_idx, sample_idx,
                                 1000 + z_idx])
    return _unit(rng, oracle.dim_codomain)


def gramian_inverse_growth(radii, inv_gramian_max):
    """Log-log fit of the per-shell max of 1/lambda_1 against 1 + r, over
    the shells with a regular sample (max > 0): (slope, intercept,
    passed), intercept -inf when no shell has one."""
    radii, inv_max = np.asarray(radii), np.asarray(inv_gramian_max)
    seen = inv_max > 0.0
    xs, ys = np.log1p(radii[seen]), np.log(inv_max[seen])
    if len(xs) >= 2:
        slope, intercept = np.polyfit(xs, ys, 1)
    elif len(xs) == 1:
        slope, intercept = 0.0, ys[0]
    else:
        slope, intercept = 0.0, -np.inf
    return (float(slope), float(intercept),
            bool(slope <= GROWTH_SLOPE_LIMIT + GROWTH_SLOPE_TOL))


def check_report(oracle, plan, lambda0=1e-6, xi=None):
    """Run every estimator over the plan and aggregate.

    Deterministic given (oracle, plan): each sample draws from its own
    hashed substream, so doubling the counts extends the sample set
    without disturbing earlier draws.  The samples form one table of
    shells x points x z samples: per plan point (every J formed once, in
    one :meth:`MapOracle.jacobian_many`, for its Gramian and its
    switching functions; each Gramian decomposed once) its least
    eigenvalue, singular flag, eigenvalue floor and C_est, and per (u, z)
    ||phi_z||, the coercivity ratio and the product margin, NaN where
    phi_z is degenerate and the sample skipped.  Every shell row and
    every aggregate is a reduction of the table over its axes.
    """
    lambda0 = positive(lambda0, "lambda0")
    radii = np.asarray(plan.radii)
    shape = (len(radii), plan.per_radius)
    index = list(np.ndindex(shape))
    points = np.array([_sample_u(oracle, plan, si, k) for si, k in index])
    zs = np.array([[_sample_z(oracle, plan, si, k, j)
                    for j in range(plan.z_samples)] for si, k in index])
    jacs = oracle.jacobian_many(points)
    # sampling reads eigenvalues only: a tie above lambda_1 is harmless
    specs = [spectral_decompose(_gramian(jac, oracle.weights))
             for jac in jacs]
    lam1 = np.reshape([s.lambdas[0] for s in specs], shape)
    singular = np.reshape([s.singular for s in specs], shape)
    gap = np.reshape([s.floor for s in specs], shape) - lambda0
    # every plan point's C_est in lockstep, every (u, z) sample in one stack
    c = estimate_bilinear_norm(
        oracle, points, v_count=plan.z_samples,
        seed=[plan.seed + 104729 * si + 1299721 * k for si, k in index]
    ).reshape(shape)
    nphi, ratio, margin = (table.reshape(shape + (-1,)) for table in
                           _switching_samples(oracle, points, jacs, zs, xi))
    kept = ~np.isnan(ratio)
    inv_max = (1.0 / np.where(singular, np.inf, lam1)).max(axis=1)
    # ShellStats columns after radius and samples, in field order
    columns = ((~kept).sum(axis=(1, 2)), c.max(axis=1),
               np.fmin.reduce(ratio, axis=(1, 2)),
               np.fmin.reduce(margin, axis=(1, 2)), inv_max,
               gap.min(axis=1), singular.sum(axis=1))
    shells = [ShellStats(r, plan.per_radius, *row) for r, row in
              zip(plan.radii, zip(*(col.tolist() for col in columns)))]
    # power-law split fit: slope of log(ratio) gives 1 - alpha, with
    # K1, K2 the worst-case constants at the fitted exponent
    log_r = np.broadcast_to(np.log(radii)[:, None, None], ratio.shape)[kept]
    log_ratio = np.log(np.maximum(ratio[kept], 1e-300))
    log_phi = np.log(np.maximum(nphi[kept], 1e-300))
    alpha, k1, k2 = 1.0, 0.0, 0.0
    if log_r.size and np.ptp(log_r) > 0.0:
        alpha += float(np.polyfit(log_r, log_ratio, 1)[0])
    if log_r.size:
        k1 = float(np.exp(np.min(log_ratio + (1.0 - alpha) * log_r)))
        k2 = float(np.exp(np.min(log_phi + (1.0 + alpha) * log_r)))
    k_est = float(np.fmin.reduce(ratio, axis=None))
    xi_min = float(np.fmin.reduce(margin, axis=None))
    growth_slope, growth_intercept, growth_pass = gramian_inverse_growth(
        radii, inv_max)
    gap_margin = float(gap.min())
    return HypothesisReport(
        plan=plan, lambda0=lambda0, xi=xi, c_est=float(c.max()),
        k_est=0.0 if np.isnan(k_est) else k_est, xi_margin_min=xi_min,
        xi_pass=xi is None or xi_min >= 1.0,
        growth_slope=growth_slope, growth_intercept=growth_intercept,
        growth_pass=growth_pass,
        gap_margin=gap_margin, gap_pass=gap_margin >= 0.0,
        remark_alpha=alpha, remark_k1=k1, remark_k2=k2,
        shells=shells, skipped_samples=int((~kept).sum()),
        singular_samples=int(singular.sum()))
