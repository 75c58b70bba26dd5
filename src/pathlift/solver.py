"""Integration of the path-lifting equation du/ds = dF^* G^-1 gamma_dot.

The lift follows a target path gamma(s) from s=0 to s=1 with an embedded
Cash-Karp 5(4) pair, Gauss-Newton residual correction after each
accepted step, and bisection toward the singular set when the least
Gramian eigenvalue collapses.  One step loop, ``_Lift.run`` behind
:func:`lift`, owns the step retry and correction logic; there is no
separate single-step API.  Every accepted state carries the full
spectral diagnostics, so a finished run doubles as an empirical record
of the quantities the solver's termination analysis is built on.

The first step is tried over the whole first knot interval: the default
``ds_init`` of 1 only caps it, and the error control shortens it when the
path needs shorter steps.

Endgame.  After every accepted state, the anchor included, the loop
extrapolates lambda_1 linearly to s* = s - lambda_1 / dlambda1_ds from
values the state already carries.  Let b be the next boundary of the
path: its next knot, or the end s = 1.  When lambda_1 is falling and s*
lies within ``terminal_window`` of b, the lift up to b is integrated in
sigma = sqrt(b - s), as homotopy-continuation endgames do (Morgan,
Sommese & Wampler 1992).  At a corank-1 point lambda_1 vanishes linearly
in s and |g| grows like 1/sigma, but du/dsigma = -2 sigma du/ds stays
bounded; on the squared-norm map u is linear in sigma.  The same
Cash-Karp step, error control and correction run in tau = sigma0 - sigma,
with right-hand side 2 sigma du/ds.  Those states carry the flag
``endgame`` and their step in s.  While the same linear model of lambda_1
falls to ``LANDING_SING_MULTIPLE`` times the singular threshold before b,
the step is capped at that landing sigma, kept at least 2 ``ds_min``
short of b; where it does not (a near miss), the step aims at sigma = 0.
The step onto the singular point from the landing state fails within
``ds_event`` of b, and the approach walk, with s pinned at b, crosses the
threshold in one Euler step: at b < 1 the run ends ``SingularInterior``.
An endgame step that lands regular on a knot is tagged ``endgame knot``,
and the next leg continues in s.  Over each pair of states that ends on
an endgame state the g integral is the trapezoid of 2 sigma |g| in sigma,
since |g| ds = 2 sigma |g| dsigma.
"""

import logging
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import (BadAnchor, ConfigurationError, SingularGramian,
                     SingularStart, finite)
from .spectrum import (GramianSpectrum, SpectralDiagnostics, diagnostics,
                       gramian, spectral_decompose)

log = logging.getLogger(__name__)

# Termination statuses of a continuation run.
REACHED = "Reached"
SINGULAR_TERMINAL = "SingularTerminal"
SINGULAR_INTERIOR = "SingularInterior"
STEP_UNDERFLOW = "StepUnderflow"
DIVERGED = "Diverged"

# The endgame aims its step at the sigma where lambda_1, extrapolated
# linearly in s, falls to this multiple of the singular threshold.
LANDING_SING_MULTIPLE = 2.0


@dataclass(frozen=True)
class SolverOptions:
    ds_init: float = 1.0         # cap on the first step
    ds_min: float = 1e-12
    ds_event: float = 1e-6       # bisection resolution toward the singular set
    tol_ode: float = 1e-8        # relative local error tolerance
    tol_ode_abs: float = 1e-10
    tol_residual: float = 1e-10
    tol_init: float = 1e-6
    terminal_window: float = 1e-3
    max_steps: int = 200_000

    def __post_init__(self):
        # every float option is a step size, tolerance or window; checked
        # in declaration order, so an error names the same field every run
        for f in fields(self):
            if f.type is float and not 0 < getattr(self, f.name) < np.inf:
                raise ConfigurationError(f"solver.{f.name} must be positive")
        if self.max_steps < 1:
            raise ConfigurationError("solver.max_steps must be >= 1")


@dataclass
class LiftState:
    """Accepted solver state at parameter s."""

    s: float
    u: np.ndarray
    spectrum: GramianSpectrum
    diag: SpectralDiagnostics
    residual: float
    step_size: float
    udot_norm: float
    flags: str = ""


@dataclass
class ContinuationReport:
    trace: list
    status: str
    final_u: np.ndarray
    final_residual: float
    g_integral: float
    u_norm_variation: float
    bound_check_max: float
    lambda0_measured: float
    max_gamma_dot: float
    message: str = ""

    @property
    def final_state(self):
        return self.trace[-1]


# Cash-Karp 5(4) tableau: six stages, fifth-order propagation.
_CK_C = np.array([0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8])
_CK_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [3 / 10, -9 / 10, 6 / 5],
    [-11 / 54, 5 / 2, -70 / 27, 35 / 27],
    [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
]
_CK_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
_CK_B4 = np.array([2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296,
                   277 / 14336, 1 / 4])


def ple_rhs(oracle, u, gamma_dot):
    """Right-hand side dF|_u^* G(u)^-1 gamma_dot of the lifting equation.

    G is solved through its eigendecomposition, the one solve that the
    state's velocity, the correction and the approach walk use too.
    Raises SingularGramian when lambda_1 is below the singular threshold,
    the one test of ``GramianSpectrum.singular``.
    """
    u = np.asarray(u, dtype=float)
    spec = spectral_decompose(gramian(oracle, u))
    if spec.singular:
        raise SingularGramian(
            f"Gramian singular: lambda_1 = {spec.lambdas[0]:.3e}",
            spectrum=spec)
    return _rhs_from_spectrum(oracle, u, gamma_dot, spec)


def _rhs_from_spectrum(oracle, u, gamma_dot, spec, clamp=False):
    """dF|_u^* G^-1 gamma_dot with G solved through its eigendecomposition.

    The result does not depend on the eigenvector signs.  With ``clamp``
    the eigenvalues are floored at the singular threshold, the
    graceful-degradation route used near the singular set.
    """
    lam = spec.lambdas
    if clamp:
        lam = np.maximum(lam, spec.lambda_sing)
    proj = spec.vectors.T @ np.asarray(gamma_dot, float)
    return oracle.apply_adjoint(u, spec.vectors @ (proj / lam))


def _ck_step(fun, s, u, h, k1=None):
    """One Cash-Karp step; returns the fifth-order solution and the
    embedded error estimate.  ``k1``, when given, is the first stage
    fun(s, u), already in hand."""
    ks = [] if k1 is None else [k1]
    for i in range(len(ks), 6):
        ui = u
        for aij, kj in zip(_CK_A[i], ks):
            ui = ui + (h * aij) * kj
        ks.append(fun(s + _CK_C[i] * h, ui))
    kmat = np.stack(ks, axis=0)
    u5 = u + h * (_CK_B5 @ kmat)
    err = h * ((_CK_B5 - _CK_B4) @ kmat)
    return u5, err


def _error_ratio(u, u5, err, opts):
    scale = opts.tol_ode_abs + opts.tol_ode * np.maximum(np.abs(u),
                                                         np.abs(u5))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def gauss_newton_correct(oracle, u, target, tol_residual):
    """Project u back onto the fiber F(u) = target.

    Returns (u, residual, converged).  Each of at most 10 iterations
    applies the least-norm update dF^* G^-1 (target - F(u)).
    """
    u = np.asarray(u, dtype=float)
    r = target - oracle.eval(u)
    res = float(np.linalg.norm(r))
    for _ in range(10):
        if res <= tol_residual:
            return u, res, True
        spec = spectral_decompose(gramian(oracle, u))
        u_try = u + _rhs_from_spectrum(oracle, u, r, spec, clamp=True)
        r_try = target - oracle.eval(u_try)
        res_try = float(np.linalg.norm(r_try))
        if not np.isfinite(res_try) or res_try >= res:
            break
        u, r, res = u_try, r_try, res_try
    return u, res, res <= tol_residual


class _Lift:
    """Single sequential continuation run."""

    def __init__(self, oracle, path, u0, opts):
        self.oracle = oracle
        self.path = path
        self.opts = opts
        self.u = np.asarray(u0, dtype=float)
        self.s = 0.0
        self.b = None           # next boundary: a knot or s = 1
        self.sigma0 = None      # sqrt(b - s) where the endgame started
        self.prev_spec = None
        self.udot = None        # dF^* G^-1 gamma_dot at the last state
        self.trace = []
        self.status = None
        self.message = ""
        self.boundaries = sorted(set(path.knots)) + [1.0]

    def _fun(self, t, uu):
        """Lifting equation in the step variable t: s itself, or
        tau = sigma0 - sigma in the endgame, where du/dtau = 2 sigma du/ds."""
        if self.sigma0 is None:
            return ple_rhs(self.oracle, uu, self.path.gamma_dot(t))
        sigma = self.sigma0 - t
        # never before the step's start, where b - sigma^2 may round below
        # a knot onto the previous leg
        s = max(self.b - sigma**2, self.s)
        return (2.0 * sigma) * ple_rhs(self.oracle, uu, self.path.gamma_dot(s))

    def _s_after(self, t, h):
        """Parameter s after a step h from t, and the step in s."""
        if self.sigma0 is None:
            return self.s + h, h
        s_new = self.b - (self.sigma0 - (t + h)) ** 2
        return s_new, s_new - self.s

    def _s_where(self, state, lam):
        """The s where lambda_1, extrapolated linearly in s from ``state``,
        falls to ``lam``; inf when lambda_1 is not falling."""
        dlam = state.diag.dlambda1_ds
        if not dlam < 0.0:
            return np.inf
        return state.s + (lam - state.spectrum.lambdas[0]) / dlam

    def _endgame_due(self, state):
        """Whether lambda_1, extrapolated linearly from ``state``, vanishes
        within the terminal window of the next boundary b."""
        s_star = self._s_where(state, 0.0)
        return abs(s_star - self.b) <= self.opts.terminal_window

    def _landing(self, state, sigma):
        """The sigma where lambda_1 is predicted to fall to
        LANDING_SING_MULTIPLE times the singular threshold; 0 when it does
        not before b (a near miss), or when that sigma is not well short
        of the present one.  The landing stays 2 ds_min short of b, so the
        step after it is not below ds_min and still starts the walk."""
        s_land = self._s_where(
            state, LANDING_SING_MULTIPLE * state.spectrum.lambda_sing)
        if not s_land < self.b:
            return 0.0
        s_land = min(s_land, self.b - 2.0 * self.opts.ds_min)
        sigma_land = float(np.sqrt(self.b - s_land))
        return sigma_land if sigma_land < 0.5 * sigma else 0.0

    def _next_boundary(self, s):
        """The first knot after s, or the end s = 1."""
        for b in self.boundaries:
            if b > s + 1e-14:
                return b
        return 1.0

    def _log(self, s, u, spec, h_used, flags=""):
        gd = self.path.gamma_dot(s)
        diag = diagnostics(self.oracle, u, spec, gd)
        residual = float(np.linalg.norm(self.oracle.eval(u) -
                                        self.path.gamma(s)))
        # the state's velocity is also the next s-step's first stage
        self.udot = None if spec.singular else _rhs_from_spectrum(
            self.oracle, u, gd, spec)
        state = LiftState(s=float(s), u=u, spectrum=spec, diag=diag,
                          residual=residual, step_size=float(h_used),
                          udot_norm=np.nan if self.udot is None
                          else self.oracle.norm(self.udot), flags=flags)
        self.trace.append(state)
        self.prev_spec = spec
        self.s = s
        self.u = u
        return state

    def _accept_regular(self, s_new, u5, spec, h_used, tag=""):
        """Correct the step's u5, whose spectrum is ``spec``, onto the
        fiber and log it; the spectrum is taken again only when the
        correction moved u5."""
        tol = self.opts.tol_residual
        u_new, res, ok = gauss_newton_correct(
            self.oracle, u5, self.path.gamma(s_new), tol)
        if u_new is not u5:
            spec = spectral_decompose(gramian(self.oracle, u_new),
                                      prev=self.prev_spec)
        if not ok and not res < 10.0 * tol:    # NaN fails too
            self.status = DIVERGED
            self.message = (f"correction failed: residual {res:.3e} "
                            f"at s = {s_new:.6f}")
            self._log(s_new, u_new, spec, h_used, "corr-fail")
            return None
        flags = []
        if not ok:
            warnings.warn(f"residual correction stalled at {res:.3e} "
                          f"(s = {s_new:.6f}); continuing", RuntimeWarning)
            flags.append("corr-warn")
        if tag:
            flags.append(tag)
        state = self._log(s_new, u_new, spec, h_used, " ".join(flags))
        if "knot" in tag.split():
            # restart eigenvector alignment and coefficient tracking
            self.prev_spec = None
        return state

    def _finish_singular(self, s_new, u_new, spec, h_used):
        self._log(s_new, u_new, spec, h_used, "singular")
        if s_new >= 1.0 - self.opts.terminal_window:
            self.status = SINGULAR_TERMINAL
        else:
            self.status = SINGULAR_INTERIOR
        log.info("singular set reached at s = %.9f (lambda_1 = %.3e)",
                 s_new, spec.lambdas[0])

    def _approach_singularity(self, h_start, require=True):
        """Euler steps with a clamped Gramian solve to land just past the
        point where lambda_1 crosses the singular threshold, with s pinned
        at the boundary b ahead.

        When the contraction at b stalls, the state is regular after all,
        and the end-of-run checks decide whether it is reached.  A walk
        that runs out of steps without crossing is step underflow, unless
        ``require`` is False.
        """
        opts = self.opts
        b = self.b
        h = max(h_start, opts.ds_min)
        for _ in range(300):
            h_use = min(h, b - self.s)
            spec_here = self.trace[-1].spectrum
            if h_use > 1e-15:
                gd = self.path.gamma_dot(self.s)
                udot = _rhs_from_spectrum(self.oracle, self.u, gd,
                                          spec_here, clamp=True)
                u_try = self.u + h_use * udot
                s_try = self.s + h_use
            else:
                # s pinned at a boundary: contract toward the target in u
                # alone with the clamped least-norm correction
                r = self.path.gamma(self.s) - self.oracle.eval(self.u)
                u_try = self.u + _rhs_from_spectrum(self.oracle, self.u, r,
                                                    spec_here, clamp=True)
                s_try = self.s
            spec_try = spectral_decompose(gramian(self.oracle, u_try),
                                          prev=self.prev_spec)
            if spec_try.singular:
                self._finish_singular(s_try, u_try, spec_try, h_use)
                return
            if spec_try.lambdas[0] < spec_here.lambdas[0]:
                self._log(s_try, u_try, spec_try, h_use, "approach")
                if spec_try.lambdas[0] > 0.5 * spec_here.lambdas[0]:
                    h = h * 2.0
            elif h_use <= 1e-15:
                # pinned contraction stalled: the state is regular
                return
            else:
                h = h * 2.0
            if h > opts.ds_event:
                h = opts.ds_event
        if require:
            self.status = STEP_UNDERFLOW
            self.message = "could not cross the singular threshold"

    def run(self, spec0):
        """Lift from the anchor, whose Gramian spectrum is ``spec0``."""
        opts = self.opts
        state = self._log(0.0, self.u, spec0, 0.0, "start")
        h = opts.ds_init
        t = 0.0         # step variable: s, or sigma0 - sigma in the endgame
        steps = 0
        walked = False  # whether the loop ended in the approach walk
        while self.s < 1.0 - 1e-15 and self.status is None:
            if self.sigma0 is None:
                self.b = self._next_boundary(self.s)
                if self._endgame_due(state):
                    self.sigma0 = float(np.sqrt(self.b - self.s))
                    t, h = 0.0, min(h / (2.0 * self.sigma0), self.sigma0)
            steps += 1
            if steps > opts.max_steps:
                self.status = STEP_UNDERFLOW
                self.message = f"step budget {opts.max_steps} exhausted"
                break
            if self.b == 1.0 and 1.0 - self.s < opts.ds_min:
                break       # sub-ds_min gap to the end; resolved below
            if self.sigma0 is None:
                end = self.b
            else:
                # aim at the landing sigma, or onto sigma = 0
                end = self.sigma0 - self._landing(state, self.sigma0 - t)
            h = min(h, end - t)
            s_new, ds = self._s_after(t, h)
            if ds < opts.ds_min:
                self.status = STEP_UNDERFLOW
                self.message = f"step size {ds:.3e} below ds_min"
                break
            try:
                # in s, t equals self.s bit for bit: stage 1 is self.udot
                u5, err = _ck_step(self._fun, t, self.u, h, self.udot
                                   if self.sigma0 is None else None)
            except SingularGramian:
                # walk only onto a singular point ahead, where lambda_1 falls;
                # where it rises, a stage overshot, and the step is halved
                if (ds <= max(opts.ds_event, 4.0 * opts.ds_min)
                        and state.diag.dlambda1_ds < 0.0):
                    self._approach_singularity(ds)
                    if self.status is None and self.b < 1.0:
                        # the walk stalled regular on a knot: the next leg
                        # continues in s
                        state, self.prev_spec = self.trace[-1], None
                        self.sigma0, t, h = None, self.s, ds
                        continue
                    walked = True
                    break
                h *= 0.5
                continue
            if not np.all(np.isfinite(u5)):
                h *= 0.5
                if h < opts.ds_min:
                    self.status = DIVERGED
                    self.message = "non-finite state produced"
                    break
                continue
            ratio = _error_ratio(self.u, u5, err, opts)
            if ratio > 1.0:
                h = h * max(0.2, 0.9 * ratio ** -0.25)
                continue
            spec_new = spectral_decompose(gramian(self.oracle, u5),
                                          prev=self.prev_spec)
            if spec_new.singular:
                if ds <= max(opts.ds_event, 4.0 * opts.ds_min):
                    self._finish_singular(s_new, u5, spec_new, ds)
                    break
                h *= 0.5
                continue
            tags = [] if self.sigma0 is None else ["endgame"]
            on_knot = self.b < 1.0 and abs(s_new - self.b) < 1e-14
            if on_knot:
                tags.append("knot")
            state = self._accept_regular(s_new, u5, spec_new, ds,
                                         " ".join(tags))
            if state is None:
                break
            if on_knot and self.sigma0 is not None:
                # landed regular on a knot: the next leg continues in s
                self.sigma0, t, h = None, s_new, ds
            else:
                t += h
            if ratio > 0.0:
                h = h * min(5.0, max(0.2, 0.9 * ratio ** -0.2))
            else:
                h = h * 5.0
        if self.status is None and not walked:
            near = self.trace[-1].spectrum
            if near.lambdas[0] < 1e4 * near.lambda_sing:
                # finished barely above the singular threshold; resolve by
                # contracting toward the target at fixed s
                self._approach_singularity(opts.ds_min, require=False)
        if self.status is None and self.s < 1.0 - 1e-15:
            # stopped less than ds_min short of the end: reached only if
            # the state already maps onto gamma(1)
            res_end = float(np.linalg.norm(
                self.oracle.eval(self.u) - self.path.gamma(1.0)))
            if res_end <= opts.tol_residual:
                self.status = REACHED
            else:
                self.status = STEP_UNDERFLOW
                self.message = (f"stopped at s = {self.s:.6g}, less than "
                                f"ds_min short of s = 1 (residual "
                                f"{res_end:.3e} to gamma(1))")
        if self.status is None:
            final = self.trace[-1]
            if final.residual <= opts.tol_residual:
                self.status = REACHED
            else:
                self.status = DIVERGED
                self.message = f"final residual {final.residual:.3e}"
        return self._report()

    def _report(self):
        trace = self.trace
        final = trace[-1]
        n = self.oracle.dim_codomain
        # trapezoid of |g| over states where g is defined; in sigma over a
        # pair that ends on an endgame state, where |g| ds = 2 sigma |g| dsigma
        # stays bounded
        pts = [(st.s, abs(st.diag.g), "endgame" in st.flags.split())
               for st in trace if np.isfinite(st.diag.g)]
        g_integral = 0.0
        for (s0, g0, _), (s1, g1, endgame) in zip(pts, pts[1:]):
            if endgame:
                b = next(x for x in self.boundaries if x >= s1)
                sig0, sig1 = (b - s0) ** 0.5, (b - s1) ** 0.5
                g_integral += (sig0 * g0 + sig1 * g1) * (sig0 - sig1)
            else:
                g_integral += 0.5 * (g0 + g1) * (s1 - s0)
        norms = [self.oracle.norm(st.u) for st in trace]
        variation = float(np.sum(np.abs(np.diff(norms)))) if len(norms) > 1 \
            else 0.0
        lam0 = min(st.spectrum.floor for st in trace)
        max_speed = self.path.max_speed()
        cbar = (n - 1) * max_speed / np.sqrt(lam0) if n > 1 else 0.0
        bound_max = -np.inf
        for st in trace:
            if not np.isfinite(st.udot_norm) or st.spectrum.singular:
                continue
            lhs = st.udot_norm
            rhs = (abs(st.diag.a[0]) / np.sqrt(st.spectrum.lambdas[0])
                   + cbar)
            bound_max = max(bound_max, lhs - rhs)
        return ContinuationReport(
            trace=trace, status=self.status, final_u=final.u,
            final_residual=final.residual, g_integral=g_integral,
            u_norm_variation=variation, bound_check_max=float(bound_max),
            lambda0_measured=float(lam0), max_gamma_dot=float(max_speed),
            message=self.message)


def lift(oracle, path, u0, options=None):
    """Lift the target path through the map, from anchor u0.

    Preconditions: u0 must be finite and F(u0) match gamma(0) within
    tol_init (else BadAnchor), and u0 must be nonsingular (else
    SingularStart).  Returns a ContinuationReport whose trace holds every
    accepted state.
    """
    opts = options or SolverOptions()
    u0 = oracle._domain_vec(finite(u0, "anchor u0", BadAnchor), "u0")
    res0 = float(np.linalg.norm(oracle.eval(u0) - path.gamma(0.0)))
    if not res0 <= opts.tol_init:  # NaN fails too
        raise BadAnchor(
            f"initial residual {res0:.3e} exceeds tol_init {opts.tol_init:.1e}")
    spec0 = spectral_decompose(gramian(oracle, u0))
    if spec0.singular:
        raise SingularStart(
            f"anchor is singular: lambda_1 = {spec0.lambdas[0]:.3e}")
    return _Lift(oracle, path, u0, opts).run(spec0)
