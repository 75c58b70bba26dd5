"""Integration of the path-lifting equation du/ds = dF^* G^-1 gamma_dot.

The lift follows a target path gamma(s) from s = 0 to s = 1 one leg at a
time, with an embedded Cash-Karp 5(4) pair, Gauss-Newton residual
correction after each accepted step, and an approach walk onto the
singular set when the least Gramian eigenvalue collapses.  Every accepted
state carries the full spectral diagnostics.

One J per point.  Each point the lift reaches, a Cash-Karp stage, a step's
end, a corrected state or a walk step, takes its spectrum with
``spectrum_at``: one ``oracle.jacobian`` call, whose J the spectrum
carries.  The velocity, the correction's first update and the state's
diagnostics are products of that J, so a point asks the oracle for J once.

Legs.  Every stage of a step reads the gamma_dot of the leg it steps on,
smooth on the leg's [a, b], and a step in s onto b lands on b exactly.  A
state on a knot b < 1 starts the next leg: it is flagged ``knot`` and
carries that leg's diagnostics, so its velocity is that leg's first
stage.  The first step is tried over the whole first leg.

The g integral.  ``ple_rhs`` also returns |g| = |<gamma_dot, z_1>| /
sqrt(lambda_1) from the spectrum it decomposes, and each step adds the
fifth-order quadrature of its stages' |g| to q = integral |g| ds.  The
values ride beside the stacked stages, so u is stepped as without them
and q stays out of the error norm.  An approach-walk Euler step adds
h |g| at its start.  q stops at the last regular state.

Endgame.  After each accepted state the loop extrapolates lambda_1
linearly to s* = s - lambda_1 / dlambda1_ds.  When lambda_1 is falling
and s* lies within ``TERMINAL_WINDOW`` of the leg's end b, the lift up to
b runs in sigma = sqrt(b - s) (Morgan, Sommese & Wampler 1992): at a
corank-1 point |g| grows like 1/sigma, but du/dsigma = -2 sigma du/ds and
2 sigma |g| stay bounded.  The same step, error control and correction
run in tau = sigma0 - sigma; those states are flagged ``endgame`` and
carry their step in s.  The step is capped at the sigma where the linear
model of lambda_1 falls to ``LANDING_SING_MULTIPLE`` times the singular
threshold, at least 2 ``ds_min`` short of b, or aims at sigma = 0 on a
near miss.  From the landing state the approach walk, with s pinned at
b, crosses the threshold in one Euler step: at b < 1 the run ends
``SingularInterior``.  An endgame that ends regular on a knot hands the
next leg a step in s.
"""

import logging
from dataclasses import dataclass, fields

import numpy as np

from .errors import (BadAnchor, ConfigurationError, SingularGramian,
                     SingularStart, finite, integer, positive)
from .spectrum import (GramianSpectrum, SpectralDiagnostics, diagnostics,
                       spectrum_at)

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
# Cap on the approach walk's Euler step; a step this short that meets the
# singular set starts the walk, or ends the lift there.
DS_EVENT = 1e-6
# The endgame starts when lambda_1's linear zero lies this close to the
# leg's end, and a singular state this close to s = 1 is terminal.
TERMINAL_WINDOW = 1e-3


@dataclass(frozen=True)
class SolverOptions:
    ds_init: float = 1.0         # cap on the first step
    ds_min: float = 1e-12
    tol_ode: float = 1e-8        # relative local error tolerance
    tol_ode_abs: float = 1e-10
    tol_residual: float = 1e-10
    tol_init: float = 1e-6
    max_steps: int = 200_000

    def __post_init__(self):
        # every float option is a step size or tolerance; checked in
        # declaration order, so an error names the same field every run
        for f in fields(self):
            if f.type is not float:
                continue
            try:
                positive(getattr(self, f.name), f.name)
            except ConfigurationError:
                raise ConfigurationError(
                    f"solver.{f.name} must be positive") from None
        if integer(self.max_steps, "solver.max_steps") < 1:
            raise ConfigurationError("solver.max_steps must be >= 1")


# what ``lift`` runs with when given no options; frozen, so it is shared
_DEFAULT_OPTIONS = SolverOptions()


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


# Cash-Karp 5(4) tableau: six stages, fifth-order propagation.  Row i of
# _CK_A holds a_i1 ... a_ii, padded with zeros.
_CK_C = np.array([0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8])
_CK_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0],
    [3 / 10, -9 / 10, 6 / 5, 0.0, 0.0],
    [-11 / 54, 5 / 2, -70 / 27, 35 / 27, 0.0],
    [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
])
_CK_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
_CK_B4 = np.array([2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296,
                   277 / 14336, 1 / 4])
_CK_ERR = _CK_B5 - _CK_B4      # weights of the embedded error estimate


def ple_rhs(oracle, u, gamma_dot):
    """Right-hand side dF|_u^* G(u)^-1 gamma_dot of the lifting equation,
    and the blowup indicator |g| from the same decomposition.

    The Gramian and the adjoint step come from the same J, one
    ``oracle.jacobian`` call at u.  G is solved through its
    eigendecomposition, the one solve that the state's velocity, the
    correction and the approach walk use too.  Raises SingularGramian when
    lambda_1 is below the singular threshold, the one test of
    ``GramianSpectrum.singular``.
    """
    gamma_dot = oracle._codomain_vec(gamma_dot, "gamma_dot")
    spec = spectrum_at(oracle, u)
    if spec.singular:
        raise SingularGramian(
            f"Gramian singular: lambda_1 = {spec.lambdas[0]:.3e}")
    return _rhs_from_spectrum(oracle, gamma_dot, spec)


def _rhs_from_spectrum(oracle, gamma_dot, spec, clamp=False):
    """dF|_u^* G^-1 gamma_dot with G solved through the eigendecomposition
    ``spec`` at u, and |<gamma_dot, z_1>| / sqrt(lambda_1), which is |g| on
    the path.  The adjoint step is W^-1 J^T, the adjoint of J in the
    weighted inner product, with the J ``spec`` carries.

    Neither depends on the eigenvector signs.  With ``clamp`` the
    eigenvalues are floored at the singular threshold, the
    graceful-degradation route used near the singular set.
    """
    lam = spec.lambdas
    if clamp:
        lam = np.maximum(lam, spec.lambda_sing)
    proj = spec.vectors.T @ gamma_dot
    return ((spec.jacobian().T @ (spec.vectors @ (proj / lam)))
            / oracle.weights,
            abs(float(proj[0] / np.sqrt(lam[0]))))


def _ck_step(fun, s, u, h, first=None):
    """One Cash-Karp step; returns the fifth-order solution, the embedded
    error estimate and the fifth-order increment of q.  ``fun(s, u)``
    returns a stage's velocity and |g| integrand; ``first``, when given, is
    the first stage fun(s, u), already in hand.  A stage point that is not
    finite is not evaluated: the step returns it as its solution.

    Stage i's point is ``np.add.reduce`` down the rows of one buffer
    [u; (h a_i1) k_1; ...; (h a_ii) k_i], the same left-to-right sum as
    ``u + (h a_i1) k_1 + ...`` bit for bit, in two array calls per stage
    where that sum takes 2i: on the small u of a lift each numpy call
    costs more than its arithmetic.
    """
    rows = np.empty((7, len(u)))
    rows[0] = u
    ks = np.empty((6, len(u)))
    gs = np.empty(6)
    ha = h * _CK_A
    start = 0
    if first is not None:
        ks[0], gs[0] = first
        start = 1
    for i in range(start, 6):
        np.multiply(ha[i, :i, None], ks[:i], out=rows[1:i + 1])
        ui = np.add.reduce(rows[:i + 1], axis=0)
        if not np.isfinite(ui).all():
            return ui, ui, np.nan
        ks[i], gs[i] = fun(s + _CK_C[i] * h, ui)
    u5 = u + h * (_CK_B5 @ ks)
    err = h * (_CK_ERR @ ks)
    return u5, err, h * float(_CK_B5 @ gs)


def _error_ratio(u, u5, err, opts):
    scale = opts.tol_ode_abs + opts.tol_ode * np.maximum(np.abs(u),
                                                         np.abs(u5))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def gauss_newton_correct(oracle, u, target, tol_residual, spec=None):
    """Project u back onto the fiber F(u) = target.

    Returns (u, residual, converged).  Each of at most 10 iterations
    applies the least-norm update dF^* G^-1 (target - F(u)).  ``spec``,
    when given, is the spectrum of G at u from :func:`spectrum_at`, whose
    J the first iteration uses instead of taking it again (the update
    does not depend on the eigenvector signs).
    """
    u = oracle._domain_vec(u)
    target = oracle._codomain_vec(target, "target")
    r = target - oracle.eval(u)
    res = float(np.linalg.norm(r))
    for _ in range(10):
        if res <= tol_residual:
            return u, res, True
        if spec is None:
            spec = spectrum_at(oracle, u)
        u_try = u + _rhs_from_spectrum(oracle, r, spec, clamp=True)[0]
        r_try = target - oracle.eval(u_try)
        res_try = float(np.linalg.norm(r_try))
        if not np.isfinite(res_try) or res_try >= res:
            break
        u, r, res, spec = u_try, r_try, res_try, None
    return u, res, res <= tol_residual


class _Lift:
    """Single sequential continuation run, one leg of the path at a time."""

    def __init__(self, oracle, path, u0, opts):
        self.oracle = oracle
        self.path = path
        self.opts = opts
        self.u = u0
        self.s = 0.0
        _, self.b, self.leg = path.legs[0]  # the leg lifted now, up to b
        self.next_leg = None    # the leg after b, if b is a knot
        self.sigma0 = None      # sqrt(b - s) where the endgame started
        self.stage1 = None      # (velocity, |g|) at the last state
        self.q = 0.0            # integral of |g| ds to the last regular state
        self.trace = []
        self.status = None
        self.message = ""

    def _fun(self, t, uu):
        """Lifting equation and its |g| integrand in the step variable t:
        s itself, or tau = sigma0 - sigma in the endgame, where
        d/dtau = 2 sigma d/ds."""
        if self.sigma0 is None:
            return ple_rhs(self.oracle, uu, self.leg.gamma_dot(t))
        sigma = self.sigma0 - t
        udot, g = ple_rhs(self.oracle, uu,
                          self.leg.gamma_dot(self.b - sigma**2))
        return (2.0 * sigma) * udot, (2.0 * sigma) * g

    def _s_where(self, state, lam):
        """The s where lambda_1, extrapolated linearly in s from ``state``,
        falls to ``lam``; inf when lambda_1 is not falling."""
        dlam = state.diag.dlambda1_ds
        if not dlam < 0.0:
            return np.inf
        return state.s + (lam - state.spectrum.lambdas[0]) / dlam

    def _endgame_due(self, state):
        """Whether lambda_1, extrapolated linearly from ``state``, vanishes
        within the terminal window of the leg's end b."""
        s_star = self._s_where(state, 0.0)
        return abs(s_star - self.b) <= TERMINAL_WINDOW

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

    def _log(self, s, u, spec, h_used, flags=""):
        leg = self.leg
        if s == self.b and self.next_leg is not None:
            # a knot state starts the next leg: it carries that leg's
            # diagnostics, and its velocity is that leg's first stage
            leg, flags = self.next_leg, f"{flags} knot".lstrip()
        gd = leg.gamma_dot(s)
        diag = diagnostics(self.oracle, u, spec, gd)
        residual = float(np.linalg.norm(self.oracle.eval(u) - leg.gamma(s)))
        # the state's velocity and |g| are also the next s-step's first stage
        self.stage1 = None if spec.singular else _rhs_from_spectrum(
            self.oracle, gd, spec)
        state = LiftState(s=float(s), u=u, spectrum=spec, diag=diag,
                          residual=residual, step_size=float(h_used),
                          udot_norm=np.nan if self.stage1 is None
                          else self.oracle.norm(self.stage1[0]), flags=flags)
        self.trace.append(state)
        self.s = s
        self.u = u
        return state

    def _accept_regular(self, s_new, u5, spec, h_used, tag=""):
        """Correct the step's u5, whose spectrum is ``spec``, onto the
        fiber and log it; the spectrum is taken again only when the
        correction moved u5."""
        tol = self.opts.tol_residual
        u_new, res, ok = gauss_newton_correct(
            self.oracle, u5, self.leg.gamma(s_new), tol, spec)
        if u_new is not u5:
            spec = spectrum_at(self.oracle, u_new,
                               prev=self.trace[-1].spectrum)
        if not ok and not res < 10.0 * tol:    # NaN fails too
            self.status = DIVERGED
            self.message = (f"correction failed: residual {res:.3e} "
                            f"at s = {s_new:.6f}")
            self._log(s_new, u_new, spec, h_used, "corr-fail")
            return None
        flags = []
        if not ok:
            log.warning("residual correction stalled at %.3e (s = %.6f); "
                        "continuing", res, s_new)
            flags.append("corr-warn")
        if tag:
            flags.append(tag)
        return self._log(s_new, u_new, spec, h_used, " ".join(flags))

    def _finish_singular(self, s_new, u_new, spec, h_used):
        self._log(s_new, u_new, spec, h_used, "singular")
        if s_new >= 1.0 - TERMINAL_WINDOW:
            self.status = SINGULAR_TERMINAL
        else:
            self.status = SINGULAR_INTERIOR
        log.info("singular set reached at s = %.9f (lambda_1 = %.3e)",
                 s_new, spec.lambdas[0])

    def _approach_singularity(self, h_start, require=True):
        """Euler steps with a clamped Gramian solve to land just past the
        point where lambda_1 crosses the singular threshold, with s pinned
        at the leg's end b; each adds h |g| at its start to q.

        When the contraction at b stalls, the state is regular after all.
        A walk that cannot cross (out of steps, or its next attempt would
        repeat its last one) is step underflow, unless ``require`` is
        False.
        """
        opts = self.opts
        b = self.b
        h = max(h_start, opts.ds_min)
        for _ in range(300):
            h_use = min(h, b - self.s)
            spec_here = self.trace[-1].spectrum
            if h_use > 1e-15:
                gd = self.leg.gamma_dot(self.s)
                udot, g = _rhs_from_spectrum(self.oracle, gd, spec_here,
                                             clamp=True)
                u_try = self.u + h_use * udot
                s_try = b if h_use == b - self.s else self.s + h_use
                dq = h_use * g
            else:
                # s pinned at b: contract toward the target in u alone with
                # the clamped least-norm correction
                r = self.leg.gamma(self.s) - self.oracle.eval(self.u)
                u_try = self.u + _rhs_from_spectrum(self.oracle, r, spec_here,
                                                    clamp=True)[0]
                s_try, dq = self.s, 0.0
            spec_try = spectrum_at(self.oracle, u_try, prev=spec_here)
            if spec_try.singular:
                self._finish_singular(s_try, u_try, spec_try, h_use)
                return
            if spec_try.lambdas[0] < spec_here.lambdas[0]:
                self.q += dq
                self._log(s_try, u_try, spec_try, h_use, "approach")
                if spec_try.lambdas[0] > 0.5 * spec_here.lambdas[0]:
                    h = h * 2.0
            elif h_use <= 1e-15:
                # pinned contraction stalled: the state is regular
                return
            elif min(2.0 * h, DS_EVENT, b - self.s) == h_use:
                break       # the next attempt would repeat this one
            else:
                h = h * 2.0
            if h > DS_EVENT:
                h = DS_EVENT
        if require:
            self.status = STEP_UNDERFLOW
            self.message = "could not cross the singular threshold"

    def run(self, spec0):
        """Lift from the anchor, whose Gramian spectrum is ``spec0``, one
        leg of the path at a time."""
        opts = self.opts
        legs = self.path.legs
        self._log(0.0, self.u, spec0, 0.0, "start")
        h = opts.ds_init
        steps = 0
        for k, (_, b, leg) in enumerate(legs):
            self.leg, self.b = leg, b
            self.next_leg = legs[k + 1][2] if k + 1 < len(legs) else None
            if self.sigma0 is not None:
                # the last leg ended in the endgame: step in s again
                self.sigma0, h = None, ds
            state = self.trace[-1]
            t = self.s      # step variable: s, or sigma0 - sigma in the endgame
            walked = False  # whether the leg ended in the approach walk
            while self.s < b and self.status is None:
                if self.sigma0 is None and self._endgame_due(state):
                    self.sigma0 = float(np.sqrt(b - self.s))
                    t, h = 0.0, min(h / (2.0 * self.sigma0), self.sigma0)
                steps += 1
                if steps > opts.max_steps:
                    self.status = STEP_UNDERFLOW
                    self.message = f"step budget {opts.max_steps} exhausted"
                    break
                if b == 1.0 and 1.0 - self.s < opts.ds_min:
                    break       # sub-ds_min gap to the end; resolved below
                if self.sigma0 is None:
                    h = min(h, b - t)
                    # a step onto the leg's end lands on b exactly
                    s_new, ds = (b if h == b - t else self.s + h), h
                else:
                    # aim at the landing sigma, or onto sigma = 0
                    end = self.sigma0 - self._landing(state, self.sigma0 - t)
                    h = min(h, end - t)
                    s_new = b - (self.sigma0 - (t + h)) ** 2
                    ds = s_new - self.s
                if ds < opts.ds_min:
                    self.status = STEP_UNDERFLOW
                    self.message = f"step size {ds:.3e} below ds_min"
                    break
                try:
                    # in s, t equals self.s bit for bit: stage 1 is the
                    # state's own velocity and |g|
                    u5, err, dq = _ck_step(self._fun, t, self.u, h,
                                           self.stage1 if self.sigma0 is None
                                           else None)
                except SingularGramian:
                    # walk only onto a singular point ahead, where lambda_1
                    # falls; where it rises, a stage overshot, and the step
                    # is halved
                    if (ds <= max(DS_EVENT, 4.0 * opts.ds_min)
                            and state.diag.dlambda1_ds < 0.0):
                        self._approach_singularity(ds)
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
                spec_new = spectrum_at(self.oracle, u5,
                                       prev=self.trace[-1].spectrum)
                if spec_new.singular:
                    if ds <= max(DS_EVENT, 4.0 * opts.ds_min):
                        self._finish_singular(s_new, u5, spec_new, ds)
                        break
                    h *= 0.5
                    continue
                self.q += dq
                state = self._accept_regular(
                    s_new, u5, spec_new, ds,
                    "" if self.sigma0 is None else "endgame")
                if state is None:
                    break
                t += h
                if ratio > 0.0:
                    h = h * min(5.0, max(0.2, 0.9 * ratio ** -0.2))
                else:
                    h = h * 5.0
            if self.status is not None:
                break
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
                self.oracle.eval(self.u) - self.leg.gamma(1.0)))
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
        norms = [self.oracle.norm(st.u) for st in trace]
        variation = float(np.sum(np.abs(np.diff(norms))))
        lam0 = min(st.spectrum.floor for st in trace)
        max_speed = self.path.max_speed()
        cbar = (n - 1) * max_speed / np.sqrt(lam0) if n > 1 else 0.0
        # |udot| <= |g| + cbar at every regular state (udot_norm is NaN at
        # singular ones)
        bound_max = max((st.udot_norm - (abs(st.diag.g) + cbar)
                         for st in trace if np.isfinite(st.udot_norm)),
                        default=-np.inf)
        return ContinuationReport(
            trace=trace, status=self.status, final_u=final.u,
            final_residual=final.residual, g_integral=self.q,
            u_norm_variation=variation, bound_check_max=float(bound_max),
            lambda0_measured=float(lam0), max_gamma_dot=float(max_speed),
            message=self.message)


def lift(oracle, path, u0, options=None):
    """Lift the target path through the map, from anchor u0.

    Preconditions: gamma(0) must lie in the map's codomain (else
    ConfigurationError), u0 must be finite and F(u0) match gamma(0) within
    tol_init (else BadAnchor), and u0 must be nonsingular (else
    SingularStart).  Returns a ContinuationReport whose trace holds every
    accepted state.
    """
    opts = options or _DEFAULT_OPTIONS
    u0 = oracle._domain_vec(finite(u0, "anchor u0", BadAnchor), "u0")
    start = oracle._codomain_vec(path.gamma(0.0), "path point gamma(0)")
    res0 = float(np.linalg.norm(oracle.eval(u0) - start))
    if not res0 <= opts.tol_init:  # NaN fails too
        raise BadAnchor(
            f"initial residual {res0:.3e} exceeds tol_init {opts.tol_init:.1e}")
    spec0 = spectrum_at(oracle, u0)
    if spec0.singular:
        raise SingularStart(
            f"anchor is singular: lambda_1 = {spec0.lambdas[0]:.3e}")
    return _Lift(oracle, path, u0, opts).run(spec0)
