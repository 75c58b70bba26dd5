"""Self-validation checks for map oracles, run by the CLI ``validate``.

Taylor remainders along random lines check J and dJ against ``eval``
alone (Farrell, Ham, Funke & Rognes, SIAM J. Sci. Comput. 35 (2013)):
|F(u+tv) - F(u) - t J v| = O(t^2), and O(t^3) once t^2/2 dJ(v) v is
taken off too.  The second differential must also be symmetric.  Every
check is relative to its own operands' scale, so F and c F get the same
verdicts, whichever way an oracle computes its derivatives.  Each check
takes its dJ in one :meth:`MapOracle.jacobian_derivative_many` stack,
and the Taylor rows their points u + t v in one
:meth:`MapOracle.eval_many`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

TAYLOR_STEPS = 2.0 ** -np.arange(4, 13)
# remainders below this fraction of |F(u)| + t |J v| are roundoff: all a
# map that is polynomial along the line leaves in its exact rows
TAYLOR_FLOOR = 1e-11


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float

    def line(self):
        mark = "pass" if self.passed else "FAIL"
        return (f"{mark}  {self.name}: worst = {self.worst:.3e} "
                f"(tol {self.tol:.1e})")


def _draws(oracle, seed, count, *dims):
    """``count`` tuples of standard normal vectors of lengths ``dims``."""
    rng = np.random.default_rng(seed)
    return [[rng.standard_normal(d) for d in dims] for _ in range(count)]


def _order_deficit(rows, floor, expected):
    """expected - the observed order of the remainder norms |rows|: the
    lowest log2 ratio over the three smallest-t pairs of steps whose
    remainders both exceed the floor; 0 if no pair does."""
    remainder = np.linalg.norm(rows, axis=1)
    above = remainder > floor
    pairs = np.flatnonzero(above[:-1] & above[1:])[-3:]
    if not pairs.size:
        return 0.0
    order = np.log2(remainder[pairs] / remainder[pairs + 1]).min()
    return max(expected - float(order), 0.0)


def check_taylor_remainders(oracle, seed=0):
    """Rows for J and dJ: how far the observed orders of the first- and
    second-order remainders fall short of 2 and 3."""
    tol = 0.5
    draws = np.random.default_rng(seed).standard_normal(
        (5, 2, oracle.dim_domain))
    t = np.concatenate([[0.0], TAYLOR_STEPS])[:, None]
    points = draws[:, :1] + t * draws[:, 1:]    # u + t v, (5, 10, N)
    values = oracle.eval_many(points.reshape(-1, oracle.dim_domain))
    t = TAYLOR_STEPS[:, None]
    worst_j = worst_dj = 0.0
    curvatures = oracle.jacobian_derivative_many(draws[:, 0], draws[:, 1])
    for (u, v), f, dj in zip(draws, values.reshape(len(draws), -1,
                                                   oracle.dim_codomain),
                             curvatures):
        jv = oracle.jacobian(u) @ v
        first = f[1:] - f[0] - t * jv
        second = first - 0.5 * t ** 2 * (dj @ v)
        floor = TAYLOR_FLOOR * (np.linalg.norm(f[0])
                                + t[:, 0] * np.linalg.norm(jv))
        worst_j = max(worst_j, _order_deficit(first, floor, 2.0))
        worst_dj = max(worst_dj, _order_deficit(second, floor, 3.0))
    return [CheckResult("jacobian Taylor order deficit", worst_j <= tol,
                        worst_j, tol),
            CheckResult("second-differential Taylor order deficit",
                        worst_dj <= tol, worst_dj, tol)]


def check_second_symmetry(oracle, seed=1):
    """Asymmetry of z^* d2F relative to its Cauchy-Schwarz bound
    max(|B(v)| |w|, |B(w)| |v|) in the X-norm."""
    tol = 1e-8
    big_n = oracle.dim_domain
    draws = _draws(oracle, seed, 20, big_n, big_n, big_n, oracle.dim_codomain)
    # dJ(v) and dJ(w) at each u, all 40 in one stack
    curvatures = oracle.jacobian_derivative_many(
        [u for u, *_ in draws for _ in range(2)],
        [x for _, v, w, _ in draws for x in (v, w)])
    worst = 0.0
    for k, (u, v, w, z) in enumerate(draws):
        bv, bw = (z @ curvatures[2 * k:2 * k + 2]) / oracle.weights
        scale = max(oracle.norm(bv) * oracle.norm(w),
                    oracle.norm(bw) * oracle.norm(v))
        if scale > 0.0:
            asym = abs(oracle.inner(bv, w) - oracle.inner(bw, v))
            worst = max(worst, asym / scale)
    return CheckResult("second-differential symmetry", worst <= tol,
                       worst, tol)


def validate_oracle(oracle, seed=0):
    """Run every check; returns three CheckResult rows."""
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return [*check_taylor_remainders(oracle, seed=seed),
            check_second_symmetry(oracle, seed=seed + 1)]
