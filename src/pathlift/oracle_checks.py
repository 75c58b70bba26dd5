"""Self-validation checks for map oracles, run by the CLI ``validate``.

Taylor remainders along random lines check J and dJ against ``eval``
alone (Farrell, Ham, Funke & Rognes, SIAM J. Sci. Comput. 35 (2013)):
|F(u+tv) - F(u) - t J v| = O(t^2), and O(t^3) once t^2/2 dJ(v) v is
taken off too.  The second differential must also be symmetric.  Each
check is relative to its own operands' scale, so F and c F get the same
verdicts, and fails on a value that is not finite.  All read one
:func:`sample_table`, through one ``eval_many``, one ``jacobian_many``
and one ``jacobian_derivative_many`` call.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, integer

TAYLOR_STEPS = 2.0 ** -np.arange(4, 13)
# remainders below this fraction of |F(u)| + t |J v| are roundoff: all a
# map that is polynomial along the line leaves in its exact rows
TAYLOR_FLOOR = 1e-11
# directions per base point; the symmetry row reads their 6 pairs i < j
DIRECTIONS = 4
PAIRS = np.triu_indices(DIRECTIONS, 1)
ROWS = (("jacobian Taylor order deficit", 0.5),
        ("second-differential Taylor order deficit", 0.5),
        ("second-differential symmetry", 1e-8))


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


def sample_table(oracle, seed):
    """Five base points u (5, N), DIRECTIONS directions at each (5, D, N),
    the first along u's Taylor line, and a z per pair of directions
    (5, len(PAIRS[0]), n), all from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    lines = rng.standard_normal((5, 2, oracle.dim_domain))
    more = rng.standard_normal((5, DIRECTIONS - 1, oracle.dim_domain))
    zs = rng.standard_normal((5, len(PAIRS[0]), oracle.dim_codomain))
    return lines[:, 0], np.concatenate([lines[:, 1:], more], axis=1), zs


def _order_deficit(rows, floor, expected):
    """expected - the observed order of the remainder norms |rows|, the
    lowest log2 ratio over the three smallest-t pairs of steps both above
    the floor; 0 if no pair is, inf if a remainder is not finite."""
    remainder = np.linalg.norm(rows, axis=1)
    if not np.all(np.isfinite(remainder)):
        return np.inf
    above = remainder > floor
    pairs = np.flatnonzero(above[:-1] & above[1:])[-3:]
    if not pairs.size:
        return 0.0
    order = np.log2(remainder[pairs] / remainder[pairs + 1]).min()
    return max(expected - float(order), 0.0)


def validate_oracle(oracle, seed=0):
    """The ROWS: how far the Taylor remainders' orders fall short of 2
    and 3, and the asymmetry of z^* d2F(v, w) over its Cauchy-Schwarz
    bound max(|B(v)| |w|, |B(w)| |v|), B(v) = W^-1 dJ(v)^T z, at every
    pair of a base point's directions; a zero bound is skipped."""
    if integer(seed, "seed") < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    big_n, n = oracle.dim_domain, oracle.dim_codomain
    base, directions, zs = sample_table(oracle, seed)
    t = TAYLOR_STEPS[:, None]
    values = oracle.eval_many((base[:, None] + np.vstack([[0.0], t])
                               * directions[:, :1]).reshape(-1, big_n))
    curvatures = oracle.jacobian_derivative_many(
        np.repeat(base, DIRECTIONS, axis=0), directions.reshape(-1, big_n))
    deficits, samples = [], []
    for jac, d, f, dj, z_pairs in zip(
            oracle.jacobian_many(base), directions,
            values.reshape(len(base), -1, n),
            curvatures.reshape(directions.shape[:2] + (n, big_n)), zs):
        jv = jac @ d[0]
        first = f[1:] - f[0] - t * jv
        second = first - 0.5 * t ** 2 * (dj[0] @ d[0])
        floor = TAYLOR_FLOOR * (np.linalg.norm(f[0])
                                + t[:, 0] * np.linalg.norm(jv))
        deficits.append((_order_deficit(first, floor, 2.0),
                         _order_deficit(second, floor, 3.0)))
        for i, j, z in zip(*PAIRS, z_pairs):
            bv, bw = (z @ dj[[i, j]]) / oracle.weights
            samples.append((abs(oracle.inner(bv, d[j])
                                - oracle.inner(bw, d[i])),
                            oracle.norm(bv) * oracle.norm(d[j]),
                            oracle.norm(bw) * oracle.norm(d[i])))
    samples = np.array(samples)
    asym, scale = samples[:, 0], samples[:, 1:].max(axis=1)
    ratio = np.divide(asym, scale, out=np.zeros_like(asym), where=scale > 0)
    ratio[~np.isfinite(samples).all(axis=1)] = np.inf
    worst = (*np.max(deficits, axis=0), ratio.max())
    return [CheckResult(name, float(w) <= tol, float(w), tol)
            for (name, tol), w in zip(ROWS, worst)]
