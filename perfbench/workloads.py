"""Seeded workloads for the pathlift benchmark.

Every input comes from ``numpy.random.default_rng([seed, round_index])``;
the library only ever sees the generated inputs.  A workload is an endless
sequence of rounds.  Each round has the same fixed mix of strata (system,
map or command, and problem size); only the seeded values inside a stratum
change from round to round.  A run therefore completes whole rounds, so the
mix of job kinds, and with it every percentile, is the same on every run
and on every commit.

A job is one call chain into pathlift's public API (or ``cli.main``), timed
as a whole, plus a correctness check that runs outside the timed region.
"""

import contextlib
import io
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class Failed(str):
    """Check message for an operation that reported failure (an unexpected
    status or exit code).  A plain message means a wrong output."""


@dataclass
class Job:
    kind: str                       # stratum label, e.g. "brockett-20"
    run: Callable[[], object]       # timed
    check: Callable[[object], str]  # "" when correct, else why not
    meta: dict = field(default_factory=dict)


# -- plan: motion planning through the endpoint map --------------------------

# Per system and round.  The problem-size axis is the segment count; the
# weights put the median inside the 20-segment stratum, not on the edge
# between two strata, so it does not jump when the seed changes.
PLAN_SEGMENTS = (10, 10, 20, 20, 20, 40, 80)
PLAN_SYSTEMS = ("brockett", "unicycle")
# Norm of the seeded target displacement: short enough that every lift
# takes the fewest accepted steps the step-size growth allows (5 states),
# so a job's cost depends on its stratum and not on its seeded direction,
# and one 80-segment lift stays a few seconds.
PLAN_STEP = 0.05
PLAN_ENDPOINT_TOL = 1e-6    # acceptance criterion 5


def _plan_job(pl, rng, system, segments):
    x0 = rng.uniform(-0.5, 0.5, 3)
    channels = rng.uniform(0.5, 1.5, 2)
    step = rng.standard_normal(3)
    step *= PLAN_STEP / np.linalg.norm(step)
    tol_residual = pl.SolverOptions().tol_residual

    def run():
        oracle = pl.endpoint_problem(system, x0, 1.0, segments)
        u0 = oracle.grid.constant(channels)
        path = pl.line_to_target(oracle, u0, oracle.eval(u0) + step)
        return oracle, path, pl.lift(oracle, path, u0)

    def check(result):
        oracle, path, rep = result
        if rep.status != pl.REACHED:
            return Failed(f"status {rep.status}: {rep.message}")
        if not rep.final_residual <= tol_residual:
            return f"final residual {rep.final_residual:.3e}"
        err = float(np.linalg.norm(
            oracle.endpoint_refined(rep.final_u, refine=4) - path.end))
        if not err <= PLAN_ENDPOINT_TOL:
            return f"refined endpoint error {err:.3e}"
        return ""

    return Job(f"{system}-{segments}", run, check,
               {"system": system, "segments": segments})


def plan_round(pl, seed, index, workdir):
    rng = np.random.default_rng([seed, index])
    jobs = [_plan_job(pl, rng, system, segments)
            for system in PLAN_SYSTEMS for segments in PLAN_SEGMENTS]
    return [jobs[i] for i in rng.permutation(len(jobs))]


def plan_warmup(pl, seed, index, workdir):
    rng = np.random.default_rng([seed, 1_000_000 + index])
    return _plan_job(pl, rng, "brockett", 10)


# -- singular: analytic maps, no endpoint layer ------------------------------

SPHERE_NORM_TOL = 1e-4        # acceptance criterion 3
SPHERE_G_INTEGRAL = (0.95, 1.05)
LINEAR_PINV_TOL = 1e-8        # acceptance criterion 1


def _sphere_job(pl, rng):
    dim = int(rng.integers(2, 7))
    weights = rng.uniform(0.5, 2.0, dim)
    direction = rng.standard_normal(dim)

    def run():
        oracle = pl.SphereMap(dim, weights=weights)
        u0 = direction / oracle.norm(direction)
        return oracle, pl.lift(oracle, pl.LinePath([1.0], [0.0]), u0)

    def check(result):
        oracle, rep = result
        if rep.status != pl.SINGULAR_TERMINAL:
            return Failed(f"status {rep.status}: {rep.message}")
        lo, hi = SPHERE_G_INTEGRAL
        if not lo <= rep.g_integral <= hi:
            return f"integral of |g| = {rep.g_integral:.4f}"
        dev = max(abs(oracle.norm(st.u) - math.sqrt(1.0 - st.s))
                  for st in rep.trace if st.s <= 0.99)
        if not dev <= SPHERE_NORM_TOL:
            return f"shrinking-sphere norm deviation {dev:.2e}"
        return ""

    return Job("sphere", run, check, {"dim": dim})


def _fold_job(pl, rng):
    weights = rng.uniform(0.5, 2.0, 2)
    u0 = np.array([rng.uniform(0.1, 0.5), rng.uniform(-0.5, 0.5)])
    target = np.array([rng.uniform(0.05, 0.3), rng.uniform(-0.5, 0.5)])

    def run():
        oracle = pl.FoldMap(weights=weights)
        return pl.lift(oracle, pl.line_to_target(oracle, u0, target), u0)

    def check(rep):
        if rep.status != pl.REACHED:
            return Failed(f"status {rep.status}: {rep.message}")
        return ""

    return Job("fold", run, check)


def _linear_job(pl, rng):
    matrix = rng.standard_normal((3, 6))
    u0 = rng.standard_normal(6)
    step = rng.standard_normal(3)
    expect = u0 + np.linalg.pinv(matrix) @ step

    def run():
        oracle = pl.LinearMap(matrix)
        target = oracle.eval(u0) + step
        return pl.lift(oracle, pl.line_to_target(oracle, u0, target), u0)

    def check(rep):
        err = float(np.linalg.norm(rep.final_u - expect))
        if not err <= LINEAR_PINV_TOL:
            return f"pseudoinverse deviation {err:.2e}"
        return ""

    return Job("linear", run, check)


def singular_round(pl, seed, index, workdir):
    rng = np.random.default_rng([seed, index])
    jobs = [_sphere_job(pl, rng), _fold_job(pl, rng), _fold_job(pl, rng),
            _linear_job(pl, rng), _linear_job(pl, rng)]
    return [jobs[i] for i in rng.permutation(len(jobs))]


def singular_warmup(pl, seed, index, workdir):
    rng = np.random.default_rng([seed, 1_000_000 + index])
    return _sphere_job(pl, rng)


# -- falsify: `pathlift validate` then `pathlift check` through cli.main ------

FALSIFY_SYSTEMS = ("brockett", "unicycle", "lti")
FALSIFY_SEGMENTS = (6, 10)


def _problem_text(rng, system, segments):
    x0 = rng.uniform(-0.5, 0.5, 2 if system == "lti" else 3)
    lines = ["[problem]", "kind = endpoint", f"system = {system}",
             "x0 = " + ", ".join(repr(float(v)) for v in x0),
             "horizon = 1.0", f"segments = {segments}"]
    if system == "lti":
        stiffness, damping = rng.uniform(1.0, 3.0), rng.uniform(0.1, 0.5)
        lines += [f"lti_a = 0 1; {-stiffness!r} {-damping!r}",
                  "lti_b = 0; 1"]
    return lines


def _falsify_jobs(pl, rng, system, segments, workdir):
    """Two CLI jobs on one seeded problem: validate, then check."""
    radius = rng.uniform(0.4, 0.8)
    radii = (radius, 2.0 * radius, 4.0 * radius)
    lines = _problem_text(rng, system, segments) + [
        "[check]", "radii = " + ", ".join(repr(r) for r in radii),
        "per_radius = 1", "z_samples = 2",
        f"xi_c = {rng.uniform(0.5, 2.0)!r}",
        f"xi_p = {rng.uniform(0.25, 1.0)!r}"]
    out_dir = tempfile.mkdtemp(dir=workdir)
    config = os.path.join(out_dir, "run.ini")
    with open(config, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    validate_seed, check_seed = (int(s) for s in rng.integers(0, 2**31, 2))
    meta = {"system": system, "segments": segments}

    def cli(argv):
        # validate prints one line per identity; keep stdout for the result
        with contextlib.redirect_stdout(io.StringIO()):
            return pl.cli.main(argv)

    def run_validate():
        return cli(["validate", "--config", config,
                    "--seed", str(validate_seed)])

    def check_validate(code):
        if code != pl.cli.EXIT_OK:
            return Failed(f"validate exit {code}")
        return ""

    def run_check():
        return cli(["check", "--config", config, "--out-dir", out_dir,
                    "--seed", str(check_seed)])

    def check_check(code):
        # lti has zero curvature, so its coercivity check always fails
        allowed = ((pl.cli.EXIT_FALSIFIED,) if system == "lti"
                   else (pl.cli.EXIT_OK, pl.cli.EXIT_FALSIFIED))
        if code not in allowed:
            return Failed(f"check exit {code}")
        with open(os.path.join(out_dir, "report.txt")) as fh:
            report = fh.read()
        for key in ("C_est", "K_est"):
            value = _report_value(report, key)
            if value is None or not math.isfinite(value):
                return f"{key} missing or not finite"
        with open(os.path.join(out_dir, "shells.csv")) as fh:
            rows = [ln for ln in fh.read().splitlines()[1:] if ln]
        if len(rows) != len(radii):
            return f"shells.csv has {len(rows)} rows for {len(radii)} radii"
        return ""

    return [Job(f"validate-{system}-{segments}", run_validate,
                check_validate, meta),
            Job(f"check-{system}-{segments}", run_check, check_check, meta)]


def _report_value(report, key):
    for line in report.splitlines():
        _, sep, tail = line.partition(f"{key} = ")
        if sep:
            try:
                return float(tail.split()[0])
            except (ValueError, IndexError):
                return None
    return None


def falsify_round(pl, seed, index, workdir):
    rng = np.random.default_rng([seed, index])
    problems = [(system, segments) for system in FALSIFY_SYSTEMS
                for segments in FALSIFY_SEGMENTS]
    jobs = []
    for i in rng.permutation(len(problems)):
        jobs += _falsify_jobs(pl, rng, *problems[i], workdir)
    return jobs


def falsify_warmup(pl, seed, index, workdir):
    rng = np.random.default_rng([seed, 1_000_000 + index])
    return _falsify_jobs(pl, rng, "lti", 6, workdir)[1]


@dataclass(frozen=True)
class Workload:
    make_round: Callable      # (pl, seed, index, workdir) -> [Job]
    make_warmup: Callable     # (pl, seed, index, workdir) -> Job
    # Rescaled seconds one round takes at this commit.  A run is the fewest
    # whole rounds whose nominal time exceeds --seconds, so every run and
    # every commit times the same job list for a given seed and length.
    round_seconds: float
    # The highest percentile with at least ten jobs beyond it in a run of
    # the default length; fixed so every commit reports the same quantile.
    tail_percentile: int

    def rounds(self, seconds):
        return int(seconds // self.round_seconds) + 1


WORKLOADS = {
    "plan": Workload(plan_round, plan_warmup, 12.5, 75),
    "singular": Workload(singular_round, singular_warmup, 0.163, 98),
    "falsify": Workload(falsify_round, falsify_warmup, 14.8, 55),
}
