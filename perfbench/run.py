"""Benchmark for pathlift: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload plan --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

Workloads (see ``workloads.py``): ``plan`` (motion-planning lifts through
the endpoint map), ``singular`` (analytic-map lifts, no endpoint layer),
``falsify`` (``pathlift validate`` and ``pathlift check`` through
``cli.main``).  Each runs one job at a time, in this one process and
thread: a closed loop with a single caller, like a batch of CLI jobs.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` alternates untraced and traced rounds on the same inputs and
reports the per-layer metrics from the traced ones (see ``spans.py``),
plus the tracing overhead.  End-to-end times are rescaled by a speed probe
(see ``PROBE_NOMINAL_S``); wall times are printed beside them.  The last
line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.

pathlift is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with status 2.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads: one job, one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Failed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 3          # set-ups per run; setup_s is their median
MISSING_SOURCE = 2  # exit status when src/pathlift is not there

# The library's RuntimeWarnings, counted per job: message prefix -> metric
WARNING_METRICS = {
    "degenerate eigenvalues": "spectrum.degenerate_warnings",
    "residual correction stalled": "solver.corr_warnings",
}


def import_pathlift():
    """Import pathlift from SRC; returns (module, seconds)."""
    if not (SRC / "pathlift" / "__init__.py").is_file():
        print(f"error: no pathlift sources under {SRC}", file=sys.stderr)
        sys.exit(MISSING_SOURCE)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import pathlift
    import pathlift.cli  # noqa: F401  (jobs call pathlift.cli.main)
    elapsed = time.perf_counter() - t0
    if Path(pathlift.__file__).resolve().parent != SRC / "pathlift":
        print(f"error: imported pathlift from {pathlift.__file__}",
              file=sys.stderr)
        sys.exit(MISSING_SOURCE)
    return pathlift, elapsed


@dataclass
class JobRecord:
    kind: str
    seconds: float      # wall time of job.run()
    failure: str | None  # None when the job ran and its output checked out
    warnings: dict      # WARNING_METRICS metric -> count

    @property
    def wrong(self):
        """The program claimed success but its output failed the check."""
        return (self.failure is not None
                and not isinstance(self.failure, Failed))


# This benchmark runs on shared machines whose speed drifts by tens of
# percent within seconds, which no run length averages away.  So a fixed
# kernel owned by the benchmark (small-array numpy work like pathlift's,
# none of pathlift's code) is timed between jobs, at most every
# PROBE_EVERY_S, and each end-to-end time is rescaled to the speed at which
# the kernel takes PROBE_NOMINAL_S, using the mean of the two kernel times
# before it and the two after it.  Wall times are printed beside.
PROBE_NOMINAL_S = 0.0125
PROBE_EVERY_S = 0.25
_PROBE_JAC = np.linspace(-1.0, 1.0, 120).reshape(3, 40)
_PROBE_W = np.linspace(0.5, 1.5, 40)


def speed_kernel():
    """Seconds taken by the fixed probe kernel: 3-state RK-style updates
    with a 3x3 variational product, then Gramian assembly and eigh."""
    t0 = time.perf_counter()
    x = np.array([0.1, 0.2, 0.3])
    u = np.array([1.0, 0.5])
    k = np.eye(3)
    for _ in range(900):
        f1 = np.array([u[0], u[1], x[0] * u[1]])
        f2 = np.array([u[0], u[1], (x[0] + 0.005 * f1[0]) * u[1]])
        x = x + 0.01 * (f1 + f2)
        k = k + 0.01 * (k @ np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                      [u[1], 0.0, 0.0]]))
    for _ in range(60):
        g = (_PROBE_JAC / _PROBE_W[None, :]) @ _PROBE_JAC.T
        np.linalg.eigh(0.5 * (g + g.T))
    return time.perf_counter() - t0


class SpeedProbe:
    """Kernel times taken between timed items.  ``mark()`` before an item
    returns the index of the latest kernel time; after the last item,
    ``close()`` takes two more, so every item has two successors."""

    def __init__(self):
        self.samples = []
        self._last = None

    def mark(self):
        now = time.perf_counter()
        if self._last is None or now - self._last >= PROBE_EVERY_S:
            self.samples.append(speed_kernel())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def close(self):
        self.samples += [speed_kernel(), speed_kernel()]

    def factor(self, index):
        """Rescaling for an item timed after sample ``index``."""
        near = self.samples[max(0, index - 1):index + 3]
        return PROBE_NOMINAL_S / statistics.mean(near)


def run_job(job):
    """Time one job with the library's warnings recorded, not printed;
    then check its output.  A job that raises has failed; a check that
    raises means a wrong output."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        try:
            result = job.run()
            failure = None
        except Exception as exc:  # a job may fail; the run goes on
            failure = Failed(f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
    if failure is None:
        try:
            failure = job.check(result) or None
        except Exception as exc:
            failure = f"check raised {type(exc).__name__}: {exc}"
    counts = dict.fromkeys(WARNING_METRICS.values(), 0)
    for w in caught:
        for prefix, metric in WARNING_METRICS.items():
            if str(w.message).startswith(prefix):
                counts[metric] += 1
    return JobRecord(job.kind, seconds, failure, counts)


def measure_setup(pl, workload, seed, workdir, import_s, probe):
    """SETUPS set-ups, each the import (timed once) plus building the
    inputs and running one warm-up job that is not counted.  Returns their
    wall times and probe marks."""
    spec = WORKLOADS[workload]
    times, marks = [], []
    for k in range(SETUPS):
        marks.append(probe.mark())
        t0 = time.perf_counter()
        spec.make_round(pl, seed, 0, workdir)
        run_job(spec.make_warmup(pl, seed, k, workdir))
        times.append(import_s + time.perf_counter() - t0)
    return times, marks


def nearest_rank(values, percentile):
    """(value, jobs beyond it) at the nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(pl, workload, seed, seconds, workdir, import_s):
    spec = WORKLOADS[workload]
    tail_pct = spec.tail_percentile
    probe = SpeedProbe()
    setup_wall, setup_marks = measure_setup(pl, workload, seed, workdir,
                                            import_s, probe)
    records, marks = [], []
    rounds = spec.rounds(seconds)
    for index in range(rounds):
        for job in spec.make_round(pl, seed, index, workdir):
            marks.append(probe.mark())
            records.append(run_job(job))
    probe.close()
    wall = [r.seconds for r in records]
    scaled = [r.seconds * probe.factor(m) for r, m in zip(records, marks)]
    setup = [t * probe.factor(m) for t, m in zip(setup_wall, setup_marks)]
    ok = sum(1 for r in records if r.failure is None)
    tail, beyond = nearest_rank(scaled, tail_pct)
    if beyond < 10:
        print(f"note: only {beyond} jobs beyond p{tail_pct}; the run is "
              "too short for this tail")
    print(f"speed probe: {len(probe.samples)} kernel times, median "
          f"{statistics.median(probe.samples) * 1e3:.3f} ms; times below "
          f"are rescaled to {PROBE_NOMINAL_S * 1e3:.1f} ms")
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"wall {statistics.median(setup_wall):.4g} s; median "
                    f"of {SETUPS}"),
        "jobs_per_s": (ok / sum(scaled), "1/s",
                       f"wall {ok / sum(wall):.4g}/s; {ok} correct jobs "
                       f"in {rounds} rounds"),
        "job_p50_s": (statistics.median(scaled), "s",
                      f"wall {statistics.median(wall):.4g} s; median of "
                      f"{len(wall)} jobs"),
        "job_tail_s": (tail, "s",
                       f"wall {nearest_rank(wall, tail_pct)[0]:.4g} s; "
                       f"p{tail_pct} of {len(wall)} jobs, {beyond} beyond"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", ""),
    }
    return records, metrics


def traced(pl, workload, seed, seconds, workdir, import_s):
    """Pairs of rounds on the same inputs, one untraced and one traced,
    alternating which goes first; per-layer metrics from the traced."""
    spec = WORKLOADS[workload]
    probe = SpeedProbe()
    measure_setup(pl, workload, seed, workdir, import_s, probe)
    tracer = spans.Tracer()
    plain, traced_records, job_meta = [], [], {}
    plain_marks, traced_marks = [], []
    for index in range(math.ceil(spec.rounds(seconds) / 2)):
        order = (False, True) if index % 2 == 0 else (True, False)
        for with_trace in order:
            jobs = spec.make_round(pl, seed, index, workdir)
            if not with_trace:
                for job in jobs:
                    plain_marks.append(probe.mark())
                    plain.append(run_job(job))
                continue
            tracer.install()
            try:
                for job in jobs:
                    job_id = len(traced_records)
                    job_meta[job_id] = (job.meta.get("system"),
                                        job.meta.get("segments"))
                    traced_marks.append(probe.mark())
                    tracer.current_job = job_id
                    try:
                        record = run_job(job)
                    finally:
                        tracer.current_job = None
                    traced_records.append(record)
            finally:
                tracer.uninstall()
    probe.close()
    values, absent = spans.layer_metrics(tracer, len(traced_records))
    for metric in WARNING_METRICS.values():
        values[metric] = (sum(r.warnings[metric] for r in traced_records)
                          / len(traced_records), "count/job")
    p50_traced = statistics.median(
        r.seconds * probe.factor(m) for r, m in zip(traced_records,
                                                    traced_marks))
    p50_plain = statistics.median(
        r.seconds * probe.factor(m) for r, m in zip(plain, plain_marks))
    values["trace.job_p50_s"] = (p50_traced, "s")
    values["trace.untraced_job_p50_s"] = (p50_plain, "s")
    values["trace.overhead_ratio"] = (p50_traced / p50_plain, "ratio")
    metrics = {name: (v, unit, "") for name, (v, unit) in values.items()}
    for name, gone in absent.items():
        print(f"absent: {name} (not found: {', '.join(gone)})")
    if workload == "plan":
        scale = PROBE_NOMINAL_S / statistics.median(probe.samples)
        print_roadmap_crosscheck(pl, tracer, job_meta, scale)
    return plain + traced_records, metrics


def print_roadmap_crosscheck(pl, tracer, job_meta, scale):
    """Per-call costs from the traced brockett jobs, and one untraced
    Brockett-20 acceptance lift, beside the ROADMAP baseline; rescaled by
    the run's speed probe like the end-to-end times."""
    rows = spans.roadmap_per_call(tracer, job_meta)
    oracle = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 20)
    u0 = oracle.grid.constant([1.0, 1.0])
    path = pl.line_to_target(oracle, u0, [0.5, -0.3, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        t0 = time.perf_counter()
        pl.lift(oracle, path, u0)
        rows.append(("brockett-20 acceptance lift (untraced)",
                     time.perf_counter() - t0,
                     spans.ROADMAP_BROCKETT20_LIFT_S, 1))
    print(f"ROADMAP baseline cross-check (per call, wall x {scale:.4f}):")
    for label, wall, baseline, calls in rows:
        measured = wall * scale
        gap = measured / baseline - 1.0
        flag = "  GAP > 10%" if abs(gap) > spans.GAP else ""
        print(f"  {label:40s} {measured * 1e3:10.2f} ms   ROADMAP "
              f"{baseline * 1e3:8.1f} ms   {gap:+6.1%}  ({calls} calls, "
              f"wall {wall * 1e3:.2f} ms){flag}")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(args):
    pl, import_s = import_pathlift()
    print(f"env: python={platform.python_version()} numpy={np.__version__} "
          f"nproc={os.cpu_count()} cpu=\"{cpu_model()}\" "
          f"threads={os.environ['OPENBLAS_NUM_THREADS']} "
          f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    measure = traced if args.trace else end_to_end
    with tempfile.TemporaryDirectory(dir=ROOT,
                                     prefix=".perfbench-work-") as workdir:
        records, metrics = measure(pl, args.workload, args.seed,
                                   args.seconds, workdir, import_s)
    failed = [r for r in records if r.failure is not None]
    wrong = [r for r in failed if r.wrong]
    for r in failed[:10]:
        print(f"{'WRONG' if r.wrong else 'FAILED'} {r.kind}: {r.failure}")
    print(f"fail_frac: {len(failed)}/{len(records)} = "
          f"{len(failed) / len(records):.4f} ({len(wrong)} wrong outputs)")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:10s} {note}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def run_all(args):
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or done.returncode
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
