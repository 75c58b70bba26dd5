"""Outside-in tracing of pathlift for the per-layer metrics.

The tracer replaces public functions and methods of each pathlift module
with wrappers that record one span per call: name, start, end, parent
span and job id.  Module-level functions are replaced in every pathlift
module that imported them (``from .spectrum import gramian`` binds a name
in ``solver`` too), methods on their class.  Spans stay in memory; the
per-layer metrics are computed from them after the run.  A layer's self
time is its span duration minus the durations of its direct child spans.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path) of the wrapped callable
TARGETS = {
    "integrate": ("pathlift.endpoint", "integrate"),
    "trajectory": ("pathlift.endpoint", "EndpointOracle.trajectory"),
    "jacobian": ("pathlift.endpoint", "EndpointOracle.jacobian"),
    "bilinear_second": ("pathlift.maps", "MapOracle.bilinear_second"),
    "bilinear_second_many": ("pathlift.maps",
                             "MapOracle.bilinear_second_many"),
    "second_operator": ("pathlift.maps", "MapOracle.second_operator"),
    "gramian": ("pathlift.spectrum", "gramian"),
    "spectral_decompose": ("pathlift.spectrum", "spectral_decompose"),
    "diagnostics": ("pathlift.spectrum", "diagnostics"),
    "lift": ("pathlift.solver", "lift"),
    "ple_rhs": ("pathlift.solver", "ple_rhs"),
    "gauss_newton_correct": ("pathlift.solver", "gauss_newton_correct"),
    "check_report": ("pathlift.hypotheses", "check_report"),
    "estimate_bilinear_norm": ("pathlift.hypotheses",
                               "estimate_bilinear_norm"),
    "coercivity_ratio": ("pathlift.hypotheses", "coercivity_ratio"),
    "xi_margin": ("pathlift.hypotheses", "xi_margin"),
    "gramian_inverse_growth": ("pathlift.hypotheses",
                               "gramian_inverse_growth"),
    "validate_oracle": ("pathlift.oracle_checks", "validate_oracle"),
    "cli.main": ("pathlift.cli", "main"),
}

SECOND = ("bilinear_second", "bilinear_second_many", "second_operator")
# A self time needs every wrapped callee: one that is gone would count as
# its caller's own time.
LIFT_CHILDREN = ("lift", "ple_rhs", "gauss_newton_correct", "diagnostics",
                 "gramian", "spectral_decompose", "jacobian", "trajectory")


# States a lift logs without an embedded Cash-Karp step
NON_CK_FLAGS = ("start", "approach", "singular")


def _result_counts(name, result):
    """Counts carried by a call's result: (accepted states, accepted
    Cash-Karp steps) of a lift, (failed identities, 0) of a validation."""
    if name == "lift":
        steps = sum(1 for st in result.trace
                    if not any(f in st.flags for f in NON_CK_FLAGS))
        return len(result.trace), steps
    if name == "validate_oracle":
        return sum(1 for r in result if not r.passed), 0
    return 0, 0


class Tracer:
    """Installs the wrappers and keeps the spans of the traced jobs."""

    def __init__(self):
        self.names = []     # per span
        self.start = []
        self.end = []
        self.parent = []    # index of the parent span, -1 at top level
        self.job = []       # job id
        self.counts = []    # see _result_counts
        self._stack = []
        self.current_job = None
        self._patches = []  # (owner, attribute, original)
        self.missing = {}   # span name -> "module.attr" that was not found

    # -- installing --------------------------------------------------------

    def install(self):
        self.missing = {}
        for name, (module_name, attr) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
                owner = module
                *owner_path, leaf = attr.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing[name] = f"{module_name}.{attr}"
                continue
            wrapper = self._wrap(name, original)
            if owner is module:
                # every pathlift module (and the package) that bound it
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "pathlift" or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            else:
                self._patch(owner, leaf, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.current_job is None:
                return fn(*args, **kwargs)
            index = len(tracer.names)
            stack = tracer._stack
            tracer.names.append(name)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.current_job)
            tracer.end.append(0.0)
            tracer.counts.append((0, 0))
            stack.append(index)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = clock()
                stack.pop()
            tracer.counts[index] = _result_counts(name, result)
            return result

        return wrapper


class SpanTable:
    """Derived per-span quantities: duration, self time, ancestry."""

    def __init__(self, tracer):
        t = tracer
        self.names = t.names
        self.job = t.job
        self.counts = t.counts
        self.parent = t.parent
        n = len(t.names)
        self.dur = [t.end[i] - t.start[i] for i in range(n)]
        child = [0.0] * n
        self.children = defaultdict(list)
        for i, p in enumerate(t.parent):
            if p >= 0:
                child[p] += self.dur[i]
                self.children[p].append(i)
        self.self_time = [self.dur[i] - child[i] for i in range(n)]
        # parents precede children, so one forward pass propagates flags
        self.under_second = [False] * n
        self.under_lift = [False] * n
        for i, p in enumerate(t.parent):
            inherited = p >= 0
            self.under_second[i] = (self.names[i] in SECOND or (
                inherited and self.under_second[p]))
            self.under_lift[i] = (self.names[i] == "lift" or (
                inherited and self.under_lift[p]))

    def select(self, names, where=None):
        names = (names,) if isinstance(names, str) else names
        return [i for i, nm in enumerate(self.names)
                if nm in names and (where is None or where(i))]

    def total(self, names, what="dur", where=None):
        col = self.dur if what == "dur" else self.self_time
        return sum(col[i] for i in self.select(names, where))

    def count(self, names, where=None):
        return len(self.select(names, where))

    def result_count(self, name, which=0):
        return sum(self.counts[i][which] for i in self.select(name))


def _ratio(num, den):
    # a layer that never ran has a zero numerator as well: report 0
    return num / den if den else 0.0


def _top_second(t):
    """Second-differential spans not nested in another one."""
    return lambda i: not (t.parent[i] >= 0 and t.under_second[t.parent[i]])


# Per-layer metrics: name -> (unit, span names it needs, function of the
# span table giving the total over all traced jobs).  "/job" metrics are
# divided by the number of traced jobs; ratios are not.  Times are whole
# span durations unless the function asks for "self" time.
METRICS = {
    "endpoint.integrate_calls": (
        "count/job", ("integrate",), lambda t: t.count("integrate")),
    "endpoint.integrate_s": (
        "s/job", ("integrate",), lambda t: t.total("integrate")),
    "endpoint.backward_s": (
        "s/job", ("jacobian", "integrate"),
        lambda t: t.total("jacobian", "self")),
    "endpoint.cache_hit_ratio": (
        "ratio", ("integrate", "trajectory"),
        lambda t: _ratio(t.count("trajectory") - t.count("integrate"),
                         t.count("trajectory"))),
    "maps.second_calls": (
        "count/job", SECOND, lambda t: t.count(SECOND)),
    "maps.second_s": (
        "s/job", SECOND,
        lambda t: t.total(SECOND, where=_top_second(t))),
    "maps.second_evals": (
        "count/job", SECOND + ("integrate",),
        lambda t: t.count("integrate",
                          where=lambda i: t.under_second[i])),
    "spectrum.decompose_calls": (
        "count/job", ("gramian", "spectral_decompose"),
        lambda t: t.count(("gramian", "spectral_decompose"))),
    "spectrum.decompose_s": (
        "s/job", ("gramian", "spectral_decompose", "jacobian"),
        lambda t: t.total(("gramian", "spectral_decompose"), "self")),
    "spectrum.diagnostics_s": (
        "s/job", ("diagnostics", "jacobian") + SECOND,
        lambda t: t.total("diagnostics", "self")),
    "solver.accepted_states": (
        "count/job", ("lift",),
        lambda t: t.result_count("lift")),
    "solver.ck_attempts": (
        "count/job", ("ple_rhs",), lambda t: t.count("ple_rhs") / 6.0),
    "solver.step_accept_ratio": (
        "ratio", ("lift", "ple_rhs"),
        lambda t: _ratio(t.result_count("lift", 1),
                         t.count("ple_rhs") / 6.0)),
    "solver.evals_per_state": (
        "ratio", ("lift", "integrate"),
        lambda t: _ratio(
            t.count("integrate", where=lambda i: t.under_lift[i]),
            t.result_count("lift"))),
    "solver.rhs_s": (
        "s/job", ("ple_rhs", "gramian", "spectral_decompose", "jacobian"),
        lambda t: t.total("ple_rhs", "self")),
    "solver.lift_self_s": (
        "s/job", LIFT_CHILDREN, lambda t: t.total("lift", "self")),
    "solver.correct_calls": (
        "count/job", ("gauss_newton_correct",),
        lambda t: t.count("gauss_newton_correct")),
    "solver.correct_s": (
        "s/job", ("gauss_newton_correct",),
        lambda t: t.total("gauss_newton_correct")),
    "hypotheses.samples": (
        "count/job", ("estimate_bilinear_norm",),
        lambda t: t.count("estimate_bilinear_norm")),
    "hypotheses.bilinear_norm_s": (
        "s/job", ("estimate_bilinear_norm",),
        lambda t: t.total("estimate_bilinear_norm")),
    "hypotheses.coercivity_s": (
        "s/job", ("coercivity_ratio", "xi_margin"),
        lambda t: t.total(("coercivity_ratio", "xi_margin"))),
    "hypotheses.growth_s": (
        "s/job", ("gramian_inverse_growth",),
        lambda t: t.total("gramian_inverse_growth")),
    "oracle_checks.validate_s": (
        "s/job", ("validate_oracle",),
        lambda t: t.total("validate_oracle")),
    "oracle_checks.failed_identities": (
        "count/job", ("validate_oracle",),
        lambda t: t.result_count("validate_oracle")),
    "cli.self_s": (
        "s/job", ("cli.main", "check_report", "validate_oracle"),
        lambda t: t.total("cli.main", "self")),
}


def layer_metrics(tracer, jobs):
    """(metrics, absent): metric -> (value, unit) over ``jobs`` traced
    jobs, and metric -> the wrapped names that were missing."""
    table = SpanTable(tracer)
    values, absent = {}, {}
    for name, (unit, needs, fn) in METRICS.items():
        gone = [tracer.missing[n] for n in needs if n in tracer.missing]
        if gone:
            absent[name] = gone
            continue
        value = fn(table)
        if unit.endswith("/job"):
            value /= jobs
        values[name] = (float(value), unit)
    return values, absent


# -- cross-check against the ROADMAP re-anchor baseline ---------------------

# (label, segments, baseline seconds); measured on brockett plan jobs
ROADMAP_PER_CALL = [
    ("integrate", 20, 9.7e-3), ("integrate", 80, 38e-3),
    ("backward pass", 20, 6.4e-3), ("backward pass", 80, 30e-3),
    ("diagnostics", 20, 50e-3), ("diagnostics", 80, 180e-3),
]
ROADMAP_BROCKETT20_LIFT_S = 3.1
GAP = 0.10


def roadmap_per_call(tracer, job_meta):
    """Mean per-call cost of the ROADMAP's layers on brockett jobs, by
    segment count.  A backward pass is a jacobian call that missed the
    cache, i.e. one that called trajectory; its cost is its self time."""
    t = SpanTable(tracer)

    def on(segments):
        return lambda i: job_meta[t.job[i]] == ("brockett", segments)

    rows = []
    for label, segments, baseline in ROADMAP_PER_CALL:
        if label == "integrate":
            idx = t.select("integrate", on(segments))
            col = t.dur
        elif label == "diagnostics":
            idx = t.select("diagnostics", on(segments))
            col = t.dur
        else:
            idx = [i for i in t.select("jacobian", on(segments))
                   if any(t.names[c] == "trajectory"
                          for c in t.children[i])]
            col = t.self_time
        if idx:
            rows.append((f"{label} @ {segments} segments",
                         sum(col[i] for i in idx) / len(idx), baseline,
                         len(idx)))
    return rows
