"""Config-driven batch front door.

Subcommands: ``lift`` (integrate the path-lifting equation and write the
trace CSV plus a summary report), ``check`` (sampling-based hypothesis
falsification), ``validate`` (oracle self-checks), ``list-problems`` (the
registry ``_PROBLEMS``: each problem and the keys it reads).

Config files are INI-style sectioned key/value text.  Parsing checks only
the text (known and required keys, finite numbers, no ``[problem]`` key that
the problem does not read); each rule on a value lives on the library type
that holds it.  Exit codes: 0 success / Reached, 1 configuration, setup or
command-line error, 2 singular terminal lift, 3 other lift termination, 4 a
checked condition was falsified on the sample, 5 validation failure, 6 a
numerical failure such as a trajectory blowup.

Artifacts are written to a temporary file and atomically renamed, so a
failed run never leaves a partial file behind.

Importing this module loads ``errors``, ``paths``, ``solver`` and
``spectrum``; each command imports the rest where it calls them.  Building
or listing a problem loads its module (``maps``, or ``endpoint`` for an
endpoint problem), a ``[check]`` plan or a PowerLawXi loads ``hypotheses``,
and ``validate`` loads ``oracle_checks``.
"""

import argparse
import configparser
import dataclasses
import functools
import importlib
import inspect
import logging
import os
import sys
import tempfile

import numpy as np

from . import paths, solver
from .errors import ConfigurationError, NumericalError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SINGULAR_TERMINAL = 2
EXIT_OTHER_TERMINATION = 3
EXIT_FALSIFIED = 4
EXIT_VALIDATE_FAIL = 5
EXIT_NUMERICAL = 6


def _fmt(x):
    """Shortest-ish round-trip decimal at 17 significant digits."""
    return format(float(x), ".17g")


# --------------------------------------------------------------------------
# config parsing


def _finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _parse_vector(text, key):
    try:
        parts = [p for p in text.replace(",", " ").split() if p]
        return np.array([_finite_float(p) for p in parts])
    except ValueError:
        raise ConfigurationError(f"{key}: expected a list of finite "
                                 f"numbers, got {text!r}") from None


def _parse_matrix(text, key):
    rows = [r.strip() for r in text.split(";") if r.strip()]
    if not rows:
        raise ConfigurationError(f"{key}: empty matrix")
    parsed = [_parse_vector(r, key) for r in rows]
    width = len(parsed[0])
    if any(len(r) != width for r in parsed):
        raise ConfigurationError(f"{key}: ragged matrix rows")
    return np.vstack(parsed)


def _scalar(convert, what):
    def parse(text, key):
        try:
            return convert(text)
        except ValueError:
            raise ConfigurationError(
                f"{key}: expected {what}, got {text!r}") from None
    return parse


_PARSERS = {
    "float": _scalar(_finite_float, "a finite number"),
    "int": _scalar(int, "an integer"),
    "str": lambda t, k: t.strip(),
    "vector": _parse_vector,
    "matrix": _parse_matrix,
}

# problem.kind -> (the key naming the problem, the module and its name ->
# builder table, and config key -> (type, the parameter it feeds)).  A
# problem reads the keys whose parameter its builder, or endpoint_problem
# around a system, takes, and needs those whose parameter has no default;
# u0_constant feeds none and sets an endpoint problem's u0 on its grid.
# The table names each module, so reading it imports none.
_PROBLEMS = {
    "builtin-map": ("map", ("maps", "MAP_BUILDERS"), {
        "dim": ("int", "dim"), "weights": ("vector", "weights"),
        "matrix": ("matrix", "matrix")}),
    "endpoint": ("system", ("endpoint", "SYSTEM_BUILDERS"), {
        "state_dim": ("int", "dim"), "lti_a": ("matrix", "A"),
        "lti_b": ("matrix", "B"), "x0": ("vector", "x0"),
        "horizon": ("float", "horizon"), "segments": ("int", "segments"),
        "u0_constant": ("vector", None)}),
}

# section -> key -> (type, default); REQUIRED means no default
REQUIRED = object()

_SCHEMA = {
    "problem": {
        "kind": ("str", REQUIRED),
        **{key: (type_, None) for name_key, _, keys in _PROBLEMS.values()
           for key, (type_, _) in {name_key: ("str", None), **keys}.items()},
        "u0": ("vector", None),
    },
    "path": {
        "kind": ("str", "line"),
        "target": ("vector", None),
        "waypoints": ("matrix", None),
    },
    "solver": {f.name: (f.type.__name__, f.default)
               for f in dataclasses.fields(solver.SolverOptions)},
    "check": {
        "radii": ("vector", (1.0, 2.0, 4.0, 8.0)),
        "per_radius": ("int", 8),
        "z_samples": ("int", 8),
        "seed": ("int", 0),
        "lambda0": ("float", 1e-6),
        "xi_c": ("float", None),
        "xi_p": ("float", None),
    },
    "output": {
        "csv": ("str", "trace.csv"),
        "report": ("str", "report.txt"),
        "shells_csv": ("str", "shells.csv"),
    },
}


def parse_config(text):
    """Parse sectioned key/value config text.  ``cfg["solver"]`` is the
    built SolverOptions and ``cfg["check"]["xi"]`` the PowerLawXi or None,
    so their rules reject a bad value for every command."""
    # values are literal text: a "%" is no interpolation
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc
    cfg = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigurationError(
                    f"unknown config key {section}.{key}")
    for section, keys in _SCHEMA.items():
        cfg[section] = {}
        for key, (kind, default) in keys.items():
            if cp.has_option(section, key):
                raw = cp.get(section, key)
                value = _PARSERS[kind](raw, f"{section}.{key}")
            elif default is REQUIRED:
                raise ConfigurationError(
                    f"missing required config key {section}.{key}")
            else:
                value = default
            cfg[section][key] = value
    cfg["solver"] = solver.SolverOptions(**cfg["solver"])
    sec = cfg["check"]
    sec["xi"] = None
    if sec["xi_c"] is not None or sec["xi_p"] is not None:
        from . import hypotheses
        sec["xi"] = hypotheses.PowerLawXi(
            c=1.0 if sec["xi_c"] is None else sec["xi_c"],
            p=1.0 if sec["xi_p"] is None else sec["xi_p"])
    return cfg


def _require(cfg, section, key):
    value = cfg[section][key]
    if value is None:
        raise ConfigurationError(
            f"missing required config key {section}.{key} for this problem")
    return value


def _builders(kind):
    """Problem ``kind``'s name -> builder table; imports its module."""
    module, table = _PROBLEMS[kind][1]
    return getattr(importlib.import_module(f".{module}", __package__), table)


def _problem_keys(kind, name):
    """The keys problem ``name`` of ``kind`` reads -> whether required."""
    keys = _PROBLEMS[kind][2]
    params = dict(inspect.signature(_builders(kind)[name]).parameters)
    if kind == "endpoint":
        from . import endpoint
        params.update(inspect.signature(endpoint.endpoint_problem).parameters)
    return {key: param is not None
            and params[param].default is inspect.Parameter.empty
            for key, (_, param) in keys.items()
            if param is None or param in params}


def build_problem(cfg):
    """Build (oracle, u0 or None) from the problem section."""
    prob = cfg["problem"]
    kind, name = prob["kind"], None
    if kind == "linear":
        kind, name = "builtin-map", "linear"
    if kind not in _PROBLEMS:
        raise ConfigurationError(
            f"problem.kind must be one of builtin-map | linear | endpoint, "
            f"got {kind!r}")
    name_key, _, keys = _PROBLEMS[kind]
    builders = _builders(kind)
    allowed = {"kind", "u0"}
    if name is None:
        allowed.add(name_key)
        name = _require(cfg, "problem", name_key)
        if name not in builders:
            raise ConfigurationError(
                f"problem.{name_key}: unknown builtin {name_key} {name!r}; "
                f"known: {', '.join(sorted(builders))}")
    reads = _problem_keys(kind, name)
    for key, value in prob.items():
        if value is not None and key not in allowed | reads.keys():
            raise ConfigurationError(
                f"problem.{key} does not apply to {name_key} {name!r}")
    if prob["u0"] is not None and prob["u0_constant"] is not None:
        raise ConfigurationError(
            "problem.u0 and problem.u0_constant both set u0; give one")
    args = {keys[key][1]: _require(cfg, "problem", key)
            for key, required in reads.items()
            if keys[key][1] and (required or prob[key] is not None)}
    if kind == "endpoint":
        from . import endpoint
        grid = inspect.signature(endpoint.endpoint_problem).parameters
        system = {p: args.pop(p) for p in list(args) if p not in grid}
        oracle = endpoint.endpoint_problem(name, system_params=system, **args)
    else:
        oracle = builders[name](**args)
    u0 = prob["u0"]
    if prob["u0_constant"] is not None:
        u0 = oracle.grid.constant(prob["u0_constant"])
    if u0 is not None and len(u0) != oracle.dim_domain:
        raise ConfigurationError(
            f"problem.u0 must have length {oracle.dim_domain}, "
            f"got {len(u0)}")
    return oracle, u0


def build_path(cfg, oracle, u0):
    sec = cfg["path"]
    kind = sec["kind"]
    if kind == "line":
        return paths.line_to_target(oracle, u0,
                                    _require(cfg, "path", "target"))
    if kind == "polyline":
        waypoints = _require(cfg, "path", "waypoints")
        if waypoints.shape[1] != oracle.dim_codomain:
            raise ConfigurationError(
                f"path.waypoints columns must equal {oracle.dim_codomain}")
        return paths.PolylinePath(waypoints)
    raise ConfigurationError(
        f"path.kind must be line or polyline, got {kind!r}")


def build_plan(cfg, seed_override=None):
    sec = cfg["check"]
    seed = sec["seed"] if seed_override is None else seed_override
    from . import hypotheses
    plan = hypotheses.SamplingPlan(
        radii=sec["radii"], per_radius=sec["per_radius"],
        z_samples=sec["z_samples"], seed=seed)
    return plan, sec["xi"], sec["lambda0"]


# --------------------------------------------------------------------------
# artifact writers


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trace_csv_text(report, oracle):
    """Render the trace with the fixed column schema."""
    n = oracle.dim_codomain
    header = (["s"] + [f"lambda_{i + 1}" for i in range(n)]
              + ["a_1", "h", "f", "g", "norm_u", "norm_dudS", "residual",
                 "step_size", "flags"])
    lines = [",".join(header)]
    for st in report.trace:
        row = [_fmt(st.s)]
        row += [_fmt(lam) for lam in st.spectrum.lambdas]
        row.append(_fmt(st.diag.a[0]))
        row.append(_fmt(st.diag.h))
        row.append(_fmt(st.diag.f))
        row.append("" if not np.isfinite(st.diag.g) else _fmt(st.diag.g))
        row.append(_fmt(oracle.norm(st.u)))
        row.append(_fmt(st.udot_norm))
        row.append(_fmt(st.residual))
        row.append(_fmt(st.step_size))
        row.append(st.flags.replace(",", " "))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def lift_report_text(report):
    bound = report.bound_check_max
    return (
        "lift summary\n"
        f"status = {report.status}\n"
        f"message = {report.message}\n"
        f"accepted states = {len(report.trace)}\n"
        f"final s = {_fmt(report.trace[-1].s)}\n"
        f"final residual = {_fmt(report.final_residual)}\n"
        f"g integral (to the last regular state) = {_fmt(report.g_integral)}\n"
        f"total variation of norm_u = {_fmt(report.u_norm_variation)}\n"
        f"velocity bound check max = {_fmt(bound)}\n"
        f"lambda0 measured = {_fmt(report.lambda0_measured)}\n"
        f"max path speed = {_fmt(report.max_gamma_dot)}\n")


# --------------------------------------------------------------------------
# subcommands


def run_lift(cfg, out_dir):
    oracle, u0 = build_problem(cfg)
    if u0 is None:
        raise ConfigurationError(
            "problem.u0 (or u0_constant) is required for lift")
    path = build_path(cfg, oracle, u0)
    report = solver.lift(oracle, path, u0, cfg["solver"])
    _atomic_write(os.path.join(out_dir, cfg["output"]["csv"]),
                  trace_csv_text(report, oracle))
    text = lift_report_text(report)
    if cfg["problem"]["kind"] == "endpoint":
        error = oracle.discretisation_error(report.final_u)
        text += f"endpoint discretisation error = {_fmt(error)}\n"
    _atomic_write(os.path.join(out_dir, cfg["output"]["report"]), text)
    if report.status == solver.REACHED:
        return EXIT_OK
    if report.status == solver.SINGULAR_TERMINAL:
        return EXIT_SINGULAR_TERMINAL
    return EXIT_OTHER_TERMINATION


def run_check(cfg, out_dir, seed_override=None):
    oracle, _ = build_problem(cfg)
    plan, xi, lambda0 = build_plan(cfg, seed_override)
    from . import hypotheses
    report = hypotheses.check_report(oracle, plan, lambda0=lambda0, xi=xi)
    _atomic_write(os.path.join(out_dir, cfg["output"]["report"]),
                  report.to_text())
    _atomic_write(os.path.join(out_dir, cfg["output"]["shells_csv"]),
                  report.shells_csv())
    return EXIT_FALSIFIED if report.falsified else EXIT_OK


def run_validate(cfg, seed_override=None):
    oracle, _ = build_problem(cfg)
    seed = 0 if seed_override is None else seed_override
    from . import oracle_checks
    results = oracle_checks.validate_oracle(oracle, seed=seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    if failed:
        print(f"first violated identity: {failed[0].name}")
        return EXIT_VALIDATE_FAIL
    return EXIT_OK


def run_list_problems():
    for kind, (name_key, _, _) in _PROBLEMS.items():
        print(f"problem.kind = {kind}, by problem.{name_key}:")
        for name in sorted(_builders(kind)):
            keys = _problem_keys(kind, name).items()
            print(f"  {name}: " + ", ".join(
                key + "*" * required for key, required in keys))
    print("* required; all read u0; kind = linear means map = linear")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point


def _setup_logging():
    level_name = os.environ.get("TOOL_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name, logging.ERROR)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


@functools.cache
def _parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="pathlift",
        description="path-lifting continuation runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("lift", "check", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name != "validate":      # validate writes no file
            p.add_argument("--out-dir", default=".")
        if name != "lift":          # a lift draws no samples
            p.add_argument("--seed", type=int)
    sub.add_parser("list-problems")
    return parser


def main(argv=None):
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # argparse's 2 would read as a singular lift
        return EXIT_CONFIG if exc.code else EXIT_OK

    if args.command == "list-problems":
        return run_list_problems()

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        if args.command == "lift":
            return run_lift(cfg, args.out_dir)
        if args.command == "check":
            return run_check(cfg, args.out_dir, args.seed)
        return run_validate(cfg, args.seed)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
