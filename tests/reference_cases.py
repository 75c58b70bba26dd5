"""Reference outputs: one table of cases, shared by ``test_reference.py``
and by the regeneration below.

Each case runs the present code and returns its status and its output
files.  ``tests/reference/<case>/`` holds the committed files, and
``tests/reference/index.json`` each case's status with the fingerprint of
the numerics that made them.  A change that moves an output regenerates
them, and the fixture diff is its record::

    PYTHONPATH=src python tests/reference_cases.py

The cases:

- the five acceptance scenarios, as ``trace.csv`` and ``report.txt``;
- the seven lift configs of CI's console-script step, through
  ``cli.main(["lift", ...])``;
- three fold probes: the line (0.5, 0) -> (-0.25, 0.5), which leaves the
  fold's image and ends ``StepUnderflow``; the polyline across the
  eigenvalue crossing; and the near-miss knot polyline at gap 1e-10;
- the 12 lifts through the critical value 0 of ``test_reproduction.py``;
- ``check`` (``report.txt``, ``shells.csv``) and ``validate`` (stdout)
  through ``cli.main`` on CI's Brockett, unicycle and lti configs at seeds
  0-2.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
import tempfile

import numpy as np

import pathlift as pl
from pathlift import cli

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference")
INDEX = os.path.join(REFERENCE, "index.json")


def fingerprint():
    """The numpy version and a digest of a few probe results: sin and exp
    on a fixed grid, a small matmul and ``eigh`` of a fixed matrix.  Hosts
    that agree on it are taken to round the fixtures' arithmetic alike;
    another numpy build or CPU may round differently."""
    grid = np.linspace(-3.0, 3.0, 101)
    mat = np.sin(np.arange(1.0, 10.0)).reshape(3, 3)
    probes = (np.sin(grid), np.exp(grid), mat @ mat,
              *np.linalg.eigh(mat @ mat.T))
    digest = hashlib.sha256(b"".join(p.tobytes() for p in probes))
    return f"numpy {np.__version__} {digest.hexdigest()[:16]}"


def acceptance_problem(name):
    """(oracle, path, u0) of the acceptance scenario ``name``."""
    if name == "linear":
        rng = np.random.default_rng(42)
        mat = rng.standard_normal((3, 6))
        o = pl.LinearMap(mat)
        u0 = rng.standard_normal(6)
        target = o.eval(u0) + rng.standard_normal(3)
        path = pl.line_to_target(o, u0, target)
    elif name == "fold":
        o = pl.FoldMap()
        u0 = np.array([0.1, 0.0])
        path = pl.line_to_target(o, u0, [0.2025, 0.3])
    elif name == "sphere":
        o = pl.SphereMap(3)
        u0 = np.array([0.8, -0.36, 0.48])  # unit anchor
        path = pl.LinePath([1.0], [0.0])
    elif name == "unicycle":
        o = pl.endpoint_problem("unicycle", [0.0, 0.0, 0.0], 1.0, 10)
        u0 = o.grid.constant([1.0, 0.3])
        y0 = o.eval(u0)
        path = pl.LinePath(y0, y0 + np.array([0.05, -0.04, 0.08]))
    elif name == "brockett":
        o = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 20)
        u0 = o.grid.constant([1.0, 1.0])
        path = pl.line_to_target(o, u0, [0.5, -0.3, 0.2])
    else:
        raise KeyError(name)
    return o, path, u0


def _lifted(problem, *args):
    """The lift of ``problem(*args)`` = (oracle, path, u0), rendered as
    the CLI renders it."""
    oracle, path, u0 = problem(*args)
    report = pl.lift(oracle, path, u0)
    return report.status, {"trace.csv": cli.trace_csv_text(report, oracle),
                           "report.txt": cli.lift_report_text(report)}


def _fold_probe(path):
    return pl.FoldMap(), path, np.array([0.5, 0.0])


def _through_zero(system, segments, control):
    """The line from F(u0) to -F(u0), u0 constant, through the critical
    value 0."""
    o = pl.endpoint_problem(system, [0.0, 0.0, 0.0], 1.0, segments)
    u0 = o.grid.constant(control)
    return o, pl.line_to_target(o, u0, -o.eval(u0)), u0


def _config(*lines):
    return "".join(line + "\n" for line in lines)


def _short(segments):
    """CI's short Brockett line lift on ``segments`` segments."""
    return _config(
        "[problem]", "kind = endpoint", "system = brockett", "x0 = 0, 0, 0",
        "horizon = 1.0", f"segments = {segments}", "u0_constant = 1, 1",
        "[path]", "kind = line", "target = 1.05, 0.97, 0.52")


# the lift configs of CI's console-script step
_CI_LIFTS = {
    "integrator3": _config(
        "[problem]", "kind = endpoint", "system = single-integrator",
        "state_dim = 3", "x0 = 0, 0, 0", "horizon = 1.0", "segments = 6",
        "u0_constant = 1, 0.5, -0.2", "[path]", "kind = line",
        "target = 0.3, -0.4, 0.9"),
    "sphere": _config(
        "[problem]", "kind = builtin-map", "map = sphere", "dim = 3",
        "u0 = 0.8, -0.36, 0.48", "[path]", "kind = line", "target = 0"),
    "brockett-10-short": _short(10),
    "brockett-80-exact": _short(80),
    "fold-polyline": _config(
        "[problem]", "kind = builtin-map", "map = fold", "u0 = 0.5, 0",
        "[path]", "kind = polyline", "waypoints = 0.25 0; 0 0.3; 0.25 0.6"),
    "fold-3-legs": _config(
        "[problem]", "kind = builtin-map", "map = fold", "u0 = 0.2, 0",
        "[path]", "kind = polyline",
        "waypoints = 0.04 0; 0.09 0.3; 0.01 0.6; 0.16 0.9"),
    "diverged": _config(
        "[problem]", "kind = builtin-map", "map = fold", "u0 = 0.2, 0.1",
        "[path]", "kind = line", "target = 0.09, 0.4", "[solver]",
        "tol_residual = 1e-30"),
}


def _endpoint(system, *lines):
    """CI's check config of ``system`` on 6 segments."""
    return _config(
        "[problem]", "kind = endpoint", f"system = {system}", *lines,
        "horizon = 1.0", "segments = 6", "[check]", "radii = 0.5, 1, 2",
        "per_radius = 2", "z_samples = 2")


# the check and validate configs of CI's console-script step
_CI_CHECKS = {
    "brockett": _endpoint("brockett", "x0 = 0, 0, 0"),
    "unicycle": _endpoint("unicycle", "x0 = 0, 0, 0"),
    "lti": _endpoint("lti", "x0 = 1, -0.5", "lti_a = 0 1; -2 -0.3",
                     "lti_b = 0; 1"),
}


def _read(directory, *names):
    files = {}
    for name in names:
        with open(os.path.join(directory, name)) as fh:
            files[name] = fh.read()
    return files


def _config_file(directory, text):
    path = os.path.join(directory, "config.ini")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _cli_lift(text):
    """``pathlift lift`` on the config ``text``: its exit code, trace.csv
    and report.txt."""
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(["lift", "--config", _config_file(out, text),
                         "--out-dir", out])
        return f"exit {code}", _read(out, "trace.csv", "report.txt")


def _cli_check(text, seed):
    """``pathlift check`` and ``pathlift validate`` on the config ``text``
    at ``seed``: their exit codes, check's report.txt and shells.csv, and
    validate's stdout."""
    seed = ["--seed", str(seed)]
    with tempfile.TemporaryDirectory() as out:
        config = _config_file(out, text)
        check = cli.main(["check", "--config", config, "--out-dir", out]
                         + seed)
        files = _read(out, "report.txt", "shells.csv")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            validate = cli.main(["validate", "--config", config] + seed)
    files["validate.txt"] = stdout.getvalue()
    return f"check exit {check}, validate exit {validate}", files


# case name -> callable returning (status, {file name: text})
CASES = {
    **{f"acceptance-{name}": functools.partial(
        _lifted, acceptance_problem, name)
       for name in ("linear", "fold", "sphere", "unicycle", "brockett")},
    **{f"ci-{name}": functools.partial(_cli_lift, text)
       for name, text in _CI_LIFTS.items()},
    "fold-line": functools.partial(
        _lifted, _fold_probe, pl.LinePath([0.25, 0.0], [-0.25, 0.5])),
    "fold-crossing-polyline": functools.partial(
        _lifted, _fold_probe, pl.PolylinePath(
            [[0.25, 0.0], [0.36, 0.3], [0.16, 0.6], [0.3, 0.9]])),
    "fold-near-miss-polyline": functools.partial(
        _lifted, _fold_probe, pl.PolylinePath(
            [[0.25, 0.0], [1e-10, 0.3], [0.25, 0.6]])),
    **{f"through-zero-{system}-{segments}-{c[0]:g}_{c[1]:g}":
       functools.partial(_lifted, _through_zero, system, segments, c)
       for system in ("brockett", "unicycle") for segments in (6, 10)
       for c in ((1.0, 1.0), (1.0, 0.3), (0.7, -0.2))},
    **{f"check-{name}-seed{seed}": functools.partial(_cli_check, text, seed)
       for name, text in _CI_CHECKS.items() for seed in range(3)},
}


def load_index():
    """The committed fixtures' fingerprint and statuses."""
    with open(INDEX) as fh:
        return json.load(fh)


def differences(name, files):
    """Where ``files`` of case ``name`` differ from the committed ones,
    one line each; empty when every file matches byte for byte."""
    folder = os.path.join(REFERENCE, name)
    want = sorted(os.listdir(folder)) if os.path.isdir(folder) else []
    if sorted(files) != want:
        return [f"{name}: files {sorted(files)}, reference {want}"]
    out = []
    for file_name, text in files.items():
        with open(os.path.join(folder, file_name), newline="") as fh:
            reference = fh.read()
        if text != reference:
            got, want = text.splitlines(True), reference.splitlines(True)
            k = next((k for k, pair in enumerate(zip(got, want))
                      if pair[0] != pair[1]), min(len(got), len(want)))
            out.append(f"{name}/{file_name}:{k + 1}: {got[k:k + 1]} != "
                       f"{want[k:k + 1]}")
    return out


def regenerate():
    """Rewrite ``tests/reference/`` from the present code."""
    shutil.rmtree(REFERENCE, ignore_errors=True)
    statuses = {}
    for name, case in CASES.items():
        statuses[name], files = case()
        os.makedirs(os.path.join(REFERENCE, name))
        for file_name, text in files.items():
            with open(os.path.join(REFERENCE, name, file_name), "w",
                      newline="") as fh:
                fh.write(text)
    with open(INDEX, "w") as fh:
        json.dump({"fingerprint": fingerprint(), "status": statuses}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(statuses)} cases to {REFERENCE}")


if __name__ == "__main__":
    regenerate()
