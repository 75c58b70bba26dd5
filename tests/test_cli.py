"""Config parsing, subcommands, artifacts, and exit codes."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pathlift import cli, endpoint, solver
from pathlift.errors import ConfigurationError
from pathlift.maps import FoldMap, LinearMap

SPHERE_LIFT = """
[problem]
kind = builtin-map
map = sphere
dim = 2
u0 = 1, 0

[path]
target = 0
"""

FOLD_LIFT = """
[problem]
kind = builtin-map
map = fold
u0 = 0.1, 0

[path]
target = 0.16, 0.5
"""

SPHERE_CHECK = """
[problem]
kind = builtin-map
map = sphere
dim = 3

[check]
radii = 1, 2, 4
xi_c = 1.0
xi_p = 1.0
"""

LINEAR_CHECK = """
[problem]
kind = linear
matrix = 1 0 0 0; 0 1 0 0; 0 0 1 0
"""


def _cfg(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- parsing ---------------------------------------------------------------


def test_parse_config_defaults():
    cfg = cli.parse_config(SPHERE_LIFT)
    assert cfg["problem"]["kind"] == "builtin-map"
    assert cfg["solver"].tol_ode == 1e-8
    assert cfg["path"]["kind"] == "line"
    np.testing.assert_allclose(cfg["problem"]["u0"], [1.0, 0.0])


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="solver.bogus"):
        cli.parse_config(SPHERE_LIFT + "\n[solver]\nbogus = 1\n")


@pytest.mark.parametrize("section, key", [("problem", "substeps"),
                                          ("check", "r_min"),
                                          ("solver", "correction")])
def test_parse_config_rejects_removed_keys(section, key):
    text = (SPHERE_LIFT + "\n[solver]\n[check]\n").replace(
        f"[{section}]\n", f"[{section}]\n{key} = 8\n")
    with pytest.raises(ConfigurationError,
                       match=f"unknown config key {section}.{key}"):
        cli.parse_config(text)


@pytest.mark.parametrize("key, value", [("ds_event", "1e-6"),
                                        ("terminal_window", "1e-3")])
def test_fixed_solver_constants_are_not_options(tmp_path, capsys, key,
                                                value):
    # the approach walk's step cap and the endgame window are module
    # constants of the solver, not settable values
    config = _cfg(tmp_path, SPHERE_LIFT + f"\n[solver]\n{key} = {value}\n")
    code = cli.main(["lift", "--config", config,
                     "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG == 1
    assert err == f"error: unknown config key solver.{key}\n"
    assert "Traceback" not in err
    with pytest.raises(TypeError, match=key):
        solver.SolverOptions(**{key: float(value)})


def test_parse_config_rejects_unknown_section():
    with pytest.raises(ConfigurationError, match="mystery"):
        cli.parse_config(SPHERE_LIFT + "\n[mystery]\nx = 1\n")


def test_parse_config_requires_problem_kind():
    with pytest.raises(ConfigurationError, match="problem.kind"):
        cli.parse_config("[path]\ntarget = 0\n")


def test_parse_config_rejects_negative_tolerance():
    with pytest.raises(ConfigurationError, match="solver.tol_ode"):
        cli.parse_config(SPHERE_LIFT + "\n[solver]\ntol_ode = -1\n")


@pytest.mark.parametrize("key", [
    "ds_init", "ds_min", "tol_ode", "tol_ode_abs", "tol_residual",
    "tol_init"])
def test_parse_config_rejects_zero_solver_float(key):
    with pytest.raises(ConfigurationError,
                       match=f"solver.{key} must be positive"):
        cli.parse_config(SPHERE_LIFT + f"\n[solver]\n{key} = 0\n")


def test_parse_config_error_names_the_same_key_under_any_hash_seed():
    text = SPHERE_LIFT + "\n[solver]\ntol_ode = 0\nds_min = 0\n"
    probe = ("import sys\n"
             "from pathlift import cli\n"
             "try:\n"
             "    cli.parse_config(sys.stdin.read())\n"
             "except cli.ConfigurationError as exc:\n"
             "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], input=text,
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "solver.ds_min must be positive", (seed, out)


@pytest.mark.parametrize("section, key, value, message", [
    ("solver", "ds_init", "nan", "expected a finite number"),
    ("solver", "tol_ode", "nan", "expected a finite number"),
    ("solver", "tol_ode_abs", "inf", "expected a finite number"),
    ("check", "lambda0", "nan", "expected a finite number"),
    ("check", "radii", "1, nan, 4", "expected a list of finite numbers"),
    ("problem", "weights", "1, -inf", "expected a list of finite numbers"),
    ("problem", "matrix", "1 0; 0 inf", "expected a list of finite numbers"),
    ("solver", "max_steps", "-3", "must be >= 1"),
    ("solver", "max_steps", "0", "must be >= 1"),
], ids=["ds_init-nan", "tol_ode-nan", "tol_ode_abs-inf", "lambda0-nan",
        "radii-nan", "weights-inf", "matrix-inf", "max_steps-negative",
        "max_steps-zero"])
def test_parse_config_rejects_non_finite_and_empty_budget(section, key,
                                                          value, message):
    text = (SPHERE_LIFT + "\n[solver]\n[check]\n").replace(
        f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigurationError,
                       match=f"^{section}.{key}:? {message}"):
        cli.parse_config(text)


def test_parse_config_rejects_diverging_xi_violation():
    with pytest.raises(ConfigurationError, match="p <= 1"):
        cli.parse_config(SPHERE_CHECK.replace("xi_p = 1.0", "xi_p = 1.5"))


def test_parse_config_rejects_bad_numbers():
    with pytest.raises(ConfigurationError, match="numbers"):
        cli.parse_config(SPHERE_LIFT.replace("u0 = 1, 0", "u0 = one, 0"))


# -- subcommands -----------------------------------------------------------


def test_lift_singular_terminal_exit_2(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["lift", "--config", _cfg(tmp_path, SPHERE_LIFT),
                     "--out-dir", str(out)])
    assert code == 2
    csv = (out / "trace.csv").read_text().splitlines()
    assert csv[0] == ("s,lambda_1,a_1,h,f,g,norm_u,norm_dudS,"
                      "residual,step_size,flags")
    # final row is the singular state: g is empty, flag says singular
    last = csv[-1].split(",")
    assert last[5] == ""
    assert last[-1] == "singular"
    report = (out / "report.txt").read_text()
    assert "SingularTerminal" in report


def test_lift_reached_exit_0(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["lift", "--config", _cfg(tmp_path, FOLD_LIFT),
                     "--out-dir", str(out)])
    assert code == 0
    rows = (out / "trace.csv").read_text().splitlines()
    assert len(rows) >= 3
    # floats are emitted at 17 significant digits and round-trip
    s_vals = [float(r.split(",")[0]) for r in rows[1:]]
    assert s_vals[0] == 0.0 and s_vals[-1] == 1.0


@pytest.mark.parametrize("system, segments, low, high", [
    ("brockett", 10, 0.0, 1e-12), ("unicycle", 10, 1e-13, 1e-10),
    ("unicycle", 40, 1e-13, 1e-10)])
def test_endpoint_lift_report_states_the_discretisation_error(
        tmp_path, system, segments, low, high):
    """An endpoint lift's report ends with (16/15) |F_S - F_2S| at the
    final control: Brockett's RK4 map is exact, so roundoff; the unicycle's
    is not, and is a few 1e-11.  A builtin map's
    report has no such line."""
    text = "\n".join([
        "[problem]", "kind = endpoint", f"system = {system}",
        "x0 = 0, 0, 0", "horizon = 1.0", f"segments = {segments}",
        "u0_constant = 1, 1", "[path]", "kind = line",
        "target = 1.05, 0.97, 0.52" if system == "brockett"
        else "target = 0.55, 0.48, 1.02"])
    out = tmp_path / "out"
    assert cli.main(["lift", "--config", _cfg(tmp_path, text),
                     "--out-dir", str(out)]) == 0
    last = (out / "report.txt").read_text().splitlines()[-1]
    name, value = last.split(" = ")
    assert name == "endpoint discretisation error"
    assert low <= float(value) <= high
    cli.main(["lift", "--config", _cfg(tmp_path, FOLD_LIFT),
              "--out-dir", str(out)])
    assert "discretisation" not in (out / "report.txt").read_text()


def test_lift_stopped_short_of_the_end_exits_3(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["lift", "--config",
                     _cfg(tmp_path, FOLD_LIFT + "\n[solver]\nds_min = 2\n"),
                     "--out-dir", str(out)])
    assert code == cli.EXIT_OTHER_TERMINATION == 3
    report = (out / "report.txt").read_text()
    assert "status = StepUnderflow" in report
    assert "message = stopped at s = 0," in report


def test_lift_bad_anchor_exit_1_writes_nothing(tmp_path):
    bad = """
[problem]
kind = builtin-map
map = fold
u0 = 0.1, 0

[path]
kind = polyline
waypoints = 5 5; 0.16 0.5
"""
    out = tmp_path / "out"
    code = cli.main(["lift", "--config", _cfg(tmp_path, bad),
                     "--out-dir", str(out)])
    assert code == 1
    assert not out.exists()


def test_lift_config_error_exit_1(tmp_path):
    code = cli.main(["lift", "--config",
                     _cfg(tmp_path, SPHERE_LIFT + "\n[solver]\nds_min = 0\n"),
                     "--out-dir", str(tmp_path / "o")])
    assert code == 1
    code = cli.main(["lift", "--config", str(tmp_path / "missing.ini")])
    assert code == 1


def test_check_pass_exit_0(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["check", "--config", _cfg(tmp_path, SPHERE_CHECK),
                     "--out-dir", str(out)])
    assert code == 0
    text = (out / "report.txt").read_text()
    assert "C_est" in text
    shells = (out / "shells.csv").read_text().splitlines()
    assert shells[0].startswith("radius,")
    assert len(shells) == 4  # header + three radii


def test_check_falsified_exit_4(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["check", "--config", _cfg(tmp_path, LINEAR_CHECK),
                     "--out-dir", str(out)])
    assert code == 4
    text = (out / "report.txt").read_text()
    assert "K_est = 0" in text
    # no radii in the config: the schema's default shells
    assert "radii = [1.0, 2.0, 4.0, 8.0]" in text
    assert len((out / "shells.csv").read_text().splitlines()) == 5


def test_check_seed_override_changes_report(tmp_path):
    cfg = _cfg(tmp_path, SPHERE_CHECK)
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["check", "--config", cfg, "--out-dir", str(a)])
    cli.main(["check", "--config", cfg, "--out-dir", str(b), "--seed", "7"])
    ra = (a / "report.txt").read_text()
    rb = (b / "report.txt").read_text()
    assert "seed = 0" in ra and "seed = 7" in rb


def test_validate_exit_0(tmp_path, capsys):
    code = cli.main(["validate", "--config", _cfg(tmp_path, SPHERE_LIFT)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3


def test_validate_exit_5_on_a_flipped_second_differential(
        tmp_path, capsys, monkeypatch):
    exact = FoldMap.jacobian_derivative
    monkeypatch.setattr(FoldMap, "jacobian_derivative",
                        lambda self, u, v: -exact(self, u, v))
    code = cli.main(["validate", "--config", _cfg(tmp_path, FOLD_LIFT)])
    assert code == cli.EXIT_VALIDATE_FAIL == 5
    out = capsys.readouterr().out
    assert ("first violated identity: "
            "second-differential Taylor order deficit") in out
    assert "pass  second-differential symmetry" in out


def test_list_problems(capsys):
    assert cli.main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("sphere", "fold", "linear", "brockett", "unicycle",
                 "lti", "single-integrator"):
        assert name in out


def test_main_builds_its_parser_once_per_process(capsys):
    cli._parser.cache_clear()
    for _ in range(3):
        assert cli.main(["list-problems"]) == 0
    assert cli._parser.cache_info().misses == 1
    # a bad command line fails as a configuration error
    assert cli.main(["lift"]) == cli.EXIT_CONFIG == 1
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    ([], "command"), (["lift", "--config", "x.ini", "--bogus"], "--bogus"),
    (["lift", "--config", "x.ini", "--seed", "3"], "--seed"),
    (["validate", "--config", "x.ini", "--out-dir", "o"], "--out-dir"),
    (["check", "--config", "x.ini", "--seed", "abc"], "--seed"),
], ids=["bare", "unknown-flag", "lift-seed",
        "validate-out-dir", "seed-not-int"])
def test_malformed_command_line_exits_1(capsys, argv, flag):
    """Not 2, the code of a singular terminal lift; argparse's message
    stays on stderr."""
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: pathlift") and flag in err


@pytest.mark.parametrize("argv", [["--help"], ["validate", "--help"]])
def test_help_exits_0(capsys, argv):
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("usage: pathlift")


def test_endpoint_problem_from_config(tmp_path):
    text = """
[problem]
kind = endpoint
system = brockett
x0 = 0, 0, 0
horizon = 1.0
segments = 6
u0_constant = 1, 1

[path]
target = 0.8, 0.9, 0.4
"""
    out = tmp_path / "out"
    code = cli.main(["lift", "--config", _cfg(tmp_path, text),
                     "--out-dir", str(out)])
    assert code == 0
    rows = (out / "trace.csv").read_text().splitlines()
    # brockett has a three-dimensional state, hence three eigenvalue columns
    assert rows[0].split(",")[1:4] == ["lambda_1", "lambda_2", "lambda_3"]


LTI_BLOWUP = """
[problem]
kind = endpoint
system = lti
lti_a = 30
lti_b = 1
x0 = 1
horizon = 1.0
segments = 2
u0_constant = 0

[path]
target = 2
"""


@pytest.mark.parametrize("command", ["lift", "check", "validate"])
def test_numerical_failure_exits_6_without_traceback(tmp_path, capsys,
                                                     command):
    argv = [command, "--config", _cfg(tmp_path, LTI_BLOWUP)]
    if command != "validate":   # validate writes no file, so takes no dir
        argv += ["--out-dir", str(tmp_path / "out")]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERICAL == 6
    assert err.startswith("error: ") and "escape" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("segments", [10, 60])
def test_closed_form_blowup_exits_as_rk4_does(tmp_path, capsys, monkeypatch,
                                              segments):
    """Brockett at the constant control 1e5 escapes before T: the lift
    exits 6 with one ``error:`` line and no traceback on the closed form
    as on RK4, the same line where each segment is one RK4 step."""
    text = "\n".join([
        "[problem]", "kind = endpoint", "system = brockett", "x0 = 0, 0, 0",
        "horizon = 1.0", f"segments = {segments}",
        "u0_constant = 100000, 100000", "[path]", "target = 0, 0, 0"])
    argv = ["lift", "--config", _cfg(tmp_path, text),
            "--out-dir", str(tmp_path / "out")]
    outcomes = []
    for closed in (True, False):
        if not closed:
            monkeypatch.setitem(endpoint.SYSTEM_BUILDERS, "brockett",
                                lambda: dataclasses.replace(
                                    endpoint.brockett(), closed_form=None))
        code = cli.main(argv)
        outcomes.append((code, capsys.readouterr().err))
    for code, err in outcomes:
        assert code == cli.EXIT_NUMERICAL == 6
        assert err.startswith("error: ") and "escape" in err
        assert err.count("\n") == 1 and "Traceback" not in err
    assert (outcomes[0] == outcomes[1]) == (segments == 60)


@pytest.mark.parametrize("old, new, message", [
    ("dim = 3", "dim = abc", "problem.dim: expected an integer, got 'abc'"),
    ("radii = 1, 2, 4", "radii = 1, 2, 4\nper_radius = 0",
     "per_radius and z_samples must be >= 1"),
    ("radii = 1, 2, 4", "radii = 2, 1", "radii must be increasing"),
    ("radii = 1, 2, 4", "radii = 1, nan, 4",
     "check.radii: expected a list of finite numbers, got '1, nan, 4'"),
    ("xi_c = 1.0", "xi_c = 1.0\nlambda0 = nan",
     "check.lambda0: expected a finite number, got 'nan'"),
], ids=["int-parse", "per-radius-zero", "radii-decreasing", "radii-nan",
        "lambda0-nan"])
def test_bad_config_value_exits_1_without_traceback(tmp_path, old, new,
                                                    message):
    config = _cfg(tmp_path, SPHERE_CHECK.replace(old, new))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "pathlift.cli", "check", "--config", config,
         "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_CONFIG == 1
    assert proc.stderr == f"error: {message}\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, seed, config_seed", [
    ("validate", "-1", None), ("check", "-1", None), ("check", None, "-3"),
], ids=["validate-flag", "check-flag", "check-config"])
def test_negative_seed_exits_1_without_traceback(tmp_path, command, seed,
                                                 config_seed):
    text = SPHERE_CHECK
    if config_seed is not None:
        text += f"seed = {config_seed}\n"
    argv = [command, "--config", _cfg(tmp_path, text)]
    if seed is not None:
        argv += ["--seed", seed]
    if command == "check":      # validate writes no file, so takes no dir
        argv += ["--out-dir", str(tmp_path / "out")]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "pathlift.cli"] + argv,
        env=env, capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_CONFIG == 1
    assert proc.stderr == (f"error: seed must be >= 0, got "
                           f"{seed or config_seed}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("problem, message", [
    ("kind = builtin-map\nmap = nope", "unknown builtin map 'nope'"),
    ("kind = builtin-map\nmap = sphere", "problem.dim for this problem"),
    ("kind = builtin-map\nmap = linear", "problem.matrix for this problem"),
    ("kind = linear", "problem.matrix for this problem"),
    ("kind = builtin-map", "problem.map for this problem"),
])
def test_builtin_map_config_errors(problem, message):
    cfg = cli.parse_config(f"[problem]\n{problem}\n")
    with pytest.raises(ConfigurationError, match=message):
        cli.build_problem(cfg)


@pytest.mark.parametrize("problem", [
    "kind = builtin-map\nmap = linear",
    "kind = linear",
])
def test_linear_map_from_config(problem):
    text = f"[problem]\n{problem}\nmatrix = 1 0 2; 0 1 1\nweights = 1, 2, 3\n"
    oracle, _ = cli.build_problem(cli.parse_config(text))
    assert isinstance(oracle, LinearMap)
    np.testing.assert_array_equal(oracle.matrix, [[1, 0, 2], [0, 1, 1]])
    np.testing.assert_array_equal(oracle.weights, [1, 2, 3])


BROCKETT = ("kind = endpoint\nsystem = brockett\nx0 = 0, 0, 0\n"
            "horizon = 1.0\nsegments = 2\n")


@pytest.mark.parametrize("problem, message", [
    (BROCKETT + "state_dim = 3", "state_dim does not apply to system "
     "'brockett'"),
    (BROCKETT + "lti_a = 0 1; -2 -0.3", "lti_a does not apply to system "
     "'brockett'"),
    (BROCKETT + "weights = 1, 2", "weights does not apply to system "
     "'brockett'"),
    ("kind = builtin-map\nmap = fold\ndim = 3", "dim does not apply to map "
     "'fold'"),
    ("kind = builtin-map\nmap = fold\nx0 = 1, 2", "x0 does not apply to "
     "map 'fold'"),
    ("kind = builtin-map\nmap = fold\nsegments = 4\ndim = 3", "dim does "
     "not apply to map 'fold'"),
    ("kind = builtin-map\nmap = fold\nu0_constant = 1, 2", "u0_constant "
     "does not apply to map 'fold'"),
    ("kind = linear\nmatrix = 1 0\nmap = sphere", "map does not apply to "
     "map 'linear'"),
    ("kind = endpoint\nsystem = single-integrator\ndim = 2\nx0 = 0, 0\n"
     "horizon = 1.0\nsegments = 2", "dim does not apply to system "
     "'single-integrator'"),
], ids=["brockett-state_dim", "brockett-lti_a", "brockett-weights",
        "fold-dim", "fold-x0", "fold-first-in-schema-order",
        "fold-u0_constant", "linear-alias-map", "single-integrator-dim"])
def test_key_the_problem_does_not_read_exits_1(tmp_path, capsys, problem,
                                               message):
    code = cli.main(["validate", "--config",
                     _cfg(tmp_path, f"[problem]\n{problem}\n")])
    assert code == cli.EXIT_CONFIG == 1
    assert capsys.readouterr().err == f"error: problem.{message}\n"


@pytest.mark.parametrize("state_dim", ["0", "-1"])
def test_single_integrator_without_a_state_exits_1(tmp_path, capsys,
                                                   state_dim):
    """A state dimension below 1 is a configuration error (exit 1) on one
    line naming the builder's ``dim``: no numpy traceback at -1, and no
    misnamed ``control_dim`` at 0."""
    config = _cfg(tmp_path, "[problem]\nkind = endpoint\n"
                  "system = single-integrator\n"
                  f"state_dim = {state_dim}\nx0 = 0\nhorizon = 1.0\n"
                  "segments = 6\n")
    code = cli.main(["validate", "--config", config])
    assert code == cli.EXIT_CONFIG == 1
    assert capsys.readouterr().err == "error: dim must be >= 1\n"


def _cli_subprocess(argv):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    return subprocess.run([sys.executable, "-m", "pathlift.cli"] + argv,
                          env=env, capture_output=True, text=True)


def test_percent_in_a_config_value_is_literal_text(tmp_path):
    """Config values are not interpolated: a "%" in a number list is a bad
    number (exit 1, one error line), and in a file name it is a
    character of the name."""
    config = _cfg(tmp_path, f"[problem]\n{BROCKETT}".replace(
        "x0 = 0, 0, 0", "x0 = 0.1, 0.2, 50%"))
    proc = _cli_subprocess(["validate", "--config", config])
    assert proc.returncode == cli.EXIT_CONFIG == 1
    assert proc.stderr == ("error: problem.x0: expected a list of finite "
                           "numbers, got '0.1, 0.2, 50%'\n")
    assert "Traceback" not in proc.stderr
    out = tmp_path / "out"
    config = _cfg(tmp_path, FOLD_LIFT + "\n[output]\nreport = a%b.txt\n",
                  "percent.ini")
    proc = _cli_subprocess(["lift", "--config", config,
                            "--out-dir", str(out)])
    assert proc.returncode == cli.EXIT_OK
    assert proc.stderr == ""
    assert sorted(p.name for p in out.iterdir()) == ["a%b.txt", "trace.csv"]


@pytest.mark.parametrize("config", [
    LINEAR_CHECK + "\n[check]\nxi_c = 1e170\nxi_p = 1.0\n",
    "[problem]\nkind = builtin-map\nmap = fold\n\n[check]\n"
    "radii = 1e-3, 2\nxi_c = 1.0\nxi_p = -200\n",
], ids=["linear-xi_c-1e170", "fold-xi_p-minus-200"])
def test_check_with_overflowing_xi_exits_cleanly(tmp_path, config):
    """A xi whose square passes the largest float gives inf margins (NaN,
    so skipped, where the coercivity ratio is 0): the report is written,
    with no traceback and no warning."""
    out = tmp_path / "out"
    proc = _cli_subprocess(["check", "--config", _cfg(tmp_path, config),
                            "--out-dir", str(out)])
    assert proc.returncode in (cli.EXIT_OK, cli.EXIT_FALSIFIED)
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "product condition" in (out / "report.txt").read_text()


@pytest.mark.parametrize("command", ["lift", "check", "validate"])
def test_u0_and_u0_constant_together_exit_1(tmp_path, capsys, command):
    text = (f"[problem]\n{BROCKETT}u0 = 1, 1, 1, 1\nu0_constant = 5, 5\n"
            "[path]\ntarget = 0.8, 0.9, 0.4\n")
    argv = [command, "--config", _cfg(tmp_path, text)]
    if command != "validate":   # validate writes no file, so takes no dir
        argv += ["--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG == 1
    assert capsys.readouterr().err == (
        "error: problem.u0 and problem.u0_constant both set u0; give one\n")
    assert not (tmp_path / "out").exists()


# The sphere lift of the CI workflow: an analytic map, no endpoint layer
CI_SPHERE = """
[problem]
kind = builtin-map
map = sphere
dim = 3
u0 = 0.8, -0.36, 0.48

[path]
kind = line
target = 0
"""

LOADS_PROBE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("pathlift."))

stages = {}
import pathlift
stages["import pathlift"] = loaded()
from pathlift import cli
stages["import pathlift.cli"] = loaded()
stages["lift exit"] = cli.main(["lift", "--config", sys.argv[1],
                                "--out-dir", sys.argv[3]])
stages["lift"] = loaded()
stages["validate exit"] = cli.main(["validate", "--config", sys.argv[2]])
stages["validate"] = loaded()
print(json.dumps(stages))
"""


def test_each_entry_point_loads_only_the_modules_it_calls(tmp_path):
    """A fresh interpreter: the package loads no submodule, the CLI none of
    endpoint, hypotheses and oracle_checks until a command calls them."""
    sphere = _cfg(tmp_path, CI_SPHERE, "sphere.ini")
    brockett = _cfg(tmp_path, f"[problem]\n{BROCKETT}", "brockett.ini")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", LOADS_PROBE, sphere, brockett,
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True).stdout
    stages = json.loads(out.splitlines()[-1])
    later = {"pathlift.endpoint", "pathlift.hypotheses",
             "pathlift.oracle_checks"}
    assert stages["import pathlift"] == []
    assert not later & set(stages["import pathlift.cli"])
    assert stages["lift exit"] == cli.EXIT_SINGULAR_TERMINAL
    assert not later & set(stages["lift"])
    assert stages["validate exit"] == cli.EXIT_OK
    assert later - set(stages["validate"]) == {"pathlift.hypotheses"}


def _signature_required(function):
    params = inspect.signature(function).parameters.values()
    return {p.name for p in params if p.default is p.empty}


def test_every_registered_problem_can_be_built_from_a_config():
    """Each builder parameter without a default is fed by a config key of
    its kind; so is each of endpoint_problem's around a system."""
    for kind, (_, _, keys) in cli._PROBLEMS.items():
        fed = {param for _, param in keys.values()}
        for name, builder in cli._builders(kind).items():
            assert _signature_required(builder) <= fed, (kind, name)
    framed = _signature_required(endpoint.endpoint_problem) - {"system_name"}
    assert framed <= {param for _, param in cli._PROBLEMS["endpoint"][2]
                      .values()}


def test_every_problem_key_is_read_by_a_registered_problem():
    read = {"kind", "u0"}
    for kind, (name_key, _, _) in cli._PROBLEMS.items():
        read.add(name_key)
        for name in cli._builders(kind):
            read |= cli._problem_keys(kind, name).keys()
    assert read == set(cli._SCHEMA["problem"])


def test_list_problems_prints_the_registry(capsys):
    assert cli.main(["list-problems"]) == 0
    out = capsys.readouterr().out
    listed = dict(line.strip().split(": ") for line in out.splitlines()
                  if line.startswith("  "))
    expected = {}
    for kind, (_, _, keys) in cli._PROBLEMS.items():
        for name, builder in cli._builders(kind).items():
            required = _signature_required(builder)
            if kind == "endpoint":
                required |= _signature_required(endpoint.endpoint_problem)
            expected[name] = {key for key, (_, param) in keys.items()
                              if param in required}
    assert {name: {key[:-1] for key in keys.split(", ") if key[-1] == "*"}
            for name, keys in listed.items()} == expected
    assert len(listed) == 7
    assert listed["lti"] == ("lti_a*, lti_b*, x0*, horizon*, segments*, "
                             "u0_constant")
    assert listed["single-integrator"] == ("state_dim, x0*, horizon*, "
                                           "segments*, u0_constant")
    assert listed["sphere"] == "dim*, weights"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "out"
    cli.main(["lift", "--config", _cfg(tmp_path, FOLD_LIFT),
              "--out-dir", str(out)])
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]


def test_atomic_write_leaves_no_temp_file_when_the_write_fails(tmp_path):
    """A failed write, of text that is no string or onto a directory,
    raises and leaves nothing beside the target."""
    (tmp_path / "taken").mkdir()
    for name, text, error in [("trace.csv", 3.0, TypeError),
                              ("taken", "text", OSError)]:
        with pytest.raises(error):
            cli._atomic_write(str(tmp_path / name), text)
    assert os.listdir(tmp_path) == ["taken"]
    assert not os.listdir(tmp_path / "taken")


FOLD = "[problem]\nkind = builtin-map\nmap = fold\n"


@pytest.mark.parametrize("text, message", [
    ("[problem]\nkind = linear\nmatrix = ;",
     "problem.matrix: empty matrix"),
    ("[problem]\nkind = linear\nmatrix = 1 0; 1",
     "problem.matrix: ragged matrix rows"),
    ("[problem\nkind = linear",
     "malformed config: File contains no section headers."),
    ("[problem]\nkind = nope", "problem.kind must be one of builtin-map | "
     "linear | endpoint, got 'nope'"),
    (FOLD + "u0 = 1, 2, 3", "problem.u0 must have length 2, got 3"),
    (FOLD + "u0 = 0.1, 0\n[path]\nkind = polyline\n"
     "waypoints = 0 0 0; 1 1 1", "path.waypoints columns must equal 2"),
    (FOLD + "u0 = 0.1, 0\n[path]\nkind = spiral",
     "path.kind must be line or polyline, got 'spiral'"),
    (FOLD + "[path]\ntarget = 0.1, 0.2",
     "problem.u0 (or u0_constant) is required for lift"),
], ids=["empty-matrix", "ragged-matrix", "malformed", "unknown-kind",
        "u0-length", "waypoint-columns", "unknown-path-kind", "lift-u0"])
def test_config_rule_exits_1_on_one_line(tmp_path, capsys, text, message):
    """Each rule is a configuration error (exit 1) whose first line is
    its message; only configparser's own text runs on."""
    code = cli.main(["lift", "--config", _cfg(tmp_path, text + "\n"),
                     "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"error: {message}"
    assert (err.count("\n") == 1) == (not message.startswith("malformed"))
    assert not (tmp_path / "out").exists()


def test_trace_floats_have_17_significant_digits():
    assert cli._fmt(1.0 / 3.0) == "0.33333333333333331"
    assert cli._fmt(1.0) == "1"
