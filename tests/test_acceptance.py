"""Acceptance gate: eight criteria, one printed pass/fail line each.

Each test prints ``[criterion N] PASS/FAIL: summary`` so a plain pytest
run doubles as the acceptance record.
"""

import time
from types import SimpleNamespace

import numpy as np

import pathlift as pl
from pathlift import cli
from pathlift.spectrum import (diagnostics, gramian, spectral_decompose,
                              spectrum_at)

from lift_fd import lambda1_fd_along_lift, rk4_flow
from reference_cases import acceptance_problem


def _record(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


_scenarios = {}


def _scenario(name):
    """Shared lift runs, computed once (also criterion 4's corpus)."""
    if name not in _scenarios:
        o, path, u0 = acceptance_problem(name)
        _scenarios[name] = (o, path, u0, pl.lift(o, path, u0))
    return _scenarios[name]


def _resampled_states(oracle, path, report, s_values):
    """States at prescribed s, flowed from the nearest logged state."""
    regular = [st for st in report.trace if not st.spectrum.singular]
    out = []
    for s in s_values:
        base = min(regular, key=lambda st: abs(st.s - s))
        u = rk4_flow(oracle, path, base.s, base.u, s - base.s, nsub=4)
        spec = spectrum_at(oracle, u, prev=base.spectrum)
        out.append(SimpleNamespace(s=s, u=u, spectrum=spec))
    return out


def test_criterion_1_linear_exactness():
    rng = np.random.default_rng(42)
    mat = rng.standard_normal((3, 6))
    o = pl.LinearMap(mat)
    u0 = rng.standard_normal(6)
    target = o.eval(u0) + rng.standard_normal(3)
    t0 = time.perf_counter()
    rep = pl.lift(o, pl.line_to_target(o, u0, target), u0)
    elapsed = time.perf_counter() - t0
    expect = u0 + np.linalg.pinv(mat) @ (target - o.eval(u0))
    err = float(np.linalg.norm(rep.final_u - expect))
    ok = (err <= 1e-8 and rep.final_residual <= 1e-10 and elapsed < 1.0)
    _record(1, ok, f"pinv deviation {err:.2e}, residual "
            f"{rep.final_residual:.2e}, {elapsed:.2f}s")


def test_criterion_2_eigenvalue_derivative_formula():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for name in ("fold", "unicycle"):
        o, path, _, rep = _scenario(name)
        s_values = np.linspace(0.04, 0.96, 24)
        for st in _resampled_states(o, path, rep, s_values):
            d = diagnostics(o, st.u, st.spectrum, path.gamma_dot(st.s))
            fd = lambda1_fd_along_lift(o, path, st, delta=1e-3)
            worst = max(worst, abs(d.dlambda1_ds - fd) / (1.0 + abs(fd)))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and count >= 40 and elapsed < 10.0
    _record(2, ok, f"worst relative error {worst:.2e} over {count} "
            f"sampled s, {elapsed:.2f}s")


def test_criterion_3_singular_terminal_sphere():
    t0 = time.perf_counter()
    o, path, u0, rep = _scenario("sphere")
    elapsed = time.perf_counter() - t0
    norm_err = max(abs(o.norm(st.u) - np.sqrt(1.0 - st.s))
                   for st in rep.trace if st.s <= 0.99)
    ok = (rep.status == pl.SINGULAR_TERMINAL
          and norm_err <= 1e-4
          and 0.95 <= rep.g_integral <= 1.05
          and elapsed < 5.0)
    _record(3, ok, f"status {rep.status}, norm deviation {norm_err:.2e}, "
            f"integral of |g| = {rep.g_integral:.4f}, {elapsed:.2f}s")


def test_endgame_runs_only_on_the_singular_sphere():
    # regular lifts never enter the endgame; the sphere's singular end
    # takes a handful of steps in sigma = sqrt(1 - s)
    for name in ("linear", "fold", "unicycle", "brockett"):
        _, _, _, rep = _scenario(name)
        assert not any("endgame" in st.flags.split() for st in rep.trace), \
            name
    _, _, _, rep = _scenario("sphere")
    assert any("endgame" in st.flags.split() for st in rep.trace)
    assert len(rep.trace) <= 10
    assert abs(rep.g_integral - 1.0) < 0.0024


def test_g_integral_of_regular_lifts():
    # the g integral comes from the Cash-Karp stages: the fold line has the
    # exact value sqrt(0.2025) - sqrt(0.01) = 0.35, and Brockett-20's value
    # does not move under a tighter rerun
    _, _, _, rep = _scenario("fold")
    assert abs(rep.g_integral - 0.35) <= 1e-6
    o, path, u0, rep = _scenario("brockett")
    tight = pl.lift(o, path, u0, pl.SolverOptions(tol_ode=1e-12))
    assert tight.status == pl.REACHED
    assert abs(tight.g_integral - rep.g_integral) <= 1e-6


def test_criterion_4_velocity_bound():
    worst = -np.inf
    for name in ("linear", "fold", "sphere", "unicycle", "brockett"):
        _, _, _, rep = _scenario(name)
        worst = max(worst, rep.bound_check_max)
    ok = worst <= 1e-8
    _record(4, ok, f"worst bound violation {worst:.2e} over five lifts")


def test_criterion_5_brockett_planning():
    t0 = time.perf_counter()
    o, path, u0, rep = _scenario("brockett")
    fine = o.endpoint_refined(rep.final_u, refine=4)
    elapsed = time.perf_counter() - t0
    err = float(np.linalg.norm(fine - np.array([0.5, -0.3, 0.2])))
    ok = rep.status == pl.REACHED and err <= 1e-6 and elapsed < 30.0
    _record(5, ok, f"status {rep.status}, refined endpoint error "
            f"{err:.2e}, {elapsed:.2f}s")


def test_criterion_6_brockett_singular_point():
    o = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 20)
    spec = spectral_decompose(gramian(o, np.zeros(o.dim_domain)))
    assert spec.degenerate     # lambda_2 = lambda_3 = 1 at u = 0
    overlap = abs(spec.vectors[2, 0])
    ok = spec.lambdas[0] <= 1e-10 and overlap >= 1.0 - 1e-8
    _record(6, ok, f"lambda_1 = {spec.lambdas[0]:.2e}, "
            f"|<z1, e3>| = {overlap:.12f}")


def test_criterion_7_hypothesis_checker(tmp_path):
    plan = pl.SamplingPlan(radii=(1.0, 2.0, 4.0), per_radius=8,
                           z_samples=8, seed=0)
    rep = pl.check_report(pl.SphereMap(3), plan,
                          xi=pl.PowerLawXi(1.0, 1.0))
    cfg = tmp_path / "linear.ini"
    cfg.write_text("[problem]\nkind = linear\n"
                   "matrix = 1 0 0 0; 0 1 0 0; 0 0 1 0\n")
    code = cli.main(["check", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
    ok = (abs(rep.c_est - 2.0) <= 1e-3 and abs(rep.k_est - 2.0) <= 1e-3
          and rep.growth_slope <= 0.0 and not rep.falsified and code == 4)
    _record(7, ok, f"sphere C_est = {rep.c_est:.6f}, K_est = "
            f"{rep.k_est:.6f}, slope = {rep.growth_slope:.3f}; "
            f"linear check exit code {code}")


_VALIDATE_CONFIGS = {
    "sphere": "[problem]\nkind = builtin-map\nmap = sphere\ndim = 3\n",
    "fold": "[problem]\nkind = builtin-map\nmap = fold\n",
    "linear": ("[problem]\nkind = linear\n"
               "matrix = 1 2 0 1; 0 1 3 -1\n"),
    "brockett": ("[problem]\nkind = endpoint\nsystem = brockett\n"
                 "x0 = 0, 0, 0\nhorizon = 1.0\nsegments = 6\n"),
    "unicycle": ("[problem]\nkind = endpoint\nsystem = unicycle\n"
                 "x0 = 0, 0, 0\nhorizon = 1.0\nsegments = 6\n"),
    "lti": ("[problem]\nkind = endpoint\nsystem = lti\n"
            "lti_a = 0 1; -2 -0.3\nlti_b = 0; 1\n"
            "x0 = 1, -0.5\nhorizon = 1.0\nsegments = 6\n"),
    "single-integrator": (
        "[problem]\nkind = endpoint\nsystem = single-integrator\n"
        "state_dim = 2\nx0 = 0, 0\nhorizon = 1.0\nsegments = 6\n"),
}


def test_criterion_8_oracle_identities(tmp_path):
    t0 = time.perf_counter()
    codes = {}
    for name, text in _VALIDATE_CONFIGS.items():
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        codes[name] = cli.main(["validate", "--config", str(cfg)])
    elapsed = time.perf_counter() - t0
    bad = [n for n, c in codes.items() if c != 0]
    ok = not bad and elapsed < 20.0
    _record(8, ok, f"validate exit 0 on {len(codes)} problems"
            + (f", failures: {bad}" if bad else "") + f", {elapsed:.2f}s")
