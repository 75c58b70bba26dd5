"""Sampling-based falsification checks."""

import numpy as np
import pytest

import pathlift as pl
from pathlift import hypotheses as hyp
from pathlift.errors import ConfigurationError, InvalidXi


def _plan(**kw):
    base = dict(radii=(1.0, 2.0, 4.0), per_radius=6, z_samples=6, seed=0)
    base.update(kw)
    return pl.SamplingPlan(**base)


def test_sampling_plan_validation():
    with pytest.raises(ValueError):
        pl.SamplingPlan(radii=())
    with pytest.raises(ValueError):
        pl.SamplingPlan(radii=(2.0, 1.0))
    with pytest.raises(ValueError):
        pl.SamplingPlan(radii=(1.0,), per_radius=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        pl.SamplingPlan(radii=(1.0,), seed=-3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            pl.SamplingPlan(radii=(1.0, bad))


def test_power_law_xi():
    xi = pl.PowerLawXi(c=2.0, p=0.5)
    assert xi(4.0) == pytest.approx(4.0)
    with pytest.raises(InvalidXi):
        pl.PowerLawXi(c=2.0, p=1.5)
    with pytest.raises(InvalidXi):
        pl.PowerLawXi(c=-1.0, p=1.0)


@pytest.mark.parametrize("c, p", [(np.nan, 1.0), (np.inf, 1.0),
                                  (1.0, np.nan), (1.0, -np.inf)])
def test_power_law_xi_rejects_non_finite(c, p):
    with pytest.raises(InvalidXi):
        pl.PowerLawXi(c=c, p=p)


@pytest.mark.parametrize("lambda0", [-1.0, 0.0, np.nan, np.inf])
def test_check_report_rejects_bad_eigenvalue_floor(lambda0):
    with pytest.raises(ConfigurationError,
                       match="lambda0 must be positive and finite"):
        pl.check_report(pl.FoldMap(), _plan(radii=(1.0,)), lambda0=lambda0)


def test_sphere_estimates_are_exact():
    # |z d2F(v, w)| = 2 |z <v, w>| peaks at 2; coercivity ratio is
    # identically 2 since d2F(phi, phi) = 2 ||phi||^2
    o = pl.SphereMap(3)
    rep = pl.check_report(o, _plan())
    assert rep.c_est == pytest.approx(2.0, abs=1e-3)
    assert rep.k_est == pytest.approx(2.0, abs=1e-3)
    assert not rep.falsified


def test_sphere_xi_margin_closed_form():
    # phi_z = 2 r z, curvature = 2 ||phi||^2, margin = 2 ||phi|| xi(r)^2
    # = 4 r^3 with xi(s) = s
    o = pl.SphereMap(3)
    xi = pl.PowerLawXi(c=1.0, p=1.0)
    rng = np.random.default_rng(0)
    for r in (1.0, 2.0, 3.0):
        u = rng.standard_normal(3)
        u *= r / np.linalg.norm(u)
        m = pl.xi_margin(o, u, np.array([1.0]), xi)
        assert m == pytest.approx(4.0 * r ** 3, rel=1e-10)


def test_sphere_growth_slope_is_negative():
    # 1 / lambda_1 = 1 / (4 r^2) shrinks with radius
    o = pl.SphereMap(3)
    rep = pl.check_report(o, _plan())
    assert rep.growth_slope <= 0.0
    assert rep.growth_pass


def test_linear_map_is_falsified():
    rng = np.random.default_rng(1)
    o = pl.LinearMap(rng.standard_normal((3, 6)))
    rep = pl.check_report(o, _plan())
    assert rep.c_est == 0.0
    assert rep.k_est == 0.0
    assert rep.falsified


def test_determinism_and_monotone_refinement():
    o = pl.SphereMap(4)
    r1 = pl.check_report(o, _plan())
    r2 = pl.check_report(o, _plan())
    assert r1.c_est == r2.c_est and r1.k_est == r2.k_est
    # doubling the sample counts keeps the earlier draws, so the
    # one-sided estimates can only tighten
    r4 = pl.check_report(o, _plan(per_radius=12, z_samples=12))
    assert r4.c_est >= r1.c_est - 1e-12
    assert r4.k_est <= r1.k_est + 1e-12


def test_seed_changes_samples():
    o = pl.FoldMap()
    r1 = pl.check_report(o, _plan(radii=(0.5, 1.0)))
    r2 = pl.check_report(o, _plan(radii=(0.5, 1.0), seed=123))
    assert r1.k_est != r2.k_est


def test_gap_condition_detects_small_floor():
    o = pl.FoldMap()  # lambda_2 = 1 on most samples, lambda can dip
    ok = pl.check_report(o, _plan(radii=(1.0,)), lambda0=1e-6)
    bad = pl.check_report(o, _plan(radii=(1.0,)), lambda0=100.0)
    assert ok.gap_pass
    assert not bad.gap_pass and bad.falsified


def test_coercivity_ratio_skips_degenerate_switching():
    o = pl.FoldMap()
    # at u1 = 0 with z = e1 the switching function vanishes
    assert pl.coercivity_ratio(o, np.array([0.0, 1.0]),
                               np.array([1.0, 0.0])) is None
    got = pl.coercivity_ratio(o, np.array([0.5, 0.0]),
                              np.array([1.0, 0.0]))
    assert got == pytest.approx(2.0, abs=1e-8)


def test_estimate_bilinear_norm_power_iteration():
    o = pl.SphereMap(5)
    u = np.ones(5)
    got = pl.estimate_bilinear_norm(o, u, z_count=2, v_count=2, seed=0)
    assert got == pytest.approx(2.0, abs=1e-6)


def _count_calls(oracle, *names):
    """Make the oracle count its calls of the named methods."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(oracle, name)

        def counted(*args, _method=method, _name=name):
            counts[_name] += 1
            return _method(*args)
        setattr(oracle, name, counted)
    return counts


def test_power_iteration_reuses_the_rayleigh_quotient_operator():
    o = pl.endpoint_problem("unicycle", [0.1, -0.2, 0.3], 1.0, 4)
    u = np.random.default_rng(2).uniform(-1.0, 1.0, o.dim_domain)
    # with one z and one v drawn, the power iteration starts from them
    rng = np.random.default_rng([3, 7, 0])
    z = hyp._unit_codomain(o.dim_codomain, rng)
    v = hyp._unit_domain(o, rng)
    w = hyp._unit_domain(o, rng)
    expect = abs(o.bilinear_second(u, z, v, w))
    for _ in range(hyp.POWER_ITERATIONS):
        bv = o.second_operator(u, z, v)
        v = bv / o.norm(bv)
        expect = max(expect, abs(o.inner(v, o.second_operator(u, z, v))))
    counts = _count_calls(o, "second_operator")
    got = pl.estimate_bilinear_norm(o, u, z_count=1, v_count=1, seed=3)
    assert counts["second_operator"] == hyp.POWER_ITERATIONS + 1 == 21
    assert got == expect


def test_check_report_makes_one_adjoint_and_one_second_call_per_pair():
    o = pl.endpoint_problem("brockett", [0.1, -0.2, 0.3], 1.0, 4)
    plan = _plan(per_radius=2, z_samples=3)
    counts = _count_calls(o, "apply_adjoint", "second_operator")
    rep = pl.check_report(o, plan, xi=pl.PowerLawXi(c=1.0, p=0.5))
    samples = len(plan.radii) * plan.per_radius
    pairs = samples * plan.z_samples - rep.skipped_samples
    assert counts["apply_adjoint"] == samples * plan.z_samples
    assert counts["second_operator"] == (
        samples * (hyp.POWER_ITERATIONS + 1) + pairs)


def test_check_report_decomposes_and_evaluates_each_plan_point_once(
        monkeypatch):
    o = pl.endpoint_problem("brockett", [0.1, -0.2, 0.3], 1.0, 4)
    plan = _plan(per_radius=2, z_samples=2)
    counts = _count_calls(o, "eval_many")
    decompositions = []
    real = hyp.spectral_decompose

    def counting(*args, **kwargs):
        decompositions.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hyp, "spectral_decompose", counting)
    pl.check_report(o, plan)
    assert len(decompositions) == len(plan.radii) * plan.per_radius
    assert counts["eval_many"] == 1


def test_report_text_and_rows():
    o = pl.SphereMap(2)
    rep = pl.check_report(o, _plan(radii=(1.0, 2.0)),
                          xi=pl.PowerLawXi(1.0, 1.0))
    text = rep.to_text()
    assert "C_est" in text and "K_est" in text
    assert "seed = 0" in text
    assert "sample" in text  # never claims more than the sample shows
    table = rep.shells_csv()
    assert text.endswith("per-shell breakdown\n" + table)
    header, *rows = table.splitlines()
    assert len(rows) == 2
    assert all(len(row.split(",")) == len(header.split(",")) for row in rows)


def test_gramian_inverse_growth_flags_singular_samples():
    o = pl.SphereMap(3)
    shell_max, slope, intercept, passed, sing, samples = \
        pl.gramian_inverse_growth(o, _plan(radii=(1.0, 2.0)))
    assert len(shell_max) == 2
    assert [len(shell) for shell in samples] == [6, 6]
    assert shell_max[0] == pytest.approx(1.0 / 4.0, rel=1e-10)
    assert shell_max[1] == pytest.approx(1.0 / 16.0, rel=1e-10)
    assert passed and sing == [0, 0]
