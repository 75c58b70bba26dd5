"""Sampling-based falsification checks."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pathlift as pl
from pathlift import hypotheses as hyp, spectrum
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


@pytest.mark.parametrize("call, message", [
    (lambda o, u: pl.estimate_bilinear_norm(o, u, v_count=2.5),
     "v_count must be an integer"),
    (lambda o, u: pl.estimate_bilinear_norm(o, u, v_count=0),
     "v_count must be >= 1"),
    (lambda o, u: pl.estimate_bilinear_norm(o, u, seed=-1),
     "seed must be >= 0"),
    (lambda o, u: pl.estimate_bilinear_norm(o, [u, u], seed=[1, 2.5]),
     "seed must be an integer"),
    (lambda o, u: pl.validate_oracle(o, seed=2.5), "seed must be an integer"),
    (lambda o, u: pl.validate_oracle(o, seed=True), "seed must be an integer"),
    (lambda o, u: pl.SamplingPlan(radii=(1.0, 1.0)),
     "radii must be increasing"),
    (lambda o, u: pl.estimate_bilinear_norm(o, np.ones((3, len(u))),
                                            seed=[1, 2]),
     r"seed must be one integer or one per point \(3 points\)"),
    (lambda o, u: pl.check_report(o, _plan(radii=(1.0,)), lambda0="x"),
     "lambda0 must be positive and finite, got 'x'"),
    (lambda o, u: pl.SamplingPlan(radii=5),
     "radii must be a list of positive numbers, got 5"),
    (lambda o, u: pl.SamplingPlan(radii=("a", 2.0)),
     "radii must be finite numbers"),
    (lambda o, u: pl.estimate_bilinear_norm(o, np.append(u, 0.1)),
     r"u must have length 6, got \(7,\)"),
    (lambda o, u: pl.estimate_bilinear_norm(o, np.ones((0, len(u)))),
     "u must hold at least one point"),
], ids=["v_count-float", "v_count-zero", "seed-negative", "seed-float-row",
        "validate-seed-float", "validate-seed-bool", "radii-repeated",
        "seed-row-too-short", "lambda0-string", "radii-scalar",
        "radii-string", "point-wrong-length", "points-empty"])
def test_sampling_inputs_raise_configuration_error(call, message):
    o = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 3)
    with pytest.raises(ConfigurationError, match=message):
        call(o, np.full(o.dim_domain, 0.1))


def test_power_law_xi():
    xi = pl.PowerLawXi(c=2.0, p=0.5)
    assert xi(4.0) == pytest.approx(4.0)
    with pytest.raises(InvalidXi):
        pl.PowerLawXi(c=2.0, p=1.5)
    with pytest.raises(InvalidXi):
        pl.PowerLawXi(c=-1.0, p=1.0)


def test_power_law_xi_overflows_to_inf():
    """xi is evaluated in float64: a value past the largest float is inf,
    not an OverflowError, and raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pl.PowerLawXi(1.0, -2000.0)(0.5) == np.inf


@pytest.mark.parametrize("c, p", [(np.nan, 1.0), (np.inf, 1.0),
                                  (1.0, np.nan), (1.0, -np.inf),
                                  ("a", 1.0), (1.0, "a"), ([1.0, 2.0], 1.0),
                                  (1.0, [0.5, 1.0])])
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


def test_zero_map_samples_are_all_singular_and_skipped():
    rep = pl.check_report(pl.LinearMap(np.zeros((1, 2))),
                          pl.SamplingPlan((1, 2), 2, 2))
    assert rep.singular_samples == 4
    assert rep.skipped_samples == 8
    assert [sh.singular_found for sh in rep.shells] == [2, 2]
    assert [sh.skipped for sh in rep.shells] == [4, 4]
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
    got = pl.estimate_bilinear_norm(o, u, v_count=2, seed=0)
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


def _record_stacks(oracle):
    """Make the oracle record the member count of each
    ``jacobian_derivative_many`` call."""
    sizes = []
    method = oracle.jacobian_derivative_many

    def recorded(us, vs):
        sizes.append(len(us))
        return method(us, vs)
    oracle.jacobian_derivative_many = recorded
    return sizes


def test_estimator_stacks_its_starts_and_each_sweep():
    o = pl.endpoint_problem("unicycle", [0.1, -0.2, 0.3], 1.0, 4)
    rng = np.random.default_rng(2)
    u = rng.uniform(-1.0, 1.0, o.dim_domain)
    for v_count in (1, 3):
        sizes = _record_stacks(o)
        counts = _count_calls(o, "jacobian_derivative", "second_operator",
                              "bilinear_second")
        pl.estimate_bilinear_norm(o, u, v_count=v_count, seed=3)
        # every start in one stack, then one member per sweep
        starts, *sweeps = sizes
        assert starts == v_count
        assert 1 <= len(sweeps) <= hyp.POWER_ITERATIONS
        assert sweeps == [1] * len(sweeps)
        assert counts == dict.fromkeys(counts, 0)
    # points in lockstep: all starts in one stack, then each sweep over
    # the points still sweeping
    us = rng.uniform(-1.0, 1.0, (4, o.dim_domain))
    sizes = _record_stacks(o)
    pl.estimate_bilinear_norm(o, us, v_count=2, seed=[5, 6, 7, 8])
    starts, *sweeps = sizes
    assert starts == 8 and 1 <= len(sweeps) <= hyp.POWER_ITERATIONS
    assert sweeps[0] == 4 and all(a >= b >= 1
                                  for a, b in zip(sweeps, sweeps[1:]))
    # a zero form is not swept at all
    flat = pl.LinearMap(np.ones((2, 4)))
    sizes = _record_stacks(flat)
    counts = _count_calls(flat, "jacobian_derivative")
    assert pl.estimate_bilinear_norm(flat, np.ones(4), v_count=3) == 0.0
    assert sizes == [3] and counts["jacobian_derivative"] == 3


def test_check_report_stacks_one_second_differential_per_pair():
    o = pl.endpoint_problem("brockett", [0.1, -0.2, 0.3], 1.0, 4)
    plan = _plan(per_radius=2, z_samples=3)
    sizes = _record_stacks(o)
    counts = _count_calls(o, "jacobian", "second_operator",
                          "jacobian_derivative")
    rows = []
    real = o.jacobian_many
    o.jacobian_many = lambda us: rows.append(len(us)) or real(us)
    rep = pl.check_report(o, plan, xi=pl.PowerLawXi(c=1.0, p=0.5))
    samples = len(plan.radii) * plan.per_radius
    pairs = samples * plan.z_samples - rep.skipped_samples
    # one J per plan point, all in one jacobian_many, gives its Gramian
    # and its z samples' switching functions; none is asked for again
    assert rows == [samples]
    assert counts["jacobian"] == 0
    assert counts["second_operator"] == counts["jacobian_derivative"] == 0
    # the estimator's starts of every point, its sweeps over the points
    # still sweeping, then every non-degenerate (u, z) pair in one stack
    starts, *sweeps, switching = sizes
    assert starts == samples * plan.z_samples
    assert 1 <= len(sweeps) <= hyp.POWER_ITERATIONS
    assert sweeps[0] == samples and all(a >= b >= 1
                                        for a, b in zip(sweeps, sweeps[1:]))
    assert switching == pairs
    assert samples * (plan.z_samples + 1) <= starts + sum(sweeps) <= (
        samples * (plan.z_samples + hyp.POWER_ITERATIONS))


def _dense_forms(o, u):
    """The z-components of the form in X-orthonormal coordinates, (n, N,
    N): the full Hessian from N unit-vector members of one stack."""
    scale = 1.0 / np.sqrt(o.weights)
    big_n = o.dim_domain
    rows = o.jacobian_derivative_many(np.repeat(u[None], big_n, axis=0),
                                      np.eye(big_n))
    forms = rows.transpose(1, 0, 2) * scale[:, None] * scale
    return 0.5 * (forms + forms.transpose(0, 2, 1))


def _brockett_bound(o, u):
    """max |eig(W^-1/2 H_3 W^-1/2)|: Brockett's first two components are
    linear, so C is the norm of the third component's Hessian form."""
    return float(np.max(np.abs(np.linalg.eigvalsh(_dense_forms(o, u)[2]))))


def _dense_bound(o, u, starts=16):
    """sup |z^* d2F(v, v)| over unit z and v on the dense forms: from each
    of ``starts`` seeded z, the higher-order power method run to
    convergence (v the top |eigenvector| of sum_i z_i H_i, then z along
    (v^T H_i v)_i), and the best of them."""
    forms = _dense_forms(o, u)
    best = 0.0
    for z in np.random.default_rng(0).standard_normal((starts, len(forms))):
        z, value = z / np.linalg.norm(z), -1.0
        for _ in range(20000):
            lam, vecs = np.linalg.eigh(np.tensordot(z, forms, 1))
            top = np.argmax(np.abs(lam))
            if abs(lam[top]) <= value * (1.0 + 1e-15):
                break
            value, v = abs(lam[top]), vecs[:, top]
            z = forms @ v @ v
            z /= np.linalg.norm(z)
        best = max(best, value)
    return best


def _plain_power_method(o, u, v_count, seed):
    """The estimate of plain alternating maximisation, the loop-form
    reference the subspace steps must never fall below: from the best
    start, each sweep's top right singular vector is the next v."""
    scale = 1.0 / np.sqrt(o.weights)

    def sweep(vs):
        _, sigma, vt = np.linalg.svd(
            o.jacobian_derivative_many(np.repeat(u[None], len(vs), axis=0),
                                       vs) * scale, full_matrices=False)
        return sigma[:, 0], vt[:, 0] * scale

    rng = np.random.default_rng([seed, 7])
    sigma, vs = sweep([hyp._unit(rng, o.dim_domain, o.norm)
                       for _ in range(v_count)])
    sigma, v = sigma[np.argmax(sigma)], vs[np.argmax(sigma)]
    best = 0.0
    for _ in range(hyp.POWER_ITERATIONS):
        if not sigma > best * (1.0 + 1e-12):
            break
        best = sigma
        (sigma,), (v,) = sweep([v])
    return max(best, sigma)


@pytest.mark.parametrize("segments", [6, 10, 20, 40])
def test_estimate_bilinear_norm_reaches_the_brockett_bound(segments):
    o = pl.endpoint_problem("brockett", [0.1, -0.2, 0.3], 1.0, segments)
    u = np.random.default_rng(segments).uniform(-1.0, 1.0, o.dim_domain)
    exact = _brockett_bound(o, u)
    for seed in range(10):
        for v_count in (1, 2, 8):
            got = pl.estimate_bilinear_norm(o, u, v_count=v_count, seed=seed)
            assert got == pytest.approx(exact, rel=1e-9)
            assert got <= exact * (1.0 + 1e-12)


@pytest.mark.parametrize("segments", [6, 10])
def test_unicycle_c_est_reaches_the_dense_bound(segments):
    """Unicycle's form has nearly equal competing maxima, where plain
    alternation crawls: its 12 sweeps left C_est 3e-6 (6 segments) and
    0.57% (10 segments) below the dense bound here.  The
    Rayleigh-Ritz steps over the visited directions reach the dense
    supremum at the best plan point, and no point's estimate falls below
    what the plain sweeps get."""
    o = pl.endpoint_problem("unicycle", [0.0, 0.0, 0.0], 1.0, segments)
    plan = _plan(radii=(0.5, 1.0, 2.0), per_radius=2, z_samples=2)
    rep = pl.check_report(o, plan)
    points = [hyp._sample_u(o, plan, si, k) for si in range(3)
              for k in range(2)]
    exact = max(_dense_bound(o, u) for u in points)
    assert rep.c_est == pytest.approx(exact, rel=1e-9)
    for k, u in enumerate(points):
        seed = plan.seed + 104729 * (k // 2) + 1299721 * (k % 2)
        got = pl.estimate_bilinear_norm(o, u, v_count=2, seed=seed)
        assert got >= _plain_power_method(o, u, 2, seed) * (1.0 - 1e-12)


def test_sphere_bilinear_bound_is_two():
    o = pl.SphereMap(4, weights=[0.5, 1.0, 2.0, 3.0])
    rep = pl.check_report(o, _plan(z_samples=2))
    assert rep.c_est == pytest.approx(2.0, abs=1e-12)
    assert all(sh.c_max == pytest.approx(2.0, abs=1e-12)
               for sh in rep.shells)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["unicycle", "fold", "sphere"]),
       segments=st.integers(4, 10), seed=st.integers(0, 2**32 - 1))
def test_estimate_bilinear_norm_bounds_every_sampled_value(kind, segments,
                                                           seed):
    """The sweeps climb from the best start to a local maximum of the
    form, which no randomly sampled unit triple should beat."""
    rng = np.random.default_rng(seed)
    if kind == "unicycle":
        o = pl.endpoint_problem("unicycle", rng.uniform(-0.5, 0.5, 3), 1.0,
                                segments)
    elif kind == "fold":
        o = pl.FoldMap(weights=rng.uniform(0.5, 2.0, 2))
    else:
        o = pl.SphereMap(3, weights=rng.uniform(0.5, 2.0, 3))
    u = rng.uniform(-1.0, 1.0, o.dim_domain)
    got = pl.estimate_bilinear_norm(o, u, v_count=2, seed=seed)
    sampled = max(
        abs(o.bilinear_second(u, hyp._unit(rng, o.dim_codomain),
                              hyp._unit(rng, o.dim_domain, o.norm),
                              hyp._unit(rng, o.dim_domain, o.norm)))
        for _ in range(32))
    assert got >= sampled * (1.0 - 1e-12)


def test_check_report_decomposes_and_evaluates_each_plan_point_once(
        monkeypatch):
    o = pl.endpoint_problem("brockett", [0.1, -0.2, 0.3], 1.0, 4)
    plan = _plan(per_radius=2, z_samples=2)
    counts = _count_calls(o, "eval_many", "jacobian_many")
    decompositions = []
    real = spectrum.spectral_decompose

    def counting(*args, **kwargs):
        decompositions.append(1)
        return real(*args, **kwargs)

    # check_report decomposes through its own module's binding
    monkeypatch.setattr(hyp, "spectral_decompose", counting)
    pl.check_report(o, plan)
    assert len(decompositions) == len(plan.radii) * plan.per_radius
    assert counts == {"eval_many": 0, "jacobian_many": 1}


@pytest.mark.parametrize("o", [
    pl.SphereMap(3), pl.FoldMap(),
    pl.LinearMap([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])],
    ids=["sphere", "fold", "linear"])
def test_check_report_takes_one_jacobian_per_plan_point(o):
    # an analytic map keeps nothing, so each J asked for is formed again:
    # the Gramians and the switching functions read one J per point
    plan = _plan(radii=(0.5, 1.0, 2.0), per_radius=2, z_samples=2)
    counts = _count_calls(o, "jacobian")
    pl.check_report(o, plan)
    assert counts["jacobian"] == len(plan.radii) * plan.per_radius == 6


def test_check_report_forms_each_plan_points_jacobian_once():
    """The oracle keeps each plan point's linearization with its J, so the
    Gramians, the switching functions and every second-variation pass
    (C_est sweeps, coercivity samples) read it: ``partials`` is evaluated
    at each plan point's stage states once."""
    base = pl.make_system("unicycle")
    points = [0]

    def partials(x, u):
        points[0] += int(np.prod(np.shape(x)[:-1]))
        return base.partials(x, u)

    grid = pl.ControlGrid(horizon=1.0, segments=6, control_dim=2)
    o = pl.EndpointOracle(dataclasses.replace(base, partials=partials),
                          [0.1, -0.2, 0.3], grid)
    plan = _plan(radii=(0.5, 1.0, 2.0), per_radius=1, z_samples=2)
    pl.check_report(o, plan)
    stage_rows = grid.segments * grid.substeps * 4
    assert points[0] == len(plan.radii) * plan.per_radius * stage_rows


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
    # 1 / lambda_1 = 1 / (4 r^2) on the sphere; every sample of the zero
    # map is singular, so its shells read 0 and drop out of the fit
    sphere = pl.check_report(pl.SphereMap(3), _plan(radii=(1.0, 2.0)))
    zero = pl.check_report(pl.LinearMap(np.zeros((1, 3))),
                           _plan(radii=(1.0, 2.0)))
    shell_max = [sh.inv_gramian_max for sh in sphere.shells]
    assert shell_max[0] == pytest.approx(1.0 / 4.0, rel=1e-10)
    assert shell_max[1] == pytest.approx(1.0 / 16.0, rel=1e-10)
    assert [sh.singular_found for sh in sphere.shells] == [0, 0]
    assert [sh.inv_gramian_max for sh in zero.shells] == [0.0, 0.0]
    assert [sh.singular_found for sh in zero.shells] == [6, 6]
    slope, intercept, passed = pl.gramian_inverse_growth(
        np.array([1.0, 2.0]), np.array(shell_max))
    assert (slope, intercept, passed) == (
        sphere.growth_slope, sphere.growth_intercept, sphere.growth_pass)
    assert slope == pytest.approx(np.log(0.25) / np.log(1.5), rel=1e-10)
    assert passed
    # a shell with no regular sample is left out of the fit
    assert pl.gramian_inverse_growth(
        np.array([1.0, 1.5, 2.0]),
        np.array([shell_max[0], 0.0, shell_max[1]])) == (
            slope, intercept, passed)
    assert pl.gramian_inverse_growth(
        np.array([1.0, 2.0]), np.array([0.0, 0.25])) == (
            0.0, float(np.log(0.25)), True)


# -- stacked second differentials against loop-form references --------------

_KINDS = ["brockett", "unicycle", "lti", "sphere", "fold"]


def _problem(kind, segments=6):
    if kind == "sphere":
        return pl.SphereMap(3, weights=[0.5, 1.0, 2.0])
    if kind == "fold":
        return pl.FoldMap(weights=[0.7, 1.3])
    if kind == "zero":
        return pl.LinearMap(np.zeros((1, 2)))
    if kind == "lti":
        return pl.endpoint_problem(
            "lti", [1.0, -0.5], 1.0, segments,
            system_params={"A": [[0.0, 1.0], [-2.0, -0.3]],
                           "B": [[0.0], [1.0]]})
    return pl.endpoint_problem(kind, [0.1, -0.2, 0.3], 1.0, segments)


@pytest.mark.parametrize("kind", _KINDS)
def test_stacked_estimate_equals_per_point_calls(kind):
    o = _problem(kind)
    us = np.random.default_rng(len(kind)).uniform(-1.0, 1.0,
                                                  (5, o.dim_domain))
    us[4] = us[1]
    seeds = [3, 1, 4, 1, 5]
    got = pl.estimate_bilinear_norm(o, us, v_count=3, seed=seeds)
    fresh = _problem(kind)
    assert got.tolist() == [
        pl.estimate_bilinear_norm(fresh, u, v_count=3, seed=s)
        for u, s in zip(us, seeds)]


def _finite_or_nan(x):
    return float(x) if np.isfinite(x) else np.nan


def _check_report_reference(o, plan, lambda0, xi):
    """check_report's shell rows and aggregates from loops: per plan point
    one Gramian decomposition and one estimate, and per (u, z) one
    switching function W^-1 J^T z and one second_operator call."""
    rows, fit, log_r, log_ratio, log_phi = [], [], [], [], []
    for si, r in enumerate(plan.radii):
        c_max, k_min, xi_min, skipped = 0.0, np.inf, np.inf, 0
        inv_max, gap, singular = 0.0, np.inf, 0
        for k in range(plan.per_radius):
            u = hyp._sample_u(o, plan, si, k)
            spec = pl.spectral_decompose(pl.gramian(o, u))
            gap = min(gap, spec.floor - lambda0)
            if spec.singular:
                singular += 1
            else:
                inv_max = max(inv_max, 1.0 / float(spec.lambdas[0]))
            c_max = max(c_max, pl.estimate_bilinear_norm(
                o, u, v_count=plan.z_samples,
                seed=plan.seed + 104729 * si + 1299721 * k))
            for j in range(plan.z_samples):
                z = hyp._sample_z(o, plan, si, k, j)
                phi = (o.jacobian(u).T @ z) / o.weights
                nphi2 = o.inner(phi, phi)
                if nphi2 <= hyp.DEGENERATE_SWITCHING ** 2:
                    skipped += 1
                    continue
                ratio = abs(o.inner(phi, o.second_operator(u, z, phi))) / nphi2
                nphi = float(np.sqrt(nphi2))
                k_min = min(k_min, ratio)
                if xi is not None:
                    xi_min = min(xi_min, ratio * nphi * xi(o.norm(u)) ** 2)
                log_r.append(np.log(r))
                log_ratio.append(np.log(max(ratio, 1e-300)))
                log_phi.append(np.log(max(nphi, 1e-300)))
        rows.append((r, plan.per_radius, skipped, c_max,
                     _finite_or_nan(k_min), _finite_or_nan(xi_min), inv_max,
                     gap, singular))
        if inv_max > 0.0:
            fit.append((np.log1p(r), np.log(inv_max)))
    if len(fit) >= 2:
        slope, intercept = np.polyfit(*zip(*fit), 1)
    else:
        slope, intercept = 0.0, fit[0][1] if fit else -np.inf
    alpha = 1.0
    if len(set(log_r)) > 1:
        alpha += float(np.polyfit(log_r, log_ratio, 1)[0])
    k1 = float(np.exp(min(a + (1.0 - alpha) * b
                          for a, b in zip(log_ratio, log_r)))) \
        if log_r else 0.0
    k2 = float(np.exp(min(a + (1.0 + alpha) * b
                          for a, b in zip(log_phi, log_r)))) \
        if log_r else 0.0
    k_est = min(row[4] for row in rows if np.isfinite(row[4])) \
        if log_r else 0.0
    xi_margin_min = _finite_or_nan(min(row[5] for row in rows))
    gap = min(row[7] for row in rows)
    aggregates = (
        max(row[3] for row in rows), k_est, xi_margin_min,
        xi is None or xi_margin_min >= 1.0, float(slope), float(intercept),
        bool(slope <= hyp.GROWTH_SLOPE_LIMIT + hyp.GROWTH_SLOPE_TOL), gap,
        gap >= 0.0, alpha, k1, k2, sum(row[2] for row in rows),
        sum(row[8] for row in rows))
    return rows, aggregates


@pytest.mark.parametrize("kind", _KINDS + ["zero"])
def test_check_report_equals_the_per_pair_loops(kind):
    # every sample of the zero map is singular and skipped, so its xi
    # margin has no sample and must not pass
    plan = _plan(radii=(0.5, 1.0, 2.0), per_radius=2, z_samples=3, seed=4)
    xi = pl.PowerLawXi(c=1.3, p=0.6)
    rep = pl.check_report(_problem(kind), plan, xi=xi)
    rows, aggregates = _check_report_reference(_problem(kind), plan,
                                               rep.lambda0, xi)
    np.testing.assert_array_equal(
        [dataclasses.astuple(sh) for sh in rep.shells], rows)
    np.testing.assert_array_equal(
        (rep.c_est, rep.k_est, rep.xi_margin_min, rep.xi_pass,
         rep.growth_slope, rep.growth_intercept, rep.growth_pass,
         rep.gap_margin, rep.gap_pass, rep.remark_alpha, rep.remark_k1,
         rep.remark_k2, rep.skipped_samples, rep.singular_samples),
        aggregates)
    if kind == "zero":
        assert not rep.xi_pass and np.isnan(rep.xi_margin_min)


def _symmetry_reference(oracle, seed):
    """The validate symmetry row's worst value from one second_operator
    call per (u, z, direction), sample by sample over the sample table:
    every pair of directions at each base point, each with its own z."""
    worst = 0.0
    for u, directions, zs in zip(*pl.oracle_checks.sample_table(oracle,
                                                                  seed)):
        for i, j, z in zip(*pl.oracle_checks.PAIRS, zs):
            v, w = directions[i], directions[j]
            bv = oracle.second_operator(u, z, v)
            bw = oracle.second_operator(u, z, w)
            scale = max(oracle.norm(bv) * oracle.norm(w),
                        oracle.norm(bw) * oracle.norm(v))
            if scale > 0.0:
                worst = max(worst, abs(oracle.inner(bv, w)
                                       - oracle.inner(bw, v)) / scale)
    return worst


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("seed", [1, 6])
def test_second_symmetry_equals_the_per_draw_loop(kind, seed):
    row = pl.validate_oracle(_problem(kind), seed=seed)[2]
    assert row.name == "second-differential symmetry"
    assert 5 * len(pl.oracle_checks.PAIRS[0]) >= 20     # samples checked
    assert row.worst == _symmetry_reference(_problem(kind), seed)
