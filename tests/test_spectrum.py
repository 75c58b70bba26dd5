"""Gramian spectrum, diagnostics, and derivative formulas."""

import logging
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import pathlift as pl
from pathlift import spectrum
from pathlift.errors import ConfigurationError, GapViolation, NumericalError
from pathlift.spectrum import DEGENERACY_REL, GramianSpectrum


def test_gramian_matches_definition():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((3, 6))
    w = rng.uniform(0.5, 2.0, 6)
    o = pl.LinearMap(mat, weights=w)
    G = pl.gramian(o, np.zeros(6))
    np.testing.assert_allclose(G, (mat / w) @ mat.T, atol=1e-12)
    np.testing.assert_allclose(G, G.T)


def test_spectral_decompose_orders_and_normalizes():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    G = a @ a.T
    spec = pl.spectral_decompose(G)
    assert np.all(np.diff(spec.lambdas) >= -1e-12)
    np.testing.assert_allclose(spec.vectors.T @ spec.vectors, np.eye(4),
                               atol=1e-12)
    recon = spec.vectors @ np.diag(spec.lambdas) @ spec.vectors.T
    np.testing.assert_allclose(recon, G, atol=1e-10)


def test_spectral_decompose_sign_continuity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    G = a @ a.T
    spec = pl.spectral_decompose(G)
    bumped = pl.spectral_decompose(G + 1e-6 * np.eye(3), prev=spec)
    for i in range(3):
        assert np.dot(spec.vectors[:, i], bumped.vectors[:, i]) > 0.99


def test_spectral_decompose_rejects_bad_input():
    with pytest.raises(NumericalError):
        pl.spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NumericalError):
        pl.spectral_decompose(np.array([[-1.0, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("grammat, prev, shape", [
    (np.ones((2, 3)), None, r"\(2, 3\)"),
    (np.ones(3), None, r"\(3,\)"),
    (np.ones((0, 0)), None, r"\(0, 0\)"),
    (np.ones((1, 2, 2)), None, r"\(1, 2, 2\)"),
    (np.eye(2), pl.spectral_decompose(np.diag([1.0, 2.0, 3.0])),
     r"\(3, 3\)"),
], ids=["2x3", "vector", "empty", "stacked", "prev-of-3"])
def test_spectral_decompose_names_a_bad_shape(grammat, prev, shape):
    # a caller's shape error, not a numerical failure or a bare numpy one
    with pytest.raises(ConfigurationError, match=shape):
        pl.spectral_decompose(grammat, prev)


def _spectral_reference(grammat, prev=None):
    """``spectral_decompose`` with numpy reductions throughout, which the
    Python-float checks must equal bit for bit.  Without ``prev`` it keeps
    the eigenvector signs ``eigh`` returns; see ``_canonical``."""
    grammat = np.asarray(grammat, dtype=float)
    if not np.all(np.isfinite(grammat)):
        raise NumericalError("Gramian is not finite")
    scale = max(1.0, float(np.max(np.abs(grammat))))
    if np.max(np.abs(grammat - grammat.T)) > 1e-12 * scale:
        raise NumericalError("Gramian is not symmetric")
    # a matrix equal to its transpose bit for bit goes as it is: halving
    # first is exact only above the subnormal range
    if np.any(grammat.view(np.int64) != grammat.T.view(np.int64)):
        grammat = 0.5 * grammat + 0.5 * grammat.T
    try:
        lambdas, vectors = np.linalg.eigh(grammat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if not np.all(np.isfinite(lambdas)):
        raise NumericalError("Gramian eigenvalues are not finite")
    norm = max(1.0, float(np.max(np.abs(lambdas))))
    if lambdas[0] < -1e-10 * norm:
        raise NumericalError(
            f"Gramian not PSD: least eigenvalue {lambdas[0]:.3e}")
    if prev is not None:
        for i in range(len(lambdas)):
            if np.dot(vectors[:, i], prev.vectors[:, i]) < 0.0:
                vectors[:, i] = -vectors[:, i]
    spec = GramianSpectrum(lambdas=lambdas, vectors=vectors)
    spec.degenerate = bool(np.any(np.diff(lambdas[1:])
                                  < DEGENERACY_REL * norm))
    return spec


def _canonical(vectors):
    """Each column flipped so that its largest-magnitude component, the
    first on a tie, is positive."""
    cols = np.arange(vectors.shape[1])
    signs = np.where(vectors[np.argmax(np.abs(vectors), axis=0), cols] < 0,
                     -1.0, 1.0)
    return vectors * signs


DEGENERATE_RECORD = ("degenerate eigenvalues above lambda_1; eigenbasis "
                     "choice is arbitrary there")


def _outcome(decompose, grammat, prev):
    """(spectrum or None, error message or None, the messages logged under
    ``pathlift.spectrum``); a warning is an error."""
    logged = []
    handler = logging.Handler()
    handler.emit = lambda record: logged.append(record.getMessage())
    logger = logging.getLogger("pathlift.spectrum")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                spec, error = decompose(grammat.copy(), prev=prev), None
            except NumericalError as exc:
                spec, error = None, str(exc)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return spec, error, logged


def _assert_same_outcome(grammat, prev):
    spec, error, logged = _outcome(pl.spectral_decompose, grammat, prev)
    ref, ref_error, _ = _outcome(_spectral_reference, grammat, prev)
    assert error == ref_error
    degenerate = ref is not None and ref.degenerate
    # one DEBUG record where the reference finds a tie above lambda_1
    assert logged == [DEGENERATE_RECORD] * degenerate
    if ref is not None:
        expect = ref.vectors if prev is not None else _canonical(ref.vectors)
        assert spec.lambdas.tobytes() == ref.lambdas.tobytes()
        assert spec.vectors.tobytes() == expect.tobytes()
        assert spec.degenerate == degenerate
    return error or (degenerate and "degenerate") or "regular"


def _orthogonal(a):
    q, _ = np.linalg.qr(a)
    return q


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_spectral_decompose_equals_spectral_reference(data):
    n = data.draw(st.integers(1, 4))
    entries = st.floats(-3.0, 3.0, allow_nan=False)
    a = data.draw(arrays(float, (n, n + data.draw(st.integers(0, 2))),
                         elements=entries))
    grammat = (a @ a.T) * data.draw(st.sampled_from([1e-8, 1.0, 1e6]))
    kind = data.draw(st.sampled_from(["psd", "tied", "asym", "shift"]))
    if kind == "tied" and n > 2:
        # one eigenvalue repeated above lambda_1, rotated off the axes
        lam = np.sort(data.draw(arrays(float, n, elements=st.floats(
            0.0, 3.0, allow_nan=False))))
        lam[2:] = lam[1]
        q = _orthogonal(data.draw(arrays(float, (n, n), elements=entries))
                        + 4.0 * np.eye(n))
        grammat = 0.5 * ((q * lam) @ q.T + ((q * lam) @ q.T).T)
    elif kind == "asym" and n > 1:
        # straddles the 1e-12 relative symmetry tolerance
        scale = max(1.0, float(np.max(np.abs(grammat))))
        grammat[0, n - 1] += scale * data.draw(st.floats(1e-14, 1e-10))
    elif kind == "shift":
        # straddles the -1e-10 relative PSD tolerance
        norm = max(1.0, float(np.max(np.abs(grammat))))
        grammat = grammat - norm * data.draw(
            st.floats(1e-12, 1e-8)) * np.eye(n)
    prev = None
    if data.draw(st.booleans()):
        q = _orthogonal(data.draw(arrays(float, (n, n), elements=entries))
                        + 4.0 * np.eye(n))
        prev = GramianSpectrum(lambdas=np.zeros(n), vectors=q)
    event(_assert_same_outcome(grammat, prev).split(":")[0])
    event("with prev" if prev is not None else "canonical")


@pytest.mark.parametrize("grammat, message", [
    (np.array([[1.0, 1e-9], [0.0, 1.0]]), "Gramian is not symmetric"),
    (np.diag([-1e-9, 1.0]), "Gramian not PSD: least eigenvalue -1.000e-09"),
    (np.diag([0.5, 2.0, 2.0]), "degenerate eigenvalues above lambda_1"),
    # max(1, |G|) alone would read 1 for a NaN entry and pass it on
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "Gramian is not finite"),
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), "Gramian is not finite"),
])
def test_spectral_reference_pins_the_warning_and_the_raises(grammat,
                                                             message):
    prev_spec = pl.spectral_decompose(np.diag(np.arange(len(grammat)) + 1.0))
    for prev in (None, prev_spec):
        spec, error, logged = _outcome(pl.spectral_decompose, grammat, prev)
        assert message in (error or "") + "".join(logged)
        # a tie above lambda_1 is a spectrum that reads degenerate, not an
        # error
        assert (error is None and spec.degenerate) == (
            message == "degenerate eigenvalues above lambda_1")
        _assert_same_outcome(grammat, prev)


def test_canonical_sign_takes_the_first_of_tied_components():
    # both components of each eigenvector tie in magnitude, bit for bit
    spec = pl.spectral_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.all(spec.vectors[0] > 0.0)
    np.testing.assert_array_equal(spec.vectors,
                                  _canonical(spec.vectors.copy()))
    spec = pl.spectral_decompose(np.diag([2.0, 1.0]))
    np.testing.assert_array_equal(spec.vectors, [[0.0, 1.0], [1.0, 0.0]])


def test_singular_flag_threshold():
    spec = pl.spectral_decompose(np.diag([1e-12, 1.0]))
    assert spec.singular
    spec = pl.spectral_decompose(np.diag([1e-6, 1.0]))
    assert not spec.singular


def test_degenerate_flags_a_tie_above_lambda_1():
    # relative to max(1, lambda_n), as the singular threshold is
    for grammat in (np.diag([0.5, 2.0, 2.0]), np.diag([0.5, 1e6, 1e6 + 1e-7]),
                    np.diag([1e-12, 0.3, 0.3, 4.0])):
        assert pl.spectral_decompose(grammat).degenerate
    # Brockett at the zero control: lambda_1 = 0 below lambda_2 = lambda_3
    o = pl.endpoint_problem("brockett", [0.0, 0.0, 0.0], 1.0, 10)
    assert pl.spectrum_at(o, np.zeros(o.dim_domain)).degenerate
    # distinct eigenvalues, a tie at lambda_1 itself, and n <= 2
    for grammat in (np.diag([0.5, 1.0, 2.0]), np.diag([0.5, 1.0, 1.0 + 1e-11]),
                    np.diag([1.0, 1.0, 2.0]), np.diag([0.0, 0.0, 1.0]),
                    np.eye(2), np.zeros((2, 2)), np.array([[3.0]])):
        assert not pl.spectral_decompose(grammat).degenerate


def test_spectrum_floor():
    # lambda_1 is exempt: the floor is the least of the others
    assert pl.spectral_decompose(np.diag([1e-12, 0.5, 2.0])).floor == 0.5
    assert pl.spectral_decompose(np.array([[0.3]])).floor == np.inf


def test_a_spectrum_without_its_jacobian_is_refused():
    # what needs J reads it from the spectrum, never from the oracle again
    o = pl.FoldMap()
    u = np.array([0.5, 0.1])
    bare = pl.spectral_decompose(pl.gramian(o, u))
    assert bare.jac is None
    assert pl.spectrum_at(o, u).jacobian().tobytes() == \
        o.jacobian(u).tobytes()
    for call in (lambda: pl.diagnostics(o, u, bare, np.ones(2)),
                 lambda: pl.gauss_newton_correct(o, u, [0.2, 0.3], 1e-10,
                                                 bare)):
        with pytest.raises(ConfigurationError,
                           match="^spectrum carries no Jacobian"):
            call()


def test_a_symmetric_matrix_goes_to_eigh_as_it_is():
    # 0.5 (G + G^T) would overflow above 2^1023 and hand eigh infinities
    grammat = np.array([[1.5e308, 1e307], [1e307, 1.2e308]])
    spec = pl.spectral_decompose(grammat)
    assert spec.lambdas.tobytes() == np.linalg.eigvalsh(grammat).tobytes()
    assert np.isfinite(spec.vectors).all()


def test_a_near_symmetric_matrix_above_2_1023_has_a_finite_spectrum():
    # symmetric only within the tolerance: 0.5 (G + G^T) overflowed here to
    # a NaN spectrum that passed every check and read regular
    grammat = np.array([[1.5e308, 1e307], [1e307 * (1 + 1e-15), 1.2e308]])
    assert grammat.tobytes() != grammat.T.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for prev in (None, pl.spectral_decompose(np.diag([1.0, 2.0]))):
            spec = pl.spectral_decompose(grammat, prev)
            assert np.isfinite(spec.lambdas).all()
            assert np.isfinite(spec.vectors).all()
            _assert_same_outcome(grammat, prev)


def test_non_finite_eigenvalues_are_a_numerical_error(monkeypatch):
    real, real_lapack = np.linalg.eigh, spectrum._umath_linalg.eigh_lo

    def nan_eigh(a):
        lambdas, vectors = real(a)
        return np.full_like(lambdas, np.nan), vectors

    def nan_lapack(a, signature):
        lambdas, vectors = real_lapack(a, signature=signature)
        return np.full_like(lambdas, np.nan), vectors

    # the LAPACK entry that spectral_decompose calls, and the public eigh
    # that the reference calls
    monkeypatch.setattr(spectrum, "_umath_linalg",
                        SimpleNamespace(eigh_lo=nan_lapack))
    monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
    for decompose in (pl.spectral_decompose, _spectral_reference):
        with pytest.raises(NumericalError,
                           match="^Gramian eigenvalues are not finite$"):
            decompose(np.diag([1.0, 2.0]))


def test_a_lapack_failure_is_a_numerical_error(monkeypatch):
    # LAPACK reports a failure through the invalid flag, which the
    # errstate of np.linalg.eigh turns into its LinAlgError, with no
    # RuntimeWarning
    real_lapack = spectrum._umath_linalg.eigh_lo

    def failing(a, signature):
        np.sqrt(np.array(-1.0))
        return real_lapack(a, signature=signature)

    monkeypatch.setattr(spectrum, "_umath_linalg",
                        SimpleNamespace(eigh_lo=failing))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^eigendecomposition "
                           "failed: Eigenvalues did not converge$"):
            pl.spectral_decompose(np.diag([1.0, 2.0]))


def test_coefficients_are_eigenbasis_components():
    rng = np.random.default_rng(3)
    o = pl.LinearMap(rng.standard_normal((3, 3)))
    u = np.zeros(3)
    spec = pl.spectrum_at(o, u)
    gd = rng.standard_normal(3)
    coef = pl.diagnostics(o, u, spec, gd).a
    np.testing.assert_allclose(spec.vectors @ coef, gd, atol=1e-12)


def test_sphere_diagnostics_closed_form():
    o = pl.SphereMap(2)
    u = np.array([0.6, 0.8])  # ||u|| = 1
    spec = pl.spectrum_at(o, u)
    d = pl.diagnostics(o, u, spec, np.array([-1.0]))
    assert spec.lambdas[0] == pytest.approx(4.0)
    assert d.h == pytest.approx(2.0)
    assert d.f == 0.0
    assert d.g == pytest.approx(-0.5)
    # d(lambda_1)/ds = 2 a1 h = -4 on the unit shell
    assert d.dlambda1_ds == pytest.approx(-4.0)


def test_fold_diagnostics_closed_form():
    o = pl.FoldMap()
    u = np.array([0.2, 0.0])  # G = diag(0.16, 1), lambda_1 branch = u1^2 axis
    spec = pl.spectrum_at(o, u)
    gd = np.array([0.5, 0.3])
    d = pl.diagnostics(o, u, spec, gd)
    assert spec.lambdas[0] == pytest.approx(0.16)
    assert abs(spec.vectors[0, 0]) == pytest.approx(1.0)
    assert d.h == pytest.approx(2.0)
    assert d.f == 0.0
    assert abs(d.g) == pytest.approx(0.5 / 0.4)
    assert d.dlambda1_ds == pytest.approx(np.sign(d.g) * 2.0)


def test_diagnostics_singular_state_is_nan():
    o = pl.SphereMap(2)
    u = np.array([1e-8, 0.0])
    spec = pl.spectral_decompose(pl.gramian(o, u))
    d = pl.diagnostics(o, u, spec, np.array([-1.0]))
    assert spec.singular
    assert np.isnan(d.g) and np.isnan(d.h) and np.isnan(d.dlambda1_ds)


def test_diagnostics_rejects_corank_two():
    rng = np.random.default_rng(4)
    o = pl.LinearMap(np.vstack([np.zeros((2, 4)),
                                rng.standard_normal((1, 4))]))
    u = np.zeros(4)
    spec = pl.spectral_decompose(pl.gramian(o, u))
    with pytest.raises(GapViolation):
        pl.diagnostics(o, u, spec, rng.standard_normal(3))


def test_dlambda1_formula_matches_fd():
    # move along the lifting direction and difference lambda_1 directly
    o = pl.FoldMap()
    u = np.array([0.25, 0.1])
    spec = pl.spectrum_at(o, u)
    gd = np.array([0.7, -0.4])
    d = pl.diagnostics(o, u, spec, gd)
    udot, g = pl.ple_rhs(o, u, gd)
    assert g == abs(d.g)
    eps = 1e-6
    lp = pl.spectral_decompose(pl.gramian(o, u + eps * udot)).lambdas[0]
    lm = pl.spectral_decompose(pl.gramian(o, u - eps * udot)).lambdas[0]
    assert d.dlambda1_ds == pytest.approx((lp - lm) / (2 * eps), rel=1e-6)


_GRAMIAN_ORACLES = {
    # name -> (oracle, point, FD step, atol, rtol)
    "fold": (lambda: pl.FoldMap(), [0.4, -0.2], 1e-6, 1e-9, 1e-7),
    "weighted-sphere": (lambda: pl.SphereMap(3, weights=[0.5, 2.0, 3.0]),
                        [0.7, -0.3, 0.2], 1e-6, 1e-9, 1e-7),
    "linear": (lambda: pl.LinearMap(
        np.random.default_rng(3).standard_normal((2, 4)),
        weights=[0.5, 1.0, 2.0, 4.0]), [0.1, 0.2, -0.3, 0.4], 1e-6, 1e-12,
        0.0),
    "unicycle": (lambda: pl.endpoint_problem(
        "unicycle", [0.0, 0.0, 0.0], 1.0, 4), None, 1e-5, 1e-5, 1e-4),
    "brockett": (lambda: pl.endpoint_problem(
        "brockett", [0.0, 0.0, 0.0], 1.0, 4), None, 1e-5, 1e-5, 1e-4),
}


@pytest.mark.parametrize("name", list(_GRAMIAN_ORACLES))
def test_gramian_derivative_action_matches_fd(name):
    build, point, eps, atol, rtol = _GRAMIAN_ORACLES[name]
    o = build()
    rng = np.random.default_rng(5)
    u = (0.5 * rng.standard_normal(o.dim_domain) if point is None
         else np.array(point))
    v = rng.standard_normal(o.dim_domain)
    z = rng.standard_normal(o.dim_codomain)
    # dG(v) z = dJ W^-1 J^T z + J W^-1 dJ^T z from the Jacobian derivative
    jac, djac, w = o.jacobian(u), o.jacobian_derivative(u, v), o.weights
    got = djac @ ((jac.T @ z) / w) + jac @ ((djac.T @ z) / w)
    Gp = pl.gramian(o, u + eps * v)
    Gm = pl.gramian(o, u - eps * v)
    np.testing.assert_allclose(got, ((Gp - Gm) / (2 * eps)) @ z,
                               atol=atol, rtol=rtol)


def test_normalized_switching_functions_orthonormal():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((3, 6))
    w = rng.uniform(0.5, 2.0, 6)
    o = pl.LinearMap(mat, weights=w)
    u = np.zeros(6)
    spec = pl.spectral_decompose(pl.gramian(o, u))
    phis = (o.jacobian(u).T / w[:, None]) @ spec.vectors
    vs = phis / np.sqrt(spec.lambdas)[None, :]
    gram = vs.T @ (w[:, None] * vs)
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)
