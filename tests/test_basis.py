import numpy as np
import pytest

from analogcast.basis import (
    BasisSet,
    cca_from_coefficients,
    compute_cca,
    compute_eof,
    compute_meof,
    load_basis,
    project,
    save_basis,
)
from analogcast.data import FieldSeries
from analogcast.errors import ConfigError, DataError, NumericError
from oracles import normal_equations_fit, reconstruct


def _anom_field(seed, n_loc=20, n_time=50, lon0=0.0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_loc, n_time))
    values -= values.mean(axis=1, keepdims=True)
    coords = np.array([[lon0 + float(i % 5), float(i // 5)] for i in range(n_loc)])
    return FieldSeries(values, coords, np.arange(1, n_time + 1))


def test_eof_truncation_error_matches_trailing_spectrum():
    # Eckart-Young: the rank-p reconstruction residual equals the sum of
    # the trailing eigenvalues of Y Y'.  The oracle uses eigh, not svd.
    f = _anom_field(0)
    evals = np.linalg.eigvalsh(f.values @ f.values.T)[::-1]
    for p in (1, 3, 7):
        b = compute_eof(f, p)
        resid = f.values - b.matrix @ (b.matrix.T @ f.values)
        assert np.isclose((resid**2).sum(), evals[p:].sum(), rtol=1e-8)
        assert np.isclose(
            b.explained_variance.sum(), evals[:p].sum() / evals.sum(), rtol=1e-8
        )


def test_eof_columns_orthonormal_and_sign_fixed():
    b = compute_eof(_anom_field(1), 6)
    assert np.allclose(b.matrix.T @ b.matrix, np.eye(6), atol=1e-10)
    idx = np.argmax(np.abs(b.matrix), axis=0)
    assert (b.matrix[idx, np.arange(6)] > 0).all()
    # Deterministic: a second call reproduces the matrix bit for bit.
    b2 = compute_eof(_anom_field(1), 6)
    assert np.array_equal(b.matrix, b2.matrix)


def test_eof_rank_deficiency_warns_and_zero_field_raises():
    rng = np.random.default_rng(2)
    low = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 30))
    f = FieldSeries(low, np.zeros((8, 2)), np.arange(30))
    with pytest.warns(UserWarning, match="rank deficient"):
        compute_eof(f, 3)
    zero = FieldSeries(np.zeros((4, 10)), np.zeros((4, 2)), np.arange(10))
    with pytest.raises(NumericError):
        compute_eof(zero, 2)
    with pytest.raises(ConfigError):
        compute_eof(_anom_field(3, n_loc=6), 7)  # p > n_loc


def test_projection_matches_normal_equations():
    f = _anom_field(4)
    b = compute_eof(f, 5)
    # Tilt the basis so least squares is exercised beyond Phi'y.
    tilted = BasisSet(
        matrix=b.matrix @ (np.eye(5) + 0.3 * np.triu(np.ones((5, 5)), 1)),
        coords=b.coords,
        kind="eof",
    )
    c = project(f, tilted)
    for j in (0, 17, 49):
        want = normal_equations_fit(tilted.matrix, f.values[:, j])
        assert np.allclose(c.values[:, j], want, atol=1e-8)
    # Residuals are orthogonal to the basis columns.
    resid = f.values - tilted.matrix @ c.values
    assert np.abs(tilted.matrix.T @ resid).max() < 1e-8


def test_reconstruct_round_trips_in_span():
    f = _anom_field(5)
    b = compute_eof(f, f.n_loc)  # full basis: exact reconstruction
    g = reconstruct(project(f, b), b, f.times)
    assert np.allclose(g.values, f.values, atol=1e-8)
    with pytest.raises(DataError):
        project(_anom_field(6, n_loc=12), b)  # location mismatch
    dep = BasisSet(np.ones((20, 2)), b.coords, kind="eof")
    with pytest.raises(NumericError):
        project(f, dep)  # duplicate columns


def test_meof_matches_dense_eigendecomposition():
    forcing = _anom_field(7, n_loc=9, lon0=0.0)
    response = _anom_field(8, n_loc=16, lon0=200.0)
    # Scale the response up so unstandardized stacking would let it dominate.
    response = FieldSeries(response.values * 40.0, response.coords, response.times)
    psi, phi = compute_meof(forcing, response, 4)
    stacked = np.vstack(
        [
            forcing.values / forcing.values.std(),
            response.values / response.values.std(),
        ]
    )
    evals, evecs = np.linalg.eigh(stacked @ stacked.T)
    joint = np.vstack([psi.matrix, phi.matrix])
    lead = evecs[:, -1]
    cos = abs(lead @ joint[:, 0]) / np.linalg.norm(lead)
    assert cos > 0.999
    # The pair is the forcing and response row blocks of one orthonormal
    # set of joint patterns, on each field's own grid.
    assert psi.matrix.shape == (9, 4) and phi.matrix.shape == (16, 4)
    assert np.allclose(joint.T @ joint, np.eye(4), atol=1e-10)
    assert np.array_equal(psi.coords, forcing.coords)
    assert np.array_equal(phi.coords, response.coords)
    assert psi.kind == phi.kind == "meof"
    # Both blocks carry the joint explained variance.
    assert np.array_equal(psi.explained_variance, phi.explained_variance)
    assert np.allclose(psi.explained_variance, evals[::-1][:4] / evals.sum(), rtol=1e-8)
    with pytest.raises(DataError):
        compute_meof(forcing, _anom_field(9, n_loc=16, n_time=49), 4)


def test_cca_correlations_invariant_to_coefficient_rescaling():
    rng = np.random.default_rng(12)
    bx = rng.normal(size=(4, 200))
    ay = 0.6 * np.vstack([bx[:3], np.zeros((2, 200))]) + rng.normal(size=(5, 200))
    _, _, corr, _ = cca_from_coefficients(bx, ay, 3)
    qa, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    qb = np.linalg.qr(rng.normal(size=(5, 5)))[0] * 3.7
    _, _, corr2, _ = cca_from_coefficients(qa @ bx, qb @ ay, 3)
    assert np.allclose(corr, corr2, atol=1e-6)
    assert (np.diff(corr) <= 1e-12).all()  # nonincreasing
    assert (corr >= 0).all() and (corr <= 1).all()


def test_cca_detects_planted_shift_and_stays_null_on_noise():
    rng = np.random.default_rng(13)
    n_time, lead = 400, 3
    fv = rng.normal(size=(6, n_time))
    coords_f = np.array([[float(i), 0.0] for i in range(6)])
    coords_r = np.array([[200.0 + float(i), 0.0] for i in range(6)])
    # Response at t is an exact linear image of the forcing at t - lead.
    shifted = np.zeros_like(fv)
    shifted[:, lead:] = rng.normal(size=(6, 6)) @ fv[:, :-lead]
    forcing = FieldSeries(fv, coords_f, np.arange(1, n_time + 1))
    response = FieldSeries(shifted, coords_r, np.arange(1, n_time + 1))
    hit_x, hit_y = compute_cca(forcing, response, lead=lead, p_pre=5, p=3)
    assert hit_x.correlations[0] > 0.99
    assert np.array_equal(hit_y.correlations, hit_x.correlations)
    assert hit_x.kind == hit_y.kind == "cca" and not hit_x.ridged and not hit_y.ridged
    # Independent white noise: the leading canonical correlation stays small.
    noise = FieldSeries(
        rng.normal(size=(6, n_time)), coords_r, np.arange(1, n_time + 1)
    )
    null_x, _ = compute_cca(forcing, noise, lead=2, p_pre=5, p=3)
    assert null_x.correlations[0] < 0.35
    assert hit_x.matrix.shape == (6, 3)
    assert hit_y.matrix.shape == (6, 3)
    with pytest.raises(ConfigError):
        compute_cca(forcing, response, lead=-1, p_pre=5, p=3)


def test_cca_ridges_singular_covariance():
    rng = np.random.default_rng(14)
    bx = rng.normal(size=(3, 100))
    bx = np.vstack([bx, bx[0] + bx[1]])  # dependent row: singular Cxx
    ay = rng.normal(size=(3, 100))
    with pytest.warns(UserWarning, match="ridge"):
        _, _, _, ridged = cca_from_coefficients(bx, ay, 2)
    assert ridged


def test_basis_save_load_round_trip(tmp_path):
    f = _anom_field(15)
    b = compute_eof(f, 4)
    path = str(tmp_path / "eof.csv")
    save_basis(b, path)
    g = load_basis(path)
    assert np.array_equal(g.matrix, b.matrix)
    assert np.array_equal(g.coords, b.coords)
    assert np.array_equal(g.explained_variance, b.explained_variance)
    assert g.kind == "eof" and g.correlations is None

    _, cca = compute_cca(
        _anom_field(16, n_loc=8), _anom_field(17, n_loc=8, lon0=200.0), 1, 5, 2
    )
    cpath = str(tmp_path / "cca.csv")
    save_basis(cca, cpath)
    h = load_basis(cpath)
    assert np.array_equal(h.matrix, cca.matrix)
    assert np.array_equal(h.correlations, cca.correlations)
    assert h.kind == "cca"

    with pytest.raises(DataError, match="file not found"):
        load_basis(str(tmp_path / "nope.csv"))
    orphan = str(tmp_path / "orphan.csv")
    save_basis(b, orphan)
    (tmp_path / "orphan.csv.meta.json").unlink()
    with pytest.raises(DataError, match="sidecar"):
        load_basis(orphan)
