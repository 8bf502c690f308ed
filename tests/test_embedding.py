import numpy as np
import pytest

from progsub import InputError, knn_heat_graph, laplacian, lpp_fit, pca_fit


def test_pca_diagonal_line():
    rng = np.random.default_rng(1)
    t = rng.standard_normal(30)
    x = np.vstack([t, t])
    emb = pca_fit(x, 1)
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(emb.projection[0], expected, atol=1e-10)


def test_pca_isotropic_contract():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4000))
    emb = pca_fit(x, 3)
    gram = emb.projection @ emb.projection.T
    assert np.allclose(gram, np.eye(3), atol=1e-8)
    # eigenvalues near-equal under sampling noise
    assert emb.eigenvalues.max() / emb.eigenvalues.min() < 1.2
    # full-rank projection reconstructs exactly
    centered = x - x.mean(axis=1, keepdims=True)
    recon = emb.projection.T @ (emb.projection @ centered)
    assert np.allclose(recon, centered, atol=1e-10)


def test_pca_reconstruction_error_equals_discarded_eigenvalues():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 40)) * rng.random(6)[:, None]
    d_out = 3
    emb = pca_fit(x, d_out)
    centered = x - x.mean(axis=1, keepdims=True)
    recon = emb.projection.T @ (emb.projection @ centered)
    err = float(np.sum((centered - recon) ** 2)) / x.shape[1]
    cov = (centered @ centered.T) / x.shape[1]
    all_vals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert err == pytest.approx(float(all_vals[d_out:].sum()), abs=1e-8)


def test_pca_eigenvalues_nonincreasing_and_variance_ordered():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 60)) * [[5.0], [3.0], [2.0], [1.0], [0.5]]
    emb = pca_fit(x, 4)
    assert np.all(np.diff(emb.eigenvalues) <= 1e-12)
    proj = emb.transform(x)
    variances = proj.var(axis=1)
    assert np.all(np.diff(variances) <= 1e-8)


def test_pca_rejects_large_d_out():
    with pytest.raises(InputError):
        pca_fit(np.zeros((3, 5)), 4)


def test_pca_deterministic_sign_convention():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 50))
    a = pca_fit(x, 2)
    b = pca_fit(x, 2)
    assert np.array_equal(a.projection, b.projection)
    for row in a.projection:
        assert row[np.argmax(np.abs(row))] > 0


def _cluster_instance(rng):
    a = rng.standard_normal((4, 10)) * 0.2
    b = rng.standard_normal((4, 10)) * 0.2 + np.array([3.0, 3.0, 0.0, 0.0])[:, None]
    x = np.hstack([a, b])
    w = knn_heat_graph(x, 3, 1.0)
    lap = laplacian(w)
    deg = np.asarray(w.sum(axis=1)).ravel()
    return x, lap, deg


def test_lpp_separates_two_clusters():
    rng = np.random.default_rng(6)
    x, lap, deg = _cluster_instance(rng)
    emb = lpp_fit(x, lap, deg, 1)
    coords = (emb.projection @ x).ravel()
    a, b = coords[:10], coords[10:]
    assert a.max() < b.min() or b.max() < a.min()


def test_lpp_generalized_eigen_residual():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 30))
    w = knn_heat_graph(x, 4, 1.0)
    lap = laplacian(w)
    deg = np.asarray(w.sum(axis=1)).ravel()
    emb = lpp_fit(x, lap, deg, 3)
    a_mat = x @ (lap.toarray() @ x.T)
    b_mat = (x * deg[None, :]) @ x.T
    scale = np.linalg.norm(a_mat)
    for lam, row in zip(emb.eigenvalues, emb.projection):
        resid = np.linalg.norm(a_mat @ row - lam * (b_mat @ row))
        assert resid <= 1e-6 * max(scale, 1.0) * np.linalg.norm(row)


def test_lpp_connected_graph_has_near_constant_coordinate():
    rng = np.random.default_rng(8)
    base = rng.standard_normal((3, 25))
    x = np.vstack([base, np.ones((1, 25))])  # constant vector in the row span
    w = knn_heat_graph(x, 6, 2.0)
    lap = laplacian(w)
    deg = np.asarray(w.sum(axis=1)).ravel()
    emb = lpp_fit(x, lap, deg, 1)
    assert abs(emb.eigenvalues[0]) < 1e-8
    coords = (emb.projection @ x).ravel()
    assert coords.std() < 1e-6 * max(1.0, abs(coords.mean()))


def test_lpp_rank_error_lists_achievable_rank():
    x = np.zeros((4, 6))
    x[0] = 1.0
    lap = laplacian(np.ones((6, 6)) - np.eye(6))
    with pytest.raises(InputError, match="achievable rank is 1"):
        lpp_fit(x, lap, np.full(6, 5.0), 3)


def test_lpp_rejects_nonpositive_degrees():
    x = np.random.default_rng(9).standard_normal((3, 5))
    lap = laplacian(np.zeros((5, 5)))
    with pytest.raises(InputError, match="positive"):
        lpp_fit(x, lap, np.zeros(5), 1)


def test_lpp_deterministic():
    rng = np.random.default_rng(10)
    x, lap, deg = _cluster_instance(rng)
    a = lpp_fit(x, lap, deg, 2)
    b = lpp_fit(x, lap, deg, 2)
    assert np.array_equal(a.projection, b.projection)
