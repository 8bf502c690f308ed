import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from progsub import InputError, knn_heat_graph, laplacian, lpp_fit, pca_fit
from progsub.harness import _one_blas_thread


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


@pytest.mark.parametrize("n", [300, 9000])
def test_pca_blocked_covariance_matches_direct_covariance(n):
    # the covariance is accumulated over column blocks of 512; one block
    # keeps the bits of the direct product, several stay within rounding
    x = np.random.default_rng(8).random((7, n))
    centered = x - x.mean(axis=1)[:, None]
    vals, vecs = np.linalg.eigh((centered @ centered.T) / n)
    emb = pca_fit(x, 3)
    if n <= 512:
        assert np.array_equal(emb.eigenvalues, vals[::-1][:3])
    else:
        assert np.allclose(emb.eigenvalues, vals[::-1][:3], rtol=1e-12,
                           atol=0)
        assert np.allclose(np.abs(emb.projection @ vecs[:, ::-1][:, :3]),
                           np.eye(3), atol=1e-9)


@pytest.mark.parametrize("d_in, d_out, n", [
    (12, 5, 900), (12, 5, 4095), (12, 5, 4097), (200, 5, 21025),
    (200, 20, 8191), (200, 20, 8193), (200, 20, 21025), (100, 1, 12289)])
def test_pca_transform_has_the_bits_of_the_centered_product(d_in, d_out, n):
    # the transform centers 4096 columns or more at a time; 512-column
    # blocks differed in the last place at 5 x 200 over 21025 columns. On
    # one BLAS thread, as a run fits: with two, a one-row product is split
    # across the threads by its column count, and its bits move with it.
    rng = np.random.default_rng(d_in * n + d_out)
    x = rng.random((d_in, n))
    emb = pca_fit(x[:, :400], d_out)
    with _one_blas_thread():
        got = emb.transform(x)
        want = emb.projection @ (x - emb.mean[:, None])
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_pca_transform_holds_no_centered_copy_of_the_image():
    x = np.random.default_rng(9).random((200, 21025))
    emb = pca_fit(x[:, :500], 20)
    emb.transform(x[:, :10])  # load what the first call loads
    tracemalloc.start()
    try:
        out = emb.transform(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output, then the widest centered block (the last one takes the
    # 545 columns past 5 * 4096) and its product; a centered copy of the
    # image alone would be x.nbytes, three times this
    widest = 21025 - 4 * 4096
    assert peak <= 1.1 * (out.nbytes + (200 + 20) * 8 * widest)


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


def _wide_instance(rng, d=40, n=14):
    """Fewer columns than rows: rank n < d, so X L X' and X D X' are
    singular on the d - n directions orthogonal to every column."""
    x = rng.random((d, n))
    w = knn_heat_graph(x, 4, 1.0)
    deg = np.asarray(w.sum(axis=1)).ravel()
    return x, laplacian(w), np.where(deg <= 0, 1e-12, deg)


def test_rank_deficient_lpp_solves_in_the_span_of_x():
    rng = np.random.default_rng(11)
    x, lap, deg = _wide_instance(rng)
    emb = lpp_fit(x, lap, deg, 3)
    basis = np.linalg.svd(x, full_matrices=False)[0]
    rows = emb.projection
    # no part of a row is orthogonal to the columns, so TX sees all of it
    assert np.linalg.norm(rows - (rows @ basis) @ basis.T) < 1e-10
    assert np.linalg.norm(rows @ x, axis=1).min() > 1e-2 * np.linalg.norm(
        rows, axis=1).max() * np.linalg.norm(x, axis=0).min()
    # the generalized eigen residual holds within the span
    a_mat = x @ (lap.toarray() @ x.T)
    b_mat = (x * deg[None, :]) @ x.T
    for lam, row in zip(emb.eigenvalues, rows):
        resid = np.linalg.norm(a_mat @ row - lam * (b_mat @ row))
        assert resid <= 1e-6 * np.linalg.norm(a_mat) * np.linalg.norm(row)


def test_full_rank_lpp_keeps_the_direct_solve():
    rng = np.random.default_rng(12)
    x, lap, deg = _wide_instance(rng, d=6, n=30)
    emb = lpp_fit(x, lap, deg, 2)
    a_mat = x @ (lap @ x.T)
    a_mat = (a_mat + a_mat.T) / 2.0
    b_mat = (x * deg[None, :]) @ x.T
    b_mat = (b_mat + b_mat.T) / 2.0 + 1e-8 * np.eye(6)
    vals, vecs = scipy.linalg.eigh(a_mat, b_mat)
    rows = vecs[:, :2].T
    signs = np.sign(rows[np.arange(2), np.abs(rows).argmax(axis=1)])
    assert np.array_equal(emb.projection, rows * signs[:, None])
    assert np.array_equal(emb.eigenvalues, vals[:2])


# a 20x20 cube of 60 bands and 4 classes, 5 labeled pixels per class: 20
# training pixels, so 40 fused columns against 60 bands (2n < bands)
_WIDE_SHAPE = {"preset": "synth-benchmark", "synthetic.width": "20",
               "synthetic.height": "20", "synthetic.bands": "60",
               "synthetic.classes": "4", "split.train_per_class": "5"}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fewer_fit_columns_than_bands_does_not_collapse(tmp_path, monkeypatch,
                                                        seed):
    """Solved on X, the LPP start lay orthogonal to the data (median column
    norm of TX 4e-7 to 2e-6 at layer 1) and progsub and lpp scored at
    chance (0.25 to 0.28 oa); in the span of X the norms are 0.11-0.12 and
    oa 0.73-0.83 (progsub) and 0.36-0.41 (lpp)."""
    import progsub.model
    from progsub.harness import ExperimentConfig, run_experiment

    norms = []

    def traced_lpp(x, lap, deg, d_out):
        emb = lpp_fit(x, lap, deg, d_out)
        norms.append(np.median(np.linalg.norm(emb.projection @ x, axis=0)))
        return emb

    monkeypatch.setattr(progsub.model, "lpp_fit", traced_lpp)
    chance = 0.25
    oa = {}
    for method in ("progsub", "lpp"):
        config = ExperimentConfig.from_mapping(
            dict(_WIDE_SHAPE, method=method), seed=seed,
            out_dir=str(tmp_path / method))
        oa[method] = run_experiment(config)[0].oa
    assert len(norms) == 2 and min(norms) > 0.05
    assert oa["progsub"] > chance + 0.3
    assert oa["lpp"] > chance + 0.08
