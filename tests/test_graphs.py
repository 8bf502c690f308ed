import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.distance import cdist

import progsub.graphs
from oracle_utils import reference_knn_heat_graph
from progsub import (InputError, alignment_graph, assemble_fused,
                     knn_heat_graph, laplacian)
from progsub.graphs import coordinate_dump


def test_knn_two_identical_points():
    x = np.zeros((3, 2))
    w = knn_heat_graph(x, 1, 0.7).toarray()
    assert w[0, 1] == 1.0 and w[1, 0] == 1.0
    assert w[0, 0] == 0.0 and w[1, 1] == 0.0


def test_knn_analytic_kernel_value():
    sigma = 0.9
    x = np.array([[0.0, sigma * np.sqrt(2.0)]])
    w = knn_heat_graph(x, 1, sigma).toarray()
    assert w[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 20))
    k, sigma = 4, 0.8
    w = knn_heat_graph(x, k, sigma).toarray()

    # O(n^2) oracle written with plain loops
    n = x.shape[1]
    expected = np.zeros((n, n))
    for i in range(n):
        dists = [(float(np.sum((x[:, i] - x[:, j]) ** 2)), j)
                 for j in range(n) if j != i]
        dists.sort()
        for d2, j in dists[:k]:
            expected[i, j] = np.exp(-d2 / (2 * sigma ** 2))
    expected = np.maximum(expected, expected.T)
    assert np.allclose(w, expected, atol=1e-15)


def _full_sort_knn_graph(x, k, sigma):
    """knn_heat_graph from the full distance matrix and a stable argsort of
    each row, as it was built before it took its distances in row blocks."""
    n = x.shape[1]
    d2 = cdist(x.T, x.T, "sqeuclidean")
    np.fill_diagonal(d2, np.inf)
    neigh = np.argsort(d2, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(n), k)
    cols = neigh.ravel()
    weights = np.exp(-d2[rows, cols] / (2.0 * sigma * sigma))
    w = sp.coo_matrix((weights, (rows, cols)), shape=(n, n)).tocsr()
    w = w.maximum(w.T)
    w.setdiag(0.0)
    w.eliminate_zeros()
    return w


def _knn_inputs(kind, rng, d, n):
    if kind == "random":
        return rng.standard_normal((d, n))
    if kind == "duplicated columns":
        # groups of equal columns, like pixels of one segment in the stream
        base = rng.standard_normal((d, n // 6 + 1))
        return base[:, rng.integers(0, base.shape[1], n)]
    # small integer coordinates: many equal distances at every rank
    return rng.integers(0, 3, (d, n)).astype(np.float64)


@pytest.mark.parametrize("block", [7, 150, 1 << 16])
@pytest.mark.parametrize("kind", ["random", "duplicated columns",
                                  "integer grid"])
@pytest.mark.parametrize("k", [1, 4, 10])
def test_knn_blocked_graph_has_the_bits_of_the_full_sort(monkeypatch, kind,
                                                         k, block):
    # rows per block: 1 at block = 7; 2 and 3 at 150, each with a shorter
    # last block; every row in one block at 1 << 16
    monkeypatch.setattr(progsub.graphs, "_BLOCK_FLOATS", block)
    rng = np.random.default_rng(k * 100 + len(kind))
    for d, n in ((3, 61), (5, 40)):
        x = _knn_inputs(kind, rng, d, n)
        got = knn_heat_graph(x, k, 0.7)
        want = _full_sort_knn_graph(x, k, 0.7)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


def test_knn_memory_stays_below_the_full_distance_matrix():
    rng = np.random.default_rng(4)
    n = 2000
    x = rng.standard_normal((3, n))
    full_bytes = n * n * 8      # one n x n float64 or int64 array
    tracemalloc.start()
    try:
        knn_heat_graph(x, 10, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_bytes / 8


def test_knn_memory_stays_bounded_when_every_column_is_a_candidate():
    # distances near 1e-12 against squared norms of 800: the rounding slack
    # admits all n - 1 columns of every row, about 1e6 pairs in all
    x = 10.0 + 1e-6 * np.random.default_rng(5).random((8, 1000))
    tracemalloc.start()
    try:
        knn_heat_graph(x, 10, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def _oracle_case(case, rng):
    """(x, k) of one case the candidate search must get exactly right."""
    if case == "duplicate columns":
        # segments of 9 equal columns, more than k + 1 = 6: a row's whole
        # neighborhood is at distance exactly 0
        base = rng.standard_normal((4, 7))
        return base[:, rng.permutation(np.repeat(np.arange(7), 9))], 5
    if case == "duplicate columns far from the origin":
        # cdist measures 0 between equal columns; GEMM rounds each such
        # distance to its own value near 1e-13 of the squared norms
        base = 10.0 + 1e-2 * rng.standard_normal((4, 7))
        return base[:, rng.permutation(np.repeat(np.arange(7), 9))], 5
    if case == "ties at the k-th distance":
        return rng.integers(0, 3, (2, 60)).astype(np.float64), 6
    if case == "k = n - 1":
        return rng.standard_normal((3, 25)), 24
    if case == "C order":
        return np.ascontiguousarray(rng.standard_normal((6, 70))), 5
    if case == "Fortran order":
        return np.asfortranarray(rng.standard_normal((6, 70))), 5
    if case == "norms 1e-3":
        return 1e-3 * rng.standard_normal((5, 50)), 4
    if case == "norms 1e3":
        return 1e3 * rng.standard_normal((5, 50)), 4
    if case == "norms 1e-3 and 1e3":
        x = rng.standard_normal((5, 60))
        return x * np.where(np.arange(60) % 2, 1e-3, 1e3), 4
    if case == "far from the origin":
        # distances near 1e-12 against squared norms of 800: GEMM rounding
        # (about 1e-13) reorders neighbors, so the slack takes every column
        return 10.0 + 1e-6 * rng.random((8, 80)), 7
    if case == "d = 1":
        return rng.integers(0, 12, (1, 50)).astype(np.float64), 4
    if case == "200 bands":
        # the band count of the scene fits
        return rng.random((200, 90)), 10
    raise ValueError(case)


ORACLE_CASES = ["duplicate columns", "duplicate columns far from the origin",
                "ties at the k-th distance", "k = n - 1",
                "C order", "Fortran order", "norms 1e-3", "norms 1e3",
                "norms 1e-3 and 1e3", "far from the origin", "d = 1",
                "200 bands"]


@pytest.mark.parametrize("rows_per_block", [1, 3, "all"])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_knn_candidate_search_has_the_all_columns_graph(monkeypatch, case,
                                                        rows_per_block):
    x, k = _oracle_case(case, np.random.default_rng(len(case)))
    n = x.shape[1]
    block = {1: n, 3: 3 * n, "all": 1 << 16}[rows_per_block]
    monkeypatch.setattr(progsub.graphs, "_BLOCK_FLOATS", block)
    got = knn_heat_graph(x, k, 0.7)
    want = reference_knn_heat_graph(x, k, 0.7, block)
    assert coordinate_dump(got) == coordinate_dump(want)


def _candidate_pairs(x, k):
    """The candidate pairs of the whole search in one row block."""
    pts = np.ascontiguousarray(x.T)
    n, d = pts.shape
    sq = np.einsum("ij,ij->i", pts, pts)
    slack = progsub.graphs._candidate_slack(d) * (sq + sq.max())
    return progsub.graphs._candidates(pts, sq, slack, 0, n, k)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_knn_candidates_hold_the_k_nearest_and_not_the_point_itself(case):
    x, k = _oracle_case(case, np.random.default_rng(len(case)))
    n = x.shape[1]
    rows, cols = _candidate_pairs(x, k)
    # ascending by row, then by column: no pair twice, none out of order
    assert np.all(np.diff(rows * n + cols) > 0)
    assert not (rows == cols).any()
    full = cdist(x.T, x.T, "sqeuclidean")
    np.fill_diagonal(full, np.inf)
    kth = np.sort(full, axis=1)[:, k - 1:k]
    want = np.nonzero(full <= kth)
    assert set(zip(*want)) <= set(zip(rows.tolist(), cols.tolist()))


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_knn_measures_each_pair_with_the_bits_of_cdist(case):
    x, k = _oracle_case(case, np.random.default_rng(len(case)))
    rows, cols = _candidate_pairs(x, k)
    got = progsub.graphs._sqeuclidean(x, rows, cols)
    full = cdist(x.T, x.T, "sqeuclidean")
    assert np.array_equal(got, full[rows, cols])


def test_knn_rejects_non_finite_features():
    for bad in (np.nan, np.inf, 1e160):
        x = np.ones((2, 5))
        x[1, 3] = bad
        with pytest.raises(InputError, match="finite"):
            knn_heat_graph(x, 2, 1.0)


def test_knn_rejects_large_k():
    with pytest.raises(InputError):
        knn_heat_graph(np.zeros((2, 5)), 5, 1.0)


def test_knn_weights_in_unit_interval_and_monotone():
    # colinear points with increasing spacing: weight must not increase
    x = np.array([[0.0, 1.0, 2.5, 4.5, 7.0]])
    w = knn_heat_graph(x, 4, 2.0).toarray()
    row = w[0]
    assert np.all(row[1:] > 0) and np.all(row <= 1.0)
    assert np.all(np.diff(row[1:]) <= 0)


def test_alignment_identity_for_singleton_segments():
    w = alignment_graph([0, 1, 2, 3]).toarray()
    assert np.array_equal(w, np.eye(4))


def test_alignment_all_ones_for_single_segment():
    w = alignment_graph([0, 0, 0]).toarray()
    assert np.array_equal(w, np.ones((3, 3)))


def test_alignment_matches_membership_oracle():
    rng = np.random.default_rng(23)
    ids = rng.integers(0, 3, size=10)
    w = alignment_graph(ids).toarray()
    for i in range(10):
        for j in range(10):
            assert w[i, j] == (1.0 if ids[i] == ids[j] else 0.0)


def test_alignment_square_pattern_is_idempotent():
    rng = np.random.default_rng(29)
    ids = rng.integers(0, 4, size=12)
    w = alignment_graph(ids).toarray()
    w2 = w @ w
    assert np.array_equal(w2 != 0, w != 0)


def _alignment_loop(segment_ids):
    """Reference: one meshgrid of member pairs per segment, then COO->CSR."""
    ids = np.asarray(segment_ids, dtype=np.int64).ravel()
    order = np.argsort(ids, kind="stable")
    boundaries = np.flatnonzero(np.diff(ids[order])) + 1
    rows, cols = [], []
    for members in np.split(order, boundaries):
        grid = np.meshgrid(members, members, indexing="ij")
        rows.append(grid[0].ravel())
        cols.append(grid[1].ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    n = ids.size
    return sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                         shape=(n, n)).tocsr()


@pytest.mark.parametrize("seed", range(8))
def test_alignment_bit_equal_to_pair_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    # dense, sparse and negative segment ids
    low, span = [(0, 4), (0, 10 * n), (-50, 60)][seed % 3]
    ids = rng.integers(low, low + span, size=n)
    got, want = alignment_graph(ids), _alignment_loop(ids)
    assert got.format == "csr" and got.shape == want.shape
    assert got.has_sorted_indices
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def test_laplacian_two_node_edge():
    lap = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]])).toarray()
    assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_zero_graph():
    lap = laplacian(np.zeros((3, 3))).toarray()
    assert np.array_equal(lap, np.zeros((3, 3)))


def test_laplacian_rejects_negative_weights():
    with pytest.raises(InputError):
        laplacian(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_laplacian_psd_and_nullspace_oracle():
    rng = np.random.default_rng(31)
    w = rng.random((7, 7))
    w = np.triu(w, 1)
    w = w + w.T
    lap = laplacian(w).toarray()
    vals = np.linalg.eigvalsh(lap)
    assert vals.min() >= -1e-10
    assert np.allclose(lap @ np.ones(7), 0.0, atol=1e-12)


def test_assemble_fused_two_disjoint_edges():
    wp = np.zeros((2, 2))
    wsp = np.zeros((2, 2))
    wa = np.eye(2)
    bundle = assemble_fused(wp, wsp, wa)
    expected = np.array([
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 1.0],
    ])
    assert np.array_equal(bundle.lf.toarray(), expected)
    assert np.array_equal(
        bundle.wf.toarray(),
        np.block([[wp, wa], [wa, wsp]]),
    )


def test_assemble_fused_zero_blocks():
    bundle = assemble_fused(np.zeros((3, 3)), np.zeros((3, 3)),
                            np.zeros((3, 3)))
    assert bundle.lf.nnz == 0


def test_assemble_fused_quadratic_form_identity():
    rng = np.random.default_rng(37)
    n = 6

    def sym(m):
        m = np.triu(m, 1)
        return m + m.T

    wp, wsp = sym(rng.random((n, n))), sym(rng.random((n, n)))
    wa = sym(rng.random((n, n))) + np.diag(rng.random(n))
    bundle = assemble_fused(wp, wsp, wa)
    lf = bundle.lf.toarray()
    wf = bundle.wf.toarray()
    for _ in range(100):
        x = rng.standard_normal(2 * n)
        direct = 0.5 * sum(
            wf[i, j] * (x[i] - x[j]) ** 2
            for i in range(2 * n) for j in range(2 * n)
        )
        assert x @ lf @ x == pytest.approx(direct, abs=1e-9)


def test_assemble_fused_rejects_asymmetry():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(InputError, match="asymmetric"):
        assemble_fused(bad, np.zeros((2, 2)), np.zeros((2, 2)))


def test_fused_laplacian_properties_random():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        x = rng.standard_normal((3, n))
        k = int(rng.integers(1, n))
        wp = knn_heat_graph(x, k, 0.9)
        wsp = knn_heat_graph(x + rng.standard_normal((3, n)) * 0.1, k, 0.9)
        wa = alignment_graph(rng.integers(0, 3, size=n))
        bundle = assemble_fused(wp, wsp, wa)
        lf = bundle.lf.toarray()
        assert np.allclose(lf, lf.T, atol=1e-12)
        assert np.allclose(lf.sum(axis=1), 0.0, atol=1e-10)
        assert np.linalg.eigvalsh(lf).min() >= -1e-10


def test_coordinate_dump_sorted_and_deterministic():
    w = np.array([[0.0, 0.25], [0.25, 0.0]])
    dump = coordinate_dump(w)
    assert dump == "0 1 0.25\n1 0 0.25\n"
