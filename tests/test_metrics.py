import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from progsub import (InputError, compute_metrics, confusion, nn_classify)
from progsub.metrics import ConfusionMatrix


def test_nn_exact_match_wins():
    train = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
    labels = [1, 2, 3]
    preds = nn_classify(train, labels, train[:, [1]])
    assert preds.tolist() == [2]


def test_nn_single_training_sample():
    train = np.zeros((3, 1))
    test = np.random.default_rng(0).standard_normal((3, 7))
    preds = nn_classify(train, [4], test)
    assert preds.tolist() == [4] * 7


def test_nn_matches_exhaustive_scan_oracle():
    rng = np.random.default_rng(1)
    train = rng.standard_normal((4, 30))
    labels = [int(v) for v in rng.integers(1, 4, size=30)]
    test = rng.standard_normal((4, 10))
    preds = nn_classify(train, labels, test)
    for j in range(10):
        best = min(
            range(30),
            key=lambda i: (float(np.sum((test[:, j] - train[:, i]) ** 2)), i),
        )
        assert preds[j] == labels[best]


def test_nn_tie_breaks_to_lowest_index():
    train = np.array([[1.0, 1.0, 2.0]])
    preds = nn_classify(train, [3, 1, 2], np.array([[1.0]]))
    assert preds.tolist() == [3]


def test_nn_blocks_match_the_full_distance_matrix():
    # 300 training columns give 54-row blocks, so 500 test columns span ten;
    # each training column appears twice with different labels and the
    # first copy must win
    rng = np.random.default_rng(2)
    base = np.round(rng.standard_normal((3, 150)), 1)
    train = np.hstack([base, base])
    labels = np.arange(1, 301)
    test = np.hstack([base[:, rng.integers(0, 150, size=250)],
                      np.round(rng.standard_normal((3, 250)), 1)])
    full = labels[np.argmin(cdist(test.T, train.T, "sqeuclidean"), axis=1)]
    preds = nn_classify(train, labels, test)
    assert preds.dtype == np.int64
    assert np.array_equal(preds, full)
    assert (preds[:250] <= 150).all()
    assert nn_classify(train, labels, np.zeros((3, 0))).shape == (0,)


def test_nn_memory_stays_below_the_full_distance_matrix():
    rng = np.random.default_rng(3)
    train = rng.standard_normal((5, 400))
    test = rng.standard_normal((5, 4000))
    labels = np.arange(1, 401)
    full_bytes = 4000 * 400 * 8
    tracemalloc.start()
    try:
        nn_classify(train, labels, test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_bytes / 8


def test_nn_rejects_non_finite_features():
    for bad in (np.nan, np.inf, 1e160):
        for side in ("train", "test"):
            train, test = np.ones((2, 5)), np.ones((2, 4))
            (train if side == "train" else test)[1, 3] = bad
            with pytest.raises(InputError, match="finite"):
                nn_classify(train, [1, 2, 3, 4, 5], test)


def test_nn_rejects_empty_and_mismatched():
    with pytest.raises(InputError):
        nn_classify(np.zeros((2, 0)), [], np.zeros((2, 1)))
    with pytest.raises(InputError):
        nn_classify(np.zeros((2, 3)), [1, 2, 3], np.zeros((3, 1)))


def test_confusion_perfect_predictions():
    cm = confusion([1, 1, 2, 3, 3, 3], [1, 1, 2, 3, 3, 3])
    assert np.array_equal(cm.counts, np.diag([2, 1, 3]))


def test_confusion_all_predicted_first_class():
    cm = confusion([1, 2, 3], [1, 1, 1], n_classes=3)
    assert cm.counts[:, 0].tolist() == [1, 1, 1]
    assert cm.counts[:, 1:].sum() == 0


def test_confusion_random_tally_oracle():
    rng = np.random.default_rng(2)
    t = [int(v) for v in rng.integers(1, 5, size=200)]
    p = [int(v) for v in rng.integers(1, 5, size=200)]
    cm = confusion(t, p, n_classes=4)
    for a in range(1, 5):
        for b in range(1, 5):
            brute = sum(1 for x, y in zip(t, p) if x == a and y == b)
            assert cm.counts[a - 1, b - 1] == brute
    assert cm.counts.sum() == 200


def test_confusion_rejects_bad_input():
    with pytest.raises(InputError):
        confusion([1, 2], [1])
    with pytest.raises(InputError):
        confusion([0, 1], [1, 1], n_classes=2)


def test_metrics_perfect_two_balanced_classes():
    rep = compute_metrics(ConfusionMatrix(np.diag([5, 5])))
    assert rep.oa == 1.0
    assert rep.aa == 1.0
    assert rep.kappa == 1.0


def test_metrics_chance_level_kappa_zero():
    # truth half/half, predictions all class 1
    cm = ConfusionMatrix(np.array([[10, 0], [10, 0]]))
    rep = compute_metrics(cm)
    assert rep.oa == 0.5
    assert rep.kappa == 0.0


def test_metrics_degenerate_single_class_maps_kappa_zero():
    rep = compute_metrics(ConfusionMatrix(np.array([[7]])))
    assert rep.oa == 1.0
    assert rep.kappa == 0.0  # chance probability is 1


def _direct_formulas(counts):
    counts = counts.astype(float)
    total = counts.sum()
    oa = np.trace(counts) / total
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    accs = [counts[i, i] / rows[i] for i in range(len(rows)) if rows[i] > 0]
    aa = sum(accs) / len(accs)
    pe = sum(r * c for r, c in zip(rows, cols)) / (total * total)
    kappa = 0.0 if pe == 1.0 else (oa - pe) / (1.0 - pe)
    return oa, aa, kappa


def test_metrics_match_direct_formula_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        counts = rng.integers(0, 30, size=(3, 3))
        if counts.sum() == 0:
            continue
        rep = compute_metrics(ConfusionMatrix(counts))
        oa, aa, kappa = _direct_formulas(counts)
        assert rep.oa == pytest.approx(oa, abs=1e-12)
        assert rep.aa == pytest.approx(aa, abs=1e-12)
        assert rep.kappa == pytest.approx(kappa, abs=1e-12)


def test_metrics_oa_is_trace_over_sum():
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 9, size=(4, 4)) + np.eye(4, dtype=int)
    rep = compute_metrics(ConfusionMatrix(counts))
    assert rep.oa == np.trace(counts) / counts.sum()


def test_metrics_kappa_below_oa():
    rng = np.random.default_rng(5)
    for _ in range(50):
        counts = rng.integers(0, 20, size=(3, 3))
        if counts.sum() == 0 or np.trace(counts) == 0:
            continue
        rep = compute_metrics(ConfusionMatrix(counts))
        pe = float((counts.sum(1) * counts.sum(0)).sum()) / counts.sum() ** 2
        if pe >= 0 and rep.oa <= 1.0 and pe < 1.0:
            assert rep.kappa <= rep.oa + 1e-12


def test_metrics_invariant_under_class_permutation():
    rng = np.random.default_rng(6)
    t = [int(v) for v in rng.integers(1, 4, size=100)]
    p = [int(v) for v in rng.integers(1, 4, size=100)]
    base = compute_metrics(confusion(t, p, n_classes=3))
    perm = {1: 3, 2: 1, 3: 2}
    permd = compute_metrics(confusion([perm[v] for v in t],
                                      [perm[v] for v in p], n_classes=3))
    assert base.oa == pytest.approx(permd.oa, abs=1e-14)
    assert base.aa == pytest.approx(permd.aa, abs=1e-14)
    assert base.kappa == pytest.approx(permd.kappa, abs=1e-14)


def test_metrics_absent_class_dropped_from_aa():
    counts = np.array([[4, 0, 0], [0, 6, 0], [0, 0, 0]])
    rep = compute_metrics(ConfusionMatrix(counts))
    assert rep.aa == 1.0
    assert np.isnan(rep.per_class[2])


def test_metrics_empty_matrix_rejected():
    with pytest.raises(InputError):
        compute_metrics(ConfusionMatrix(np.zeros((2, 2), dtype=int)))


def test_metrics_to_csv_is_the_header_and_the_row():
    rep = compute_metrics(ConfusionMatrix(np.diag([2, 3, 0])))
    assert rep.to_csv() == ("oa,aa,kappa,class_1,class_2,class_3\n"
                            + rep.csv_row() + "\n")


def test_metrics_csv_row_layout():
    rep = compute_metrics(ConfusionMatrix(np.diag([2, 3])))
    row = rep.csv_row()
    assert row.split(",")[:3] == ["1.0", "1.0", "1.0"]
    assert len(row.split(",")) == 5
