"""Nearest-neighbor classification and the three evaluation statistics:
overall accuracy, per-class average accuracy, and the kappa coefficient.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import nearest_columns
from .types import matrix_values


def nn_classify(train_feats, train_labels, test_feats):
    """Label each test column with its Euclidean-nearest training column.

    Ties resolve to the lowest training index, as in argmin over cdist's
    sqeuclidean distances (graphs.nearest_columns, whose memory stays
    linear in the number of test columns).
    """
    train = matrix_values(train_feats)
    test = matrix_values(test_feats)
    labels = np.asarray(train_labels, dtype=np.int64)
    if train.shape[1] == 0:
        raise InputError("nearest-neighbor needs at least one training sample")
    if labels.size != train.shape[1]:
        raise InputError(
            f"{labels.size} labels for {train.shape[1]} training columns"
        )
    if train.shape[0] != test.shape[0]:
        raise InputError(
            f"feature dims differ: train {train.shape[0]} vs test {test.shape[0]}"
        )
    return labels[nearest_columns(train, 1, queries=test)[1]]


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[t, p] = samples of true class t+1 predicted as class p+1."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise InputError(f"confusion matrix must be square, got {counts.shape}")
        if np.any(counts < 0):
            raise InputError("confusion counts must be nonnegative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_classes(self):
        return self.counts.shape[0]


def confusion(true_labels, predicted, n_classes=None):
    """Tally a confusion matrix from 1-based class labels."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted, dtype=np.int64)
    if t.size != p.size:
        raise InputError(f"{t.size} true labels vs {p.size} predictions")
    if t.size == 0:
        raise InputError("cannot tally an empty label list")
    if n_classes is None:
        n_classes = int(max(t.max(), p.max()))
    for name, arr in (("true", t), ("predicted", p)):
        if arr.min() < 1 or arr.max() > n_classes:
            raise InputError(f"{name} labels must lie in 1..{n_classes}")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (t - 1, p - 1), 1)
    return ConfusionMatrix(counts)


@dataclass(frozen=True)
class MetricsReport:
    oa: float
    aa: float
    kappa: float
    per_class: tuple  # accuracy per class; nan for classes absent from truth

    def csv_row(self):
        cells = [repr(self.oa), repr(self.aa), repr(self.kappa)]
        cells += [repr(v) for v in self.per_class]
        return ",".join(cells)

    def to_csv(self):
        """metrics.csv text: the column header and csv_row."""
        header = "oa,aa,kappa," + ",".join(
            f"class_{i + 1}" for i in range(len(self.per_class)))
        return header + "\n" + self.csv_row() + "\n"


def compute_metrics(cm):
    """OA, AA, and kappa from a confusion matrix.

    OA = correct / total. AA averages per-class accuracy over the classes
    that actually occur in the truth. kappa = (OA - Pe) / (1 - Pe) with Pe
    the chance-agreement probability from the row/column marginals; the
    degenerate Pe = 1 case maps to kappa = 0.
    """
    counts = cm.counts.astype(np.float64)
    total = counts.sum()
    if total <= 0:
        raise InputError("confusion matrix is empty")
    diag = np.diag(counts)
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    oa = float(diag.sum() / total)
    present = row_sums > 0
    per_class = np.full(cm.n_classes, np.nan)
    per_class[present] = diag[present] / row_sums[present]
    aa = float(per_class[present].mean())
    pe = float((row_sums * col_sums).sum() / (total * total))
    kappa = 0.0 if pe == 1.0 else float((oa - pe) / (1.0 - pe))
    return MetricsReport(oa=oa, aa=aa, kappa=kappa,
                         per_class=tuple(float(v) for v in per_class))
