"""Core value types: labels, splits, and solver settings.

Everything here is an immutable container validated at construction time.
Feature matrices are plain float64 ndarrays stored column-per-sample (one
column = one sample, bands x pixels) so that projections always multiply on
the left. Labels and index sets are plain int64 ndarrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def matrix_values(x):
    """Return `x` as a 2-D float64 ndarray (no copy when it already is one)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class SampleSplit:
    """Disjoint train / test / unlabeled read-only int64 index arrays."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    unlabeled_indices: np.ndarray = ()

    def __post_init__(self):
        names = ("train_indices", "test_indices", "unlabeled_indices")
        groups = [np.array(getattr(self, n), dtype=np.int64) for n in names]
        # report the first offender in train -> test -> unlabeled order: a
        # negative index, or one already seen at an earlier position
        idx = np.concatenate(groups)
        owner = np.repeat(np.arange(len(names)), [g.size for g in groups])
        _, first, inverse = np.unique(idx, return_index=True,
                                      return_inverse=True)
        earlier = first[inverse]
        bad = (idx < 0) | (earlier < np.arange(idx.size))
        if bad.any():
            k = int(np.argmax(bad))
            i, name, seen = int(idx[k]), names[owner[k]], names[owner[earlier[k]]]
            if i < 0:
                raise InputError(f"{name} contains negative index {i}")
            raise InputError(f"index {i} appears in both {seen} and {name}")
        for name, group in zip(names, groups):
            group.setflags(write=False)
            object.__setattr__(self, name, group)


@dataclass(frozen=True)
class HyperParams:
    """Model hyperparameters: loss weights, layer layout, and graph settings.

    dims holds one subspace dimension per layer and must have length `layers`.
    """

    alpha: float
    beta: float
    gamma: float
    layers: int
    dims: tuple
    knn_k: int
    sigma: float
    max_outer_iters: int = 50
    superpixel_fraction: float = 0.10

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = float(getattr(self, name))
            if v < 0.0 or not np.isfinite(v):
                raise InputError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)
        if int(self.layers) < 1:
            raise InputError(f"layer count must be >= 1, got {self.layers}")
        object.__setattr__(self, "layers", int(self.layers))
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != self.layers:
            raise InputError(
                f"dims has length {len(dims)} but layer count is {self.layers}"
            )
        if any(d < 1 for d in dims):
            raise InputError(f"every layer dimension must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)
        if int(self.knn_k) < 1:
            raise InputError(f"knn_k must be >= 1, got {self.knn_k}")
        object.__setattr__(self, "knn_k", int(self.knn_k))
        if not (float(self.sigma) > 0.0):
            raise InputError(f"sigma must be > 0, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma))
        if int(self.max_outer_iters) < 1:
            raise InputError(
                f"max_outer_iters must be >= 1, got {self.max_outer_iters}"
            )
        object.__setattr__(self, "max_outer_iters", int(self.max_outer_iters))
        frac = float(self.superpixel_fraction)
        if not (0.0 < frac <= 1.0):
            raise InputError(f"superpixel_fraction must be in (0, 1], got {frac}")
        object.__setattr__(self, "superpixel_fraction", frac)


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty schedule and stopping rule for the per-layer ADMM solver.

    Every run, pre-training and each fine-tune step, starts at penalty mu0.
    Starting far lower (1e-3) lets the first iterations drag a warm-started
    projection away from where it began, so a run takes more iterations and
    ends at a worse point more often."""

    mu0: float = 0.3
    mu_max: float = 1e6
    rho: float = 2.0
    eps: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        if not (0.0 < float(self.mu0) <= float(self.mu_max)):
            raise InputError(
                f"need 0 < mu0 <= mu_max, got mu0={self.mu0}, mu_max={self.mu_max}"
            )
        if not (float(self.rho) > 1.0):
            raise InputError(f"rho must be > 1, got {self.rho}")
        if not (float(self.eps) > 0.0):
            raise InputError(f"eps must be > 0, got {self.eps}")
        if int(self.max_iters) < 1:
            raise InputError(f"max_iters must be >= 1, got {self.max_iters}")
        for name in ("mu0", "mu_max", "rho", "eps"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "max_iters", int(self.max_iters))


def one_hot_encode(labels, n_classes):
    """Encode integer class labels in [1..n_classes] as an L x n one-hot
    array."""
    labels = np.asarray(labels, dtype=np.int64)
    if n_classes < 1:
        raise InputError(f"class count must be >= 1, got {n_classes}")
    bad = (labels < 1) | (labels > n_classes)
    if bad.any():
        k = int(np.argmax(bad))
        raise InputError(
            f"label {labels[k]} at index {k} is outside the range 1..{n_classes}"
        )
    out = np.zeros((n_classes, labels.size))
    out[labels - 1, np.arange(labels.size)] = 1.0
    return out
