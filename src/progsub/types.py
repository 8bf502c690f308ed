"""Core value types: feature matrices, labels, splits, and solver settings.

Everything here is an immutable container validated at construction time.
Feature matrices are stored column-per-sample (one column = one sample) so
that projections always multiply on the left.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

PIXEL = "pixel"
SUPERPIXEL_STREAM = "superpixel_stream"

_KINDS = (PIXEL, SUPERPIXEL_STREAM)


def _frozen_array(values, dtype=np.float64):
    arr = np.array(values, dtype=dtype, order="C", copy=True)
    arr.setflags(write=False)
    return arr


def matrix_values(x):
    """Accept a FeatureMatrix or a bare 2-D array; return float64 ndarray."""
    if isinstance(x, FeatureMatrix):
        return x.values
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FeatureMatrix:
    """A d x n feature matrix with one column per sample.

    kind 'superpixel_stream' marks per-pixel segment means, 'pixel' the rest.
    """

    values: np.ndarray
    kind: str = PIXEL

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.ndim != 2:
            raise InputError(f"feature matrix must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InputError("feature matrix contains non-finite entries")
        if self.kind not in _KINDS:
            raise InputError(f"unknown feature-matrix kind {self.kind!r}")
        object.__setattr__(self, "values", arr)

    @property
    def dim(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class SampleSplit:
    """Disjoint train / test / unlabeled index sets over one cube."""

    train_indices: tuple
    test_indices: tuple
    unlabeled_indices: tuple = ()

    def __post_init__(self):
        groups = {
            "train_indices": tuple(int(i) for i in self.train_indices),
            "test_indices": tuple(int(i) for i in self.test_indices),
            "unlabeled_indices": tuple(int(i) for i in self.unlabeled_indices),
        }
        seen = {}
        for name, idx in groups.items():
            for i in idx:
                if i < 0:
                    raise InputError(f"{name} contains negative index {i}")
                if i in seen:
                    raise InputError(
                        f"index {i} appears in both {seen[i]} and {name}"
                    )
                seen[i] = name
            object.__setattr__(self, name, idx)


@dataclass(frozen=True)
class HyperParams:
    """Model hyperparameters: loss weights, layer layout, and graph settings.

    dims holds one subspace dimension per layer and must have length `layers`.
    """

    alpha: float
    beta: float
    gamma: float
    eta: float
    layers: int
    dims: tuple
    knn_k: int
    sigma: float
    zeta: float = 1e-4
    max_outer_iters: int = 50
    superpixel_fraction: float = 0.10

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "eta"):
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
        if not (float(self.zeta) > 0.0):
            raise InputError(f"zeta must be > 0, got {self.zeta}")
        object.__setattr__(self, "zeta", float(self.zeta))
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
    """Penalty schedule and stopping rule for the per-layer ADMM solver."""

    mu0: float = 1e-3
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
    labels = list(labels)
    if n_classes < 1:
        raise InputError(f"class count must be >= 1, got {n_classes}")
    out = np.zeros((n_classes, len(labels)))
    for k, lab in enumerate(labels):
        lab = int(lab)
        if not (1 <= lab <= n_classes):
            raise InputError(
                f"label {lab} at index {k} is outside the range 1..{n_classes}"
            )
        out[lab - 1, k] = 1.0
    return out
