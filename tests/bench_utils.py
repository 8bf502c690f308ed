"""Shared fixtures: tiny separable training sets and the seeded desk-scale
benchmark used by the model tests and the acceptance suite."""

import numpy as np

from progsub import AdmmConfig, HyperParams
from progsub.harness import ExperimentConfig, PRESETS


def two_gaussians_fixture(seed=0, n_per_class=20, dim=6):
    """Separable 2-class training block with segment ids; columns scaled to
    max norm 1 so the unit-ball constraint is satisfiable alongside good
    reconstruction."""
    rng = np.random.default_rng(seed)
    a = 0.15 * rng.standard_normal((dim, n_per_class)) + rng.random((dim, 1))
    b = 0.15 * rng.standard_normal((dim, n_per_class)) + rng.random((dim, 1)) + 1.0
    x = np.hstack([np.abs(a), np.abs(b)])
    x = x / np.linalg.norm(x, axis=0).max()
    labels = [1] * n_per_class + [2] * n_per_class
    n = 2 * n_per_class
    seg_ids = np.arange(n) // 5  # five-pixel segments in column order
    return x, labels, seg_ids


def small_hyper(m=1, d=3, **overrides):
    base = dict(alpha=1.0, beta=0.1, gamma=0.1, layers=m,
                dims=tuple([d] * m), knn_k=5, sigma=0.5)
    base.update(overrides)
    return HyperParams(**base)


def fast_admm(**overrides):
    base = dict(max_iters=300)
    base.update(overrides)
    return AdmmConfig(**base)


def benchmark_config(seed=7, method="progsub", layers=2, out_dir=None,
                     **extra):
    """The standard seeded synthetic benchmark as an ExperimentConfig."""
    mapping = dict(PRESETS["synth-benchmark"])
    mapping["method"] = method
    mapping["model.layers"] = str(layers)
    mapping.update({k: str(v) for k, v in extra.items()})
    return ExperimentConfig.from_mapping(mapping, seed=seed, out_dir=out_dir)
