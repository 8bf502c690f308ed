"""Shared fixtures: tiny separable training sets and the seeded desk-scale
benchmark used by the model tests and the acceptance suite."""

import numpy as np

from progsub import AdmmConfig, HyperParams, generate_synthetic
from progsub.formats import save_cube, save_labels
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


def desk_file_config(tmp_path, seed, out_dir=None):
    """The desk benchmark read from files, as benchmarks/run.py feeds it:
    the seed's synthetic cube and labels written with save_cube and
    save_labels, named by data.* keys next to the synthetic-benchmark
    preset."""
    spec = benchmark_config(seed=seed).synthetic
    cube, labels, width, height = generate_synthetic(spec)
    paths = {key: str(tmp_path / name) for key, name in (
        ("data.cube_header", "cube.json"), ("data.cube_payload", "cube.raw"),
        ("data.labels", "labels.txt"))}
    save_cube(paths["data.cube_header"], paths["data.cube_payload"], cube,
              width, height)
    save_labels(paths["data.labels"], labels)
    return ExperimentConfig.from_mapping(
        {"preset": "synth-benchmark", **paths}, seed=seed, out_dir=out_dir)
