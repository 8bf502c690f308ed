#!/usr/bin/env python3
"""What the two hot loops of a semi-supervised fit cost: an ADMM iteration
and the kNN graph.

The first table prints `run_admm` microseconds per iteration (CPU time,
best of a few runs) on random inputs with the prediction term in, at the
first-layer shapes of the desk (12 -> 5 over 120 columns), scene
(200 -> 20 over 320) and semisup (100 -> 20 over 1692, 10% labeled)
workloads and at semisup's second layer (20 -> 20 over 1692). An
iteration allocates no d_out x n array: the run owns its buffers.

The second table builds the fit's two kNN graphs (pixels and superpixel
stream, k = 10) at the semisup shape (40x40x100, half the unlabeled pixels
in the fit) and at scene-semi 0.1 (145x145x200, 10% of the unlabeled
pixels in the fit), from the cube, segmentation and split a run makes. It
prints `knn_heat_graph` milliseconds, the mean number of candidate pairs
per row that the search measures exactly (the k nearest and every column
within the rounding bound of the k-th GEMM distance), and, for scale,
milliseconds of one cdist over all pairs, which the search measured before
it had candidates.

    python3 demos/08_fit_hot_loops.py    # a few seconds
"""

import time

import numpy as np
from scipy.spatial.distance import cdist

import progsub.graphs
from progsub import harness, knn_heat_graph, superpixel_stream
from progsub.pretrain import LayerTerms, run_admm
from progsub.types import AdmmConfig

# (shape, d_in, d_out, columns, labeled share, classes)
LAYERS = [
    ("desk", 12, 5, 120, 1.0, 4),
    ("scene", 200, 20, 320, 1.0, 16),
    ("semisup", 100, 20, 1692, 0.1, 9),
    ("semisup l2", 20, 20, 1692, 0.1, 9),
]
# (shape, config keys)
GRAPHS = [
    ("semisup", {"preset": "tuned-d20",
                 "synthetic.width": "40", "synthetic.height": "40",
                 "synthetic.bands": "100", "synthetic.classes": "9",
                 "synthetic.separation": "3.0", "synthetic.blob": "5",
                 "split.unlabeled_fraction": "0.5"}),
    ("scene-semi", {"preset": "tuned-d20",
                    "synthetic.width": "145", "synthetic.height": "145",
                    "synthetic.bands": "200", "synthetic.classes": "16",
                    "synthetic.separation": "1.0", "synthetic.blob": "12",
                    "split.unlabeled_fraction": "0.1"}),
]


def admm_table(iters=20, rounds=3):
    rng = np.random.default_rng(1)
    cfg = AdmmConfig(eps=1e-300, max_iters=iters)
    print("shape        layer                µs per iteration")
    for shape, d_in, d_out, n, share, classes in LAYERS:
        x = rng.random((d_in, n))
        x /= np.linalg.norm(x, axis=0).max()
        gram = rng.standard_normal((d_in, d_in + 3))
        terms = LayerTerms(x, 1e-3 * (gram @ gram.T))
        proj0 = np.linalg.qr(rng.standard_normal((d_in, d_out)))[0].T
        labeled = None if share == 1.0 else rng.random(n) < share
        supervision = (rng.standard_normal((classes, d_out)),
                       rng.random((classes, n)), 1.0, labeled)
        run_admm(terms, proj0, 0.1, cfg, supervision)  # cache the factors
        best = float("inf")
        for _ in range(rounds):
            start = time.process_time()
            run_admm(terms, proj0, 0.1, cfg, supervision)
            best = min(best, time.process_time() - start)
        print(f"{shape:<12} {d_in:3d} -> {d_out:<3d} over {n:<5d} "
              f"{1e6 * best / iters:10.0f}")


def fit_blocks(keys):
    """The pixel and stream blocks a run at these config keys fits."""
    config = harness.ExperimentConfig.from_mapping(
        dict(keys, **{"run.include_unlabeled": "true"}), seed=3)
    data = harness.prepare_data(config)
    fit_idx = np.concatenate([data.split.train_indices,
                              data.split.unlabeled_indices])
    return (data.cube[:, fit_idx],
            superpixel_stream(data.cube, data.seg.labels, fit_idx))


def count_candidates(x, k):
    """Mean candidate pairs per row that _candidates returns to the
    search."""
    candidates, seen = progsub.graphs._candidates, []

    def counting(*args):
        rows, cols = candidates(*args)
        seen.append(rows.size)
        return rows, cols

    progsub.graphs._candidates = counting
    try:
        knn_heat_graph(x, k, 0.1)
    finally:
        progsub.graphs._candidates = candidates
    return sum(seen) / x.shape[1]


def knn_table(k=10, rounds=3):
    print("shape        block    columns  bands   knn ms  candidates/row"
          "  all-pairs cdist ms")
    for shape, keys in GRAPHS:
        for block, x in zip(("pixels", "stream"), fit_blocks(keys)):
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                knn_heat_graph(x, k, 0.1)
                best = min(best, time.perf_counter() - start)
            pts = np.ascontiguousarray(x.T)
            start = time.perf_counter()
            cdist(pts, pts, "sqeuclidean")
            full = time.perf_counter() - start
            print(f"{shape:<12} {block:<8} {x.shape[1]:7d} {x.shape[0]:6d} "
                  f"{1e3 * best:8.1f} {count_candidates(x, k):15.2f} "
                  f"{1e3 * full:19.1f}")


def main():
    harness.pin_blas_threads()
    admm_table()
    print()
    knn_table()


if __name__ == "__main__":
    main()
