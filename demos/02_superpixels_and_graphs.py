#!/usr/bin/env python3
"""Superpixel segmentation and the fused spatial-spectral graph.

Walks through the graph construction used during training: segment the
cube, build the per-pixel mean-spectrum stream, assemble the three
adjacency blocks, and check the fused Laplacian's defining properties.
"""

import numpy as np

from progsub import (SyntheticSpec, alignment_graph, assemble_fused,
                     generate_synthetic, knn_heat_graph, segment_count,
                     slic_segment, superpixel_stream)


def main():
    spec = SyntheticSpec(width=20, height=20, bands=10, n_classes=5,
                         separation=1.2, noise=0.2, seed=3)
    cube, labels, width, height = generate_synthetic(spec)
    n = width * height
    print(f"Scene: {width}x{height}x{spec.bands}, {spec.n_classes} classes")

    n_segments = segment_count(n, 0.10)
    seg = slic_segment(cube, width, height, n_segments)
    sizes = np.bincount(seg.labels)
    print(f"\nSegmentation: requested {n_segments} segments, got "
          f"{seg.n_segments}; sizes min={sizes.min()} mean={sizes.mean():.1f} "
          f"max={sizes.max()}")

    purity = 0
    lab = np.asarray(labels)
    for s in range(seg.n_segments):
        members = lab[seg.labels == s]
        purity += np.bincount(members).max()
    print(f"Segment label purity: {purity / n:.3f} "
          f"(fraction of pixels matching their segment's majority class)")

    stream = superpixel_stream(cube, seg.labels)
    noise_px = np.linalg.norm(cube - stream) / np.sqrt(n)
    print(f"Stream vs pixel RMS difference per pixel: {noise_px:.4f} "
          f"(averaging suppresses per-pixel noise)")

    # graphs over a 60-pixel training subset, like the trainer builds them
    rng = np.random.default_rng(0)
    train = np.sort(rng.choice(n, size=60, replace=False))
    wp = knn_heat_graph(cube[:, train], k=8, sigma=0.5)
    wsp = knn_heat_graph(stream[:, train], k=8, sigma=0.5)
    wa = alignment_graph(seg.labels[train])
    bundle = assemble_fused(wp, wsp, wa)
    lf = bundle.lf.toarray()
    eigs = np.linalg.eigvalsh(lf)
    print(f"\nFused graph: {bundle.wf.shape[0]}x{bundle.wf.shape[1]} with "
          f"{bundle.wf.nnz} edges")
    print(f"Laplacian row sums (max |.|): {np.abs(lf.sum(axis=1)).max():.2e}")
    print(f"Laplacian spectrum: min {eigs.min():.2e}, max {eigs.max():.3f} "
          f"(positive semidefinite)")

    v = rng.standard_normal(lf.shape[0])
    direct = 0.5 * np.sum(bundle.wf.toarray()
                          * (v[:, None] - v[None, :]) ** 2)
    print(f"Quadratic-form identity check: x'Lx = {v @ lf @ v:.6f}, "
          f"edge sum = {direct:.6f}")


if __name__ == "__main__":
    main()
