#!/usr/bin/env python3
"""One layer's ADMM pre-training, step by step.

Trains a single 4-dimensional projection on a toy nonnegative block and
prints the residual trace: the four constraint residuals must all fall
below the tolerance while the embedded features stay nonnegative with
columns inside the unit ball.
"""

import numpy as np

from progsub import AdmmConfig, knn_heat_graph, laplacian, pretrain_layer


def main():
    rng = np.random.default_rng(42)
    x = np.abs(rng.standard_normal((8, 40))) + 0.1
    x = x / np.linalg.norm(x, axis=0).max()
    lap = laplacian(knn_heat_graph(x, k=6, sigma=0.5))
    theta0 = np.linalg.qr(rng.standard_normal((8, 4)))[0].T

    # a random start: the default mu0=0.3 suits fit_stack's LPP warm start
    # and would hold this run near theta0 (objective 2.660 against 2.085)
    cfg = AdmmConfig(mu0=1e-3)  # mu_max=1e6, rho=2, eps=1e-6 as default
    proj, report = pretrain_layer(x, lap, theta0, eta=0.1, cfg=cfg)

    print("iter   r_feats    r_decoder  r_nonneg   r_norm     mu        objective")
    marks = set(range(0, report.iterations, max(1, report.iterations // 10)))
    marks.add(report.iterations - 1)
    for row in report.trace:
        if row[0] in marks:
            print(f"{row[0]:4d}   {row[1]:.3e}  {row[2]:.3e}  {row[3]:.3e}  "
                  f"{row[4]:.3e}  {row[5]:.2e}  {row[6]:.5f}")

    print(f"\nConverged: {report.converged} after {report.iterations} "
          f"iterations (tolerance {cfg.eps:g})")
    emb = proj @ x
    print(f"Embedded features: min entry {emb.min():.2e}, "
          f"max column norm {np.linalg.norm(emb, axis=0).max():.4f}")
    recon = np.linalg.norm(x - proj.T @ emb) / np.linalg.norm(x)
    print(f"Relative reconstruction error through the 4-D bottleneck: "
          f"{recon:.4f}")
    print("\nThe trace above is what fit writes to pretrain_layer<l>.csv.")


if __name__ == "__main__":
    main()
