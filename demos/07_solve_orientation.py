#!/usr/bin/env python3
"""Which way each ADMM block system is solved, and what an iteration costs.

Every ADMM block update solves a symmetric positive-definite system
lhs @ out = rhs from one Cholesky factor U (lhs = U'U). `solve_factored`
picks the solve by the memory order of rhs:

- left (dpotrs): U' then U applied to rhs from the left. A Fortran-ordered
  rhs takes it: the projection's and the readout's right-hand sides.
- right (two right-side dtrsm): out' U'U = rhs', solved on rhs.T, which is
  a C-ordered rhs's own memory. Every other rhs takes it: the features
  system, its labeled block and the decoder system.

The first table prints microseconds per solve in both orientations at the
benchmark's system shapes; `*` marks the one `solve_factored` takes. The
second prints `run_admm` microseconds per iteration (CPU time) at the
first-layer shapes of the desk (12 -> 5 over 120 columns), scene
(200 -> 20 over 320) and semisup (100 -> 20 over 1690, 10% labeled)
workloads, on random inputs with the prediction term in.

    python3 demos/07_solve_orientation.py           # a few seconds
    python3 demos/07_solve_orientation.py --full    # more rounds, README's table
"""

import argparse
import time

import numpy as np

from progsub.harness import pin_blas_threads
from progsub.pretrain import (LayerTerms, run_admm, solve_factored,
                              spd_factor)
from progsub.types import AdmmConfig

# (shape, system, size, right-hand sides, orientation solve_factored takes)
SOLVES = [
    ("desk", "projection", 12, 5, "left"),
    ("desk", "features", 5, 120, "right"),
    ("desk", "decoder", 5, 12, "right"),
    ("scene", "projection", 200, 20, "left"),
    ("scene", "features", 20, 320, "right"),
    ("scene", "decoder", 20, 200, "right"),
    ("semisup", "projection", 100, 20, "left"),
    ("semisup", "features", 20, 1692, "right"),
    ("semisup", "labeled block", 20, 180, "right"),
    ("semisup", "decoder", 20, 100, "right"),
]
# (shape, d_in, d_out, columns, labeled share, classes)
LAYERS = [
    ("desk", 12, 5, 120, 1.0, 4),
    ("scene", 200, 20, 320, 1.0, 16),
    ("semisup", 100, 20, 1690, 0.1, 9),
]


def best_seconds(fn, rounds, min_time=0.01):
    """Best over `rounds` of the mean seconds per call of fn, each round
    repeating fn until it has run for min_time."""
    reps, start = 0, time.perf_counter()
    while time.perf_counter() - start < min_time:
        fn()
        reps += 1
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - start) / reps)
    return best


def solve_table(rounds):
    rng = np.random.default_rng(0)
    print("shape    system          system   rhs    left µs   right µs")
    for shape, system, n, m, taken in SOLVES:
        g = rng.standard_normal((n, n + 3))
        factor = spd_factor(g @ g.T + 0.25 * np.eye(n))
        rhs = rng.standard_normal((n, m))
        rhs_f = np.asfortranarray(rhs)
        cells = {}
        for side, arg in (("left", rhs_f), ("right", rhs)):
            us = 1e6 * best_seconds(lambda: solve_factored(factor, arg),
                                    rounds)
            mark = "*" if side == taken else " "
            cells[side] = f"{us:8.1f}{mark}"
        print(f"{shape:<8} {system:<15} {n:3d}x{n:<3d} {m:5d}  "
              f"{cells['left']}  {cells['right']}")


def admm_table(iters, rounds):
    rng = np.random.default_rng(1)
    cfg = AdmmConfig(eps=1e-300, max_iters=iters)
    print("shape    layer               µs per iteration")
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
        print(f"{shape:<8} {d_in:3d} -> {d_out:<3d} over {n:<5d} "
              f"{1e6 * best / iters:10.0f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="more rounds and iterations per timing")
    args = parser.parse_args()
    pin_blas_threads()
    solve_table(rounds=7 if args.full else 3)
    print()
    admm_table(iters=60 if args.full else 20, rounds=12 if args.full else 3)


if __name__ == "__main__":
    main()
