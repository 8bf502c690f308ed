#!/usr/bin/env python3
"""Where the ADMM penalty schedule starts: mu0 against work and quality.

Every ADMM run (pre-training and each fine-tune step) climbs the penalty
ladder mu0 * rho^k from `admm.mu0`. This script fits the same prepared
inputs at several mu0 values and prints, per shape, the fine-tune ADMM
iterations summed over the seeds, the mean overall accuracy and the mean
final training objective. The shapes are the benchmark's: desk
(`synth-benchmark`), scene (145x145x200, 16 classes, `tuned-d20`) and
semisup (40x40x100 with half the unlabeled pixels in the fit).

    python3 demos/05_penalty_schedule.py          # desk seed 1, two mu0
    python3 demos/05_penalty_schedule.py --full   # README's tables

`--full` also fits scene-semi (scene with 10% of the unlabeled pixels in
the fit, 3 outer sweeps) with and without those pixels, and counts the
ADMM runs that stopped at `admm.max_iters`. It takes several minutes.
"""

import argparse
import statistics

from progsub.harness import (ExperimentConfig, _fit_and_score,
                             pin_blas_threads, prepare_data)

SCENE = {
    "preset": "tuned-d20", "model.layers": "2",
    "synthetic.width": "145", "synthetic.height": "145",
    "synthetic.bands": "200", "synthetic.classes": "16",
    "synthetic.separation": "1.0", "synthetic.noise": "0.4",
    "synthetic.blob": "12", "split.train_per_class": "10",
}
SHAPES = {
    "desk": {"preset": "synth-benchmark"},
    "scene": SCENE,
    "semisup": {
        "preset": "tuned-d20", "model.layers": "2", "model.max_outer": "3",
        "synthetic.width": "40", "synthetic.height": "40",
        "synthetic.bands": "100", "synthetic.classes": "9",
        "synthetic.separation": "3.0", "synthetic.noise": "0.4",
        "synthetic.blob": "5", "split.train_per_class": "10",
        "split.unlabeled_fraction": "0.5", "run.include_unlabeled": "true",
    },
}
SCENE_SEMI = {**SCENE, "split.unlabeled_fraction": "0.1",
              "model.max_outer": "3"}


def fit_and_score(config, data):
    """run_experiment's fit and scoring on prepared data; returns (oa,
    FitReport)."""
    metrics, _, report, _ = _fit_and_score(config, data, config.hyper)
    return metrics.oa, report


def schedule_table(shapes, seeds, mu0s):
    print("mu0     " + "".join(f"| {name:<27}" for name in shapes))
    print("        " + "| ft iters  mean oa  mean obj " * len(shapes))
    cells = {}
    for name in shapes:
        for seed in seeds[name]:
            # mu0 changes no input: the data are prepared once per seed
            data = prepare_data(ExperimentConfig.from_mapping(SHAPES[name],
                                                              seed=seed))
            for mu0 in mu0s:
                config = ExperimentConfig.from_mapping(
                    {**SHAPES[name], "admm.mu0": mu0}, seed=seed)
                oa, report = fit_and_score(config, data)
                cells.setdefault((name, mu0), []).append((
                    sum(rep.iterations for sweep in report.finetune_reports
                        for rep in sweep),
                    oa, report.objective_trace[-1]))
    for mu0 in mu0s:
        row = f"{mu0:<8}"
        for name in shapes:
            iters, oas, objs = zip(*cells[name, mu0])
            row += (f"| {sum(iters):8d}  {statistics.mean(oas):7.4f}  "
                    f"{statistics.mean(objs):8.3f} ")
        print(row)


def scene_semi_table(seeds, mu0s):
    print("\nscene-semi, model.max_outer=3: oa labeled-only / with unlabeled,"
          " ADMM runs at admm.max_iters")
    for mu0 in mu0s:
        for seed in seeds:
            config = ExperimentConfig.from_mapping(
                {**SCENE_SEMI, "admm.mu0": mu0}, seed=seed)
            data = prepare_data(config)
            labeled_oa, _ = fit_and_score(config, data)
            semi = ExperimentConfig.from_mapping(
                {**SCENE_SEMI, "admm.mu0": mu0,
                 "run.include_unlabeled": "true"}, seed=seed)
            semi_oa, report = fit_and_score(semi, data)
            # a run that does not converge stops at admm.max_iters
            runs = report.pretrain_reports + [
                rep for sweep in report.finetune_reports for rep in sweep]
            capped = sum(not rep.converged for rep in runs)
            print(f"mu0={mu0:<6} seed {seed}: {labeled_oa:.3f} / "
                  f"{semi_oa:.3f}, {capped} of {len(runs)} runs at the cap")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="every shape and mu0 of README's tables")
    args = parser.parse_args()
    pin_blas_threads()      # one BLAS thread, as every entry point runs
    if not args.full:
        schedule_table(["desk"], {"desk": [1]}, ["1e-3", "0.3"])
        return
    schedule_table(list(SHAPES),
                   {"desk": range(1, 13), "scene": range(3, 6),
                    "semisup": range(3, 6)},
                   ["1e-3", "0.1", "0.2", "0.3", "0.5", "1", "3"])
    scene_semi_table(range(3, 6), ["1e-3", "0.3"])


if __name__ == "__main__":
    main()
