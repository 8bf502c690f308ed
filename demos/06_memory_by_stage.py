#!/usr/bin/env python3
"""Memory of one run, stage by stage.

Writes a synthetic cube and its labels to files, then runs the experiment
on those files in a fresh Python process, as the benchmark's operations do,
and prints that process's VmHWM (peak resident memory so far) and VmRSS
(resident memory now) after each pipeline stage: load, segment, split,
stream, fit, transform, classify, metrics and write. Both are read from
/proc/self/status; where that file is absent they print as "unavailable".

    python3 demos/06_memory_by_stage.py           # desk (16x16x12)
    python3 demos/06_memory_by_stage.py --scene   # 145x145x200, README's table
"""

import argparse
import contextlib
import os
import subprocess
import sys
import tempfile

from progsub import formats, generate_synthetic, harness

SHAPES = {
    "desk": {"preset": "synth-benchmark"},
    "scene": {
        "preset": "tuned-d20", "model.layers": "2",
        "synthetic.width": "145", "synthetic.height": "145",
        "synthetic.bands": "200", "synthetic.classes": "16",
        "synthetic.separation": "1.0", "synthetic.noise": "0.4",
        "synthetic.blob": "12", "split.train_per_class": "10",
    },
}


def memory_mb():
    """(VmHWM, VmRSS) of this process in MB, or None without /proc."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh if ":" in line)
        return tuple(int(fields[key].split()[0]) / 1024
                     for key in ("VmHWM", "VmRSS"))
    except (OSError, KeyError, ValueError):
        return None


def report(stage):
    mem = memory_mb()
    cells = ("unavailable",) * 2 if mem is None else \
        tuple(f"{value:.1f}" for value in mem)
    print(f"{stage:<14}{cells[0]:>12}{cells[1]:>12}", flush=True)


def write_inputs(shape, seed, workdir):
    """The shape's synthetic cube and labels as files; returns the config
    text that names them."""
    config = harness.ExperimentConfig.from_mapping(SHAPES[shape], seed=seed)
    cube, labels, width, height = generate_synthetic(config.synthetic)
    paths = {key: os.path.join(workdir, name) for key, name in (
        ("data.cube_header", "cube.json"), ("data.cube_payload", "cube.raw"),
        ("data.labels", "labels.txt"))}
    formats.save_cube(paths["data.cube_header"], paths["data.cube_payload"],
                      cube, width, height)
    formats.save_labels(paths["data.labels"], labels)
    keys = {k: v for k, v in SHAPES[shape].items()
            if not k.startswith("synthetic.")}
    keys.update(paths, seed=str(seed), out=os.path.join(workdir, "out"))
    return "".join(f"{k}={v}\n" for k, v in keys.items())


def run_measured(config_path):
    """Run the experiment, reporting memory as each harness stage ends."""
    stage = harness._stage

    @contextlib.contextmanager
    def reporting_stage(name):
        with stage(name):
            yield
        report(name)

    report("after imports")
    harness._stage = reporting_stage
    harness.run_experiment(harness.load_config(config_path))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scene", action="store_true",
                        help="the 145x145x200 scene shape instead of desk")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--run", metavar="CONFIG", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        run_measured(args.run)
        return
    shape = "scene" if args.scene else "desk"
    with tempfile.TemporaryDirectory() as workdir:
        config_path = os.path.join(workdir, "config.txt")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(write_inputs(shape, args.seed, workdir))
        print(f"{shape}, seed {args.seed}: memory of a fresh process running "
              "it from files, after each stage")
        print(f"{'stage':<14}{'VmHWM, MB':>12}{'VmRSS, MB':>12}", flush=True)
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--run", config_path], check=True)


if __name__ == "__main__":
    main()
