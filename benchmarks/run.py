"""progsub benchmark runner.

Runs one named workload closed-loop (one operation at a time, each in a
fresh child process) for a fixed time and prints its metrics:

    python3 benchmarks/run.py --workload scene --seed 7 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports per-layer metrics plus a span
tree. ``--workload all`` runs every workload in turn. ``--reduced`` shrinks
every shape for a quick smoke run (see ``selftest.py``). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

This process generates each operation's inputs from ``--seed`` with
``progsub.generate_synthetic`` and writes them through ``progsub.formats``
before the operation starts; the experiments see only those files. The
script reads and writes inside the checkout only (scratch files go to
``.bench_work/``, removed at exit).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# a run stops every child by this many seconds after it starts, so it ends
# well within three minutes even if a child hangs
RUN_LIMIT_S = 160


@dataclass(frozen=True)
class Workload:
    synthetic: dict            # SyntheticSpec fields except the seed
    config: dict               # experiment config keys (flat key=value)
    seeds_per_op: int = 1      # experiments per operation, at seeds s..s+k-1
    reduced: dict = field(default_factory=dict)   # shape for --reduced
    dominant: str = None       # layer predicted to have the most self time


WORKLOADS = {
    # The acceptance-suite shape (16x16x12, 6 classes, 10 labeled/class,
    # 2 layers of dim 5), five experiments per operation at consecutive seeds.
    # Tiny matrices, so per-call overhead in harness/pretrain/model
    # dominates; this is also the shape whose predictions must not change.
    "desk": Workload(
        synthetic=dict(width=16, height=16, bands=12, n_classes=6,
                       separation=1.0, noise=0.4, blob_size=5),
        config={"preset": "synth-benchmark"},
        seeds_per_op=5,
    ),
    # The Indian Pines shape (145x145x200, 16 classes, tuned-d20, 2 layers,
    # 10 labeled/class), fit to convergence. slic_segment takes about 2/3 of
    # the run and sets the peak RSS through its dense N x K matrices, while
    # the fit has only 320 columns: the workload for SLIC/memory work and
    # for the whole-image transform/nn_classify/write path.
    "scene": Workload(
        synthetic=dict(width=145, height=145, bands=200, n_classes=16,
                       separation=1.0, noise=0.4, blob_size=12),
        config={"preset": "tuned-d20", "model.layers": "2",
                "split.train_per_class": "10"},
        reduced=dict(width=24, height=24, bands=20),
        dominant="superpixels.slic_segment",
    ),
    # 40x40x100, 9 classes, tuned-d20, 2 layers, 10 labeled/class, with half
    # the unlabeled pixels joining the fit: ~850 fit pixels, ~1.7k fused
    # columns. fit_stack takes ~98% of the run and SLIC is negligible; the
    # masked semi-supervised feature update solves two systems per ADMM
    # iteration and knn_heat_graph runs at n~850. The workload for ADMM and
    # fine-tune work. Three outer sweeps (every input needs at least three)
    # and well-separated classes keep the work and the scores nearly the
    # same from input to input, so the run measures cost per sweep.
    "semisup": Workload(
        synthetic=dict(width=40, height=40, bands=100, n_classes=9,
                       separation=3.0, noise=0.4, blob_size=5),
        config={"preset": "tuned-d20", "model.layers": "2",
                "model.max_outer": "3", "split.train_per_class": "10",
                "split.unlabeled_fraction": "0.5",
                "run.include_unlabeled": "true"},
        reduced=dict(width=20, height=20, bands=30),
        dominant="model.finetune_projection",
    ),
}

# name -> unit; one operation's setup_s and peak_rss_mb are its child's,
# run_s sums its experiments and the scores are their means
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "oa": "fraction",
    "kappa": "fraction",
    "objective": "1",
}

# per-layer metric name -> unit; "<module>.<function>.<quantity>" names read
# the span totals of that function over an operation's experiments
PER_LAYER = {
    "superpixels.slic_segment.s": "s",
    "superpixels.slic_segment.rss_gain_mb": "MB",
    "superpixels.n_segments": "count",
    "superpixels.superpixel_stream.s": "s",
    "pretrain.pretrain_layer.s": "s",
    "pretrain.pretrain_layer.admm_iters": "count",
    "pretrain.pretrain_layer.ms_per_iter": "ms",
    "pretrain.admm_unconverged": "count",
    "model.finetune_projection.s": "s",
    "model.finetune_projection.calls": "count",
    "model.finetune_projection.admm_iters": "count",
    "model.finetune_projection.ms_per_iter": "ms",
    "model.finetune_projection.accept_ratio": "fraction",
    "model.fit_stack.s": "s",
    "model.fit_stack.self_s": "s",
    "model.fit_stack.outer_iters": "count",
    "model.objective_value.s": "s",
    "model.objective_value.calls": "count",
    "model.fit_readout.s": "s",
    "model.transform.s": "s",
    "graphs.knn_heat_graph.s": "s",
    "graphs.knn_heat_graph.rss_gain_mb": "MB",
    "graphs.assemble_fused.s": "s",
    "graphs.alignment_graph.s": "s",
    "graphs.fused_nnz": "count",
    "embedding.lpp_fit.s": "s",
    "metrics.nn_classify.s": "s",
    "formats.load_cube.s": "s",
    "formats.load_labels.s": "s",
    "formats.render_class_map.s": "s",
    "formats.dump_model_bytes.s": "s",
    "formats.bytes_written": "bytes",
    "harness.run_experiment.self_s": "s",
    "trace.overhead_s": "s",
}

# counts recorded on one function's spans but reported under a module name
COUNT_METRICS = {
    "superpixels.n_segments": (("superpixels.slic_segment", "n_segments"),),
    "graphs.fused_nnz": (("graphs.assemble_fused", "fused_nnz"),),
    "model.fit_stack.outer_iters": (("model.fit_stack", "outer_iters"),),
    # every ADMM run that stopped at max_iters, pre-training and fine-tuning
    "pretrain.admm_unconverged": (
        ("pretrain.pretrain_layer", "admm_unconverged"),
        ("model.finetune_projection", "admm_unconverged"),
    ),
}

SELF_TIME_TOLERANCE = 0.01   # share of run_s the self times may miss by
SETUP_SAMPLES = 7            # setup_s is the median of at least this many
SEED_STRIDE = 1000           # experiment seeds of run seed s: s*1000, s*1000+1, ...


def call_child(job, deadline):
    """Run one child to completion; returns its result dict."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True,
            timeout=max(deadline - time.perf_counter(), 0.0),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False,
                "error": f"child stopped at the run's {RUN_LIMIT_S} s limit"}
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {"ok": False}
    if proc.returncode != 0:
        result = {"ok": False, "error": f"child exited {proc.returncode}: "
                  f"{proc.stderr.strip()[-2000:]}"}
    return result


def op_seeds(wl, seed, op):
    """Experiment seeds of operation `op`: every operation of a run gets
    inputs of its own, so a run's medians cover many inputs."""
    first = seed * SEED_STRIDE + op * wl.seeds_per_op
    return list(range(first, first + wl.seeds_per_op))


def make_inputs(wl, seeds, reduced, workdir):
    """Generate and write one cube + labels file set per experiment seed."""
    from progsub import formats
    from progsub.synthetic import SyntheticSpec, generate_synthetic

    inputs = []
    for k, s in enumerate(seeds):
        spec = dict(wl.synthetic, seed=s)
        if reduced:
            spec.update(wl.reduced)
        # the next operation's inputs overwrite these
        stem = os.path.join(workdir, f"input{k}")
        item = {"seed": s, "header": stem + ".hdr", "payload": stem + ".bsq",
                "labels": stem + ".labels"}
        cube, labels, width, height = generate_synthetic(SyntheticSpec(**spec))
        formats.save_cube(item["header"], item["payload"], cube, width, height)
        formats.save_labels(item["labels"], labels)
        inputs.append(item)
    return inputs


def run_op(wl, inputs, workdir, deadline, trace, setup_only=False):
    """One operation: its inputs through run_experiment in a fresh child
    (or, with `setup_only`, only the child's import and input loading)."""
    experiments = []
    for item in inputs:
        config = dict(wl.config)
        config.update({"seed": str(item["seed"]),
                       "data.cube_header": item["header"],
                       "data.cube_payload": item["payload"],
                       "data.labels": item["labels"]})
        experiments.append({
            "config": config, "out": os.path.join(workdir, "out"),
            "header": item["header"], "payload": item["payload"],
            "labels": item["labels"],
        })
    return call_child({"trace": trace, "setup_only": setup_only,
                       "experiments": experiments}, deadline)


def op_run_s(result):
    return sum(e["run_s"] for e in result["experiments"])


def op_end_to_end(result):
    """An operation's metrics other than setup_s (a median over setups)."""
    exps = result["experiments"]
    return {
        "run_s": op_run_s(result),
        "peak_rss_mb": result["peak_rss_mb"],
        **{key: statistics.fmean(e[key] for e in exps)
           for key in ("oa", "kappa", "objective")},
    }


def op_per_layer(result):
    by_name = result["trace"]["by_name"]

    def total(span, quantity):
        return by_name.get(span, {}).get(quantity, 0)

    values = {}
    for name in PER_LAYER:
        if name in COUNT_METRICS:
            values[name] = sum(total(s, q) for s, q in COUNT_METRICS[name])
            continue
        span, quantity = name.rsplit(".", 1)
        if quantity == "ms_per_iter":
            iters = total(span, "admm_iters")
            values[name] = 1000.0 * total(span, "s") / iters if iters else 0.0
        elif quantity == "accept_ratio":
            calls = total(span, "calls")
            values[name] = total(span, "kept") / calls if calls else 0.0
        else:
            values[name] = total(span, quantity)
    values["formats.bytes_written"] = result["bytes_written"]
    return values


def check_trace(result, wl):
    """Self times must add up to run_s; report the tree and dominant layer."""
    problems = []
    by_name, tree = result["trace"]["by_name"], result["trace"]["tree"]
    run_s = op_run_s(result)
    self_sum = sum(node["self_s"] for node in tree.values())
    if abs(self_sum - run_s) > SELF_TIME_TOLERANCE * run_s:
        problems.append(f"span self times sum to {self_sum:.4f} s, traced "
                        f"run_s is {run_s:.4f} s")
    dominant = max(by_name, key=lambda n: by_name[n]["self_s"])
    lines = [f"span tree of the last traced operation (self / total seconds, "
             f"calls), run_s {run_s:.4f} s, self times sum to {self_sum:.4f} s:"]
    for path in sorted(tree):
        node = tree[path]
        depth = path.count("/")
        lines.append(f"  {'  ' * depth}{path.rsplit('/', 1)[-1]:<{40 - 2 * depth}}"
                     f" self {node['self_s']:9.4f}  total {node['s']:9.4f}"
                     f"  x{node['calls']}")
    if wl.dominant is None:
        lines.append(f"dominant layer: {dominant} (no prediction)")
    else:
        verdict = "confirmed" if dominant == wl.dominant else "NOT confirmed"
        lines.append(f"dominant layer: {dominant}; predicted {wl.dominant}: "
                     f"{verdict}")
    return problems, lines


def run_workload(name, seed, seconds, trace, reduced):
    """Returns (correct, attempted, failed, metrics, report lines)."""
    wl = WORKLOADS[name]
    workdir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ops = []   # (seeds, traced, child result)
    setups = []
    try:
        start = time.perf_counter()
        deadline = start + RUN_LIMIT_S
        while not ops or time.perf_counter() - start < seconds:
            seeds = op_seeds(wl, seed, len(ops) // (2 if trace else 1))
            inputs = make_inputs(wl, seeds, reduced, workdir)
            ops.append((seeds, False,
                        run_op(wl, inputs, workdir, deadline, False)))
            if trace:
                # the traced operation repeats the same inputs, so the two
                # must agree on every prediction
                ops.append((seeds, True,
                            run_op(wl, inputs, workdir, deadline, True)))
        if not trace:
            setups = [r for _, _, r in ops]
            # import time is noisy; its median needs more samples than a
            # run of a long workload has operations
            while (len(setups) < SETUP_SAMPLES
                   and time.perf_counter() < deadline):
                setups.append(run_op(wl, inputs, workdir, deadline, False,
                                     setup_only=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines, problems = [], []
    for r in [r for _, _, r in ops] + setups[len(ops):]:
        if not r.get("ok"):
            problems.append(r.get("error") or "; ".join(r.get("problems", [])))
    lines.extend(f"env: {e}" for e in sorted(
        {json.dumps(r["env"], sort_keys=True) for _, _, r in ops if "env" in r}))

    digests = {}
    for seeds, _, r in ops:
        for s, e in zip(seeds, r.get("experiments", ())):
            digests.setdefault(s, set()).add(e["digest"])
    for s, ds in sorted(digests.items()):
        lines.append(f"predictions digest seed {s}: {' '.join(sorted(ds))}")
        if len(ds) != 1:
            problems.append(f"seed {s}: runs disagree on predictions")

    good = [(t, r) for _, t, r in ops if r.get("ok")]
    metrics = {}
    if trace:
        traced = [r for t, r in good if t]
        for r in traced:
            p, report = check_trace(r, wl)
            problems.extend(p)
        if traced:
            lines.extend(report)
        pairs = [(prev, r) for (_, t, r), (_, _, prev) in zip(ops[1:], ops)
                 if t and r.get("ok") and prev.get("ok")]
        if pairs:
            per_op = [op_per_layer(r) for r in traced]
            for key in PER_LAYER:
                if key != "trace.overhead_s":
                    metrics[key] = statistics.median(v[key] for v in per_op)
            # each traced operation follows an untraced one on its inputs
            metrics["trace.overhead_s"] = statistics.median(
                op_run_s(r) - op_run_s(prev) for prev, r in pairs)
        units = PER_LAYER
    else:
        untraced = [op_end_to_end(r) for t, r in good if not t]
        if untraced:
            metrics["setup_s"] = statistics.median(
                r["setup_s"] for r in setups if r.get("ok"))
            metrics.update({key: statistics.median(v[key] for v in untraced)
                            for key in untraced[0]})
        units = END_TO_END_UNITS
    lines.extend(f"problem: {p}" for p in problems)
    failed = len(ops) - len(good)
    lines.append(f"{name}: {failed} failed / {len(ops)} attempted operations")
    for key, value in metrics.items():
        lines.append(f"  {key:<42} {value:>14.6g} {units[key]}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return not problems, len(ops), failed, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small shapes for a quick smoke run")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "progsub", "__init__.py")):
        print(f"error: no progsub sources under {SRC}", file=sys.stderr)
        return 2
    # this process only generates inputs; keep its BLAS to one thread too
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    # on SIGTERM unwind normally, so the running child is killed and waited
    # for and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, f, m, lines = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), args.reduced)
        print("\n".join(lines), flush=True)
        correct, attempted, failed = correct and ok, attempted + n, failed + f
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
