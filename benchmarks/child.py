"""One benchmark child process: set up, run one operation's experiments
and check their outputs.

``run.py`` starts this script once per operation, so every operation runs
in a fresh process:

    python3 benchmarks/child.py '<job as JSON>'

The last line of standard output is a JSON result object.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Pinned before numpy loads. At the inherited default of 2 BLAS threads on a
# 2-vCPU machine OpenBLAS threads spin against each other (CPU time ~2x wall
# time, runs 3-6x slower); at 1 thread the run measures the algorithm, not
# the scheduler.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402

# objective trace may not rise by more than this share of the previous value
MONOTONE_SLACK = 1e-9


def os_thread_count():
    return len(os.listdir("/proc/self/task"))


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
    }
    env.update({var: os.environ[var] for var in BLAS_THREAD_VARS})
    return env


def check_outputs(artifacts, metrics, n_pixels, n_classes):
    """Return a list of problems with the run's written artifacts."""
    problems = []
    with open(artifacts["predictions.txt"], "r", encoding="ascii") as fh:
        preds = fh.read().split("\n")
    if preds[-1] != "":
        problems.append("predictions.txt does not end with a newline")
    preds = preds[:-1]
    if len(preds) != n_pixels:
        problems.append(f"predictions.txt has {len(preds)} lines for "
                        f"{n_pixels} pixels")
    bad = [p for p in preds if not (p.isdigit() and 1 <= int(p) <= n_classes)]
    if bad:
        problems.append(f"predictions.txt has {len(bad)} labels outside "
                        f"1..{n_classes}, e.g. {bad[0]!r}")

    with open(artifacts["metrics.csv"], "r", encoding="utf-8") as fh:
        rows = fh.read().split("\n")
    if len(rows) != 3 or rows[2] != "" or rows[1] != metrics.csv_row():
        problems.append("metrics.csv differs from the returned MetricsReport")

    with open(artifacts["convergence.csv"], "r", encoding="utf-8") as fh:
        trace = [float(line.split(",")[1])
                 for line in fh.read().split("\n")[1:] if line]
    if not trace:
        problems.append("convergence.csv has no objective values")
    for t in range(1, len(trace)):
        if trace[t] > trace[t - 1] + MONOTONE_SLACK * abs(trace[t - 1]):
            problems.append(f"objective rises at outer iteration {t}: "
                            f"{trace[t - 1]!r} -> {trace[t]!r}")
            break

    if not metrics.oa > 1.0 / n_classes:
        problems.append(f"oa {metrics.oa} is not above chance 1/{n_classes}")
    digest = hashlib.sha256("\n".join(preds).encode("ascii")).hexdigest()
    return problems, digest, (trace[-1] if trace else None)


def run(job):
    """Set up once, then run each of the operation's experiments in turn."""
    import numpy  # noqa: F401  (thread count is checked once numpy is loaded)

    threads = os_thread_count()
    import progsub
    from progsub import formats, harness

    shapes = []
    for exp in job["experiments"]:
        cube, width, height = formats.load_cube(exp["header"], exp["payload"])
        labels = formats.load_labels(exp["labels"], width * height)
        shapes.append((width * height, max(labels)))
    setup_s = time.perf_counter() - T_START
    env = environment()
    env["os_threads"] = threads
    if threads != 1:
        return {"ok": False, "env": env,
                "error": f"{threads} OS threads after numpy loaded, expected 1"}
    del cube, labels   # each run loads its own copy; keep it out of the peak
    if job["setup_only"]:
        return {"ok": True, "env": env, "setup_s": setup_s}

    tracer = spans.Tracer().install(progsub) if job["trace"] else None
    results, written = [], 0
    try:
        for exp, (n_pixels, n_classes) in zip(job["experiments"], shapes):
            config = harness.ExperimentConfig.from_mapping(exp["config"],
                                                           out_dir=exp["out"])
            t0 = time.perf_counter()
            metrics, artifacts = harness.run_experiment(config)
            run_s = time.perf_counter() - t0
            problems, digest, objective = check_outputs(
                artifacts, metrics, n_pixels, n_classes)
            written += sum(os.path.getsize(p) for p in artifacts.values())
            results.append({"problems": problems, "digest": digest,
                            "run_s": run_s, "oa": metrics.oa,
                            "kappa": metrics.kappa, "objective": objective})
    finally:
        if tracer is not None:
            tracer.restore()

    problems = [p for r in results for p in r["problems"]]
    result = {
        "ok": not problems,
        "problems": problems,
        "env": env,
        "setup_s": setup_s,
        "peak_rss_mb": spans.peak_rss_mb(),
        "experiments": results,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["bytes_written"] = written
    return result


def main():
    job = json.loads(sys.argv[1])
    try:
        result = run(job)
    except Exception:  # reported to the parent as a failed operation
        result = {"ok": False, "error": traceback.format_exc(limit=4)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
