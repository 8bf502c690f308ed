"""The library's entry points and the CLI's commands run OpenBLAS on one
thread and hand the caller's thread counts back.

Every test starts from 2 threads per loaded OpenBLAS with both thread
variables removed, so a pin to 1 and the restore after it both show.
"""

import hashlib
from pathlib import Path

import pytest

from bench_utils import benchmark_config
from progsub import PipelineError, cli, harness
from progsub.harness import ExperimentConfig
from test_golden_semisup import DIGESTS, SEMISUP_CONFIG

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _counts(calls):
    return [get() for get, _ in calls]


@pytest.fixture
def blas_calls(monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    calls = harness.openblas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS found among the loaded libraries")
    found = _counts(calls)
    for _, set_count in calls:
        set_count(2)
    try:
        if _counts(calls) != [2] * len(calls):
            pytest.skip("OpenBLAS does not run 2 threads here")
        yield calls
    finally:
        for (_, set_count), count in zip(calls, found):
            set_count(count)


def _spy(monkeypatch, name, calls):
    """Wrap harness.<name> to record the thread counts each call sees."""
    seen = []
    real = getattr(harness, name)

    def spy(*args, **kwargs):
        seen.append(_counts(calls))
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, spy)
    return seen


SMALL_DESK = {"synthetic.width": "8", "synthetic.height": "8",
              "synthetic.classes": "3", "split.train_per_class": "5",
              "model.dims": "2", "model.knn_k": "4", "admm.max_iters": "200"}


def _small_desk(**extra):
    return benchmark_config(seed=5, **{**SMALL_DESK, **extra})


def test_run_experiment_fits_on_one_thread_and_gives_golden_bytes(
        blas_calls, monkeypatch, tmp_path):
    seen = _spy(monkeypatch, "fit_stack", blas_calls)
    config = ExperimentConfig.from_mapping(SEMISUP_CONFIG, seed=3,
                                           out_dir=tmp_path)
    _, artifacts = harness.run_experiment(config)
    assert seen == [[1] * len(blas_calls)]
    assert _counts(blas_calls) == [2] * len(blas_calls)
    got = {name: hashlib.sha256(Path(artifacts[name]).read_bytes())
           .hexdigest() for name in DIGESTS}
    assert got == DIGESTS


def test_run_experiment_restores_the_counts_when_it_raises(
        blas_calls, monkeypatch):
    seen = _spy(monkeypatch, "make_split", blas_calls)
    # every labeled pixel trains, so the split has no test samples
    config = _small_desk(**{"split.train_per_class": "1000"})
    with pytest.raises(PipelineError, match="no test samples"):
        harness.run_experiment(config)
    assert seen == [[1] * len(blas_calls)]
    assert _counts(blas_calls) == [2] * len(blas_calls)


@pytest.mark.parametrize("entry", ["grid_search_cv", "layer_sweep"])
def test_grid_and_sweep_fit_on_one_thread(blas_calls, monkeypatch, entry):
    seen = _spy(monkeypatch, "fit_stack", blas_calls)
    config = _small_desk(**{"grid.alpha": "1.0", "grid.folds": "2",
                            "sweep.layers": "1,2"})
    getattr(harness, entry)(config)
    assert len(seen) == 2
    assert seen == [[1] * len(blas_calls)] * 2
    assert _counts(blas_calls) == [2] * len(blas_calls)


@pytest.mark.parametrize("var", THREAD_VARS)
def test_a_thread_variable_keeps_the_callers_counts(blas_calls, monkeypatch,
                                                     var):
    monkeypatch.setenv(var, "2")
    seen = _spy(monkeypatch, "fit_stack", blas_calls)
    harness.run_experiment(_small_desk())
    assert seen == [[2] * len(blas_calls)]
    assert _counts(blas_calls) == [2] * len(blas_calls)


def test_cli_command_gives_the_callers_counts_back(blas_calls, monkeypatch,
                                                   tmp_path):
    seen = _spy(monkeypatch, "fit_stack", blas_calls)
    keys = {"preset": "synth-benchmark", **SMALL_DESK}
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    assert cli.main(["fit", "--config", str(cfg), "--seed", "5", "--out",
                     str(tmp_path / "run")]) == 0
    assert seen == [[1] * len(blas_calls)]
    assert _counts(blas_calls) == [2] * len(blas_calls)
