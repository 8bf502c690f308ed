import hashlib
import importlib.util
import itertools
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import progsub.formats
import progsub.harness
from bench_utils import (benchmark_config, desk_file_config, small_hyper,
                         traced_peak)
from oracle_utils import (reference_cv_score, reference_make_split,
                          reference_stratified_folds)
from progsub import (AdmmConfig, HyperParams, InputError, PipelineError,
                     SyntheticSpec, generate_synthetic, nn_classify)
from progsub.cli import main as cli_main
from progsub.formats import labels_text, load_labels, save_cube, save_labels
from progsub.harness import (DEFAULT_GRID, PRESETS, ExperimentConfig,
                             _GRID_FIELDS, _apply_cell, _cv_score,
                             _fit_method, _grid_cells, _stage,
                             _stratified_folds, grid_search_cv, layer_sweep,
                             load_config, load_data, make_split,
                             parse_config_text, prepare_data, run_experiment)
from progsub.model import CONVERGENCE_HEADER
from progsub.synthetic import _grow_regions, _signatures, _smooth

ROOT = Path(__file__).resolve().parent.parent
BENCH_RUN = ROOT / "benchmarks" / "run.py"
README = ROOT / "README.md"


def test_parse_config_text():
    text = "# comment\nmethod=pca\nmodel.alpha = 2.5  # inline\n\nseed=3\n"
    assert parse_config_text(text) == {
        "method": "pca", "model.alpha": "2.5", "seed": "3"
    }
    with pytest.raises(InputError, match="key=value"):
        parse_config_text("not a config line\n")


def test_config_from_mapping_with_preset_and_overrides():
    cfg = ExperimentConfig.from_mapping(
        {"preset": "tuned-d20", "model.layers": "2"}, seed=5
    )
    assert cfg.hyper.alpha == 1.0
    assert cfg.hyper.beta == 0.1
    assert cfg.hyper.dims == (20, 20)
    assert cfg.hyper.knn_k == 10
    assert cfg.hyper.sigma == 0.1
    assert cfg.seed == 5
    cfg30 = ExperimentConfig.from_mapping({"preset": "tuned-d30"})
    assert cfg30.hyper.dims == (30,)


def test_tuned_presets_differ_only_in_dims():
    assert dict(PRESETS["tuned-d30"], **{"model.dims": "20"}) == \
        PRESETS["tuned-d20"]


def test_config_rejects_unknown_preset_and_method():
    with pytest.raises(InputError, match="preset"):
        ExperimentConfig.from_mapping({"preset": "nope"})
    with pytest.raises(InputError, match="method"):
        ExperimentConfig.from_mapping({"method": "svm"})


@pytest.mark.parametrize("key,value", [
    ("split.train_per_class", "-3"),
    ("split.train_per_class", "0"),
    ("split.unlabeled_fraction", "-0.5"),
    ("split.unlabeled_fraction", "1.5"),
    ("split.unlabeled_fraction", "nan"),
])
def test_config_rejects_out_of_range_split_settings(key, value):
    with pytest.raises(InputError, match=key.replace(".", r"\.")):
        ExperimentConfig.from_mapping({"preset": "synth-benchmark",
                                       key: value})


@pytest.mark.parametrize("key,value", [
    ("slic.iters", "0"),
    ("slic.iters", "-1"),
    ("slic.compactness", "nan"),
    ("slic.compactness", "inf"),
    ("slic.compactness", "-1"),
])
def test_config_rejects_bad_slic_settings(key, value):
    with pytest.raises(InputError, match=key.replace(".", r"\.")):
        ExperimentConfig.from_mapping({"preset": "synth-benchmark",
                                       key: value})


def test_config_accepts_zero_slic_compactness():
    cfg = ExperimentConfig.from_mapping({"slic.compactness": "0"})
    assert cfg.slic_compactness == 0.0


def test_config_rejects_removed_knobs():
    # beta is the one graph weight, the outer stop a model constant and the
    # synthetic cube's seed the run's seed
    for key in ("model.eta", "model.zeta", "synthetic.seed"):
        with pytest.raises(InputError, match=f"unknown config key.*{key}"):
            ExperimentConfig.from_mapping({"preset": "synth-benchmark",
                                           key: "1"})
    cfg = benchmark_config(seed=7, **{"grid.eta": "0.1"})
    with pytest.raises(InputError, match="unknown grid parameter 'eta'"):
        _grid_cells(cfg)


DATA_KEYS = ("data.cube_header", "data.cube_payload", "data.labels")


@pytest.mark.parametrize("given", [
    keys for count in (1, 2) for keys in itertools.combinations(DATA_KEYS,
                                                                count)])
def test_config_with_some_data_keys_names_the_ones_it_lacks(given):
    lacks = ", ".join(key for key in DATA_KEYS if key not in given)
    with pytest.raises(InputError, match=f"^config lacks {lacks}: a data run "
                       f"names all of {', '.join(DATA_KEYS)}$"):
        ExperimentConfig.from_mapping(
            {"preset": "synth-benchmark", **{key: "x" for key in given}})


def test_cli_fit_names_a_missing_data_key(tmp_path, capsys):
    save_cube(tmp_path / "cube.json", tmp_path / "cube.raw", np.ones((2, 4)),
              2, 2)
    save_labels(tmp_path / "labels.txt", [1, 1, 2, 2])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"method=raw\ndata.cube_header={tmp_path}/cube.json\n"
                   f"data.labels={tmp_path}/labels.txt\n")
    assert cli_main(["fit", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error[fit]: config lacks data.cube_payload: a data run names all of "
        "data.cube_header, data.cube_payload, data.labels\n")


def test_config_defaults_are_the_dataclass_defaults():
    cfg = ExperimentConfig.from_mapping({})
    assert cfg.hyper == HyperParams(alpha=1.0, beta=0.1, gamma=0.1, layers=1,
                                    dims=(10,), knn_k=10, sigma=0.1)
    assert cfg.admm == AdmmConfig()
    spec = ExperimentConfig.from_mapping({"synthetic.width": "16"}).synthetic
    assert spec == SyntheticSpec(width=16, height=16, bands=12, n_classes=6)


def test_readme_config_table_lists_the_keys_the_parser_reads(monkeypatch):
    read = set()
    real_get = progsub.harness._get

    def recording(mapping, key, cast, default):
        read.add(key)
        return real_get(mapping, key, cast, default)

    monkeypatch.setattr(progsub.harness, "_get", recording)
    ExperimentConfig.from_mapping({"preset": "synth-benchmark"})
    parsed = read | {"preset"} | {f"grid.{p}" for p in _GRID_FIELDS}

    lines = README.read_text().split("### Config keys", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    documented = set()
    # skip the header and separator rows
    for row in itertools.takewhile(lambda line: line.startswith("|"),
                                   lines[start + 2:]):
        namespace, keys = [c.strip() for c in row.strip("|").split("|")]
        prefix = namespace.strip("`*") if namespace.startswith("`") else ""
        # parenthesized notes may quote values or commands, not keys
        names = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", keys))
        documented |= {prefix + name for name in names}
    assert documented == parsed


def test_config_rejects_keys_nothing_reads():
    with pytest.raises(InputError, match=r"model\.alpah, modle\.layers"):
        ExperimentConfig.from_mapping({"preset": "synth-benchmark",
                                       "model.alpah": "5",
                                       "modle.layers": "3"})
    # grid_search_cv, not the parser, checks grid parameter names
    assert ExperimentConfig.from_mapping({"grid.nope": "1"}).grid == {
        "nope": "1"}


def test_presets_and_benchmark_workload_configs_parse(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    bench = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    data_keys = {"seed": "3", "data.cube_header": "in.hdr",
                 "data.cube_payload": "in.bsq", "data.labels": "in.labels"}
    assert bench.WORKLOADS
    for workload in bench.WORKLOADS.values():
        ExperimentConfig.from_mapping(dict(workload.config, **data_keys))
    for preset in PRESETS:
        ExperimentConfig.from_mapping({"preset": preset})


def test_default_grid_mirrors_tuning_ranges():
    assert DEFAULT_GRID["dims"] == "10,20,30,40,50"
    for key in ("sigma", "alpha", "beta", "gamma"):
        assert DEFAULT_GRID[key] == "0.01,0.1,1.0,10.0,100.0"


# ------------------------------------------------------------- synthetic

def test_synthetic_separable_is_perfect_for_raw_nn():
    spec = SyntheticSpec(width=10, height=10, bands=8, n_classes=4,
                         separation=5.0, noise=0.0, seed=3)
    cube, labels, w, h = generate_synthetic(spec)
    rng = np.random.default_rng(0)
    train = rng.choice(100, size=40, replace=False)
    test = np.setdiff1d(np.arange(100), train)
    preds = nn_classify(cube[:, train],
                        [labels[i] for i in train],
                        cube[:, test])
    truth = np.array([labels[i] for i in test])
    assert float((preds == truth).mean()) == 1.0


def test_synthetic_deterministic_bytes():
    spec = SyntheticSpec(width=9, height=7, bands=5, n_classes=3, seed=11)
    a_cube, a_labels, _, _ = generate_synthetic(spec)
    b_cube, b_labels, _, _ = generate_synthetic(spec)
    assert a_cube.tobytes() == b_cube.tobytes()
    assert np.array_equal(a_labels, b_labels)


# sha256 of the cube bytes and of the label bytes at the desk, semisup and
# scene bench shapes: the bench inputs and the golden digests rest on them
SYNTHETIC_DIGESTS = {
    "desk": (
        benchmark_config(seed=7).synthetic,
        "70118de0201f5fe170ae8c34027b6315601dfb5447f3fd71e480d67c80e29bbc",
        "196ee2156ece425b0ac18d13fb55c3b5dd45149f0bdcdc3f721c39189bfcf5b7"),
    "semisup": (
        SyntheticSpec(width=40, height=40, bands=100, n_classes=9,
                      separation=3.0, noise=0.4, blob_size=5, seed=3),
        "d45c77a4e74f0c63b78e6c0c1b0292768afaf28ff9769d540ccc593d89d34eff",
        "f135413a1a756e870f21f868879f0235e8e86a86c6ae211e06ae631dce9e7be2"),
    "scene": (
        SyntheticSpec(width=145, height=145, bands=200, n_classes=16,
                      separation=1.0, noise=0.4, blob_size=12, seed=3),
        "bf5fb6ae52225359951a9b03179675a8835c9f2319d94e4615d9d81e464ebedd",
        "36ea27d7ed2a7d66eb7a058d600c92a67a4f774724c1d90d1f85c2ca6cacc38d"),
}


@pytest.mark.parametrize("shape", sorted(SYNTHETIC_DIGESTS))
def test_synthetic_bytes_are_pinned(shape):
    spec, cube_digest, labels_digest = SYNTHETIC_DIGESTS[shape]
    cube, labels, _, _ = generate_synthetic(spec)
    assert cube.dtype == np.float64 and cube.flags.c_contiguous
    assert labels.dtype == np.int64
    assert hashlib.sha256(cube.tobytes()).hexdigest() == cube_digest
    assert hashlib.sha256(labels.tobytes()).hexdigest() == labels_digest


def test_synthetic_without_noise_is_the_class_signatures():
    spec = SyntheticSpec(width=13, height=11, bands=9, n_classes=5,
                         noise=0.0, seed=6)
    cube, labels, _, _ = generate_synthetic(spec)
    rng = np.random.default_rng(spec.seed)
    class_map = _grow_regions(spec, rng)
    sigs = _signatures(spec, rng)
    assert cube.flags.c_contiguous
    assert np.array_equal(cube, sigs[:, class_map])
    assert np.array_equal(labels, class_map + 1)


def test_synthetic_generation_holds_one_cube_copy():
    spec = SyntheticSpec(width=64, height=64, bands=100, n_classes=8, seed=5)
    peak, (cube, _, _, _) = traced_peak(generate_synthetic, spec)
    # the cube, one band row and the class map; two copies if the noise
    # were drawn for the whole cube at once
    assert peak < 1.2 * cube.nbytes


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_synthetic_smoothing_has_the_bits_of_ndimage(scale):
    # lengths 1-12 are shorter than the 13-tap kernel, so the padding
    # repeats an end value several times
    rng = np.random.default_rng(int(scale * 1e3))
    for n in [*range(1, 41), 200]:
        v = scale * rng.standard_normal(n)
        want = ndimage.gaussian_filter1d(v, 1.5, mode="nearest")
        assert np.array_equal(_smooth(v), want)


def test_synthetic_label_histogram_matches_proportions():
    spec = SyntheticSpec(width=20, height=15, bands=4, n_classes=6, seed=2)
    _, labels, _, _ = generate_synthetic(spec)
    counts = [int((labels == c).sum()) for c in range(1, 7)]
    assert sum(counts) == 300
    assert max(counts) - min(counts) <= 1


def test_synthetic_regions_are_blobby():
    spec = SyntheticSpec(width=16, height=16, bands=3, n_classes=4,
                         blob_size=5, seed=4)
    _, labels, w, h = generate_synthetic(spec)
    grid = np.array(labels).reshape(h, w)
    same = 0
    total = 0
    for r in range(h):
        for c in range(w - 1):
            same += grid[r, c] == grid[r, c + 1]
            total += 1
    assert same / total > 0.6  # neighbors mostly share a class


# ----------------------------------------------------------------- split

def test_make_split_stratified_and_deterministic():
    labels = [1] * 20 + [2] * 20 + [0] * 5
    a = make_split(labels, 5, 0.25, np.random.default_rng(3))
    b = make_split(labels, 5, 0.25, np.random.default_rng(3))
    for name in ("train_indices", "test_indices", "unlabeled_indices"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    train_labels = [labels[i] for i in a.train_indices]
    assert train_labels.count(1) == 5 and train_labels.count(2) == 5
    assert set(np.flatnonzero(np.array(labels) == 0)) <= set(
        a.unlabeled_indices
    )
    # 25% of the 15 remaining per class pretend-unlabeled
    assert len(a.unlabeled_indices) == 5 + 2 * round(0.25 * 15)


def test_array_split_and_folds_match_list_references():
    """make_split and _stratified_folds on int64 arrays give the indices and
    folds of the list-based references on a 145x145 label map."""
    _, labels, _, _ = generate_synthetic(SyntheticSpec(
        width=145, height=145, bands=1, n_classes=16, blob_size=12, seed=3))
    labels[::11] = 0          # file-level unlabeled pixels
    labels[[5, 900, 20000]] = 17  # a class smaller than train_per_class
    for seed in (1, 2, 3):
        for fraction in (0.0, 0.3, 1.0):
            per_class, n_folds = (10, 10) if seed % 2 else (25, 4)
            split = make_split(labels, per_class, fraction,
                               np.random.default_rng(seed))
            want = reference_make_split(labels.tolist(), per_class, fraction,
                                        np.random.default_rng(seed))
            got = (split.train_indices, split.test_indices,
                   split.unlabeled_indices)
            for arr, ref in zip(got, want):
                assert arr.dtype == np.int64 and arr.tolist() == list(ref)
            folds = _stratified_folds(labels, split.train_indices, n_folds,
                                      np.random.default_rng(seed))
            ref_folds = reference_stratified_folds(
                labels.tolist(), split.train_indices.tolist(), n_folds,
                np.random.default_rng(seed))
            assert [f.tolist() for f in folds] == ref_folds


# ------------------------------------------------------------ experiment

def test_run_experiment_raw_is_nn_passthrough():
    cfg = benchmark_config(seed=7, method="raw")
    metrics, _ = run_experiment(cfg)
    data = prepare_data(cfg)
    train = np.asarray(data.split.train_indices)
    test = np.asarray(data.split.test_indices)
    preds = nn_classify(data.cube[:, train],
                        [data.labels[i] for i in train],
                        data.cube[:, test])
    truth = np.array([data.labels[i] for i in test])
    assert metrics.oa == pytest.approx(float((preds == truth).mean()),
                                       abs=1e-15)


def test_run_experiment_pca_full_rank_equals_raw():
    raw_cfg = benchmark_config(seed=7, method="raw")
    raw_metrics, _ = run_experiment(raw_cfg)
    pca_cfg = benchmark_config(seed=7, method="pca",
                               **{"model.dims": "12"})  # d = d0
    pca_metrics, _ = run_experiment(pca_cfg)
    assert pca_metrics.oa == raw_metrics.oa
    assert pca_metrics.per_class == raw_metrics.per_class


def test_run_experiment_progsub_beats_pca_on_benchmark_seed():
    pca, _ = run_experiment(benchmark_config(seed=7, method="pca"))
    prog, _ = run_experiment(benchmark_config(seed=7, method="progsub"))
    assert prog.oa > pca.oa


def test_run_experiment_writes_artifact_set(tmp_path):
    cfg = benchmark_config(seed=7, method="progsub",
                           out_dir=str(tmp_path / "run"))
    metrics, artifacts = run_experiment(cfg)
    for name in ("config.echo.txt", "metrics.csv", "convergence.csv",
                 "map.ppm", "model.bin", "predictions.txt",
                 "pretrain_layer1.csv", "pretrain_layer2.csv"):
        assert name in artifacts
        assert os.path.getsize(artifacts[name]) > 0
    header = Path(artifacts["metrics.csv"]).read_text().split("\n")[0]
    assert header.startswith("oa,aa,kappa,class_1")
    ppm = Path(artifacts["map.ppm"]).read_bytes()
    assert ppm.startswith(b"P6\n16 16\n255\n")
    assert len(ppm) == len(b"P6\n16 16\n255\n") + 3 * 256


@pytest.mark.parametrize("method", ["raw", "progsub"])
def test_artifact_texts_come_from_their_owners(tmp_path, method):
    # metrics.csv is MetricsReport.to_csv, predictions.txt is labels_text
    # and convergence.csv starts with the header FitReport writes; a method
    # without a fit writes that header alone
    cfg = benchmark_config(seed=7, method=method, out_dir=str(tmp_path))
    metrics, artifacts = run_experiment(cfg)
    text = {name: Path(path).read_text() for name, path in artifacts.items()
            if name.endswith((".csv", ".txt"))}
    assert text["metrics.csv"] == metrics.to_csv()
    assert text["predictions.txt"] == labels_text(
        load_labels(artifacts["predictions.txt"], 16 * 16))
    assert text["convergence.csv"].split("\n")[0] == CONVERGENCE_HEADER
    if method == "raw":
        assert text["convergence.csv"] == CONVERGENCE_HEADER + "\n"


def test_run_experiment_deterministic_bytes(tmp_path):
    outs = []
    for sub in ("a", "b"):
        cfg = benchmark_config(seed=7, method="progsub",
                               out_dir=str(tmp_path / sub))
        _, artifacts = run_experiment(cfg)
        outs.append(artifacts)
    for name in outs[0]:
        a = Path(outs[0][name]).read_bytes()
        b = Path(outs[1][name]).read_bytes()
        assert a == b, f"artifact {name} differs between identical runs"


def test_only_progsub_segments(tmp_path, monkeypatch):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt")
    fit_out = tmp_path / "fit"
    assert cli_main(["fit", "--config", cfg, "--out", str(fit_out)]) == 0

    def no_slic(*args, **kwargs):
        raise AssertionError("SLIC ran")

    monkeypatch.setattr(progsub.harness, "slic_segment", no_slic)
    monkeypatch.setattr(progsub.harness, "superpixel_stream", no_slic)
    for method in ("raw", "pca", "lpp"):
        metrics, _ = run_experiment(benchmark_config(seed=7, method=method))
        assert 0.0 < metrics.oa <= 1.0
    _, rows = grid_search_cv(
        benchmark_config(seed=7, method="pca", **{"grid.dims": "2,4"}))
    assert len(rows) == 2
    ev_out = tmp_path / "ev"
    assert cli_main(["evaluate", "--config", cfg, "--out", str(ev_out),
                     "--model", str(fit_out / "model.bin")]) == 0
    assert (ev_out / "metrics.csv").read_bytes() == (
        fit_out / "metrics.csv").read_bytes()


def test_run_experiment_include_unlabeled_runs(tmp_path):
    cfg = benchmark_config(seed=7, method="progsub",
                           **{"split.unlabeled_fraction": "0.2"})
    cfg.include_unlabeled = True
    metrics, _ = run_experiment(cfg)
    assert 0.0 <= metrics.oa <= 1.0


# ------------------------------------------------------------------ grid

def test_grid_single_cell_returned():
    cfg = benchmark_config(seed=7, method="pca",
                           **{"grid.dims": "4"})
    best, rows = grid_search_cv(cfg)
    assert len(rows) == 1
    assert best.dims == (4, 4)


def test_grid_known_ordering_and_tie_break():
    cfg = benchmark_config(
        seed=7, method="pca",
        **{"grid.dims": "12,1", "synthetic.noise": "0.05",
           "synthetic.separation": "3.0"},
    )
    best, rows = grid_search_cv(cfg)
    scores = {r[0]["dims"]: r[1] for r in rows}
    assert scores["12"] > scores["1"]
    assert best.dims == (12, 12)


def test_grid_deterministic_tables(tmp_path):
    results = []
    for sub in ("a", "b"):
        cfg = benchmark_config(seed=7, method="pca",
                               out_dir=str(tmp_path / sub),
                               **{"grid.dims": "2,4", "grid.sigma": "0.3"})
        _, rows = grid_search_cv(cfg)
        results.append(rows)
        assert (tmp_path / sub / "grid.csv").exists()
        assert (tmp_path / sub / "best.txt").exists()
    assert results[0] == results[1]
    a = (tmp_path / "a" / "grid.csv").read_bytes()
    b = (tmp_path / "b" / "grid.csv").read_bytes()
    assert a == b


def test_grid_budget_caps_cells():
    cfg = benchmark_config(seed=7, method="pca",
                           **{"grid.dims": "1,2,3,4,5,6"})
    cfg.grid_budget = 3
    _, rows = grid_search_cv(cfg)
    assert len(rows) == 3


@pytest.mark.parametrize("extra,flags", [
    ([], ["--grid-budget", "0"]),
    ([], ["--grid-budget", "-1"]),
    (["grid.budget=0"], []),
])
def test_cli_grid_budget_below_one_is_stage_tagged(tmp_path, capsys, extra,
                                                   flags):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt", method="pca",
                                  extra=["grid.dims=2,4"] + extra)
    assert cli_main(["grid", "--config", cfg] + flags) == 1
    assert capsys.readouterr().err.startswith("error[grid]: grid budget")


@pytest.mark.parametrize("folds", ["1", "0", "-3"])
def test_cli_grid_folds_below_two_is_stage_tagged(tmp_path, capsys, folds):
    cfg = _write_benchmark_config(
        tmp_path / "cfg.txt", method="pca",
        extra=["grid.dims=2,4", f"grid.folds={folds}"])
    assert cli_main(["grid", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"error[grid]: config key grid.folds={folds} must be >= 2\n")


def test_cli_grid_fold_failure_names_its_stage(tmp_path, capsys):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt", method="pca",
                                  extra=["grid.dims=30"])
    assert cli_main(["grid", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error[fit]: d_out must be in 1..min(d, n) = 12, got 30\n")


@pytest.mark.parametrize("key,value,kind", [
    ("knn_k", "10.5", "an integer"),
    ("dims", "x", "an integer"),
    ("layers", "2.0", "an integer"),
    ("alpha", "x", "a number"),
    ("sigma", "1e", "a number"),
])
def test_cli_grid_malformed_candidate_is_stage_tagged_before_any_fit(
        tmp_path, capsys, monkeypatch, key, value, kind):
    def no_data(config):
        raise AssertionError("the grid prepared data")

    monkeypatch.setattr(progsub.harness, "prepare_data", no_data)
    cfg = _write_benchmark_config(tmp_path / "cfg.txt",
                                  extra=[f"grid.{key}=1,{value}"])
    assert cli_main(["grid", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == f"error[grid]: grid.{key}={value} is not {kind}\n"
    assert "Traceback" not in err


def test_grid_explicitly_empty_candidates_rejected():
    cfg = benchmark_config(seed=7, method="pca", **{"grid.dims": ""})
    with pytest.raises(InputError, match="candidates"):
        grid_search_cv(cfg)


@pytest.mark.parametrize("key", ["dims", "sigma"])
def test_grid_comma_only_candidates_name_their_key(key):
    # pca reads no sigma, yet an empty grid.sigma list is still an error
    cfg = benchmark_config(seed=7, method="pca", **{f"grid.{key}": ","})
    with pytest.raises(InputError,
                       match=f"grid parameter {key} has no candidates"):
        _grid_cells(cfg)


def test_grid_budget_below_one_fails_at_parse_for_any_command():
    with pytest.raises(InputError, match="grid budget must be >= 1, got 0"):
        benchmark_config(seed=7, method="pca", **{"grid.budget": "0"})


def test_grid_defaults_to_published_ranges_when_unset():
    cfg = benchmark_config(
        seed=7, method="pca",
        **{"synthetic.bands": "60", "synthetic.classes": "3",
           "split.train_per_class": "20"},
    )
    cfg.grid_budget = 3
    _, rows = grid_search_cv(cfg)
    assert len(rows) == 3
    for cell, _ in rows:
        # pca reads dims alone of the published parameters
        assert set(cell) == {"dims"}
        assert cell["dims"] in DEFAULT_GRID["dims"].split(",")


@pytest.mark.parametrize("method,names,n_cells", [
    ("raw", [], 1),
    ("pca", ["dims"], 5),
    ("lpp", ["dims", "knn_k", "sigma"], 125),
    ("progsub", sorted(DEFAULT_GRID), 5 ** 6),
])
def test_grid_crosses_only_parameters_the_method_reads(method, names,
                                                       n_cells):
    got, cells = _grid_cells(benchmark_config(seed=7, method=method))
    assert got == names
    assert len(cells) == n_cells
    assert all(sorted(cell) == names for cell in cells)


def test_grid_raw_cross_validates_one_cell(tmp_path):
    # raw reads no grid parameter: one cell, not all 15625 of DEFAULT_GRID
    cfg = benchmark_config(seed=7, method="raw", out_dir=str(tmp_path))
    best, rows = grid_search_cv(cfg)
    assert [cell for cell, _ in rows] == [{}]
    assert best == cfg.hyper
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "mean_oa" and len(lines) == 2


@pytest.mark.parametrize("method", ["raw", "pca", "lpp", "progsub"])
def test_cv_score_is_the_separate_fold_scoring(method):
    # a fold embeds its fit and validation columns, each set on its own as
    # the reference does, and oa comes from the confusion matrix of the
    # validation pixels
    cfg = benchmark_config(seed=7, method=method,
                           **{"grid.dims": "2,4", "grid.folds": "3"})
    data = prepare_data(cfg)
    folds = _stratified_folds(data.labels, data.split.train_indices, 3,
                              np.random.default_rng(cfg.seed))
    cells = _grid_cells(cfg)[1]
    assert len(cells) == (1 if method == "raw" else 2)
    for cell in cells:
        hyper = _apply_cell(cfg.hyper, cell)
        assert _cv_score(cfg, data, hyper, folds) == reference_cv_score(
            cfg, data, hyper, folds)


@pytest.mark.parametrize("include", [True, False])
def test_grid_fold_fit_sees_the_split_unlabeled_pixels(monkeypatch, include):
    cfg = benchmark_config(seed=7, **{
        "split.unlabeled_fraction": "0.3", "grid.budget": "1",
        "grid.folds": "2", "run.include_unlabeled": str(include).lower()})
    data = prepare_data(cfg)
    unlabeled = data.split.unlabeled_indices
    assert unlabeled.size > 0
    folds = _stratified_folds(data.labels, data.split.train_indices, 2,
                              np.random.default_rng(cfg.seed))
    real = progsub.harness.fit_stack
    fits = []

    def spy(x, stream, labels, *args, **kwargs):
        fits.append((x.copy(), np.array(labels)))
        return real(x, stream, labels, *args, **kwargs)

    monkeypatch.setattr(progsub.harness, "fit_stack", spy)
    grid_search_cv(cfg)
    assert len(fits) == len(folds) == 2
    for (x, labels), val_idx in zip(fits, folds):
        fit_idx = np.setdiff1d(np.concatenate(folds), val_idx)
        cols = np.concatenate([fit_idx, unlabeled]) if include else fit_idx
        assert np.array_equal(x, data.cube[:, cols])
        assert np.array_equal(labels[:fit_idx.size], data.labels[fit_idx])
        assert not labels[fit_idx.size:].any()


def test_grid_cell_setting_layers_keeps_its_dims():
    hp = small_hyper(m=1, d=10)
    assert _apply_cell(hp, {"dims": "30", "layers": "2"}).dims == (30, 30)
    assert _apply_cell(hp, {"layers": "3"}).dims == (10, 10, 10)
    assert _apply_cell(hp, {"dims": "7"}).dims == (7,)
    cell = _apply_cell(hp, {"knn_k": "4", "alpha": "2"})
    assert (cell.knn_k, cell.alpha, cell.dims) == (4, 2.0, (10,))


# ----------------------------------------------------------------- sweep

def _sweep_config(layers, out_dir=None, method="progsub"):
    cfg = benchmark_config(
        seed=5, method=method, out_dir=out_dir,
        **{"synthetic.width": "8", "synthetic.height": "8",
           "synthetic.classes": "3", "split.train_per_class": "5",
           "model.dims": "2", "model.knn_k": "4", "admm.max_iters": "200"},
    )
    return replace(cfg, sweep_layers=layers)


def test_layer_sweep_single_row():
    rows = layer_sweep(_sweep_config(layers=[1]))
    assert len(rows) == 1
    assert rows[0][0] == 1


def test_layer_sweep_full_depth_range(tmp_path):
    cfg = _sweep_config(out_dir=str(tmp_path), layers=list(range(1, 9)))
    rows = layer_sweep(cfg)
    assert [r[0] for r in rows] == list(range(1, 9))
    for _, oa, aa, kappa in rows:
        assert 0.0 <= oa <= 1.0 and 0.0 <= aa <= 1.0 and -1.0 <= kappa <= 1.0
    assert (tmp_path / "layer_sweep.csv").exists()


def test_layer_sweep_prepares_data_once(monkeypatch):
    calls = []
    for name in ("generate_synthetic", "slic_segment"):
        fn = getattr(progsub.harness, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(progsub.harness, name, counted)
    cfg = _sweep_config(layers=[1, 2, 3])
    rows = layer_sweep(cfg)
    assert sorted(calls) == ["generate_synthetic", "slic_segment"]
    # each row is the one a full run at that depth scores
    for m, oa, aa, kappa in rows:
        metrics, _ = run_experiment(
            replace(cfg, hyper=_apply_cell(cfg.hyper, {"layers": m})))
        assert (oa, aa, kappa) == (metrics.oa, metrics.aa, metrics.kappa)


@pytest.mark.parametrize("method", ["raw", "pca", "lpp"])
def test_layer_sweep_rejects_a_method_without_layers(method, monkeypatch):
    # raw, pca and lpp read no layer count: a sweep would write the same
    # row at every depth, so it is refused before any data is prepared
    monkeypatch.setattr(progsub.harness, "prepare_data", None)
    with pytest.raises(InputError, match=f"method '{method}' reads no "
                       "layer count.*only progsub reads layers"):
        layer_sweep(_sweep_config(method=method, layers=[1, 2]))


def test_cli_sweep_layers_rejects_a_method_without_layers(tmp_path, capsys):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt", method="pca")
    out = tmp_path / "sw"
    assert cli_main(["sweep-layers", "--config", cfg, "--out", str(out),
                     "--layers", "1,2"]) == 1
    assert capsys.readouterr().err.startswith(
        "error[sweep]: method 'pca' reads no layer count")
    assert not (out / "layer_sweep.csv").exists()


def test_layer_sweep_deterministic():
    a = layer_sweep(_sweep_config(layers=[1, 2]))
    b = layer_sweep(_sweep_config(layers=[1, 2]))
    assert a == b


# ------------------------------------------------------------------- cli

def _write_benchmark_config(path, method="progsub", extra=()):
    lines = ["preset=synth-benchmark", f"method={method}"]
    lines += list(extra)
    Path(path).write_text("\n".join(lines) + "\n")
    return str(path)


def test_cli_generate_and_segment(tmp_path, capsys):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt", method="raw")
    out = tmp_path / "gen"
    assert cli_main(["generate", "--config", cfg, "--out", str(out)]) == 0
    for name in ("cube.json", "cube.raw", "labels.txt", "truth.ppm"):
        assert (out / name).exists()
    seg_out = tmp_path / "seg"
    assert cli_main(["segment", "--config", cfg, "--out", str(seg_out)]) == 0
    ids = (seg_out / "segments.txt").read_text().strip().split("\n")
    assert len(ids) == 256


def test_cli_render_map_of_truth_labels_is_truth_ppm(tmp_path):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt", method="raw")
    gen, rm_out = tmp_path / "gen", tmp_path / "rm"
    assert cli_main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    assert cli_main(["render-map", "--config", cfg, "--out", str(rm_out),
                     "--predictions", str(gen / "labels.txt")]) == 0
    truth = (gen / "truth.ppm").read_bytes()
    assert truth.startswith(b"P6\n16 16\n255\n")
    assert len(truth) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3
    assert (rm_out / "map.ppm").read_bytes() == truth


def test_cli_fit_transform_evaluate_render(tmp_path):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt")
    fit_out = tmp_path / "fit"
    assert cli_main(["fit", "--config", cfg, "--out", str(fit_out)]) == 0
    assert (fit_out / "model.bin").exists()

    tr_out = tmp_path / "tr"
    assert cli_main(["transform", "--config", cfg, "--out", str(tr_out),
                     "--model", str(fit_out / "model.bin")]) == 0
    assert (tr_out / "embedded.json").exists()
    assert (tr_out / "embedded.raw").exists()

    ev_out = tmp_path / "ev"
    assert cli_main(["evaluate", "--config", cfg, "--out", str(ev_out),
                     "--model", str(fit_out / "model.bin")]) == 0
    # same config and seed: evaluate re-scores exactly as fit did
    for name in ("metrics.csv", "map.ppm"):
        assert (ev_out / name).read_bytes() == (fit_out / name).read_bytes()

    rm_out = tmp_path / "rm"
    assert cli_main(["render-map", "--config", cfg, "--out", str(rm_out),
                     "--predictions", str(fit_out / "predictions.txt")]) == 0
    assert (rm_out / "map.ppm").read_bytes().startswith(b"P6\n16 16\n255\n")


def test_cli_transform_and_render_map_do_not_segment(tmp_path,
                                                     monkeypatch):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt")
    fit_out = tmp_path / "fit"
    assert cli_main(["fit", "--config", cfg, "--out", str(fit_out)]) == 0

    def no_slic(*args, **kwargs):
        raise AssertionError("SLIC ran")

    monkeypatch.setattr(progsub.harness, "slic_segment", no_slic)
    assert cli_main(["transform", "--config", cfg, "--out",
                     str(tmp_path / "tr"),
                     "--model", str(fit_out / "model.bin")]) == 0
    assert cli_main(["render-map", "--config", cfg, "--out",
                     str(tmp_path / "rm"), "--predictions",
                     str(fit_out / "predictions.txt")]) == 0
    assert (tmp_path / "rm" / "map.ppm").read_bytes() == (
        fit_out / "map.ppm").read_bytes()


def test_cli_render_map_from_files_reads_no_cube_payload(tmp_path,
                                                        monkeypatch):
    config = desk_file_config(tmp_path, 3)
    cfg = tmp_path / "files.cfg"
    cfg.write_text(f"preset=synth-benchmark\nseed=3\n"
                   f"data.cube_header={config.cube_header}\n"
                   f"data.cube_payload={config.cube_payload}\n"
                   f"data.labels={config.labels_path}\n")
    fit_out = tmp_path / "fit"
    assert cli_main(["fit", "--config", str(cfg), "--out", str(fit_out)]) == 0

    def no_payload(*args, **kwargs):
        raise AssertionError("the cube payload was read")

    monkeypatch.setattr(progsub.formats, "load_cube", no_payload)
    assert cli_main(["render-map", "--config", str(cfg), "--out",
                     str(tmp_path / "rm"), "--predictions",
                     str(fit_out / "predictions.txt")]) == 0
    assert (tmp_path / "rm" / "map.ppm").read_bytes() == (
        fit_out / "map.ppm").read_bytes()


def test_cli_render_map_of_synthetic_config_generates_no_cube(tmp_path,
                                                              monkeypatch):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt")
    gen, fit_out = tmp_path / "gen", tmp_path / "fit"
    assert cli_main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    assert cli_main(["fit", "--config", cfg, "--out", str(fit_out)]) == 0

    def no_cube(*args, **kwargs):
        raise AssertionError("a cube was generated")

    monkeypatch.setattr(progsub.harness, "generate_synthetic", no_cube)
    for predictions, expected in ((fit_out / "predictions.txt",
                                   fit_out / "map.ppm"),
                                  (gen / "labels.txt", gen / "truth.ppm")):
        rm_out = tmp_path / "rm" / predictions.parent.name
        assert cli_main(["render-map", "--config", cfg, "--out", str(rm_out),
                         "--predictions", str(predictions)]) == 0
        assert (rm_out / "map.ppm").read_bytes() == expected.read_bytes()


def test_cli_render_map_without_input_is_a_load_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("method=raw\n")
    labels = tmp_path / "labels.txt"
    save_labels(labels, [1, 2])
    assert cli_main(["render-map", "--config", str(cfg), "--out",
                     str(tmp_path / "rm"), "--predictions", str(labels)]) == 1
    assert capsys.readouterr().err.startswith(
        "error[load]: config names neither data files nor a synthetic spec")


def test_cli_grid_and_sweep(tmp_path):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt", method="pca",
                                  extra=["grid.dims=2,4"])
    assert cli_main(["grid", "--config", cfg, "--out",
                     str(tmp_path / "grid")]) == 0
    assert (tmp_path / "grid" / "grid.csv").exists()
    sweep_cfg = _write_benchmark_config(tmp_path / "sweep.txt")
    assert cli_main(["sweep-layers", "--config", sweep_cfg, "--out",
                     str(tmp_path / "sw"), "--layers", "1"]) == 0
    assert (tmp_path / "sw" / "layer_sweep.csv").exists()


def test_cli_error_is_stage_tagged(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("method=progsub\ndata.cube_header=/nope.json\n"
                   "data.cube_payload=/nope.raw\ndata.labels=/nope.txt\n")
    code = cli_main(["fit", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error[load]")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cli_fit_rejects_nonfinite_cube(tmp_path, capsys, bad):
    cube = np.ones((2, 4))
    cube[1, 2] = bad
    save_cube(tmp_path / "cube.json", tmp_path / "cube.raw", cube, 2, 2)
    save_labels(tmp_path / "labels.txt", [1, 1, 2, 2])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"method=raw\ndata.cube_header={tmp_path}/cube.json\n"
                   f"data.cube_payload={tmp_path}/cube.raw\n"
                   f"data.labels={tmp_path}/labels.txt\n")
    assert cli_main(["fit", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[load]: ")
    assert "cube.raw has non-finite values" in err


def test_cli_fit_names_a_bad_cube_header_value(tmp_path, capsys):
    header = tmp_path / "cube.json"
    header.write_text('{"width": "abc", "height": 1, "bands": 1}')
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"method=raw\ndata.cube_header={header}\n"
                   f"data.cube_payload={tmp_path}/cube.raw\n"
                   f"data.labels={tmp_path}/labels.txt\n")
    assert cli_main(["fit", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error[load]: cube header {header}: width must be a whole number, "
        "got 'abc'\n")


def test_cli_error_keeps_the_innermost_stage(tmp_path, capsys, monkeypatch):
    # the stream stage runs inside the fit stage, and names the error itself
    def broken(*args, **kwargs):
        raise ValueError("no stream")

    monkeypatch.setattr(progsub.harness, "superpixel_stream", broken)
    cfg = _write_benchmark_config(tmp_path / "cfg.txt")
    assert cli_main(["fit", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error[stream]: no stream\n"


def test_all_zero_cube_loads_as_zeros(tmp_path):
    # a zero cube has no column norm to scale by; it is kept as it is, with
    # no 0/0 warning (the suite turns warnings into errors)
    save_cube(tmp_path / "cube.json", tmp_path / "cube.raw", np.zeros((3, 4)),
              2, 2)
    save_labels(tmp_path / "labels.txt", [1, 1, 2, 0])
    data = load_data(ExperimentConfig.from_mapping({
        "data.cube_header": str(tmp_path / "cube.json"),
        "data.cube_payload": str(tmp_path / "cube.raw"),
        "data.labels": str(tmp_path / "labels.txt")}))
    assert data.cube.shape == (3, 4) and not data.cube.any()
    assert data.n_classes == 2


def test_data_files_give_the_synthetic_run_bytes(tmp_path, monkeypatch):
    # the benchmark runs desk from files; only the config echo may differ
    _, synth = run_experiment(benchmark_config(seed=3,
                                               out_dir=tmp_path / "synth"))
    config = desk_file_config(tmp_path, 3, out_dir=tmp_path / "files")

    def no_synthetic(spec):
        raise AssertionError("the data.* keys were not read")

    monkeypatch.setattr(progsub.harness, "generate_synthetic", no_synthetic)
    _, files = run_experiment(config)
    assert list(files) == list(synth)
    for name in synth:
        if name != "config.echo.txt":
            assert (Path(files[name]).read_bytes()
                    == Path(synth[name]).read_bytes()), name


def test_load_data_cube_is_read_only():
    data = load_data(benchmark_config(seed=1))
    with pytest.raises(ValueError, match="read-only"):
        data.cube[0, 0] = 1.0


def _file_config(tmp_path, cube, width, height):
    """A config that reads `cube` and all-ones labels from files."""
    paths = {key: str(tmp_path / name) for key, name in (
        ("data.cube_header", "cube.json"), ("data.cube_payload", "cube.raw"),
        ("data.labels", "labels.txt"))}
    save_cube(paths["data.cube_header"], paths["data.cube_payload"], cube,
              width, height)
    save_labels(paths["data.labels"], np.ones(width * height, dtype=int))
    return ExperimentConfig.from_mapping(paths, seed=1)


# 3 blocks of 512 columns and 104 more; 3 blocks and one column more, which
# numpy would sum pairwise if it stood alone
@pytest.mark.parametrize("width,height", [(41, 40), (53, 29)])
def test_load_data_normalizes_bit_for_bit(tmp_path, width, height):
    cube = np.random.default_rng(18).random((40, width * height))
    cube[:, -1] *= 10.0  # the largest norm is the last column's
    # and a pairwise sum of that column alone would round it differently
    assert (np.linalg.norm(cube[:, -1:], axis=0)[0]
            != np.linalg.norm(cube, axis=0)[-1])
    data = load_data(_file_config(tmp_path, cube, width, height))
    expected = cube / np.linalg.norm(cube, axis=0).max()
    assert data.cube.tobytes() == expected.tobytes()


def test_load_data_holds_one_cube_copy(tmp_path):
    cube = np.random.default_rng(9).random((160, 100 * 100))
    config = _file_config(tmp_path, cube, 100, 100)
    assert traced_peak(load_data, config)[0] <= 1.1 * cube.nbytes


def test_run_builds_the_stream_for_the_fit_columns_only(monkeypatch):
    streams, fits = [], []
    stream_fn, fit_fn = progsub.harness.superpixel_stream, \
        progsub.harness.fit_stack

    def stream_spy(*args):
        streams.append(len(args[2]) if len(args) > 2 else None)
        return stream_fn(*args)

    def fit_spy(x, stream, *args, **kwargs):
        fits.append(x.shape[1])
        return fit_fn(x, stream, *args, **kwargs)

    monkeypatch.setattr(progsub.harness, "superpixel_stream", stream_spy)
    monkeypatch.setattr(progsub.harness, "fit_stack", fit_spy)
    run_experiment(benchmark_config(seed=7, **{
        "split.unlabeled_fraction": "0.2", "run.include_unlabeled": "true"}))
    # 60 labeled pixels and some unlabeled ones join the fit
    assert len(fits) == 1 and fits[0] > 60
    assert streams == fits


def test_semi_supervised_fit_holds_its_training_matrix_once():
    """A fit of 1024 pixels and their stream columns in 80 bands peaks at
    5.17 times its fused training matrix xt: xt, the fused graph, one
    objective buffer, the factor cache and a fine-tune's ADMM state. Holding
    the pixel and stream blocks beside xt for the whole fit read 6.17, and
    holding the stream alone, as a local of _fit_method, 5.67."""
    config = ExperimentConfig.from_mapping({
        "synthetic.width": "32", "synthetic.height": "32",
        "synthetic.bands": "80", "synthetic.classes": "6",
        "synthetic.separation": "3.0", "seed": "3",
        "split.train_per_class": "10", "split.unlabeled_fraction": "1.0",
        "run.include_unlabeled": "true", "model.dims": "5",
        "model.max_outer": "1", "model.knn_k": "8", "model.sigma": "0.5"})
    data = prepare_data(config)
    fit_columns = (data.split.train_indices.size
                   + data.split.unlabeled_indices.size)
    assert fit_columns == 32 * 32
    xt_bytes = 2 * fit_columns * 80 * 8
    peak, _ = traced_peak(_fit_method, config, data, config.hyper)
    assert peak < 5.5 * xt_bytes


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt",
                                  extra=["model.alpah=5"])
    assert cli_main(["fit", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[fit]: ") and "model.alpah" in err


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_stage_lets_interrupts_through(interrupt):
    with pytest.raises(interrupt):
        with _stage("fit"):
            raise interrupt()


def test_cli_ctrl_c_inside_a_stage_propagates(tmp_path, monkeypatch):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt", method="raw")

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    # _fit_method runs inside the fit stage
    monkeypatch.setattr(progsub.harness, "_fit_method", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli_main(["fit", "--config", cfg, "--out", str(tmp_path / "o")])


def test_cli_fit_dump_graphs_sorted(tmp_path):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt")
    out = tmp_path / "fit"
    assert cli_main(["fit", "--config", cfg, "--out", str(out),
                     "--dump-graphs"]) == 0
    for name in ("graph_wp.txt", "graph_wsp.txt", "graph_wa.txt",
                 "graph_wf.txt"):
        lines = (out / name).read_text().strip().split("\n")
        coords = [tuple(int(v) for v in ln.split()[:2]) for ln in lines]
        assert coords == sorted(coords)
        for ln in lines[:5]:
            i, j, w = ln.split()
            assert float(w) >= 0.0


def test_cli_dump_graphs_is_the_fitted_graph(tmp_path):
    cfg = _write_benchmark_config(
        tmp_path / "cfg.txt", extra=["split.unlabeled_fraction=0.3"]
    )
    out = tmp_path / "semi"
    assert cli_main(["fit", "--config", cfg, "--out", str(out),
                     "--dump-graphs", "--include-unlabeled-in-graph"]) == 0
    split = prepare_data(load_config(cfg)).split
    n_fit = len(split.train_indices) + len(split.unlabeled_indices)
    assert len(split.unlabeled_indices) > 0
    for name, n in (("graph_wa.txt", n_fit), ("graph_wf.txt", 2 * n_fit)):
        lines = (out / name).read_text().strip().split("\n")
        rows = {int(ln.split()[0]) for ln in lines}
        assert rows == set(range(n))


def test_cli_echo_reproduces_include_unlabeled_fit(tmp_path):
    cfg = _write_benchmark_config(
        tmp_path / "cfg.txt", extra=["split.unlabeled_fraction=0.3"]
    )
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli_main(["fit", "--config", cfg, "--out", str(first), "--seed",
                     "2", "--include-unlabeled-in-graph"]) == 0
    echo = (first / "config.echo.txt").read_text().splitlines()
    keys = [line.split("=", 1)[0] for line in echo]
    assert len(keys) == len(set(keys))
    assert "run.include_unlabeled=true" in echo and "seed=2" in echo
    assert cli_main(["fit", "--config", str(first / "config.echo.txt"),
                     "--out", str(again)]) == 0
    for name in ("predictions.txt", "metrics.csv", "convergence.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_cli_echo_reproduces_dump_graphs_fit(tmp_path):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt")
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli_main(["fit", "--config", cfg, "--out", str(first),
                     "--dump-graphs"]) == 0
    assert "run.dump_graphs=true" in (
        first / "config.echo.txt").read_text().splitlines()
    assert cli_main(["fit", "--config", str(first / "config.echo.txt"),
                     "--out", str(again)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert "graph_wf.txt" in names
    assert sorted(p.name for p in again.iterdir()) == names
    # timings.csv records each run's own seconds and memory
    assert "timings.csv" in names
    for name in names:
        if name != "timings.csv":
            assert (first / name).read_bytes() == (again / name).read_bytes()


def test_cli_sweep_layers_bad_list_is_stage_tagged(tmp_path, capsys):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt", method="raw")
    assert cli_main(["sweep-layers", "--config", cfg, "--layers", "1,x"]) == 1
    assert capsys.readouterr().err.startswith(
        "error[sweep]: config key sweep.layers='1,x'")


@pytest.mark.parametrize("command,flags", [
    ("generate", ["--grid-budget", "5"]),
    ("generate", ["--include-unlabeled-in-graph"]),
    ("grid", ["--include-unlabeled-in-graph"]),
    ("fit", ["--grid-budget", "5"]),
    ("fit", ["--layers", "1"]),
])
def test_cli_rejects_flags_the_subcommand_does_not_read(tmp_path, command,
                                                        flags):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt", method="raw")
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]
                 + flags)
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flags,stage", [
    ("generate", [], "generate"),
    ("segment", [], "segment"),
    ("fit", [], "fit"),
    ("transform", ["--model", "model.bin"], "transform"),
    ("evaluate", ["--model", "model.bin"], "evaluate"),
    ("grid", [], "grid"),
    ("sweep-layers", [], "sweep"),
    ("render-map", ["--predictions", "predictions.txt"], "render"),
])
def test_cli_failure_outside_stages_names_the_command(tmp_path, capsys,
                                                      command, flags, stage):
    missing = str(tmp_path / "missing.cfg")
    assert cli_main([command, "--config", missing] + flags) == 1
    assert capsys.readouterr().err.startswith(f"error[{stage}]: ")


def test_cli_out_config_key_is_the_output_directory(tmp_path):
    out = tmp_path / "from_file"
    cfg = _write_benchmark_config(tmp_path / "cfg.txt", method="raw",
                                  extra=[f"out={out}"])
    assert cli_main(["fit", "--config", cfg]) == 0
    assert (out / "metrics.csv").exists()


def test_cli_include_unlabeled_flag(tmp_path):
    cfg = _write_benchmark_config(
        tmp_path / "cfg.txt", extra=["split.unlabeled_fraction=0.2"]
    )
    out = tmp_path / "semi"
    assert cli_main(["fit", "--config", cfg, "--out", str(out),
                     "--include-unlabeled-in-graph"]) == 0
    assert (out / "metrics.csv").exists()


def test_run_experiment_baseline_artifacts(tmp_path):
    cfg = benchmark_config(seed=7, method="pca",
                           out_dir=str(tmp_path / "pca"))
    _, artifacts = run_experiment(cfg)
    for name in ("config.echo.txt", "metrics.csv", "convergence.csv",
                 "map.ppm"):
        assert name in artifacts
    assert "model.bin" not in artifacts


def test_cli_seed_flag_overrides(tmp_path):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt", method="raw")
    out7 = tmp_path / "s7"
    out8 = tmp_path / "s8"
    assert cli_main(["fit", "--config", cfg, "--seed", "7",
                     "--out", str(out7)]) == 0
    assert cli_main(["fit", "--config", cfg, "--seed", "8",
                     "--out", str(out8)]) == 0
    a = (out7 / "metrics.csv").read_text()
    b = (out8 / "metrics.csv").read_text()
    assert a != b  # different split, different numbers


RUN_STAGES = ["load", "segment", "split", "stream", "fit", "transform",
              "classify", "metrics", "write"]


def test_recorder_keeps_run_experiment_artifacts(tmp_path):
    _, plain = run_experiment(benchmark_config(seed=3,
                                               out_dir=str(tmp_path / "a")))
    with progsub.harness.record_stages() as rows:
        _, recorded = run_experiment(
            benchmark_config(seed=3, out_dir=str(tmp_path / "b")))
    assert list(recorded) == list(plain)
    for name in plain:
        assert Path(recorded[name]).read_bytes() == \
            Path(plain[name]).read_bytes()
    assert [row[0] for row in rows] == ["start"] + RUN_STAGES
    assert progsub.harness._records.get() is None


def test_recorded_stage_rows_are_seconds_and_memory():
    with progsub.harness.record_stages() as rows:
        with _stage("outer"):
            with _stage("inner"):
                pass
    assert [row[0] for row in rows] == ["start", "inner", "outer"]
    assert rows[0][1] is None
    for name, seconds, hwm, rss in rows:
        assert seconds is None or seconds >= 0
        if os.path.exists("/proc/self/status"):
            assert 0 < rss <= hwm


def test_recorded_memory_is_empty_without_proc_status(monkeypatch):
    def no_file(*args, **kwargs):
        raise FileNotFoundError("no /proc here")

    monkeypatch.setattr(progsub.harness, "open", no_file, raising=False)
    with progsub.harness.record_stages() as rows:
        with _stage("load"):
            pass
    monkeypatch.undo()
    lines = progsub.harness.timings_csv(rows).splitlines()
    assert lines[1] == "start,,,"
    assert re.fullmatch(r"load,\d+\.\d{4},,", lines[2])


def test_stage_failing_under_the_recorder_names_its_stage(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("stream broke")

    monkeypatch.setattr(progsub.harness, "superpixel_stream", broken)
    with pytest.raises(PipelineError) as exc:
        with progsub.harness.record_stages() as rows:
            run_experiment(benchmark_config(seed=3))
    assert exc.value.stage == "stream"
    assert [row[0] for row in rows] == ["start", "load", "segment", "split"]
    assert progsub.harness._records.get() is None


def test_cli_fit_failure_writes_no_timings(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("stream broke")

    monkeypatch.setattr(progsub.harness, "superpixel_stream", broken)
    cfg = _write_benchmark_config(tmp_path / "cfg.txt")
    out = tmp_path / "fit"
    assert cli_main(["fit", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error[stream]: stream broke\n"
    assert not (out / "timings.csv").exists()


def test_cli_fit_writes_timings_beside_its_artifacts(tmp_path):
    cfg = _write_benchmark_config(tmp_path / "cfg.txt")
    out = tmp_path / "fit"
    assert cli_main(["fit", "--config", cfg, "--seed", "3", "--out",
                     str(out)]) == 0
    lines = (out / "timings.csv").read_text().splitlines()
    assert lines[0] == "name,value,vmhwm_mb,vmrss_mb"
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == 4 for row in rows)
    names = [row[0] for row in rows]
    assert names == ["start"] + RUN_STAGES + [
        "python", "numpy", "scipy", "numpy_blas", "scipy_blas",
        "blas_threads"]
    for name, seconds, hwm, rss in rows[1:1 + len(RUN_STAGES)]:
        assert float(seconds) >= 0
        if os.path.exists("/proc/self/status"):
            assert 0 < float(rss) <= float(hwm)
    env = {row[0]: row[1] for row in rows[1 + len(RUN_STAGES):]}
    assert env["numpy"] == np.__version__
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    counts = env["blas_threads"].split()
    pinned = not (os.environ.get("OPENBLAS_NUM_THREADS")
                  or os.environ.get("OMP_NUM_THREADS"))
    assert len(counts) == len(progsub.harness.openblas_thread_calls())
    if pinned:
        assert set(counts) <= {"1"}
    # the run's own artifacts are the library's, timings.csv aside
    _, artifacts = run_experiment(benchmark_config(
        seed=3, out_dir=str(tmp_path / "lib")))
    assert sorted(p.name for p in out.iterdir()) == sorted(
        list(artifacts) + ["timings.csv"])
