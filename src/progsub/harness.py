"""Configuration-driven experiment harness.

Configs are flat ``key=value`` text with dotted namespaces. A run executes
segment -> streams -> graphs -> fit -> transform -> classify -> metrics and
writes a deterministic artifact set (config echo, metrics CSV, convergence
CSV, class-map PPM, model file). The same config and seed reproduce every
output byte with the same numpy, scipy and BLAS builds and BLAS thread count.
"""

import contextlib
import ctypes
import itertools
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import formats
from .embedding import _PCA_BLOCK, lpp_fit, pca_fit
from .errors import InputError, PipelineError
from .graphs import coordinate_dump, knn_heat_graph, laplacian
from .metrics import compute_metrics, confusion, nn_classify
from .model import CONVERGENCE_HEADER, fit_stack, transform
from .superpixels import segment_count, slic_segment, superpixel_stream
from .synthetic import SyntheticSpec, generate_synthetic
from .types import AdmmConfig, HyperParams, SampleSplit

METHODS = ("progsub", "raw", "pca", "lpp")

# hyperparameter cells that won tuning on the reference image pairs; the
# d20 variant suits ~200-band cubes, d30 the ~144-band one
PRESETS = {
    "tuned-d20": {
        "model.alpha": "1.0", "model.beta": "0.1", "model.gamma": "0.1",
        "model.dims": "20", "model.knn_k": "10", "model.sigma": "0.1",
    },
    "tuned-d30": {
        "model.alpha": "1.0", "model.beta": "0.1", "model.gamma": "0.1",
        "model.dims": "30", "model.knn_k": "10", "model.sigma": "0.1",
    },
    # desk-scale seeded benchmark used by the acceptance suite and demos
    "synth-benchmark": {
        "synthetic.width": "16", "synthetic.height": "16",
        "synthetic.bands": "12", "synthetic.classes": "6",
        "synthetic.separation": "1.0", "synthetic.noise": "0.4",
        "synthetic.blob": "5", "seed": "7",
        "split.train_per_class": "10",
        "model.alpha": "1.0", "model.beta": "0.1", "model.gamma": "0.1",
        "model.layers": "2", "model.dims": "5", "model.knn_k": "8",
        "model.sigma": "0.5",
    },
}

# full tuning ranges; the cell product is huge, so grid runs usually cap it
# with a budget
DEFAULT_GRID = {
    "dims": "10,20,30,40,50",
    "knn_k": "10,20,30,40,50",
    "sigma": "0.01,0.1,1.0,10.0,100.0",
    "alpha": "0.01,0.1,1.0,10.0,100.0",
    "beta": "0.01,0.1,1.0,10.0,100.0",
    "gamma": "0.01,0.1,1.0,10.0,100.0",
}


def parse_config_text(text):
    """Parse flat ``key=value`` lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _get(mapping, key, cast, default):
    """Pop `key` from the settings not yet read and cast its value."""
    if key not in mapping:
        return default
    text = mapping.pop(key)
    try:
        return cast(text)
    except ValueError as exc:
        raise InputError(f"config key {key}={text!r}: {exc}") from exc


def _bool(text):
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_list(text):
    return [int(v) for v in text.split(",") if v.strip() != ""]


@dataclass
class ExperimentConfig:
    """Typed view of one experiment's settings."""

    raw: dict = field(repr=False)
    method: str
    seed: int
    out_dir: str
    synthetic: SyntheticSpec
    cube_header: str
    cube_payload: str
    labels_path: str
    train_per_class: int
    unlabeled_fraction: float
    include_unlabeled: bool
    hyper: HyperParams
    admm: AdmmConfig
    slic_compactness: float
    slic_iters: int
    grid: dict
    grid_budget: int
    grid_folds: int
    sweep_layers: list
    dump_graphs: bool

    @classmethod
    def from_mapping(cls, mapping, seed=None, out_dir=None):
        """Parse {key: text}; a given `seed`/`out_dir` replaces that key."""
        mapping = dict(mapping)
        for key, value in (("seed", seed), ("out", out_dir)):
            if value is not None:
                mapping[key] = str(value)
        preset = mapping.pop("preset", None)
        if preset is not None:
            if preset not in PRESETS:
                raise InputError(
                    f"unknown preset {preset!r}; have {sorted(PRESETS)}"
                )
            merged = dict(PRESETS[preset])
            merged.update(mapping)
            mapping = merged

        raw = dict(mapping)  # every key left in mapping is one nothing read
        method = _get(mapping, "method", str, "progsub")
        if method not in METHODS:
            raise InputError(f"unknown method {method!r}; have {METHODS}")
        seed = _get(mapping, "seed", int, 0)

        synthetic = None
        if any(k.startswith("synthetic.") for k in mapping):
            synthetic = SyntheticSpec(
                width=_get(mapping, "synthetic.width", int, 16),
                height=_get(mapping, "synthetic.height", int, 16),
                bands=_get(mapping, "synthetic.bands", int, 12),
                n_classes=_get(mapping, "synthetic.classes", int, 6),
                separation=_get(mapping, "synthetic.separation", float, 1.0),
                noise=_get(mapping, "synthetic.noise", float, 0.3),
                blob_size=_get(mapping, "synthetic.blob", int, 5),
                seed=seed,
            )

        layers = _get(mapping, "model.layers", int, 1)
        dims = _get(mapping, "model.dims", _int_list, [10])
        if len(dims) == 1:
            dims = dims * layers
        hyper = HyperParams(
            alpha=_get(mapping, "model.alpha", float, 1.0),
            beta=_get(mapping, "model.beta", float, 0.1),
            gamma=_get(mapping, "model.gamma", float, 0.1),
            layers=layers,
            dims=tuple(dims),
            knn_k=_get(mapping, "model.knn_k", int, 10),
            sigma=_get(mapping, "model.sigma", float, 0.1),
            max_outer_iters=_get(mapping, "model.max_outer", int, 50),
            superpixel_fraction=_get(
                mapping, "model.superpixel_fraction", float, 0.10
            ),
        )
        # admm.<field> for every AdmmConfig field, cast to its default's type
        admm = AdmmConfig(**{
            name: _get(mapping, f"admm.{name}", type(default), default)
            for name, default in vars(AdmmConfig()).items()})
        grid_budget = _get(mapping, "grid.budget", int, None)
        grid_folds = _get(mapping, "grid.folds", int, 10)
        if grid_folds < 2:
            raise InputError(f"config key grid.folds={grid_folds} "
                             "must be >= 2")
        # read after budget and folds: grid_search_cv checks the parameter
        # names of the remaining grid.* keys
        grid = {key.split(".", 1)[1]: mapping.pop(key)
                for key in list(mapping) if key.startswith("grid.")}
        include = _get(mapping, "run.include_unlabeled", _bool, False)
        dump_graphs = _get(mapping, "run.dump_graphs", _bool, False)
        per_class = _get(mapping, "split.train_per_class", int, 10)
        if per_class < 1:
            raise InputError(f"config key split.train_per_class={per_class} "
                             "must be >= 1")
        hidden = _get(mapping, "split.unlabeled_fraction", float, 0.0)
        if not 0.0 <= hidden <= 1.0:
            raise InputError(f"config key split.unlabeled_fraction={hidden} "
                             "must be in [0, 1]")
        compactness = _get(mapping, "slic.compactness", float, 10.0)
        if not (np.isfinite(compactness) and compactness >= 0):
            raise InputError(f"config key slic.compactness={compactness} "
                             "must be finite and >= 0")
        slic_iters = _get(mapping, "slic.iters", int, 10)
        if slic_iters < 1:
            raise InputError(f"config key slic.iters={slic_iters} "
                             "must be >= 1")
        config = cls(
            raw=raw,
            method=method,
            seed=seed,
            out_dir=_get(mapping, "out", str, None),
            synthetic=synthetic,
            cube_header=_get(mapping, "data.cube_header", str, None),
            cube_payload=_get(mapping, "data.cube_payload", str, None),
            labels_path=_get(mapping, "data.labels", str, None),
            train_per_class=per_class,
            unlabeled_fraction=hidden,
            include_unlabeled=include,
            hyper=hyper,
            admm=admm,
            slic_compactness=compactness,
            slic_iters=slic_iters,
            grid=grid,
            grid_budget=grid_budget,
            grid_folds=grid_folds,
            sweep_layers=_get(mapping, "sweep.layers", _int_list, [1, 2, 3]),
            dump_graphs=dump_graphs,
        )
        if mapping:
            raise InputError(
                f"unknown config key(s): {', '.join(sorted(mapping))}"
            )
        return config


def load_config(path, keys=None):
    """Parse a config file; `keys` replace its values, as later lines would."""
    with open(path, "r", encoding="utf-8") as fh:
        mapping = parse_config_text(fh.read())
    mapping.update(keys or {})
    return ExperimentConfig.from_mapping(mapping)


@contextlib.contextmanager
def _stage(name):
    """Tag an error raised in the block with the stage name; interrupts and
    exits pass through untouched."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


# thread-count calls of the OpenBLAS builds in numpy and scipy wheels (the
# "64_" suffix marks the 64-bit-integer build) and of a system OpenBLAS
_OPENBLAS_CALLS = ("scipy_openblas_{}_num_threads64_",
                   "scipy_openblas_{}_num_threads",
                   "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def openblas_thread_calls():
    """(get, set) thread-count calls of each OpenBLAS mapped into this
    process, as /proc/self/maps lists them; empty without that file."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            rows = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    calls = []
    for path in sorted({row[5].strip() for row in rows
                        if len(row) == 6 and "openblas" in row[5]}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((n for n in _OPENBLAS_CALLS
                     if hasattr(lib, n.format("set"))), None)
        if name is not None:
            getter, setter = (getattr(lib, name.format(op))
                              for op in ("get", "set"))
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            calls.append((getter, setter))
    return calls


def pin_blas_threads():
    """Put every loaded OpenBLAS on one thread unless OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS is set; returns the (setter, count) pairs it replaced.
    One thread runs a fit's small matrices fastest and keeps its bits."""
    if os.environ.get("OPENBLAS_NUM_THREADS") or \
            os.environ.get("OMP_NUM_THREADS"):
        return []
    replaced = [(setter, getter())
                for getter, setter in openblas_thread_calls()]
    for setter, _ in replaced:
        setter(1)
    return replaced


@contextlib.contextmanager
def _one_blas_thread():
    """pin_blas_threads, then the caller's counts back, also on a raise."""
    replaced = pin_blas_threads()
    try:
        yield
    finally:
        for setter, count in replaced:
            setter(count)


def make_split(labels, train_per_class, unlabeled_fraction, rng):
    """Stratified split: fixed train count per class, optional pretend-
    unlabeled share of the remainder, rest is test. File-level zeros stay
    unlabeled."""
    labels = np.asarray(labels, dtype=np.int64)
    train, test, unlabeled = [], [], [np.flatnonzero(labels == 0)]
    for cls in np.unique(labels[labels > 0]):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        take = min(train_per_class, idx.size)
        rest = idx[take:]
        n_hide = int(round(unlabeled_fraction * rest.size))
        train.append(idx[:take])
        unlabeled.append(rest[:n_hide])
        test.append(rest[n_hide:])
    if not train:
        raise InputError("split produced no training samples")
    return SampleSplit(*(np.sort(np.concatenate(group))
                         for group in (train, test, unlabeled)))


@dataclass
class PreparedData:
    cube: np.ndarray          # normalized bands x pixels, read-only
    labels: np.ndarray        # int64, one per pixel; 0 marks unlabeled
    width: int
    height: int
    n_classes: int
    seg: object = None        # the rest is set by prepare_data
    split: SampleSplit = None

    @property
    def stream(self):
        """The whole-image superpixel stream, built anew on each access (a
        fit builds only its own columns); None before segmentation."""
        if self.seg is None:
            return None
        return superpixel_stream(self.cube, self.seg.labels)


def _max_column_norm(cube):
    """np.linalg.norm(cube, axis=0).max(), bit for bit, without a
    cube-sized temporary. Each block sums a column's squares in row order as
    the whole cube does; numpy would sum a one-column block pairwise, so a
    lone last column joins the block before it."""
    n = cube.shape[1]
    edges = list(range(0, n, _PCA_BLOCK)) + [n]
    if n > 1 and n % _PCA_BLOCK == 1:
        del edges[-2]
    return max(float(np.linalg.norm(cube[:, a:b], axis=0).max())
               for a, b in zip(edges, edges[1:]))


def load_data(config):
    """The load stage alone: load or generate the cube and normalize it in
    place."""
    with _stage("load"):
        if config.cube_header is not None:
            cube, width, height = formats.load_cube(
                config.cube_header, config.cube_payload
            )
            labels = formats.load_labels(config.labels_path, width * height)
        elif config.synthetic is not None:
            cube, labels, width, height = generate_synthetic(config.synthetic)
        else:
            raise InputError("config names neither data files nor a synthetic spec")
        n_classes = int(labels.max())
        # unit-ball feasibility: uniform scaling preserves nearest-neighbor
        # ordering while making column norms <= 1
        scale = _max_column_norm(cube)
        if scale == 0.0:
            scale = 1.0
        np.divide(cube, scale, out=cube)
        cube.setflags(write=False)
    return PreparedData(cube=cube, labels=labels, width=width, height=height,
                        n_classes=n_classes)


def segment_data(config, data):
    """The segment stage: SLIC superpixels of the loaded cube."""
    with _stage("segment"):
        n_segments = segment_count(data.width * data.height,
                                   config.hyper.superpixel_fraction)
        return slic_segment(data.cube, data.width, data.height, n_segments,
                            compactness=config.slic_compactness,
                            max_iters=config.slic_iters)


def split_data(config, data):
    """The split stage: the seeded stratified split of the loaded labels."""
    with _stage("split"):
        rng = np.random.default_rng(config.seed)
        return make_split(data.labels, config.train_per_class,
                          config.unlabeled_fraction, rng)


def prepare_data(config):
    """Load or generate the cube, normalize it and split it; segment it only
    for progsub, the one method that reads the segmentation."""
    data = load_data(config)
    if config.method == "progsub":
        data.seg = segment_data(config, data)
    data.split = split_data(config, data)
    return data


def _fit_method(config, data, hyper):
    """Fit the configured method on the split's training columns (and, for
    progsub with run.include_unlabeled, its unlabeled ones).

    Returns (embed_fn, model_stack_or_none, fit_report_or_none) where
    embed_fn maps a raw pixel matrix to the learned feature space.
    """
    cube = data.cube
    train_idx = data.split.train_indices
    method = config.method
    if method == "raw":
        return (lambda v: v), None, None
    if method == "pca":
        emb = pca_fit(cube[:, train_idx], hyper.dims[-1])
        return emb.transform, None, None
    if method == "lpp":
        w = knn_heat_graph(cube[:, train_idx], hyper.knn_k, hyper.sigma)
        lap = laplacian(w)
        deg = lap.diagonal()
        deg = np.where(deg <= 0, 1e-12, deg)
        emb = lpp_fit(cube[:, train_idx], lap, deg, hyper.dims[-1])
        return emb.transform, None, None
    # progsub
    fit_idx = train_idx
    if config.include_unlabeled:
        fit_idx = np.concatenate([train_idx, data.split.unlabeled_indices])
    fit_labels = data.labels[fit_idx]
    fit_labels[train_idx.size:] = 0  # the unlabeled columns' labels stay hidden
    with _stage("stream"):
        fit_stream = superpixel_stream(cube, data.seg.labels, fit_idx)
    stack, report = fit_stack(
        cube[:, fit_idx],
        fit_stream,
        fit_labels,
        data.seg.labels[fit_idx],
        hyper,
        config.admm,
        n_classes=data.n_classes,
    )
    return (lambda v: transform(stack, v)), stack, report


def score_embedding(data, embed):
    """Transform -> classify -> metrics on the data's split.

    `embed` maps raw pixel columns to the learned feature space. Every pixel
    is labeled by its nearest training pixel and the test pixels are scored;
    returns (MetricsReport, predicted class of every pixel).
    """
    train_idx = data.split.train_indices
    test_idx = data.split.test_indices
    with _stage("transform"):
        all_emb = embed(data.cube)

    with _stage("classify"):
        preds_all = nn_classify(all_emb[:, train_idx], data.labels[train_idx],
                                all_emb)

    with _stage("metrics"):
        cm = confusion(data.labels[test_idx], preds_all[test_idx],
                       n_classes=data.n_classes)
        metrics = compute_metrics(cm)
    return metrics, preds_all


def write_files(out_dir, files):
    """Write {name: text or bytes} into out_dir in order; returns
    {name: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, content in files.items():
        path = os.path.join(out_dir, name)
        if isinstance(content, str):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(content)
        else:
            with open(path, "wb") as fh:
                fh.write(content)
        paths[name] = path
    return paths


def _fit_and_score(config, data, hyper):
    """Fit on prepared data's split and score it; returns (MetricsReport,
    model stack or None, fit report or None, predicted class of every
    pixel)."""
    split = data.split
    if split.test_indices.size == 0:
        raise PipelineError("split", InputError("split produced no test samples"))

    with _stage("fit"):
        embed, stack, report = _fit_method(config, data, hyper)

    metrics, preds_all = score_embedding(data, embed)
    return metrics, stack, report, preds_all


@_one_blas_thread()
def run_experiment(config):
    """End-to-end run; returns (MetricsReport, artifacts dict)."""
    data = prepare_data(config)
    metrics, stack, report, preds_all = _fit_and_score(config, data,
                                                       config.hyper)
    artifacts = {}
    if config.out_dir is not None:
        with _stage("write"):
            artifacts = _write_artifacts(config, data, metrics, stack, report,
                                         preds_all)
    return metrics, artifacts


def _echo_lines(config):
    lines = [f"method={config.method}", f"seed={config.seed}"]
    for key in sorted(config.raw):
        if key not in ("method", "out", "seed"):
            lines.append(f"{key}={config.raw[key]}")
    return "\n".join(lines) + "\n"


def _write_artifacts(config, data, metrics, stack, report, preds_all):
    files = {"config.echo.txt": _echo_lines(config),
             "metrics.csv": metrics.to_csv()}
    if report is not None:
        files["convergence.csv"] = report.convergence_csv()
        for l, rep in enumerate(report.pretrain_reports, start=1):
            files[f"pretrain_layer{l}.csv"] = rep.to_csv()
    else:
        files["convergence.csv"] = CONVERGENCE_HEADER + "\n"
    if stack is not None:
        files["model.bin"] = formats.dump_model_bytes(stack)
    files["map.ppm"] = formats.render_class_map(preds_all, data.width,
                                                data.height, data.n_classes)
    files["predictions.txt"] = formats.labels_text(preds_all)
    if config.dump_graphs and report is not None:
        # the graphs the fit was trained on, unlabeled columns included
        for name in ("wp", "wsp", "wa", "wf"):
            files[f"graph_{name}.txt"] = coordinate_dump(
                getattr(report.graphs, name))
    return write_files(config.out_dir, files)


def _stratified_folds(labels, train_idx, n_folds, rng):
    """Deterministic per-class round-robin fold assignment; returns the
    non-empty folds, each a sorted index array."""
    train_labels = labels[train_idx]
    fold_of = np.empty(train_idx.size, dtype=np.int64)
    for cls in np.unique(train_labels):
        members = np.flatnonzero(train_labels == cls)
        members = members[rng.permutation(members.size)]
        fold_of[members] = np.arange(members.size) % n_folds
    folds = [np.sort(train_idx[fold_of == f]) for f in range(n_folds)]
    return [f for f in folds if f.size]


_GRID_FIELDS = ("alpha", "beta", "gamma", "sigma", "knn_k", "dims", "layers")
# the grid parameters each method reads (pca and lpp only the last dims)
_METHOD_PARAMS = {
    "raw": (),
    "pca": ("dims",),
    "lpp": ("dims", "knn_k", "sigma"),
    "progsub": _GRID_FIELDS,
}


_INT_GRID_FIELDS = ("dims", "knn_k", "layers")


def _grid_value(key, value):
    """One grid candidate as its HyperParams value."""
    return int(value) if key in _INT_GRID_FIELDS else float(value)


def _apply_cell(hyper, cell):
    """HyperParams with one grid cell's values; a cell that sets dims or
    layers gets `layers` copies of its (or the last current) dimension."""
    updates = {key: _grid_value(key, value) for key, value in cell.items()}
    if "dims" in cell or "layers" in cell:
        m = updates.pop("layers", hyper.layers)
        d = updates.pop("dims", hyper.dims[-1])
        updates.update(layers=m, dims=(d,) * m)
    return replace(hyper, **updates)


def _cv_score(config, data, hyper, folds):
    """Mean held-out-fold overall accuracy for one hyperparameter cell; each
    fold is fitted and scored as a run whose split tests the fold. The
    split's unlabeled pixels stay unlabeled in every fold, so they join each
    fold fit when run.include_unlabeled is set; validation pixels never do."""
    oas = []
    all_idx = np.concatenate(folds)
    for val_idx in folds:
        fit_idx = np.setdiff1d(all_idx, val_idx)
        if fit_idx.size == 0:
            continue
        k = min(hyper.knn_k, max(1, fit_idx.size - 1))
        fold = replace(data, split=SampleSplit(
            fit_idx, val_idx, data.split.unlabeled_indices))
        oas.append(_fit_and_score(config, fold, replace(hyper, knn_k=k))[0].oa)
    if not oas:
        raise InputError("cross-validation produced no scorable folds")
    return float(np.mean(oas))


def _grid_cells(config):
    """(parameter names, cells) of a grid search: the config's grid.<param>
    lists, or DEFAULT_GRID, restricted to the parameters the method reads,
    crossed, then thinned to the budget."""
    grid = dict(config.grid or DEFAULT_GRID)
    for key in grid:
        if key not in _GRID_FIELDS:
            raise InputError(f"unknown grid parameter {key!r}; have {_GRID_FIELDS}")
        if not str(grid[key]).strip():
            raise InputError(f"grid parameter {key} has no candidates")
    names = sorted(k for k in grid if k in _METHOD_PARAMS[config.method])
    candidates = [[v.strip() for v in str(grid[k]).split(",") if v.strip()]
                  for k in names]
    if any(not c for c in candidates):
        raise InputError("every grid parameter needs at least one candidate")
    for key, values in zip(names, candidates):
        for value in values:
            try:
                _grid_value(key, value)
            except ValueError:
                kind = "an integer" if key in _INT_GRID_FIELDS else "a number"
                raise InputError(f"grid.{key}={value} is not {kind}") from None
    cells = [dict(zip(names, combo))
             for combo in itertools.product(*candidates)]
    if config.grid_budget is not None and config.grid_budget < 1:
        raise InputError(f"grid budget must be >= 1, got {config.grid_budget}")
    if config.grid_budget is not None and config.grid_budget < len(cells):
        take = np.unique(
            np.round(np.linspace(0, len(cells) - 1, config.grid_budget))
            .astype(int)
        )
        cells = [cells[i] for i in take]
    return names, cells


@_one_blas_thread()
def grid_search_cv(config):
    """Exhaustive (optionally budget-capped) grid search with stratified CV.

    Falls back to the published tuning ranges (DEFAULT_GRID) when the config
    names no grid.<param> keys, and crosses only the parameters the method
    reads (raw: none, so one cell). Returns (best HyperParams, table rows);
    rows are (cell dict, mean OA). Ties keep the lexicographically-first
    cell in enumeration order.
    """
    names, cells = _grid_cells(config)
    data = prepare_data(config)
    train_idx = data.split.train_indices
    _, class_sizes = np.unique(data.labels[train_idx], return_counts=True)
    n_folds = max(2, min(config.grid_folds, int(class_sizes.min()),
                         train_idx.size // 2))
    rng = np.random.default_rng(config.seed)
    folds = _stratified_folds(data.labels, train_idx, n_folds, rng)

    rows = []
    best = None
    for cell in cells:
        hyper = _apply_cell(config.hyper, cell)
        score = _cv_score(config, data, hyper, folds)
        rows.append((cell, score))
        if best is None or score > best[1]:
            best = (cell, score)

    best_hyper = _apply_cell(config.hyper, best[0])
    if config.out_dir is not None:
        lines = [",".join(names + ["mean_oa"])]
        for cell, score in rows:
            lines.append(",".join([cell[k] for k in names] + [repr(score)]))
        best_lines = [f"{k}={best[0][k]}" for k in names]
        best_lines.append(f"mean_oa={best[1]!r}")
        write_files(config.out_dir, {"grid.csv": "\n".join(lines) + "\n",
                                     "best.txt": "\n".join(best_lines) + "\n"})
    return best_hyper, rows


@_one_blas_thread()
def layer_sweep(config, m_list=None):
    """Refit with each layer count on data prepared once; returns rows of
    (m, oa, aa, kappa). Only a method that reads `layers` can be swept."""
    m_list = list(m_list if m_list is not None else config.sweep_layers)
    if not m_list:
        raise InputError("layer sweep needs at least one layer count")
    if "layers" not in _METHOD_PARAMS[config.method]:
        raise InputError(
            f"method {config.method!r} reads no layer count, so every depth "
            "would fit the same model; only progsub reads layers")
    data = prepare_data(config)
    rows = []
    for m in m_list:
        hyper = _apply_cell(config.hyper, {"layers": m})
        metrics = _fit_and_score(config, data, hyper)[0]
        rows.append((int(m), metrics.oa, metrics.aa, metrics.kappa))
    if config.out_dir is not None:
        lines = ["m,oa,aa,kappa"]
        for m, oa, aa, kappa in rows:
            lines.append(f"{m},{oa!r},{aa!r},{kappa!r}")
        write_files(config.out_dir,
                    {"layer_sweep.csv": "\n".join(lines) + "\n"})
    return rows
