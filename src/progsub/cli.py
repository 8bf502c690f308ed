"""Command-line front end for the experiment harness.

Subcommands: generate, segment, fit, transform, evaluate, grid,
sweep-layers, render-map. Exit code 0 on success; any stage failure prints
``error[stage]: cause`` and exits nonzero.
"""

import argparse
import os
import sys

from . import formats
from .errors import FormatError, InputError, NumericalError, PipelineError
from .harness import (_one_blas_thread, layer_sweep, grid_search_cv,
                      load_config, load_data, run_experiment, score_embedding,
                      segment_data, split_data, write_files)
from .model import transform as stack_transform


# the flags whose argparse dest is the config key they stand for; a flag that
# is given replaces the file's value before parsing, as a later line would
_KEY_FLAGS = ("seed", "out", "grid.budget", "run.include_unlabeled",
              "run.dump_graphs", "sweep.layers")

_INCLUDE_UNLABELED = {"--include-unlabeled-in-graph": dict(
    dest="run.include_unlabeled", action="store_const", const="true",
    help="fit on the unlabeled pixels too: they join the reconstruction and "
         "graph terms (sets run.include_unlabeled=true)")}
_MODEL = {"--model": dict(required=True, help="model file from fit")}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="progsub",
        description="Progressive subspace learning experiments on image cubes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **extra_flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--seed", type=int, help="split and synthetic seed")
        p.add_argument("--out", help="output directory")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("generate", "write a synthetic cube, labels, and truth map")
    add("segment", "segment the cube and write per-pixel segment ids")
    add("fit", "train, evaluate, and write the full artifact set",
        **{"--dump-graphs": dict(
            dest="run.dump_graphs", action="store_const", const="true",
            help="also write the graphs the fit was trained on (sets "
                 "run.dump_graphs=true)")},
        **_INCLUDE_UNLABELED)
    add("transform", "project a cube through a trained model", **_MODEL)
    add("evaluate", "re-evaluate a trained model on the config's split",
        **_MODEL)
    add("grid", "cross-validated hyperparameter grid search",
        **{"--grid-budget": dict(dest="grid.budget", type=int,
                                 help="cap the number of grid cells")})
    add("sweep-layers", "refit with each configured layer count",
        **{"--layers": dict(dest="sweep.layers",
                            help="comma list of layer counts")},
        **_INCLUDE_UNLABELED)
    add("render-map", "render a predictions file as a PPM class map",
        **{"--predictions": dict(required=True,
                                 help="file with one class id per line")})
    return parser


def _require_out(config, command):
    if config.out_dir is None:
        raise InputError(f"{command} needs --out or an out= config key")
    os.makedirs(config.out_dir, exist_ok=True)
    return config.out_dir


def _load(args):
    flags = vars(args)
    return load_config(args.config, {key: str(flags[key]) for key in _KEY_FLAGS
                                     if flags.get(key) is not None})


def _cmd_generate(args):
    config = _load(args)
    out = _require_out(config, "generate")
    if config.synthetic is None:
        raise InputError("generate needs synthetic.* config keys")
    from .synthetic import generate_synthetic

    cube, labels, width, height = generate_synthetic(config.synthetic)
    formats.save_cube(os.path.join(out, "cube.json"),
                      os.path.join(out, "cube.raw"),
                      cube, width, height)
    formats.save_labels(os.path.join(out, "labels.txt"), labels)
    write_files(out, {"truth.ppm": formats.render_class_map(
        labels, width, height, int(labels.max()))})
    print(f"generate: wrote {width}x{height}x{cube.shape[0]} cube, "
          f"{labels.max()} classes -> {out}")
    return 0


def _cmd_segment(args):
    config = _load(args)
    out = _require_out(config, "segment")
    data = load_data(config)
    seg = segment_data(config, data)
    path = os.path.join(out, "segments.txt")
    formats.save_labels(path, seg.labels)
    print(f"segment: {seg.n_segments} segments over "
          f"{data.width}x{data.height} pixels -> {path}")
    return 0


def _cmd_fit(args):
    config = _load(args)
    _require_out(config, "fit")
    metrics, artifacts = run_experiment(config)
    print(f"fit[{config.method}]: oa={metrics.oa:.4f} aa={metrics.aa:.4f} "
          f"kappa={metrics.kappa:.4f} ({len(artifacts)} artifacts)")
    return 0


def _cmd_transform(args):
    config = _load(args)
    out = _require_out(config, "transform")
    stack = formats.load_model(args.model)
    data = load_data(config)
    embedded = stack_transform(stack, data.cube)
    formats.save_cube(os.path.join(out, "embedded.json"),
                      os.path.join(out, "embedded.raw"),
                      embedded, data.width, data.height)
    print(f"transform: wrote {embedded.shape[0]}-band embedding -> {out}")
    return 0


def _cmd_evaluate(args):
    config = _load(args)
    out = _require_out(config, "evaluate")
    stack = formats.load_model(args.model)
    data = load_data(config)
    data.split = split_data(config, data)
    metrics, preds_all = score_embedding(
        data, lambda v: stack_transform(stack, v))
    write_files(out, {"metrics.csv": metrics.to_csv(),
                      "map.ppm": formats.render_class_map(
                          preds_all, data.width, data.height,
                          data.n_classes)})
    print(f"evaluate: oa={metrics.oa:.4f} aa={metrics.aa:.4f} "
          f"kappa={metrics.kappa:.4f}")
    return 0


def _cmd_grid(args):
    config = _load(args)
    best, rows = grid_search_cv(config)
    print(f"grid: scored {len(rows)} cells; best mean OA "
          f"{max(r[1] for r in rows):.4f}")
    return 0


def _cmd_sweep_layers(args):
    config = _load(args)
    rows = layer_sweep(config)
    for m, oa, aa, kappa in rows:
        print(f"m={m}: oa={oa:.4f} aa={aa:.4f} kappa={kappa:.4f}")
    return 0


def _cmd_render_map(args):
    config = _load(args)
    out = _require_out(config, "render-map")
    data = load_data(config)
    preds = formats.load_labels(args.predictions, data.width * data.height)
    n_classes = max(int(preds.max()), data.n_classes)
    paths = write_files(out, {"map.ppm": formats.render_class_map(
        preds, data.width, data.height, n_classes)})
    print(f"render-map: wrote {paths['map.ppm']}")
    return 0


_COMMANDS = {
    "generate": ("generate", _cmd_generate),
    "segment": ("segment", _cmd_segment),
    "fit": ("fit", _cmd_fit),
    "transform": ("transform", _cmd_transform),
    "evaluate": ("evaluate", _cmd_evaluate),
    "grid": ("grid", _cmd_grid),
    "sweep-layers": ("sweep", _cmd_sweep_layers),
    "render-map": ("render", _cmd_render_map),
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    stage, handler = _COMMANDS[args.command]
    try:
        with _one_blas_thread():
            return handler(args)
    except PipelineError as exc:
        print(f"error[{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except (InputError, FormatError, NumericalError, OSError) as exc:
        print(f"error[{stage}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
