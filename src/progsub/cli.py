"""Command-line front end for the experiment harness.

Each subcommand (generate, segment, fit, transform, evaluate, grid,
sweep-layers, render-map) carries its handler in the parser; `main` loads
the config once and passes it on. Exit code 0 on success; any failure prints
``error[stage]: cause`` and exits 1. A failure inside a pipeline stage names
that stage; any other (config, model or predictions file) names the
subcommand's first word.
"""

import argparse
import os
import sys

from . import formats
from .errors import FormatError, InputError, NumericalError, PipelineError
from .harness import (_one_blas_thread, layer_sweep, grid_search_cv,
                      load_config, load_data, load_shape, record_stages,
                      run_experiment, score_embedding, segment_data,
                      split_data, timings_csv, write_files)
from .model import transform as stack_transform
from .synthetic import generate_synthetic


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

    def add(name, help_text, handler, **extra_flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--seed", type=int, help="split and synthetic seed")
        p.add_argument("--out", help="output directory")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)

    add("generate", "write a synthetic cube, labels, and truth map",
        _cmd_generate)
    add("segment", "segment the cube and write per-pixel segment ids",
        _cmd_segment)
    add("fit", "train, evaluate, and write the full artifact set", _cmd_fit,
        **{"--dump-graphs": dict(
            dest="run.dump_graphs", action="store_const", const="true",
            help="also write the graphs the fit was trained on (sets "
                 "run.dump_graphs=true)")},
        **_INCLUDE_UNLABELED)
    add("transform", "project a cube through a trained model", _cmd_transform,
        **_MODEL)
    add("evaluate", "re-evaluate a trained model on the config's split",
        _cmd_evaluate, **_MODEL)
    add("grid", "cross-validated hyperparameter grid search", _cmd_grid,
        **{"--grid-budget": dict(dest="grid.budget", type=int,
                                 help="cap the number of grid cells")})
    add("sweep-layers", "refit with each configured layer count",
        _cmd_sweep_layers,
        **{"--layers": dict(dest="sweep.layers",
                            help="comma list of layer counts")},
        **_INCLUDE_UNLABELED)
    add("render-map", "render a predictions file as a PPM class map",
        _cmd_render_map,
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


def _cmd_generate(args, config):
    out = _require_out(config, args.command)
    if config.synthetic is None:
        raise InputError("generate needs synthetic.* config keys")
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


def _cmd_segment(args, config):
    out = _require_out(config, args.command)
    data = load_data(config)
    seg = segment_data(config, data)
    path = os.path.join(out, "segments.txt")
    formats.save_labels(path, seg.labels)
    print(f"segment: {seg.n_segments} segments over "
          f"{data.width}x{data.height} pixels -> {path}")
    return 0


def _cmd_fit(args, config):
    out = _require_out(config, args.command)
    with record_stages() as rows:
        metrics, artifacts = run_experiment(config)
    write_files(out, {"timings.csv": timings_csv(rows)})
    print(f"fit[{config.method}]: oa={metrics.oa:.4f} aa={metrics.aa:.4f} "
          f"kappa={metrics.kappa:.4f} ({len(artifacts)} artifacts and "
          "timings.csv)")
    return 0


def _cmd_transform(args, config):
    out = _require_out(config, args.command)
    stack = formats.load_model(args.model)
    data = load_data(config)
    embedded = stack_transform(stack, data.cube)
    formats.save_cube(os.path.join(out, "embedded.json"),
                      os.path.join(out, "embedded.raw"),
                      embedded, data.width, data.height)
    print(f"transform: wrote {embedded.shape[0]}-band embedding -> {out}")
    return 0


def _cmd_evaluate(args, config):
    out = _require_out(config, args.command)
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


def _cmd_grid(args, config):
    best, rows = grid_search_cv(config)
    print(f"grid: scored {len(rows)} cells; best mean OA "
          f"{max(r[1] for r in rows):.4f}")
    return 0


def _cmd_sweep_layers(args, config):
    rows = layer_sweep(config)
    for m, oa, aa, kappa in rows:
        print(f"m={m}: oa={oa:.4f} aa={aa:.4f} kappa={kappa:.4f}")
    return 0


def _cmd_render_map(args, config):
    out = _require_out(config, args.command)
    width, height, n_classes = load_shape(config)
    preds = formats.load_labels(args.predictions, width * height)
    paths = write_files(out, {"map.ppm": formats.render_class_map(
        preds, width, height, max(int(preds.max()), n_classes))})
    print(f"render-map: wrote {paths['map.ppm']}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _one_blas_thread():
            return args.handler(args, _load(args))
    except PipelineError as exc:
        print(f"error[{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except (InputError, FormatError, NumericalError, OSError) as exc:
        stage = args.command.split("-")[0]
        print(f"error[{stage}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
