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
from .harness import (class_map_ppm, layer_sweep, grid_search_cv, load_config,
                      load_data, metrics_csv, run_experiment, score_embedding,
                      segment_data, split_data, write_files)
from .model import transform as stack_transform


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="progsub",
        description="Progressive subspace learning experiments on image cubes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **extra_flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--grid-budget", type=int, default=None,
                       help="cap the number of grid cells")
        p.add_argument("--include-unlabeled-in-graph", action="store_true",
                       default=None,
                       help="let unlabeled pixels join graph construction")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("generate", "write a synthetic cube, labels, and truth map")
    add("segment", "segment the cube and write per-pixel segment ids")
    add("fit", "train, evaluate, and write the full artifact set",
        **{"--dump-graphs": dict(action="store_true",
                                 help="also dump the training pixel graph")})
    add("transform", "project a cube through a trained model",
        **{"--model": dict(required=True, help="model file from fit")})
    add("evaluate", "re-evaluate a trained model on the config's split",
        **{"--model": dict(required=True, help="model file from fit")})
    add("grid", "cross-validated hyperparameter grid search")
    add("sweep-layers", "refit with each configured layer count",
        **{"--layers": dict(default=None,
                            help="comma list of layer counts (overrides config)")})
    add("render-map", "render a predictions file as a PPM class map",
        **{"--predictions": dict(required=True,
                                 help="file with one class id per line")})
    return parser


def _require_out(args, command):
    if args.out is None:
        raise InputError(f"{command} needs --out")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load(args):
    return load_config(
        args.config,
        seed=args.seed,
        out_dir=args.out,
        grid_budget=args.grid_budget,
        include_unlabeled=args.include_unlabeled_in_graph,
    )


def _cmd_generate(args):
    config = _load(args)
    out = _require_out(args, "generate")
    if config.synthetic is None:
        raise InputError("generate needs synthetic.* config keys")
    from .synthetic import generate_synthetic

    cube, labels, width, height = generate_synthetic(config.synthetic)
    formats.save_cube(os.path.join(out, "cube.json"),
                      os.path.join(out, "cube.raw"),
                      cube, width, height)
    formats.save_labels(os.path.join(out, "labels.txt"), labels)
    palette = formats.default_palette(max(labels))
    with open(os.path.join(out, "truth.ppm"), "wb") as fh:
        fh.write(formats.render_class_map(labels, width, height, palette))
    print(f"generate: wrote {width}x{height}x{cube.dim} cube, "
          f"{max(labels)} classes -> {out}")
    return 0


def _cmd_segment(args):
    config = _load(args)
    out = _require_out(args, "segment")
    data = load_data(config)
    seg = segment_data(config, data)
    path = os.path.join(out, "segments.txt")
    formats.save_labels(path, seg.labels)
    print(f"segment: {seg.n_segments} segments over "
          f"{data.width}x{data.height} pixels -> {path}")
    return 0


def _cmd_fit(args):
    config = _load(args)
    _require_out(args, "fit")
    config.dump_graphs = bool(getattr(args, "dump_graphs", False))
    metrics, artifacts = run_experiment(config)
    print(f"fit[{config.method}]: oa={metrics.oa:.4f} aa={metrics.aa:.4f} "
          f"kappa={metrics.kappa:.4f} ({len(artifacts)} artifacts)")
    return 0


def _cmd_transform(args):
    config = _load(args)
    out = _require_out(args, "transform")
    stack = formats.load_model(args.model)
    data = load_data(config)
    embedded = stack_transform(stack, data.cube)
    formats.save_cube(os.path.join(out, "embedded.json"),
                      os.path.join(out, "embedded.raw"),
                      embedded, data.width, data.height)
    print(f"transform: wrote {embedded.dim}-band embedding -> {out}")
    return 0


def _cmd_evaluate(args):
    config = _load(args)
    out = _require_out(args, "evaluate")
    stack = formats.load_model(args.model)
    data = load_data(config)
    data.split = split_data(config, data)
    metrics, preds_all = score_embedding(
        data, lambda v: stack_transform(stack, v).values)
    write_files(out, {"metrics.csv": metrics_csv(metrics),
                      "map.ppm": class_map_ppm(data, preds_all)})
    print(f"evaluate: oa={metrics.oa:.4f} aa={metrics.aa:.4f} "
          f"kappa={metrics.kappa:.4f}")
    return 0


def _cmd_grid(args):
    config = _load(args)
    if args.out is not None:
        _require_out(args, "grid")
    best, rows = grid_search_cv(config)
    print(f"grid: scored {len(rows)} cells; best mean OA "
          f"{max(r[1] for r in rows):.4f}")
    return 0


def _cmd_sweep_layers(args):
    config = _load(args)
    if args.out is not None:
        _require_out(args, "sweep-layers")
    m_list = None
    if getattr(args, "layers", None):
        m_list = [int(v) for v in args.layers.split(",") if v.strip()]
    rows = layer_sweep(config, m_list)
    for m, oa, aa, kappa in rows:
        print(f"m={m}: oa={oa:.4f} aa={aa:.4f} kappa={kappa:.4f}")
    return 0


def _cmd_render_map(args):
    config = _load(args)
    out = _require_out(args, "render-map")
    data = load_data(config)
    preds = formats.load_labels(args.predictions, data.width * data.height)
    palette = formats.default_palette(max(max(preds), data.n_classes, 1))
    path = os.path.join(out, "map.ppm")
    with open(path, "wb") as fh:
        fh.write(formats.render_class_map(preds, data.width, data.height,
                                          palette))
    print(f"render-map: wrote {path}")
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
        return handler(args)
    except PipelineError as exc:
        print(f"error[{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except (InputError, FormatError, NumericalError, OSError) as exc:
        print(f"error[{stage}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
