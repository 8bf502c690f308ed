"""The benchmark tracer wraps progsub functions at named module attributes;
a refactor that renames or moves one of them must fail here, not only in
the benchmark's own self-test."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from bench_utils import desk_file_config

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_wrap_point_is_a_callable_attribute(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.WRAP_POINTS
    for module_name, attr, _hook in spans.WRAP_POINTS:
        module = importlib.import_module(f"progsub.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_finetune_hook_reads_layer_and_stack_by_position():
    # the fine-tune count hook reads the traced call's args[0] and args[1]
    import progsub.model
    params = list(inspect.signature(
        progsub.model.finetune_projection).parameters)
    assert params[:2] == ["layer", "stack"]


def test_desk_run_from_files_passes_every_wrap_point(monkeypatch, tmp_path):
    # a caller that reaches a wrapped function by an imported name instead
    # of the module attribute would drop its span without failing
    import progsub
    import progsub.harness

    spans = _load_spans(monkeypatch)
    config = desk_file_config(tmp_path, 3, out_dir=tmp_path / "out")
    tracer = spans.Tracer().install(progsub)
    try:
        progsub.harness.run_experiment(config)
    finally:
        tracer.restore()
    seen = tracer.summary()["by_name"]
    for module_name, attr, _hook in spans.WRAP_POINTS:
        fn = getattr(importlib.import_module(f"progsub.{module_name}"), attr)
        name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
        assert name in seen, f"{module_name}.{attr} ({name}) never traced"
