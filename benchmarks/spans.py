"""Span tracer for the benchmark's traced run.

The tracer wraps public progsub functions at the module attributes their
callers look up (``progsub.harness.slic_segment``, ``progsub.model.
pretrain_layer``, ...), so the library itself is not changed. Each call
records a span: name, start, end, parent, and the rise of the process's peak
RSS (``ru_maxrss``) while it ran. Some wrap points also record counts taken
from the call's result (ADMM iterations, segments, graph entries).

Spans stay in memory; ``summary`` reduces them once the run is over.
"""

import resource
import time
from dataclasses import dataclass, field


def peak_rss_mb():
    """Peak resident set size of this process in MB (Linux: KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    parent: "Span"
    start: float
    end: float = 0.0
    rss_gain_mb: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    @property
    def path(self):
        names = []
        span = self
        while span is not None:
            names.append(span.name)
            span = span.parent
        return tuple(reversed(names))


def _admm_counts(span, args, result):
    _, report = result
    span.counts["admm_iters"] = report.iterations
    span.counts["admm_unconverged"] = 0 if report.converged else 1


def _finetune_counts(span, args, result):
    _admm_counts(span, args, result)
    layer, stack = args[0], args[1]
    # fine-tuning hands back the entry projection object when it rejects
    # the candidate, so anything else was kept
    span.counts["kept"] = 0 if result[0] is stack.projections[layer - 1] else 1


def _segment_counts(span, args, result):
    span.counts["n_segments"] = result.n_segments


def _fused_counts(span, args, result):
    span.counts["fused_nnz"] = result.wf.nnz


def _fit_counts(span, args, result):
    _, report = result
    span.counts["outer_iters"] = report.outer_iterations


# (module, attribute, count hook): the call sites a run goes through
WRAP_POINTS = (
    ("harness", "run_experiment", None),
    ("harness", "slic_segment", _segment_counts),
    ("harness", "superpixel_stream", None),
    ("harness", "fit_stack", _fit_counts),
    ("harness", "transform", None),
    ("harness", "nn_classify", None),
    ("formats", "load_cube", None),
    ("formats", "load_labels", None),
    ("formats", "render_class_map", None),
    ("formats", "dump_model_bytes", None),
    ("model", "knn_heat_graph", None),
    ("model", "alignment_graph", None),
    ("model", "assemble_fused", _fused_counts),
    ("model", "lpp_fit", None),
    ("model", "pretrain_layer", _admm_counts),
    ("model", "fit_readout", None),
    ("model", "objective_value", None),
    ("model", "finetune_projection", _finetune_counts),
)


class Tracer:
    """Records spans of wrapped calls; ``restore`` unwraps them."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    def install(self, package):
        for module_name, attr, hook in WRAP_POINTS:
            module = getattr(package, module_name)
            fn = getattr(module, attr)
            name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
            setattr(module, attr, self._wrap(fn, name, hook))
            self._patched.append((module, attr, fn))
        return self

    def restore(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, parent, time.perf_counter())
            rss0 = peak_rss_mb()
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span.end = time.perf_counter()
                span.rss_gain_mb = peak_rss_mb() - rss0
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
            if hook is not None:
                hook(span, args, result)
            return result

        return traced

    def summary(self):
        """Per-name totals and the per-path tree, as plain JSON values."""
        by_name = {}
        tree = {}
        for span in self.spans:
            agg = by_name.setdefault(span.name, {
                "s": 0.0, "self_s": 0.0, "calls": 0, "rss_gain_mb": 0.0,
            })
            agg["s"] += span.duration
            agg["self_s"] += span.self_s
            agg["calls"] += 1
            agg["rss_gain_mb"] += span.rss_gain_mb
            for key, value in span.counts.items():
                agg[key] = agg.get(key, 0) + value
            node = tree.setdefault("/".join(span.path),
                                   {"s": 0.0, "self_s": 0.0, "calls": 0})
            node["s"] += span.duration
            node["self_s"] += span.self_s
            node["calls"] += 1
        return {"by_name": by_name, "tree": tree}
