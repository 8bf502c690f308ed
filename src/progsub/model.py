"""Multi-layer subspace model: greedy layerwise pre-training followed by
alternating fine-tuning of the label readout and every layer projection.

The trained artifact is a ProjectionStack: an ordered chain of projections
T_1 ... T_m plus a linear readout P mapping the deepest subspace to one-hot
class scores. Training minimizes

    1/2 * sum_l ||X_{l-1} - T_l' T_l X_{l-1}||^2          (reconstruction)
  + alpha/2 * ||Y - P T_m ... T_1 X||^2                   (prediction)
  + beta/2  * sum_l tr(T_l X_{l-1} L X_{l-1}' T_l')       (graph alignment)
  + gamma/2 * ||P||^2                                     (readout ridge)

over the two-stream training matrix X (pixel block + superpixel stream),
subject to every layer's embedded features being nonnegative with columns
in the unit ball. Unlabeled columns simply drop out of the prediction term.
"""

from dataclasses import dataclass, field

import numpy as np

from .embedding import lpp_fit
from .errors import InputError, NumericalError
from .graphs import (GraphBundle, alignment_graph, assemble_fused,
                     compute_graph_gram, knn_heat_graph)
from .pretrain import (RIDGE, LayerTerms, _add_to_diagonal, layer_terms,
                       prediction_term, pretrain_layer,
                       reconstruction_objective, run_admm, solve_spd)
from .types import AdmmConfig, matrix_values, one_hot_encode

# the outer loop stops once the objective changes by less than this share
_OUTER_TOL = 1e-4

CONVERGENCE_HEADER = "outer_iter,objective"


@dataclass(frozen=True)
class ProjectionStack:
    """Ordered layer projections plus the optional label readout."""

    projections: tuple
    readout: np.ndarray = None

    def __post_init__(self):
        mats = tuple(np.array(p, dtype=np.float64) for p in self.projections)
        if not mats:
            raise InputError("a projection stack needs at least one layer")
        for l, m in enumerate(mats):
            if m.ndim != 2 or not np.all(np.isfinite(m)):
                raise InputError(f"layer {l + 1} projection is not a finite matrix")
            if l > 0 and m.shape[1] != mats[l - 1].shape[0]:
                raise InputError(
                    f"layer {l + 1} expects {m.shape[1]} inputs but layer {l} "
                    f"produces {mats[l - 1].shape[0]}"
                )
            m.setflags(write=False)
        readout = self.readout
        if readout is not None:
            readout = np.array(readout, dtype=np.float64)
            if readout.ndim != 2 or readout.shape[1] != mats[-1].shape[0]:
                raise InputError(
                    f"readout shape {readout.shape} does not match top "
                    f"dimension {mats[-1].shape[0]}"
                )
            if not np.all(np.isfinite(readout)):
                raise InputError("readout is not finite")
            readout.setflags(write=False)
        object.__setattr__(self, "projections", mats)
        object.__setattr__(self, "readout", readout)

    @property
    def depth(self):
        return len(self.projections)

    @property
    def input_dim(self):
        return self.projections[0].shape[1]


def chain_apply(projections, values):
    out = values
    for p in projections:
        out = p @ out
    return out


def transform(stack, x_new):
    """Project new columns through every layer (pixel block alone suffices)."""
    values = matrix_values(x_new)
    if values.shape[0] != stack.input_dim:
        raise InputError(
            f"stack expects {stack.input_dim} feature rows, got {values.shape[0]}"
        )
    return chain_apply(stack.projections, values)


def objective_value(stack, inputs, yt, hp, labeled_cols=None):
    """Full training objective at the current stack (readout required).

    `inputs` holds one LayerTerms per layer: the layer's input X_{l-1} and
    its graph term X_{l-1} L X_{l-1}'.
    """
    if stack.readout is None:
        raise InputError("objective needs a fitted readout")
    if len(inputs) != stack.depth:
        raise InputError(
            f"{len(inputs)} layer inputs for a {stack.depth}-layer stack")
    recon = 0.0
    graph = 0.0
    for proj, terms in zip(stack.projections, inputs):
        layer_recon, layer_graph, emb = layer_terms(proj, terms.x,
                                                    terms.graph_gram)
        recon += layer_recon
        graph += layer_graph
    predict = prediction_term(
        (stack.readout, np.asarray(yt, dtype=np.float64), hp.alpha,
         labeled_cols), emb)
    ridge = float(np.sum(stack.readout * stack.readout))
    return (0.5 * recon + predict + 0.5 * hp.beta * graph
            + 0.5 * hp.gamma * ridge)


def fit_readout(projections, xt, yt, alpha, gamma, labeled_cols=None):
    """Ridge regression of the one-hot targets on the deepest features.

    P = (alpha * Y V') (alpha * V V' + gamma I)^{-1} with V the top-layer
    features of the (labeled) training columns.
    """
    v = chain_apply(projections, matrix_values(xt))
    y = np.asarray(yt, dtype=np.float64)
    if labeled_cols is not None:
        v, y = v[:, labeled_cols], y[:, labeled_cols]
    lhs = _add_to_diagonal(alpha * (v @ v.T), gamma + RIDGE)
    rhs = alpha * (y @ v.T)
    return solve_spd(lhs, rhs.T).T


def finetune_projection(layer, stack, yt, hp, terms, cfg=AdmmConfig(),
                        labeled_cols=None):
    """Re-solve one layer's projection with every other layer fixed.

    Runs the same ADMM loop as pre-training with the prediction term wired
    into the features update and the graph weight set to beta. The candidate
    is accepted only if it does not raise the layer objective (the solver is
    a fixed-point method, not a descent method, so a restarted run can land
    on a slightly worse stationary point); otherwise the entry projection
    object itself is returned. `layer` is 1-based. `terms` is the LayerTerms
    of the layer's input, reused (and filled) across runs.
    Returns (projection, report).
    """
    idx = layer - 1
    if not (0 <= idx < stack.depth):
        raise InputError(f"layer must be in 1..{stack.depth}, got {layer}")
    if stack.readout is None:
        raise InputError("fine-tuning needs a fitted readout")
    readout_chain = stack.readout
    for j in range(stack.depth - 1, idx, -1):
        readout_chain = readout_chain @ stack.projections[j]
    supervision = (readout_chain, np.asarray(yt, dtype=np.float64), hp.alpha,
                   labeled_cols)
    entry = stack.projections[idx]
    candidate, report = run_admm(terms, entry, hp.beta, cfg,
                                 supervision=supervision)
    # the last traced objective is the layer objective at the candidate
    entry_val = reconstruction_objective(entry, terms.x, terms.graph_gram,
                                         hp.beta, supervision)
    if report.objective_trace[-1] > entry_val:
        return entry, report
    return candidate, report


@dataclass
class FitReport:
    """Outer-loop trace plus the per-layer inner solver reports."""

    outer_iterations: int
    objective_trace: tuple
    termination: str                      # "converged" | "max_outer_iters"
    pretrain_reports: list = field(repr=False, default_factory=list)
    finetune_reports: list = field(repr=False, default_factory=list)
    graphs: GraphBundle = field(repr=False, default=None)  # the fit's graphs

    def convergence_csv(self):
        lines = [CONVERGENCE_HEADER]
        for t, obj in enumerate(self.objective_trace):
            lines.append(f"{t},{obj!r}")
        return "\n".join(lines) + "\n"


def fit_stack(pixels, stream, labels, seg, hp, cfg=AdmmConfig(),
              n_classes=None):
    """Train the full stack on a training cube slice.

    pixels / stream: matching (d0 x n) pixel and superpixel-stream matrices.
    labels: one int64 label per column; 0 marks an unlabeled column that joins
    the reconstruction and graph terms but not the prediction term.
    seg: per-column segment ids aligned with the columns.
    """
    x = matrix_values(pixels)
    xsp = matrix_values(stream)
    if x.shape != xsp.shape:
        raise InputError(
            f"pixel block {x.shape} and stream block {xsp.shape} differ"
        )
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[1]
    if labels.size != n:
        raise InputError(f"{labels.size} labels for {n} training columns")
    labeled = labels > 0
    if not labeled.any():
        raise InputError("no labeled training samples")
    if n_classes is None:
        n_classes = int(labels.max())
    ids = np.asarray(seg)
    if ids.size != n:
        raise InputError(
            f"{ids.size} segment ids for {n} training columns; pass ids "
            "restricted to the same columns as the features"
        )

    # column slices taken by fancy indexing (cube[:, idx]) are Fortran-ordered
    # and hstack keeps that order; the Gram products downstream round
    # differently by memory layout, so the fit always sees C order
    xt = np.ascontiguousarray(np.hstack([x, xsp]))
    if not np.all(np.isfinite(xt)):
        raise InputError("training features contain non-finite entries")
    wp = knn_heat_graph(x, hp.knn_k, hp.sigma)
    wsp = knn_heat_graph(xsp, hp.knn_k, hp.sigma)
    wa = alignment_graph(ids)
    bundle = assemble_fused(wp, wsp, wa)
    lf = bundle.lf
    # no graph stores a diagonal entry, so L's diagonal is the degrees
    degrees = lf.diagonal()

    y_small = np.zeros((n_classes, n))
    lab_idx = np.flatnonzero(labeled)
    y_small[:, lab_idx] = one_hot_encode(labels[lab_idx], n_classes)
    yt = np.hstack([y_small, y_small])
    labeled2 = np.concatenate([labeled, labeled])
    mask = None if labeled2.all() else labeled2

    # greedy layerwise initialization; terms[l] holds layer l+1's input and
    # its fixed terms (Grams and factored projection systems) for pre-training,
    # every fine-tune, the readout and the objective
    pretrain_reports = []
    projections = []
    terms = []
    for l in range(hp.layers):
        x_in = xt if l == 0 else projections[-1] @ terms[-1].x
        terms.append(LayerTerms(x_in, compute_graph_gram(x_in, lf)))
        init = lpp_fit(x_in, lf, degrees, hp.dims[l])
        proj, rep = pretrain_layer(x_in, lf, init.projection, hp.beta, cfg,
                                   terms=terms[l])
        projections.append(proj)
        pretrain_reports.append(rep)

    # alternating fine-tuning; trace[0] is the objective at the pre-trained
    # projections, which is where the first sweep starts
    trace = []
    finetune_reports = []
    termination = "max_outer_iters"
    for outer in range(1, hp.max_outer_iters + 1):
        readout = fit_readout(projections[-1:], terms[-1].x, yt, hp.alpha,
                              hp.gamma, mask)
        stack = ProjectionStack(tuple(projections), readout)
        current = objective_value(stack, terms, yt, hp, mask)
        if not trace:
            trace.append(current)
        sweep_reports = []
        for l in range(1, hp.layers + 1):
            proj, rep = finetune_projection(l, stack, yt, hp, terms[l - 1],
                                            cfg, labeled_cols=mask)
            sweep_reports.append(rep)
            if proj is stack.projections[l - 1]:
                continue  # step rejected: the stack is unchanged
            trial = projections[:l - 1] + [proj] + projections[l:]
            trial_stack = ProjectionStack(tuple(trial), readout)
            # the step changes the inputs of the layers above it
            trial_terms = terms[:l]
            for j in range(l, hp.layers):
                x_in = trial[j - 1] @ trial_terms[-1].x
                trial_terms.append(LayerTerms(x_in,
                                              compute_graph_gram(x_in, lf)))
            candidate = objective_value(trial_stack, trial_terms, yt, hp, mask)
            # a layer step may lower its own objective yet raise the
            # downstream reconstruction terms; block descent keeps the
            # previous projection in that case
            if not candidate > current:
                projections, stack, current = trial, trial_stack, candidate
                terms = trial_terms
        finetune_reports.append(sweep_reports)
        if not np.isfinite(current):
            raise NumericalError(f"non-finite objective at outer iteration {outer}")
        trace.append(current)
        prev = trace[-2]
        if prev == 0.0 or abs(current - prev) / abs(prev) < _OUTER_TOL:
            termination = "converged"
            break

    report = FitReport(
        outer_iterations=outer,
        objective_trace=tuple(trace),
        termination=termination,
        pretrain_reports=pretrain_reports,
        finetune_reports=finetune_reports,
        graphs=bundle,
    )
    return stack, report
