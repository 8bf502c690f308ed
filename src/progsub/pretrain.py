"""Per-layer ADMM solver for the constrained reconstruction objective.

One layer's projection T is trained against its input block matrix X
(d_in x n) by minimizing

    1/2 ||X - T'TX||_F^2  +  eta/2 * tr(TX L X'T')

subject to the embedded features TX being elementwise nonnegative with
columns inside the unit ball. The solver splits TX into three auxiliary
copies (reconstruction features, nonnegative copy, norm-bounded copy) plus
a decoder copy of T itself, and alternates closed-form block updates with
dual ascent under a geometrically growing penalty. Fine-tuning runs the same
loop with the label-prediction term added (see run_admm).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .graphs import compute_graph_gram
from .types import AdmmConfig, matrix_values

# numerical insurance on every solved system; the penalty term already
# regularizes, so this never moves a solution beyond ~1e-9
RIDGE = 1e-10

TRACE_COLUMNS = ("iter", "r_feats", "r_decoder", "r_nonneg", "r_norm", "mu",
                 "objective")


def prox_nonneg(mat):
    """Project a matrix onto the nonnegative orthant (elementwise max 0)."""
    return np.maximum(mat, 0.0)


def prox_unit_ball(mat):
    """Rescale every column with Euclidean norm > 1 back onto the unit sphere."""
    norms = np.linalg.norm(mat, axis=0)
    scale = np.where(norms > 1.0, norms, 1.0)
    return mat / scale


@dataclass
class AdmmState:
    """One layer's solver state: projection, auxiliaries, duals, penalty."""

    proj: np.ndarray          # (d_out, d_in) current projection
    feats: np.ndarray         # (d_out, n) reconstruction copy of proj @ x
    decoder: np.ndarray       # (d_out, d_in) decoder copy of proj
    nonneg: np.ndarray        # (d_out, n) nonnegative copy of proj @ x
    normed: np.ndarray        # (d_out, n) norm-bounded copy of proj @ x
    dual_feats: np.ndarray
    dual_decoder: np.ndarray
    dual_nonneg: np.ndarray
    dual_normed: np.ndarray
    penalty: float

    @classmethod
    def initial(cls, proj0, x, mu0):
        # warm start: every auxiliary copy starts consistent with proj0, so a
        # feasible stationary initialization is an exact fixed point instead
        # of being destroyed by the first few low-penalty iterations
        proj0 = np.array(proj0, dtype=np.float64)
        d_out, d_in = proj0.shape
        n = x.shape[1]
        feats0 = proj0 @ x
        return cls(
            proj=proj0,
            feats=feats0,
            decoder=proj0.copy(),
            nonneg=prox_nonneg(feats0),
            normed=prox_unit_ball(feats0),
            dual_feats=np.zeros((d_out, n)),
            dual_decoder=np.zeros((d_out, d_in)),
            dual_nonneg=np.zeros((d_out, n)),
            dual_normed=np.zeros((d_out, n)),
            penalty=float(mu0),
        )


def solve_spd(lhs, rhs):
    """Solve lhs @ out = rhs for a symmetric positive-definite lhs."""
    try:
        return scipy.linalg.solve(lhs, rhs, assume_a="pos")
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular system in block solve (cond~{np.linalg.cond(lhs):.2e})"
        ) from exc


def update_projection(state, x, lap, graph_weight, data_gram=None,
                      graph_gram=None):
    """Closed-form projection update.

    T <- (mu*(feats + nonneg + normed) X' + mu*decoder + their duals folded
    in the same pattern) * (graph_weight * X L X' + 3 mu X X' + mu I)^{-1}
    """
    mu = state.penalty
    xT = x.T
    num = (
        mu * ((state.feats + state.nonneg + state.normed) @ xT + state.decoder)
        + (state.dual_feats + state.dual_nonneg + state.dual_normed) @ xT
        + state.dual_decoder
    )
    if data_gram is None:
        data_gram = x @ xT
    if graph_gram is None:
        graph_gram = compute_graph_gram(x, lap)
    d_in = x.shape[0]
    denom = (
        graph_weight * graph_gram
        + 3.0 * mu * data_gram
        + (mu + RIDGE) * np.eye(d_in)
    )
    return solve_spd(denom, num.T).T


def _features_system(state, x):
    """Normal equations (GG' + mu I) F = GX + mu TX - D1 of the plain
    features update, as (lhs, rhs)."""
    mu = state.penalty
    g = state.decoder
    lhs = g @ g.T + (mu + RIDGE) * np.eye(g.shape[0])
    rhs = g @ x + mu * (state.proj @ x) - state.dual_feats
    return lhs, rhs


def update_features(state, x):
    """Reconstruction-features update: (GG' + mu I)^{-1}(GX + mu TX - D1)."""
    return solve_spd(*_features_system(state, x))


def update_features_supervised(state, x, readout_chain, yt, alpha,
                               labeled_cols=None):
    """Reconstruction-features update with the prediction term added.

    For labeled columns:
        (alpha R'R + GG' + mu I)^{-1} (alpha R'Y + GX + mu TX - D1)
    with R the composed downstream readout; unlabeled columns (False in the
    boolean mask `labeled_cols`) drop the alpha terms.
    """
    lhs, rhs = _features_system(state, x)
    r = readout_chain
    y = np.asarray(yt, dtype=np.float64)
    sup_lhs = lhs + alpha * (r.T @ r)
    if labeled_cols is None:
        return solve_spd(sup_lhs, rhs + alpha * (r.T @ y))
    labeled_cols = np.asarray(labeled_cols, dtype=bool)
    out = np.empty_like(rhs)
    out[:, labeled_cols] = solve_spd(
        sup_lhs, rhs[:, labeled_cols] + alpha * (r.T @ y[:, labeled_cols])
    )
    if not labeled_cols.all():
        out[:, ~labeled_cols] = solve_spd(lhs, rhs[:, ~labeled_cols])
    return out


def update_decoder(state, x):
    """Decoder update: (FF' + mu I)^{-1}(FX' + mu T - D2).

    The reconstruction term participates here even though it couples decoder
    and features bilinearly; with features fixed the block is a strictly
    convex quadratic.
    """
    mu = state.penalty
    f = state.feats
    lhs = f @ f.T + (mu + RIDGE) * np.eye(f.shape[0])
    rhs = f @ x.T + mu * state.proj - state.dual_decoder
    return solve_spd(lhs, rhs)


def update_nonneg(state, x):
    """Nonnegative copy: max(TX - D3/mu, 0)."""
    return prox_nonneg(state.proj @ x - state.dual_nonneg / state.penalty)


def update_normed(state, x):
    """Norm-bounded copy: per-column unit-ball projection of TX - D4/mu."""
    return prox_unit_ball(state.proj @ x - state.dual_normed / state.penalty)


def update_duals(state, x):
    """Dual ascent for all four constraints; returns the new duals."""
    mu = state.penalty
    px = state.proj @ x
    return (
        state.dual_feats + mu * (state.feats - px),
        state.dual_decoder + mu * (state.decoder - state.proj),
        state.dual_nonneg + mu * (state.nonneg - px),
        state.dual_normed + mu * (state.normed - px),
    )


@dataclass
class PretrainReport:
    """Residual / penalty / objective trace of one ADMM run."""

    iterations: int
    converged: bool
    final_residuals: tuple
    trace: list = field(repr=False)
    final_nonneg_min: float = 0.0   # smallest entry of the nonneg copy
    final_norm_max: float = 0.0     # largest column norm of the normed copy

    @property
    def objective_trace(self):
        return [row[6] for row in self.trace]

    def to_csv(self):
        lines = [",".join(TRACE_COLUMNS)]
        for row in self.trace:
            lines.append(
                f"{row[0]},{row[1]!r},{row[2]!r},{row[3]!r},{row[4]!r},"
                f"{row[5]!r},{row[6]!r}"
            )
        return "\n".join(lines) + "\n"


def layer_terms(proj, x, graph_gram=None):
    """Unweighted terms of one layer: (||X - T'TX||^2, tr(T XLX' T'), TX).

    The graph term is 0 when no Gram matrix XLX' is given.
    """
    emb = proj @ x
    resid = x - proj.T @ emb
    graph = 0.0
    if graph_gram is not None:
        graph = float(np.sum((proj @ graph_gram) * proj))
    return float(np.sum(resid * resid)), graph, emb


def prediction_term(supervision, emb):
    """alpha/2 ||Y - R emb||^2 over the labeled columns of `supervision`."""
    readout_chain, y, alpha, labeled_cols = supervision
    diff = readout_chain @ emb - y
    if labeled_cols is not None:
        diff = diff[:, labeled_cols]
    return 0.5 * alpha * float(np.sum(diff * diff))


def reconstruction_objective(proj, x, graph_gram, graph_weight,
                             supervision=None):
    """The layer objective with the embedded features substituted by TX:

        1/2 ||X - T'TX||^2 + alpha/2 ||Y - R T X||^2 + w/2 tr(T XLX' T')

    The prediction term needs `supervision` (see run_admm); the graph term
    is dropped when w is 0 or `graph_gram` is None.
    """
    if graph_weight == 0.0:
        graph_gram = None
    recon, graph, emb = layer_terms(proj, x, graph_gram)
    value = 0.5 * recon
    if supervision is not None:
        value += prediction_term(supervision, emb)
    if graph_gram is not None:
        value += 0.5 * graph_weight * graph
    return value


def run_admm(x, graph_gram, proj0, graph_weight, cfg, supervision=None):
    """Shared ADMM engine; returns (projection, PretrainReport).

    `graph_gram` is the layer's X L X' (d_in x d_in), or None for no graph
    term. `supervision=(readout_chain, y, alpha, labeled_cols)` adds the
    prediction term alpha/2 ||Y - R T X||^2 over the labeled columns
    (boolean mask, or None for all) to the features update and the traced
    objective; the fine-tuning phase passes it, pre-training does not.
    """
    x = matrix_values(x)
    d_in = x.shape[0]
    if proj0.shape[1] != d_in:
        raise InputError(
            f"initial projection expects {proj0.shape[1]} input rows, data "
            f"has {d_in}"
        )
    if graph_gram is None:
        graph_gram = np.zeros((d_in, d_in))
    if np.shape(graph_gram) != (d_in, d_in):
        raise InputError(f"graph Gram matrix has shape {np.shape(graph_gram)}"
                         f", expected {(d_in, d_in)}")
    data_gram = x @ x.T
    state = AdmmState.initial(proj0, x, cfg.mu0)

    trace = []
    residuals = (np.inf,) * 4
    converged = False
    iterations = 0
    for t in range(cfg.max_iters):
        mu_used = state.penalty
        try:
            state.proj = update_projection(
                state, x, None, graph_weight, data_gram=data_gram,
                graph_gram=graph_gram,
            )
            if supervision is None:
                state.feats = update_features(state, x)
            else:
                state.feats = update_features_supervised(state, x,
                                                         *supervision)
            state.decoder = update_decoder(state, x)
            state.nonneg = update_nonneg(state, x)
            state.normed = update_normed(state, x)
            (state.dual_feats, state.dual_decoder, state.dual_nonneg,
             state.dual_normed) = update_duals(state, x)
        except (ValueError, NumericalError) as exc:
            raise NumericalError(
                f"non-finite value at ADMM iteration {t}: {exc}"
            ) from exc
        state.penalty = min(cfg.rho * state.penalty, cfg.mu_max)

        px = state.proj @ x
        residuals = (
            float(np.linalg.norm(state.feats - px)),
            float(np.linalg.norm(state.decoder - state.proj)),
            float(np.linalg.norm(state.nonneg - px)),
            float(np.linalg.norm(state.normed - px)),
        )
        obj = reconstruction_objective(state.proj, x, graph_gram,
                                       graph_weight, supervision)
        if not np.isfinite(obj) or not all(np.isfinite(r) for r in residuals):
            raise NumericalError(f"non-finite value at ADMM iteration {t}")
        trace.append((t, *residuals, mu_used, obj))
        iterations = t + 1
        if all(r < cfg.eps for r in residuals):
            converged = True
            break

    report = PretrainReport(
        iterations=iterations,
        converged=converged,
        final_residuals=residuals,
        trace=trace,
        final_nonneg_min=float(state.nonneg.min()) if state.nonneg.size else 0.0,
        final_norm_max=float(np.linalg.norm(state.normed, axis=0).max())
        if state.normed.size else 0.0,
    )
    return state.proj, report


def pretrain_layer(x, lap, proj0, eta, cfg=None):
    """Train one layer's projection on its input block (no label term).

    Returns the projection and the run report. `x` is the layer input
    (d_in x n), `lap` the fused graph Laplacian over its columns, `proj0`
    the initial projection (d_out x d_in).
    """
    cfg = cfg if cfg is not None else AdmmConfig()
    x = matrix_values(x)
    graph_gram = None if lap is None else compute_graph_gram(x, lap)
    return run_admm(x, graph_gram, np.asarray(proj0, dtype=np.float64),
                    float(eta), cfg)
