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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dposv, dpotrf, dpotrs

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
    # np.linalg.norm(mat, axis=0)'s own formula, without its dispatch
    norms = np.sqrt(np.add.reduce(mat * mat, axis=0))
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
    """Solve lhs @ out = rhs for a symmetric positive-definite lhs.

    Reads the upper triangle of lhs and returns a C-ordered array with the
    same bits as scipy.linalg.solve(lhs, rhs, assume_a="pos"), without that
    wrapper's per-call validation and condition estimate. Raises
    NumericalError when lhs is not positive definite or the solution is not
    finite (LAPACK passes NaN and inf through without an error).

    One dposv call, which is dpotrf followed by dpotrs: the same bits as
    solve_factored(spd_factor(lhs), rhs).
    """
    if lhs.shape == (1, 1):
        return solve_factored(spd_factor(lhs), rhs)
    _, out, info = dposv(lhs, rhs)
    if info != 0:
        raise _solve_error(lhs)
    return _finite_c_order(out)


def spd_factor(lhs):
    """Upper Cholesky factor of a symmetric positive-definite lhs (upper
    triangle read), for solve_factored; raises NumericalError as solve_spd.

    A 1x1 system comes back as it is: scipy.linalg.solve divides it instead
    of factoring it, and solve_factored keeps its bits.
    """
    if lhs.shape == (1, 1):
        if not lhs[0, 0] > 0.0:
            raise _solve_error(lhs)
        return lhs
    factor, info = dpotrf(lhs, clean=0)
    if info != 0:
        raise _solve_error(lhs)
    return factor


def solve_factored(factor, rhs):
    """Solve lhs @ out = rhs given factor = spd_factor(lhs), with the bits of
    scipy.linalg.solve(lhs, rhs, assume_a="pos"), whose dposv is dpotrf
    followed by dpotrs."""
    if factor.shape == (1, 1):
        out = rhs / factor
    else:
        # dpotrs reports only malformed arguments, which a factor cannot be
        out, _ = dpotrs(factor, rhs)
    return _finite_c_order(out)


def _finite_c_order(out):
    if not np.isfinite(out).all():
        raise NumericalError("non-finite solution in block solve")
    # LAPACK returns Fortran order; the products downstream round
    # differently by layout, so hand back the C order solve() returned
    return np.ascontiguousarray(out)


def _solve_error(lhs):
    if not np.isfinite(lhs).all():
        return NumericalError("non-finite system matrix in block solve")
    return NumericalError(
        f"singular system in block solve (cond~{np.linalg.cond(lhs):.2e})"
    )


class LayerTerms:
    """Fixed terms of one layer input, shared by every ADMM run on it.

    Holds the input X (d_in x n), X X', the unweighted graph term X L X'
    (None for no graph) and, keyed by (graph weight w, penalty mu), the
    factor of each projection system w X L X' + 3 mu X X' + (mu + RIDGE) I.
    Every run climbs the same penalty ladder, so pre-training and each
    fine-tune of a layer factor a system once between them. The factors
    take d_in x d_in floats per distinct (w, mu): at most one per rung of
    the ladder and weight in use.
    """

    def __init__(self, x, graph_gram=None):
        self.x = matrix_values(x)
        d_in = self.x.shape[0]
        if graph_gram is not None and np.shape(graph_gram) != (d_in, d_in):
            raise InputError(f"graph Gram matrix has shape "
                             f"{np.shape(graph_gram)}, expected {(d_in, d_in)}")
        self.data_gram = self.x @ self.x.T
        self.graph_gram = graph_gram
        self._factors = {}

    def projection_factor(self, weight, mu):
        """spd_factor of w X L X' + 3 mu X X' + (mu + RIDGE) I."""
        key = (weight, mu)
        factor = self._factors.get(key)
        if factor is None:
            system = np.multiply(self.data_gram, 3.0 * mu)
            if self.graph_gram is not None:
                system += weight * self.graph_gram
            factor = spd_factor(_add_to_diagonal(system, mu + RIDGE))
            self._factors[key] = factor
        return factor


def update_projection(state, terms, weight):
    """Closed-form projection update on the layer input of `terms` (a
    LayerTerms) with graph weight w.

    T <- (mu*(feats + nonneg + normed) X' + mu*decoder + their duals folded
    in the same pattern) * (w X L X' + 3 mu X X' + mu I)^{-1}
    """
    mu = state.penalty
    xT = terms.x.T
    num = (
        mu * ((state.feats + state.nonneg + state.normed) @ xT + state.decoder)
        + (state.dual_feats + state.dual_nonneg + state.dual_normed) @ xT
        + state.dual_decoder
    )
    return solve_factored(terms.projection_factor(weight, mu), num.T).T


def _frobenius(mat):
    """np.linalg.norm(mat) of a matrix, by the same dot product."""
    flat = mat.ravel(order="K")
    return math.sqrt(flat @ flat)


def _add_to_diagonal(mat, value):
    """mat + value * I, computed in place on a square C-ordered mat."""
    mat.ravel()[::mat.shape[0] + 1] += value
    return mat


def prediction_terms(readout_chain, y, alpha, labeled_cols=None):
    """Fixed terms of the prediction block for one run, as update_features
    takes them: (alpha R'R, alpha R'Y over the labeled columns, boolean
    mask of those columns or None for all)."""
    r = readout_chain
    y = np.asarray(y, dtype=np.float64)
    if labeled_cols is not None:
        labeled_cols = np.asarray(labeled_cols, dtype=bool)
        y = y[:, labeled_cols]
    return alpha * (r.T @ r), alpha * (r.T @ y), labeled_cols


def update_features(state, x, px, prediction=None):
    """Reconstruction-features update (GG' + mu I)^{-1}(GX + mu TX - D1),
    with px = TX.

    `prediction` (from prediction_terms) adds the prediction term to the
    labeled columns:
        (alpha R'R + GG' + mu I)^{-1} (alpha R'Y + GX + mu TX - D1)
    with R the composed downstream readout; the other columns keep the
    plain update. Every column of a triangular solve is independent, so the
    plain update solves all columns at once and the labeled ones are then
    overwritten, with the bits of solving each block on its own.
    """
    mu = state.penalty
    g = state.decoder
    lhs = _add_to_diagonal(g @ g.T, mu + RIDGE)
    rhs = g @ x
    rhs += mu * px
    rhs -= state.dual_feats
    if prediction is None:
        return solve_spd(lhs, rhs)
    rtr, rty, labeled = prediction
    if labeled is None:
        lhs += rtr
        rhs += rty
        return solve_spd(lhs, rhs)
    out = solve_spd(lhs, rhs)
    lhs += rtr
    out[:, labeled] = solve_spd(lhs, rhs[:, labeled] + rty)
    return out


def update_decoder(state, x):
    """Decoder update: (FF' + mu I)^{-1}(FX' + mu T - D2).

    The reconstruction term participates here even though it couples decoder
    and features bilinearly; with features fixed the block is a strictly
    convex quadratic.
    """
    mu = state.penalty
    f = state.feats
    lhs = _add_to_diagonal(f @ f.T, mu + RIDGE)
    rhs = f @ x.T
    rhs += mu * state.proj
    rhs -= state.dual_decoder
    return solve_spd(lhs, rhs)


def update_nonneg(state, px):
    """Nonnegative copy: max(TX - D3/mu, 0), with px = TX."""
    return prox_nonneg(px - state.dual_nonneg / state.penalty)


def update_normed(state, px):
    """Norm-bounded copy: per-column unit-ball projection of TX - D4/mu,
    with px = TX."""
    return prox_unit_ball(px - state.dual_normed / state.penalty)


def constraint_gaps(state, px):
    """The four constraint differences (feats - TX, decoder - T,
    nonneg - TX, normed - TX), with px = TX."""
    return (state.feats - px, state.decoder - state.proj,
            state.nonneg - px, state.normed - px)


def update_duals(state, gaps):
    """Dual ascent for all four constraints, with gaps from constraint_gaps;
    returns the new duals."""
    mu = state.penalty
    return (
        state.dual_feats + mu * gaps[0],
        state.dual_decoder + mu * gaps[1],
        state.dual_nonneg + mu * gaps[2],
        state.dual_normed + mu * gaps[3],
    )


@dataclass
class PretrainReport:
    """Residual / penalty / objective trace of one ADMM run (see run_admm
    for which rows hold the objective)."""

    converged: bool
    trace: list = field(repr=False)
    final_nonneg_min: float = 0.0   # smallest entry of the nonneg copy
    final_norm_max: float = 0.0     # largest column norm of the normed copy

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def final_residuals(self):
        return self.trace[-1][1:5]

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


def layer_terms(proj, x, graph_gram=None, emb=None):
    """Unweighted terms of one layer: (||X - T'TX||^2, tr(T XLX' T'), TX).

    The graph term is 0 when no Gram matrix XLX' is given. `emb` is TX when
    the caller already has it. The residual is formed and squared inside
    the buffer of T'TX, so the d_in x n work allocates one array.
    """
    if emb is None:
        emb = proj @ x
    resid = proj.T @ emb
    np.subtract(x, resid, out=resid)
    np.multiply(resid, resid, out=resid)
    graph = 0.0
    if graph_gram is not None:
        graph = float(np.sum((proj @ graph_gram) * proj))
    return float(np.sum(resid)), graph, emb


def prediction_term(supervision, emb):
    """alpha/2 ||Y - R emb||^2 over the labeled columns of `supervision`."""
    readout_chain, y, alpha, labeled_cols = supervision
    diff = readout_chain @ emb - y
    if labeled_cols is not None:
        diff = diff[:, labeled_cols]
    return 0.5 * alpha * float(np.sum(diff * diff))


def reconstruction_objective(proj, x, graph_gram, graph_weight,
                             supervision=None, emb=None):
    """The layer objective with the embedded features substituted by TX:

        1/2 ||X - T'TX||^2 + alpha/2 ||Y - R T X||^2 + w/2 tr(T XLX' T')

    The prediction term needs `supervision` (see run_admm); the graph term
    is 0 when `graph_gram` is None. `emb` is TX when the caller already has
    it.
    """
    recon, graph, emb = layer_terms(proj, x, graph_gram, emb)
    value = 0.5 * recon
    if supervision is not None:
        value += prediction_term(supervision, emb)
    return value + 0.5 * graph_weight * graph


def run_admm(terms, proj0, graph_weight, cfg, supervision=None):
    """Shared ADMM engine; returns (projection, PretrainReport).

    `terms` is the LayerTerms of the layer input; its graph term (None for
    none) enters with weight `graph_weight`, and the projection systems it
    factors stay in it for the next run on the same input.
    `supervision=(readout_chain, y, alpha, labeled_cols)` adds the
    prediction term alpha/2 ||Y - R T X||^2 over the labeled columns
    (boolean mask, or None for all) to the features update and the traced
    objective; the fine-tuning phase passes it, pre-training does not. The
    prediction terms every iteration reuses (alpha R'R, alpha R'Y) are built
    once per run.

    The report holds one trace row per iteration. A pre-training run
    evaluates the layer objective at every iteration, since its trace is
    written out (pretrain_layer<l>.csv). A fine-tune run's trace is read
    only at its last row (by finetune_projection's guard), so it evaluates
    the objective once, at the iterate it returns, and leaves the column
    None on the rows before.
    """
    x = terms.x
    d_in = x.shape[0]
    if proj0.shape[1] != d_in:
        raise InputError(
            f"initial projection expects {proj0.shape[1]} input rows, data "
            f"has {d_in}"
        )
    prediction = None if supervision is None else prediction_terms(
        *supervision)
    state = AdmmState.initial(proj0, x, cfg.mu0)

    trace = []
    for t in range(cfg.max_iters):
        mu_used = state.penalty
        try:
            state.proj = update_projection(state, terms, graph_weight)
            px = state.proj @ x
            state.feats = update_features(state, x, px, prediction)
            state.decoder = update_decoder(state, x)
            state.nonneg = update_nonneg(state, px)
            state.normed = update_normed(state, px)
            gaps = constraint_gaps(state, px)
            (state.dual_feats, state.dual_decoder, state.dual_nonneg,
             state.dual_normed) = update_duals(state, gaps)
        except NumericalError as exc:
            raise NumericalError(
                f"non-finite value at ADMM iteration {t}: {exc}"
            ) from exc
        state.penalty = min(cfg.rho * state.penalty, cfg.mu_max)

        residuals = tuple(map(_frobenius, gaps))
        if not all(map(math.isfinite, residuals)):
            raise NumericalError(f"non-finite value at ADMM iteration {t}")
        converged = all(r < cfg.eps for r in residuals)
        obj = None
        if supervision is None or converged or t == cfg.max_iters - 1:
            obj = reconstruction_objective(state.proj, x, terms.graph_gram,
                                           graph_weight, supervision, px)
            if not math.isfinite(obj):
                raise NumericalError(f"non-finite value at ADMM iteration {t}")
        trace.append((t, *residuals, mu_used, obj))
        if converged:
            break

    report = PretrainReport(
        converged=converged,
        trace=trace,
        final_nonneg_min=float(state.nonneg.min()) if state.nonneg.size else 0.0,
        final_norm_max=float(np.linalg.norm(state.normed, axis=0).max())
        if state.normed.size else 0.0,
    )
    return state.proj, report


def pretrain_layer(x, lap, proj0, eta, cfg=None, terms=None):
    """Train one layer's projection on its input block (no label term).

    Returns the projection and the run report. `x` is the layer input
    (d_in x n), `lap` the fused graph Laplacian over its columns, `proj0`
    the initial projection (d_out x d_in). `terms` is the LayerTerms of `x`
    and `lap` to reuse (and fill) across runs; a fresh one is built when it
    is None.

    The default penalty start (`AdmmConfig().mu0`, 0.3) suits a warm start
    such as the LPP projection `fit_stack` begins from. From a random
    projection it ends higher: demo 03 reaches objective 2.660 against 2.085
    with `AdmmConfig(mu0=1e-3)`, the choice for a random start.
    """
    cfg = cfg if cfg is not None else AdmmConfig()
    if terms is None:
        x = matrix_values(x)
        terms = LayerTerms(
            x, None if lap is None else compute_graph_gram(x, lap))
    elif terms.x is not x:
        raise InputError("layer terms were built for another layer input")
    return run_admm(terms, np.asarray(proj0, dtype=np.float64), float(eta),
                    cfg)
