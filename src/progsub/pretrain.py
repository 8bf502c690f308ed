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
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InputError, NumericalError
from .graphs import compute_graph_gram
from .types import AdmmConfig, matrix_values

# numerical insurance on every solved system; the penalty term already
# regularizes, so this never moves a solution beyond ~1e-9
RIDGE = 1e-10

TRACE_COLUMNS = ("iter", "r_feats", "r_decoder", "r_nonneg", "r_norm", "mu",
                 "objective")


def prox_nonneg(mat, out=None):
    """Project a matrix onto the nonnegative orthant (elementwise max 0),
    into `out` when given (mat itself allowed)."""
    return np.maximum(mat, 0.0, out=out)


def prox_unit_ball(mat, out=None, work=None):
    """Rescale every column with Euclidean norm > 1 back onto the unit sphere.

    The result goes to `out` when given (mat itself allowed) and the squares
    to `work`, an array of mat's shape and memory order. A column whose norm
    is NaN comes back all NaN.
    """
    # np.linalg.norm(mat, axis=0)'s own formula, without its dispatch
    norms = np.sqrt(np.add.reduce(np.multiply(mat, mat, out=work), axis=0))
    return np.divide(mat, np.maximum(norms, 1.0, out=norms), out=out)


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


def spd_factor(lhs):
    """Upper Cholesky factor of a symmetric positive-definite lhs (upper
    triangle read), for _solve. Raises NumericalError when lhs is not
    positive definite or not finite."""
    factor, info = dpotrf(lhs, clean=0)
    if info != 0:
        if not np.isfinite(lhs).all():
            raise NumericalError("non-finite system matrix in block solve")
        raise NumericalError(
            f"singular system in block solve (cond~{np.linalg.cond(lhs):.2e})"
        )
    # dpotrf can report success on a NaN off the diagonal; the NaN then
    # reaches the factor's diagonal (a list of n floats checks fastest)
    if not all(map(math.isfinite, factor.diagonal().tolist())):
        raise NumericalError("non-finite system matrix in block solve")
    return factor


def _solve(factor, rhs, overwrite_rhs=False):
    """Solve lhs @ out = rhs given factor = spd_factor(lhs); returns a
    C-ordered array. Nothing is checked: NaN and inf pass through (the ADMM
    updates leave that to run_admm's residuals; solve_spd checks).

    A Fortran-ordered rhs (flags.fnc, which np.isfortran reads: not also
    C-ordered) is solved by dpotrs. Any other rhs is solved as
    out' lhs = rhs' by two right-side triangular solves on rhs.T, which is
    a C-ordered rhs's own memory: nothing is copied but the result, and
    each column of out has the bits it has when solved in any block of
    columns, a single column included. With many right-hand sides (the
    features system) the right-side solve is the faster one. With
    `overwrite_rhs` a C-contiguous rhs is solved in its own memory and
    returned, with the same bits.
    """
    if rhs.flags.fnc:
        # dpotrs reports only malformed arguments, which a factor cannot be
        out, _ = dpotrs(factor, rhs)
        # LAPACK returns Fortran order; the products downstream round
        # differently by layout, so hand back C order
        return np.ascontiguousarray(out)
    # out' U'U = rhs': divide by U, then by U'; rhs.T of a C-contiguous rhs
    # is Fortran-contiguous, so overwrite_b solves in its memory
    in_place = overwrite_rhs and rhs.flags.c_contiguous
    out_t = dtrsm(1.0, factor, rhs.T, side=1, overwrite_b=in_place)
    out_t = dtrsm(1.0, factor, out_t, side=1, trans_a=1, overwrite_b=1)
    return rhs if in_place else out_t.T


def solve_spd(lhs, rhs):
    """Solve lhs @ out = rhs for a symmetric positive-definite lhs (upper
    triangle read): spd_factor, then the solve _solve picks by the layout
    of rhs, into a new C-ordered array. Raises NumericalError when lhs is
    not positive definite or not finite, or when the solution is not finite
    (LAPACK passes NaN and inf through without an error)."""
    out = _solve(spd_factor(lhs), rhs)
    if not _all_finite(out):
        raise NumericalError("non-finite solution in block solve")
    return out


def _all_finite(mat):
    """Whether every entry of mat is finite, without a boolean temporary:
    min and max propagate NaN and reach any infinity."""
    return mat.size == 0 or (
        math.isfinite(np.minimum.reduce(mat, axis=None))
        and math.isfinite(np.maximum.reduce(mat, axis=None)))


class LayerTerms:
    """Fixed terms of one layer input, shared by every ADMM run on it.

    Holds the input X (d_in x n), X X', the unweighted graph term X L X'
    and, keyed by (graph weight w, penalty mu), the factor of each
    projection system w X L X' + 3 mu X X' + (mu + RIDGE) I. Every run
    climbs the same penalty ladder, so pre-training and each fine-tune of a
    layer factor a system once between them. The factors take d_in x d_in
    floats per distinct (w, mu): at most one per rung of the ladder and
    weight in use.
    """

    def __init__(self, x, graph_gram):
        self.x = matrix_values(x)
        d_in = self.x.shape[0]
        if np.shape(graph_gram) != (d_in, d_in):
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
            system += weight * self.graph_gram
            factor = spd_factor(_add_to_diagonal(system, mu + RIDGE))
            self._factors[key] = factor
        return factor


def update_projection(state, terms, weight, work=None):
    """Closed-form projection update on the layer input of `terms` (a
    LayerTerms) with graph weight w.

    T <- ((mu*(feats + nonneg + normed) + their duals) X' + mu*decoder
    + its dual) * (w X L X' + 3 mu X X' + mu I)^{-1}

    `work` (d_out x n, C-ordered) holds the folded terms when given. A
    non-finite solution is returned as it is: run_admm checks every
    iterate, and the projection reaches all four of its residuals.
    """
    mu = state.penalty
    # one product against X' for all six (d_out x n) terms
    num = np.add(state.feats, state.nonneg, out=work)
    num += state.normed
    num *= mu
    num += state.dual_feats
    num += state.dual_nonneg
    num += state.dual_normed
    num = num @ terms.x.T
    num += mu * state.decoder
    num += state.dual_decoder
    # num.T is Fortran-ordered (for d_out > 1), so _solve takes dpotrs,
    # which needs no copy of it
    return _solve(terms.projection_factor(weight, mu), num.T).T


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


def update_features(state, x, px, prediction=None, out=None, work=None):
    """Reconstruction-features update (GG' + mu I)^{-1}(GX + mu TX - D1),
    with px = TX.

    `prediction` (from prediction_terms) adds the prediction term to the
    labeled columns:
        (alpha R'R + GG' + mu I)^{-1} (alpha R'Y + GX + mu TX - D1)
    with R the composed downstream readout; the other columns keep the
    plain update. Every column of a triangular solve is independent, so the
    plain update solves all columns at once and the labeled ones are then
    overwritten, with the bits of solving each block on its own.

    The right-hand side is built and solved in `out` (d_out x n, C-ordered;
    state.feats allowed, which this update does not read) when given, and
    mu TX is formed in `work` of the same shape. A non-finite solution, of
    either block, is returned as it is: run_admm checks every iterate, and
    the features reach its feats residual.
    """
    mu = state.penalty
    g = state.decoder
    lhs = _add_to_diagonal(g @ g.T, mu + RIDGE)
    rhs = np.matmul(g, x, out=out)
    rhs += np.multiply(px, mu, out=work)
    rhs -= state.dual_feats
    if prediction is None:
        return _solve(spd_factor(lhs), rhs, overwrite_rhs=True)
    rtr, rty, labeled = prediction
    if labeled is None:
        lhs += rtr
        rhs += rty
        return _solve(spd_factor(lhs), rhs, overwrite_rhs=True)
    # compress gathers in C order (rhs[:, labeled] would be Fortran-ordered),
    # so the labeled block takes the same right-side solve as the rest; it
    # is gathered before rhs is solved in place
    rhs_labeled = rhs.compress(labeled, axis=1)
    rhs_labeled += rty
    feats = _solve(spd_factor(lhs), rhs, overwrite_rhs=True)
    lhs += rtr
    feats[:, labeled] = _solve(spd_factor(lhs), rhs_labeled,
                               overwrite_rhs=True)
    return feats


def update_decoder(state, x):
    """Decoder update: (FF' + mu I)^{-1}(FX' + mu T - D2).

    The reconstruction term participates here even though it couples decoder
    and features bilinearly; with features fixed the block is a strictly
    convex quadratic. A non-finite solution is returned as it is: run_admm
    checks every iterate, and the decoder reaches its decoder residual.
    """
    mu = state.penalty
    f = state.feats
    lhs = _add_to_diagonal(f @ f.T, mu + RIDGE)
    rhs = f @ x.T
    rhs += mu * state.proj
    rhs -= state.dual_decoder
    return _solve(spd_factor(lhs), rhs)


def update_nonneg(state, px, out=None):
    """Nonnegative copy: max(TX - D3/mu, 0), with px = TX, formed in `out`
    when given (state.nonneg allowed)."""
    shifted = np.divide(state.dual_nonneg, state.penalty, out=out)
    np.subtract(px, shifted, out=shifted)
    return prox_nonneg(shifted, out=shifted)


def update_normed(state, px, out=None, work=None):
    """Norm-bounded copy: per-column unit-ball projection of TX - D4/mu,
    with px = TX, formed in `out` when given (state.normed allowed); `work`
    (C-ordered, of px's shape) holds the squares."""
    shifted = np.divide(state.dual_normed, state.penalty, out=out)
    np.subtract(px, shifted, out=shifted)
    return prox_unit_ball(shifted, out=shifted, work=work)


def constraint_gaps(state, px, out=None):
    """The four constraint differences (feats - TX, decoder - T,
    nonneg - TX, normed - TX), with px = TX, written to the four C-ordered
    arrays of `out` when given."""
    out = (None,) * 4 if out is None else out
    return (np.subtract(state.feats, px, out=out[0]),
            np.subtract(state.decoder, state.proj, out=out[1]),
            np.subtract(state.nonneg, px, out=out[2]),
            np.subtract(state.normed, px, out=out[3]))


def update_duals(state, gaps, out=None):
    """Dual ascent D <- D + mu * gap for all four constraints, with gaps from
    constraint_gaps; returns the new duals.

    With `out` (four arrays, the state's duals allowed) the new duals are
    written there and each gap is scaled by mu in its own memory, with the
    same two roundings: take a gap's norm before this call.
    """
    mu = state.penalty
    scaled = (None,) * 4 if out is None else gaps
    out = (None,) * 4 if out is None else out
    return (
        np.add(state.dual_feats, np.multiply(gaps[0], mu, out=scaled[0]),
               out=out[0]),
        np.add(state.dual_decoder, np.multiply(gaps[1], mu, out=scaled[1]),
               out=out[1]),
        np.add(state.dual_nonneg, np.multiply(gaps[2], mu, out=scaled[2]),
               out=out[2]),
        np.add(state.dual_normed, np.multiply(gaps[3], mu, out=scaled[3]),
               out=out[3]),
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


def layer_terms(proj, x, graph_gram, emb=None, work=None):
    """Unweighted terms of one layer: (||X - T'TX||^2, tr(T XLX' T'), TX).

    `graph_gram` is XLX'; `emb` is TX when the caller already has it. The
    residual is formed and squared inside the buffer of T'TX, so the
    d_in x n work allocates one array, or none when `work` (d_in x n,
    C-ordered) is given.
    """
    if emb is None:
        emb = proj @ x
    resid = np.matmul(proj.T, emb, out=work)
    np.subtract(x, resid, out=resid)
    np.multiply(resid, resid, out=resid)
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
                             supervision=None, emb=None, work=None):
    """The layer objective with the embedded features substituted by TX:

        1/2 ||X - T'TX||^2 + alpha/2 ||Y - R T X||^2 + w/2 tr(T XLX' T')

    The prediction term needs `supervision` (see run_admm). `emb` is TX
    when the caller already has it; `work` is layer_terms' buffer.
    """
    recon, graph, emb = layer_terms(proj, x, graph_gram, emb, work)
    value = 0.5 * recon
    if supervision is not None:
        value += prediction_term(supervision, emb)
    return value + 0.5 * graph_weight * graph


# a non-finite block solution passes through the later blocks (as NaN, or
# as an inf that can meet another) to the residual check, which raises
# NumericalError naming the iteration; no RuntimeWarning comes before it
@np.errstate(invalid="ignore")
def run_admm(terms, proj0, graph_weight, cfg, supervision=None):
    """Shared ADMM engine; returns (projection, PretrainReport).

    `terms` is the LayerTerms of the layer input; its graph term enters
    with weight `graph_weight`, and the projection systems it factors stay
    in it for the next run on the same input.
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

    Every iteration checks its four residuals and any objective it
    evaluates. The block updates leave their solutions unchecked, since
    each solution reaches a residual of the same iteration, so a non-finite
    value raises NumericalError at the iteration where it appears.

    An iteration allocates no d_out x n array: the run owns TX, three
    column-sized gaps (the first also serves as every update's scratch,
    since the gaps are dead between the dual step and the next gap step)
    and, for pre-training's objective, a d_in x n buffer for T'TX. The
    features right-hand side is built and solved in the old features, the
    copies and duals are written over their own arrays. Every block keeps
    the bits of its allocating form.
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
    # C-ordered like the arrays the allocating forms return, since sums
    # over them round by memory order
    px = np.empty(state.feats.shape)
    gaps = (np.empty(px.shape), np.empty(state.decoder.shape),
            np.empty(px.shape), np.empty(px.shape))
    work = gaps[0]
    resid = np.empty(x.shape) if supervision is None else None

    eps, rho, mu_max, max_iters = cfg.eps, cfg.rho, cfg.mu_max, cfg.max_iters
    trace = []
    for t in range(max_iters):
        mu_used = state.penalty
        try:
            state.proj = update_projection(state, terms, graph_weight, work)
            np.matmul(state.proj, x, out=px)
            update_features(state, x, px, prediction, out=state.feats,
                            work=work)
            state.decoder = update_decoder(state, x)
            update_nonneg(state, px, out=state.nonneg)
            update_normed(state, px, out=state.normed, work=work)
            constraint_gaps(state, px, out=gaps)
            residuals = tuple(map(_frobenius, gaps))
            update_duals(state, gaps, out=(
                state.dual_feats, state.dual_decoder, state.dual_nonneg,
                state.dual_normed))
        except NumericalError as exc:
            raise NumericalError(
                f"non-finite value at ADMM iteration {t}: {exc}"
            ) from exc
        state.penalty = min(rho * state.penalty, mu_max)

        if not all(map(math.isfinite, residuals)):
            raise NumericalError(f"non-finite value at ADMM iteration {t}")
        converged = max(residuals) < eps
        obj = None
        if supervision is None or converged or t == max_iters - 1:
            obj = reconstruction_objective(state.proj, x, terms.graph_gram,
                                           graph_weight, supervision, px,
                                           resid)
            if not math.isfinite(obj):
                raise NumericalError(f"non-finite value at ADMM iteration {t}")
        trace.append((t, *residuals, mu_used, obj))
        if converged:
            break

    del px, gaps, work, resid  # before the report's column norms
    report = PretrainReport(
        converged=converged,
        trace=trace,
        final_nonneg_min=float(state.nonneg.min()) if state.nonneg.size else 0.0,
        final_norm_max=float(np.linalg.norm(state.normed, axis=0).max())
        if state.normed.size else 0.0,
    )
    return state.proj, report


def pretrain_layer(x, lap, proj0, eta, cfg=AdmmConfig(), terms=None):
    """Train one layer's projection on its input block (no label term).

    Returns the projection and the run report. `x` is the layer input
    (d_in x n), `lap` the fused graph Laplacian over its columns (a zero
    matrix for no graph term), `proj0` the initial projection
    (d_out x d_in). `terms` is the LayerTerms of `x` and `lap` to reuse (and
    fill) across runs; a fresh one is built when it is None.

    The default penalty start (`AdmmConfig().mu0`, 0.3) suits a warm start
    such as the LPP projection `fit_stack` begins from. From a random
    projection it ends higher: demo 03 reaches objective 2.660 against 2.085
    with `AdmmConfig(mu0=1e-3)`, the choice for a random start.
    """
    if terms is None:
        x = matrix_values(x)
        terms = LayerTerms(x, compute_graph_gram(x, lap))
    elif terms.x is not x:
        raise InputError("layer terms were built for another layer input")
    return run_admm(terms, np.asarray(proj0, dtype=np.float64), float(eta),
                    cfg)
