import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dposv, dpotrf, dpotrs
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import progsub.pretrain
from oracle_utils import (ball_quadratic_minimizer, fd_gradient_norm,
                          frob_rel_err, nonneg_quadratic_minimizer,
                          quadratic_minimizer, random_laplacian)
from progsub import (AdmmConfig, AdmmState, InputError, NumericalError,
                     constraint_gaps, pretrain_layer, prox_nonneg,
                     prox_unit_ball, update_decoder, update_duals,
                     update_features, update_nonneg, update_normed,
                     update_projection)
from progsub.graphs import compute_graph_gram
from progsub.pretrain import (RIDGE, LayerTerms, layer_terms,
                              prediction_terms, reconstruction_objective,
                              _solve, run_admm, solve_spd, spd_factor)


def random_state(rng, d_out, d_in, n, mu=1.0):
    return AdmmState(
        proj=rng.standard_normal((d_out, d_in)),
        feats=rng.standard_normal((d_out, n)),
        decoder=rng.standard_normal((d_out, d_in)),
        nonneg=rng.standard_normal((d_out, n)),
        normed=rng.standard_normal((d_out, n)),
        dual_feats=rng.standard_normal((d_out, n)),
        dual_decoder=rng.standard_normal((d_out, d_in)),
        dual_nonneg=rng.standard_normal((d_out, n)),
        dual_normed=rng.standard_normal((d_out, n)),
        penalty=mu,
    )


def inner(a, b):
    return float(np.sum(a * b))


def sq(a):
    return float(np.sum(a * a))


def projection_block_objective(state, x, lap, eta):
    """The projection subproblem exactly as displayed (duals via traces)."""
    def f(theta):
        tx = theta @ x
        val = 0.5 * eta * float(np.trace(tx @ lap @ tx.T))
        val += 0.5 * state.penalty * sq(state.feats - tx)
        val += inner(state.dual_feats, state.feats - tx)
        val += 0.5 * state.penalty * sq(state.decoder - theta)
        val += inner(state.dual_decoder, state.decoder - theta)
        val += 0.5 * state.penalty * sq(state.nonneg - tx)
        val += inner(state.dual_nonneg, state.nonneg - tx)
        val += 0.5 * state.penalty * sq(state.normed - tx)
        val += inner(state.dual_normed, state.normed - tx)
        return val
    return f


# ---------------------------------------------------------------- prox ops

def test_prox_nonneg_examples():
    assert np.array_equal(
        prox_nonneg(np.array([[1.0, -2.0], [0.0, 3.0]])),
        np.array([[1.0, 0.0], [0.0, 3.0]]),
    )
    assert np.array_equal(prox_nonneg(-np.ones((2, 2))), np.zeros((2, 2)))


def test_prox_nonneg_scalar_loop_oracle():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 5))
    out = prox_nonneg(m)
    for i in range(5):
        for j in range(5):
            assert out[i, j] == max(m[i, j], 0.0)


def test_prox_unit_ball_examples():
    out = prox_unit_ball(np.array([[3.0], [4.0]]))
    assert np.allclose(out, [[0.6], [0.8]])
    small = np.array([[0.3], [0.4]])
    assert np.array_equal(prox_unit_ball(small), small)


def test_prox_unit_ball_per_column_oracle():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 9)) * 1.5
    out = prox_unit_ball(m)
    for k in range(9):
        norm = np.linalg.norm(m[:, k])
        expected = m[:, k] / norm if norm > 1.0 else m[:, k]
        assert np.allclose(out[:, k], expected, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-50, 50)))
def test_prox_properties(m):
    nn = prox_nonneg(m)
    assert np.all(nn >= 0)
    ball = prox_unit_ball(m)
    assert np.all(np.linalg.norm(ball, axis=0) <= 1.0 + 1e-12)


# ------------------------------------------------------- projection update

def test_update_projection_zero_numerator():
    rng = np.random.default_rng(2)
    state = random_state(rng, 2, 3, 5)
    for name in ("feats", "decoder", "nonneg", "normed", "dual_feats",
                 "dual_decoder", "dual_nonneg", "dual_normed"):
        setattr(state, name, np.zeros_like(getattr(state, name)))
    x = rng.standard_normal((3, 5))
    lap = random_laplacian(rng, 5)
    out = update_projection(
        state, LayerTerms(x, compute_graph_gram(x, lap)), 0.3)
    assert np.allclose(out, 0.0)


def test_update_projection_scalar_case():
    state = AdmmState(
        proj=np.array([[0.0]]), feats=np.array([[4.0]]),
        decoder=np.array([[0.0]]), nonneg=np.array([[4.0]]),
        normed=np.array([[4.0]]),
        dual_feats=np.zeros((1, 1)), dual_decoder=np.zeros((1, 1)),
        dual_nonneg=np.zeros((1, 1)), dual_normed=np.zeros((1, 1)),
        penalty=1.0,
    )
    x = np.array([[2.0]])
    out = update_projection(
        state, LayerTerms(x, compute_graph_gram(x, np.zeros((1, 1)))), 0.0)
    assert out[0, 0] == pytest.approx(24.0 / 13.0, rel=1e-9)


def test_update_projection_matches_first_order_oracle():
    rng = np.random.default_rng(3)
    state = random_state(rng, 2, 2, 5, mu=0.8)
    x = rng.standard_normal((2, 5))
    lap = random_laplacian(rng, 5)
    eta = 0.4
    got = update_projection(
        state, LayerTerms(x, compute_graph_gram(x, lap)), eta)
    want = quadratic_minimizer(projection_block_objective(state, x, lap, eta),
                               (2, 2))
    assert frob_rel_err(got, want) < 1e-8


def test_update_projection_numerator_linearity():
    rng = np.random.default_rng(4)
    state = random_state(rng, 3, 4, 6, mu=1.3)
    x = rng.standard_normal((4, 6))
    lap = random_laplacian(rng, 6)
    once = update_projection(
        state, LayerTerms(x, compute_graph_gram(x, lap)), 0.2)
    for name in ("feats", "decoder", "nonneg", "normed", "dual_feats",
                 "dual_decoder", "dual_nonneg", "dual_normed"):
        setattr(state, name, 2.0 * getattr(state, name))
    twice = update_projection(
        state, LayerTerms(x, compute_graph_gram(x, lap)), 0.2)
    assert np.allclose(twice, 2.0 * once, rtol=1e-12, atol=1e-12)


# ------------------------------------------------ features/decoder updates

def test_update_features_reduces_without_decoder():
    rng = np.random.default_rng(5)
    state = random_state(rng, 2, 3, 6, mu=0.7)
    state.decoder = np.zeros_like(state.decoder)
    state.dual_feats = np.zeros_like(state.dual_feats)
    x = rng.standard_normal((3, 6))
    out = update_features(state, x, state.proj @ x)
    assert np.allclose(out, state.proj @ x, atol=1e-9)


def test_update_features_penalty_dominance():
    rng = np.random.default_rng(6)
    state = random_state(rng, 2, 3, 6, mu=1e6)
    x = rng.standard_normal((3, 6))
    out = update_features(state, x, state.proj @ x)
    assert np.max(np.abs(out - state.proj @ x)) < 1e-4


def test_update_features_matches_normal_equations_oracle():
    rng = np.random.default_rng(7)
    state = random_state(rng, 3, 4, 6, mu=0.9)
    x = rng.standard_normal((4, 6))

    def f(h):
        return (0.5 * sq(x - state.decoder.T @ h)
                + 0.5 * state.penalty * sq(h - state.proj @ x)
                + inner(state.dual_feats, h - state.proj @ x))

    got = update_features(state, x, state.proj @ x)
    want = quadratic_minimizer(f, (3, 6))
    assert frob_rel_err(got, want) < 1e-8


def _gather_scatter_features(state, x, px, prediction):
    """The masked features update as it read before it solved every column
    with the plain system: gather each block, solve it, scatter it back."""
    mu = state.penalty
    g = state.decoder
    lhs = g @ g.T
    lhs.flat[::lhs.shape[0] + 1] += mu + RIDGE
    rhs = g @ x + mu * px - state.dual_feats
    rtr, rty, labeled = prediction
    out = np.empty_like(rhs)
    # each block is gathered in rhs's own C order
    out[:, labeled] = solve_spd(lhs + rtr,
                                np.ascontiguousarray(rhs[:, labeled] + rty))
    if not labeled.all():
        out[:, ~labeled] = solve_spd(lhs,
                                     np.ascontiguousarray(rhs[:, ~labeled]))
    return out


@pytest.mark.parametrize("n_labeled", ["one", "a ninth", "most",
                                       "all but one"])
@pytest.mark.parametrize("d_out, d_in, n", [(5, 12, 120), (20, 100, 1692),
                                            (20, 200, 320)])
def test_masked_features_update_has_the_gather_scatter_bits(d_out, d_in, n,
                                                            n_labeled):
    # (5, 12, 120): desk; (20, 100, 1692): semisup, about 1 column in 9
    # labeled; (20, 200, 320): scene
    rng = np.random.default_rng(d_in * n)
    count = {"one": 1, "a ninth": n // 9, "most": (7 * n) // 10,
             "all but one": n - 1}[n_labeled]
    labeled = np.zeros(n, dtype=bool)
    labeled[rng.choice(n, count, replace=False)] = True
    state = random_state(rng, d_out, d_in, n, mu=0.37)
    x = rng.random((d_in, n))
    px = state.proj @ x
    prediction = prediction_terms(rng.standard_normal((4, d_out)),
                                  rng.random((4, n)), 0.7, labeled)
    got = update_features(state, x, px, prediction)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _gather_scatter_features(state, x, px,
                                                        prediction))


def test_update_decoder_trivial_cases():
    rng = np.random.default_rng(8)
    state = random_state(rng, 2, 3, 6, mu=0.5)
    state.feats = np.zeros_like(state.feats)
    state.dual_decoder = np.zeros_like(state.dual_decoder)
    assert np.allclose(update_decoder(state, np.zeros((3, 6))), state.proj,
                       atol=1e-9)
    state.dual_decoder = rng.standard_normal((2, 3))
    expected = state.proj - state.dual_decoder / state.penalty
    assert np.allclose(update_decoder(state, np.zeros((3, 6))), expected,
                       atol=1e-9)


def test_update_decoder_matches_oracle_with_reconstruction_term():
    rng = np.random.default_rng(9)
    state = random_state(rng, 3, 4, 6, mu=1.1)
    x = rng.standard_normal((4, 6))

    def f(g):
        return (0.5 * sq(x - g.T @ state.feats)
                + 0.5 * state.penalty * sq(g - state.proj)
                + inner(state.dual_decoder, g - state.proj))

    got = update_decoder(state, x)
    want = quadratic_minimizer(f, (3, 4))
    assert frob_rel_err(got, want) < 1e-8


# ------------------------------------------------------ projection copies

def test_update_nonneg_trivial_cases():
    rng = np.random.default_rng(10)
    state = random_state(rng, 2, 3, 5, mu=1.0)
    state.dual_nonneg = np.zeros_like(state.dual_nonneg)
    state.proj = np.abs(state.proj)
    x = np.abs(rng.standard_normal((3, 5)))
    assert np.array_equal(update_nonneg(state, state.proj @ x), state.proj @ x)
    state.proj = -state.proj
    assert np.array_equal(update_nonneg(state, state.proj @ x),
                          np.zeros((2, 5)))


def test_update_nonneg_matches_projected_oracle():
    rng = np.random.default_rng(11)
    state = random_state(rng, 2, 3, 4, mu=1.4)
    x = rng.standard_normal((3, 4))

    def f(q):
        return (0.5 * state.penalty * sq(q - state.proj @ x)
                + inner(state.dual_nonneg, q - state.proj @ x))

    got = update_nonneg(state, state.proj @ x)
    want = nonneg_quadratic_minimizer(f, (2, 4))
    assert frob_rel_err(got, want) < 1e-6


def test_update_normed_trivial_cases():
    rng = np.random.default_rng(12)
    state = random_state(rng, 2, 3, 5, mu=1.0)
    state.dual_normed = np.zeros_like(state.dual_normed)
    x = rng.standard_normal((3, 5))
    px = state.proj @ x
    px_small = px / (np.linalg.norm(px, axis=0).max() * 2.0)
    state.proj = state.proj / (np.linalg.norm(px, axis=0).max() * 2.0)
    assert np.allclose(update_normed(state, state.proj @ x), px_small,
                       atol=1e-12)


def test_update_normed_halves_norm_two_column():
    state = AdmmState(
        proj=np.eye(2), feats=np.zeros((2, 1)), decoder=np.zeros((2, 2)),
        nonneg=np.zeros((2, 1)), normed=np.zeros((2, 1)),
        dual_feats=np.zeros((2, 1)), dual_decoder=np.zeros((2, 2)),
        dual_nonneg=np.zeros((2, 1)), dual_normed=np.zeros((2, 1)),
        penalty=1.0,
    )
    x = np.array([[2.0], [0.0]])
    out = update_normed(state, state.proj @ x)
    assert np.allclose(out, [[1.0], [0.0]])


def test_update_normed_matches_ball_oracle():
    rng = np.random.default_rng(13)
    state = random_state(rng, 3, 3, 4, mu=1.2)
    x = rng.standard_normal((3, 4))

    def f(s):
        return (0.5 * state.penalty * sq(s - state.proj @ x)
                + inner(state.dual_normed, s - state.proj @ x))

    got = update_normed(state, state.proj @ x)
    want = ball_quadratic_minimizer(f, (3, 4))
    assert frob_rel_err(got, want) < 1e-6


def test_update_duals_fixed_point_and_arithmetic():
    rng = np.random.default_rng(14)
    state = random_state(rng, 2, 3, 5, mu=1.0)
    x = rng.standard_normal((3, 5))
    px = state.proj @ x
    state.feats, state.nonneg, state.normed = px.copy(), px.copy(), px.copy()
    state.decoder = state.proj.copy()
    new = update_duals(state, constraint_gaps(state, state.proj @ x))
    assert np.array_equal(new[0], state.dual_feats)
    assert np.array_equal(new[1], state.dual_decoder)
    assert np.array_equal(new[2], state.dual_nonneg)
    assert np.array_equal(new[3], state.dual_normed)

    state.feats = px + 1.0
    new = update_duals(state, constraint_gaps(state, state.proj @ x))
    assert np.allclose(new[0], state.dual_feats + 1.0)

    state = random_state(rng, 2, 3, 5, mu=0.6)
    new = update_duals(state, constraint_gaps(state, state.proj @ x))
    px = state.proj @ x
    assert np.allclose(new[2],
                       state.dual_nonneg + 0.6 * (state.nonneg - px))


# ------------------------------------------------- block-optimality checks

def test_each_smooth_update_has_vanishing_gradient():
    rng = np.random.default_rng(15)
    state = random_state(rng, 2, 3, 4, mu=1.0)
    x = rng.standard_normal((3, 4))
    lap = random_laplacian(rng, 4)

    theta_star = update_projection(
        state, LayerTerms(x, compute_graph_gram(x, lap)), 0.5)
    assert fd_gradient_norm(projection_block_objective(state, x, lap, 0.5),
                            theta_star) < 1e-6

    def f_feats(h):
        return (0.5 * sq(x - state.decoder.T @ h)
                + 0.5 * state.penalty * sq(h - state.proj @ x)
                + inner(state.dual_feats, h - state.proj @ x))

    assert fd_gradient_norm(f_feats,
                            update_features(state, x, state.proj @ x)) < 1e-6

    def f_dec(g):
        return (0.5 * sq(x - g.T @ state.feats)
                + 0.5 * state.penalty * sq(g - state.proj)
                + inner(state.dual_decoder, g - state.proj))

    assert fd_gradient_norm(f_dec, update_decoder(state, x)) < 1e-6


# --------------------------------------------------------------- full runs

def test_pretrain_defaults_reach_identity_fixed_point():
    rng = np.random.default_rng(16)
    x = np.abs(rng.standard_normal((6, 20)))
    x = x / np.linalg.norm(x, axis=0)
    proj, report = pretrain_layer(x, np.zeros((20, 20)), np.eye(6), 0.0)
    assert report.converged
    assert report.iterations <= 120
    recon = proj.T @ (proj @ x)
    assert np.max(np.abs(recon - x)) < 1e-3


def test_pretrain_random_input_feasible_at_exit():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((6, 30))
    theta0 = rng.standard_normal((3, 6))
    lap = random_laplacian(rng, 30) * 0.05
    cfg = AdmmConfig()
    proj, report = pretrain_layer(x, lap, theta0, 0.1, cfg)
    assert report.converged
    assert report.iterations <= 500
    assert all(r < cfg.eps for r in report.final_residuals)
    px = proj @ x
    slack = px[px < 0]
    assert slack.size == 0 or np.max(-slack) < 1e-5
    assert np.all(np.linalg.norm(px, axis=0) <= 1.0 + 1e-5)


def test_pretrain_trace_recorded_every_iteration():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((4, 12))
    proj, report = pretrain_layer(x, np.zeros((12, 12)),
                                  rng.standard_normal((2, 4)), 0.0)
    assert len(report.trace) == report.iterations
    iters = [row[0] for row in report.trace]
    assert iters == list(range(report.iterations))
    csv = report.to_csv()
    assert csv.startswith("iter,r_feats,r_decoder,r_nonneg,r_norm,mu,objective")
    assert csv.count("\n") == report.iterations + 1


def test_pretrain_penalty_nondecreasing_and_capped():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((4, 10))
    cfg = AdmmConfig(mu0=1e-3, mu_max=0.5, rho=2.0, eps=1e-12, max_iters=40)
    _, report = pretrain_layer(x, np.zeros((10, 10)),
                               rng.standard_normal((2, 4)), 0.0, cfg)
    mus = [row[5] for row in report.trace]
    assert all(b >= a for a, b in zip(mus, mus[1:]))
    assert max(mus) <= 0.5


def test_run_admm_raises_on_nonfinite():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((3, 8)) * 1e200
    with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                  match="iteration"):
        run_admm(LayerTerms(x, np.zeros((3, 3))),
                 rng.standard_normal((2, 3)) * 1e200, 0.0,
                 AdmmConfig(max_iters=5))


# (phase, block) -> (solver, call within an iteration): the projection
# right-hand side is Fortran-ordered (d_out > 1), so dpotrs solves it; the
# features blocks and the decoder take two right-side dtrsm calls each, in
# that order, and the second call returns the solution. "finetune partial"
# labels about half the columns, so the labeled features block is solved
# on its own.
POISON_TARGETS = {
    ("pretrain", "projection"): ("dpotrs", 0),
    ("pretrain", "features"): ("dtrsm", 1),
    ("pretrain", "decoder"): ("dtrsm", 3),
    ("finetune", "projection"): ("dpotrs", 0),
    ("finetune", "features"): ("dtrsm", 1),
    ("finetune", "decoder"): ("dtrsm", 3),
    ("finetune partial", "projection"): ("dpotrs", 0),
    ("finetune partial", "features"): ("dtrsm", 1),
    ("finetune partial", "labeled features"): ("dtrsm", 3),
    ("finetune partial", "decoder"): ("dtrsm", 5),
}


def _poisoned_run(monkeypatch, phase, solver=None, call=None, value=None):
    """run_admm at 5 -> 3 over 12 columns with the solver call number `call`
    (counted over the run) returning `value` in one entry of its solution;
    returns the run's report and the calls made to each solver."""
    calls = {"dpotrs": 0, "dtrsm": 0}

    def wrap(name):
        real = getattr(progsub.pretrain, name)

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            if name == solver and calls[name] == call:
                (out[0] if name == "dpotrs" else out)[0, 0] = value
            calls[name] += 1
            return out
        monkeypatch.setattr(progsub.pretrain, name, poisoned)

    wrap("dpotrs")
    wrap("dtrsm")
    rng = np.random.default_rng(29)
    x = rng.standard_normal((5, 12)) / 3.0
    graph_gram = compute_graph_gram(x, random_laplacian(rng, 12))
    supervision = None
    if phase != "pretrain":
        supervision = (rng.standard_normal((2, 3)),
                       rng.standard_normal((2, 12)), 0.7,
                       rng.random(12) < 0.5 if phase.endswith("partial")
                       else None)
    _, report = run_admm(LayerTerms(x, graph_gram),
                         0.3 * rng.standard_normal((3, 5)), 0.4,
                         AdmmConfig(eps=1e-300, max_iters=6), supervision)
    return report, calls


@pytest.mark.parametrize("phase", ["pretrain", "finetune", "finetune partial"])
def test_poisoned_runs_count_the_solver_calls_they_target(monkeypatch, phase):
    report, calls = _poisoned_run(monkeypatch, phase)
    per_iter = 6 if phase.endswith("partial") else 4
    assert calls == {"dpotrs": report.iterations,
                     "dtrsm": per_iter * report.iterations}
    assert report.iterations == 6


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("t", [0, 3])
@pytest.mark.parametrize("phase, block", list(POISON_TARGETS))
def test_non_finite_block_solution_raises_at_its_iteration(
        monkeypatch, phase, block, t, value):
    """A non-finite solution of any block solve, in pre-training or
    fine-tuning, raises NumericalError naming the iteration of that solve,
    before any RuntimeWarning (the suite turns warnings into errors)."""
    solver, offset = POISON_TARGETS[phase, block]
    per_iter = {"dpotrs": 1,
                "dtrsm": 6 if phase.endswith("partial") else 4}[solver]
    with pytest.raises(NumericalError,
                       match=f"^non-finite value at ADMM iteration {t}(:|$)"):
        _poisoned_run(monkeypatch, phase, solver, t * per_iter + offset,
                      value)


@pytest.mark.parametrize("phase", ["pretrain", "finetune", "finetune partial"])
def test_run_admm_leaves_solution_checks_to_its_residuals(monkeypatch, phase):
    """The block updates do not scan their solutions for non-finite values:
    every solution reaches a residual of the same iteration, which run_admm
    checks (see the poisoned runs above)."""
    def scan(mat):
        raise AssertionError("a block solution was scanned")

    monkeypatch.setattr(progsub.pretrain, "_all_finite", scan)
    report, _ = _poisoned_run(monkeypatch, phase)
    assert report.iterations == 6


def test_run_admm_rejects_graph_gram_of_wrong_shape():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 8))
    with pytest.raises(InputError, match="Gram"):
        run_admm(LayerTerms(x, np.zeros((8, 8))),
                 rng.standard_normal((2, 3)), 0.1, AdmmConfig(max_iters=5))


def test_zero_graph_gram_adds_nothing():
    # a zero Gram is the graph term of no graph: the projection factor and
    # the layer terms keep the bits of leaving the term out
    rng = np.random.default_rng(22)
    x = rng.standard_normal((6, 20))
    proj = rng.standard_normal((3, 6))
    terms = LayerTerms(x, np.zeros((6, 6)))
    mu = 0.3
    system = 3.0 * mu * (x @ x.T)
    system.ravel()[::7] += mu + RIDGE
    assert np.array_equal(terms.projection_factor(0.4, mu),
                          spd_factor(system))
    recon, graph, emb = layer_terms(proj, x, terms.graph_gram)
    assert graph == 0.0
    resid = x - proj.T @ (proj @ x)
    assert recon == float(np.sum(resid * resid))


def test_pretrain_layer_rejects_terms_of_another_input():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((3, 8))
    terms = LayerTerms(x.copy(), np.zeros((3, 3)))
    with pytest.raises(InputError, match="^layer terms were built for "
                                         "another layer input$"):
        pretrain_layer(x, np.zeros((8, 8)), rng.standard_normal((2, 3)), 0.1,
                       terms=terms)


def test_run_admm_rejects_projection_of_another_width():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((3, 8))
    with pytest.raises(InputError, match="^initial projection expects 4 "
                                         "input rows, data has 3$"):
        run_admm(LayerTerms(x, np.zeros((3, 3))),
                 rng.standard_normal((2, 4)), 0.1, AdmmConfig(max_iters=5))


# ------------------------------------------------------------- SPD solve

# (system size, right-hand sides) of the projection, features and decoder
# solves at the bench shapes: desk (12 -> 5 over 120 fused columns), scene
# (200 -> 20 over 320) and semisup (100 -> 20 over ~1.7k); scipy's solve
# divides a 1x1 system instead of factoring it, so it has no 1x1 case here
SPD_SHAPES = [(12, 5), (5, 120), (5, 12), (200, 20), (20, 320), (20, 200),
              (100, 20), (20, 1692), (20, 100)]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n, m", SPD_SHAPES)
def test_solve_spd_matches_scipy_solve_bit_for_bit(n, m, order):
    rng = np.random.default_rng(1000 * n + m)
    g = rng.standard_normal((n, n + 3))
    lhs = g @ g.T + (0.25 + RIDGE) * np.eye(n)
    rhs = np.asarray(rng.standard_normal((n, m)), order=order)
    got = solve_spd(lhs, rhs)
    assert got.flags.c_contiguous
    want = scipy.linalg.solve(lhs, rhs, assume_a="pos")
    if order == "F":
        assert np.array_equal(got, want)
    else:
        # a C-ordered rhs takes the right-side solve, whose bits
        # test_c_ordered_solve_has_the_bits_of_two_right_side_dtrsm pins;
        # these systems have cond < 3e3, so two stable solves agree to 1e-12
        assert frob_rel_err(got, want) < 1e-12


@pytest.mark.parametrize("m", [1, 7, 320, 2000])
@pytest.mark.parametrize("n", [1, 5, 12, 20, 100, 200])
def test_factored_solve_has_the_bits_of_dposv(n, m):
    # solve_spd and the cached projection factors keep the bits of
    # scipy's dposv because dposv is dpotrf followed by dpotrs
    rng = np.random.default_rng(2000 * n + m)
    g = rng.standard_normal((n, n + 3))
    lhs = g @ g.T + (0.25 + RIDGE) * np.eye(n)
    rhs = rng.standard_normal((n, m))
    _, want, info = dposv(lhs, rhs)
    assert info == 0
    factor, info = dpotrf(lhs, clean=0)
    got, _ = dpotrs(factor, rhs)
    assert np.array_equal(got, want)
    got = _solve(spd_factor(lhs), rhs)
    assert got.flags.c_contiguous
    assert np.array_equal(got, solve_spd(lhs, rhs))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n, m", SPD_SHAPES + [(1, 7)])
def test_solve_spd_has_the_bits_of_dpotrf_then_dpotrs(n, m, order):
    rng = np.random.default_rng(3000 * n + m)
    g = rng.standard_normal((n, n + 3))
    lhs = g @ g.T + (0.25 + RIDGE) * np.eye(n)
    rhs = np.asarray(rng.standard_normal((n, m)), order=order)
    factor, info = dpotrf(lhs, clean=0)
    assert info == 0
    want, _ = dpotrs(factor, rhs)
    lhs_before, rhs_before = lhs.copy(), rhs.copy()
    got = solve_spd(lhs, rhs)
    assert got.flags.c_contiguous
    if order == "F" or n == 1:
        assert np.array_equal(got, want)
    else:
        # the C-ordered bits are pinned by
        # test_c_ordered_solve_has_the_bits_of_two_right_side_dtrsm
        assert frob_rel_err(got, want) < 1e-12
    # the inputs are left as they were
    assert np.array_equal(lhs, lhs_before)
    assert np.array_equal(rhs, rhs_before)


def _system(n, m, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n + 3))
    return (g @ g.T + (0.25 + RIDGE) * np.eye(n),
            rng.standard_normal((n, m)))


@pytest.mark.parametrize("n, m", SPD_SHAPES + [(1, 7)])
def test_c_ordered_solve_has_the_bits_of_two_right_side_dtrsm(n, m):
    # out' U'U = rhs': one right-side dtrsm by U, then one by U'
    lhs, rhs = _system(n, m, 4000 * n + m)
    factor, info = dpotrf(lhs, clean=0)
    assert info == 0
    want = dtrsm(1.0, factor, rhs.T, side=1)
    want = dtrsm(1.0, factor, want, side=1, trans_a=1).T
    lhs_before, rhs_before = lhs.copy(), rhs.copy()
    got = solve_spd(lhs, rhs)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(lhs, lhs_before)
    assert np.array_equal(rhs, rhs_before)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n, m", SPD_SHAPES + [(1, 7)])
def test_solve_spd_residual_is_small_in_both_layouts(n, m, order):
    lhs, rhs = _system(n, m, 5000 * n + m)
    rhs = np.asarray(rhs, order=order)
    got = solve_spd(lhs, rhs)
    assert frob_rel_err(lhs @ got, rhs) < 1e-12


@pytest.mark.parametrize("n, m", [(5, 120), (20, 320), (20, 1692)])
def test_c_ordered_solve_of_any_column_block_has_the_full_solves_bits(n, m):
    # the masked features update solves every column, then overwrites the
    # labeled ones: that needs each column's bits not to depend on the
    # other columns solved with it
    lhs, rhs = _system(n, m, 6000 * n + m)
    factor = spd_factor(lhs)
    full = _solve(factor, rhs)
    rng = np.random.default_rng(m)
    for count in [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, m // 9, m // 2, m - 1]:
        mask = np.zeros(m, dtype=bool)
        mask[rng.choice(m, count, replace=False)] = True
        block = _solve(factor, rhs.compress(mask, axis=1))
        assert np.array_equal(block, full[:, mask])


def test_c_ordered_solve_copies_nothing_but_its_result():
    lhs, rhs = _system(20, 20000, 7)
    solve_spd(lhs, rhs[:, :100])  # load what the first call loads
    tracemalloc.start()
    try:
        solve_spd(lhs, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result alone is one rhs; a copy of rhs in or out would be two
    assert peak <= 1.1 * rhs.nbytes


def _broken_system(case):
    lhs, rhs = np.diag([2.0, 1.0, 3.0]), np.ones((3, 4))
    if case == "not SPD":
        lhs[1, 1] = -1.0
    elif case == "singular":
        lhs[:] = 0.0
    elif case.endswith("matrix"):
        lhs[0, 2] = lhs[2, 0] = np.nan if case.startswith("NaN") else np.inf
    elif case.endswith("rhs"):
        rhs[1, 3] = np.nan if case.startswith("NaN") else -np.inf
    elif case == "1x1 not SPD":
        lhs, rhs = np.array([[-2.0]]), np.ones((1, 4))
    elif case == "1x1 NaN":
        lhs, rhs = np.array([[np.nan]]), np.ones((1, 4))
    return lhs, rhs


@pytest.mark.parametrize("case", ["not SPD", "singular", "NaN matrix",
                                  "inf matrix", "NaN rhs", "inf rhs",
                                  "1x1 not SPD", "1x1 NaN"])
def test_solve_spd_raises_numerical_error(case):
    lhs, rhs = _broken_system(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="block solve"):
            solve_spd(lhs, rhs)


@pytest.mark.parametrize("case", ["NaN matrix", "inf matrix", "1x1 NaN"])
def test_spd_factor_names_a_non_finite_system(case):
    # OpenBLAS dpotrf can report success on a NaN off the diagonal
    lhs, _ = _broken_system(case)
    with pytest.raises(NumericalError, match="^non-finite system matrix in "
                                             "block solve$"):
        spd_factor(lhs)


def test_projection_factor_caches_no_non_finite_factor():
    lhs, _ = _broken_system("NaN matrix")
    terms = LayerTerms(np.zeros((3, 5)), lhs)
    for _ in range(2):
        with pytest.raises(NumericalError, match="^non-finite system matrix"):
            terms.projection_factor(1.0, 0.3)
    assert terms._factors == {}


# ----------------------------------------------------- traced objective

@pytest.mark.parametrize("variant", ["graph", "supervised", "zero graph"])
def test_traced_objective_matches_exact_objective(variant):
    """The last traced entry is the exact reconstruction_objective of the
    projection a run returns, although run_admm reuses its own TX. A
    pre-training run (no supervision) traces it at every iteration; a
    fine-tune run only at its last."""
    rng = np.random.default_rng(23)
    d_in, d_out, n, iters, weight = 6, 3, 14, 12, 0.4
    x = rng.standard_normal((d_in, n)) / 3.0
    proj0 = 0.3 * rng.standard_normal((d_out, d_in))
    graph_gram = np.zeros((d_in, d_in))
    if variant != "zero graph":
        graph_gram = compute_graph_gram(x, random_laplacian(rng, n))
    supervision = None
    if variant == "supervised":
        supervision = (rng.standard_normal((2, d_out)),
                       rng.standard_normal((2, n)), 0.7,
                       rng.random(n) < 0.6)

    def run(k):
        return run_admm(LayerTerms(x, graph_gram), proj0, weight,
                        AdmmConfig(eps=1e-300, max_iters=k), supervision)

    _, full = run(iters)
    assert full.iterations == iters
    for k in range(1, iters + 1):
        proj, report = run(k)
        exact = reconstruction_objective(proj, x, graph_gram, weight,
                                         supervision)
        assert report.objective_trace[-1] == exact
        if supervision is None:
            assert full.objective_trace[k - 1] == exact


@pytest.mark.parametrize("max_iters", [1, 9])
@pytest.mark.parametrize("supervised", [False, True])
def test_fine_tune_run_evaluates_the_layer_objective_once(
        monkeypatch, supervised, max_iters):
    """A pre-training run writes its objective trace, so it evaluates the
    layer terms at every iteration; a fine-tune run's trace is read only at
    its last row, so it evaluates them once, at the iterate it returns.
    Every row keeps its residuals and penalty."""
    calls = []
    real = progsub.pretrain.layer_terms

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(progsub.pretrain, "layer_terms", counting)
    rng = np.random.default_rng(26)
    x = rng.standard_normal((5, 12)) / 3.0
    supervision = None
    if supervised:
        supervision = (rng.standard_normal((2, 3)),
                       rng.standard_normal((2, 12)), 0.7,
                       rng.random(12) < 0.5)
    proj, report = run_admm(LayerTerms(x, np.zeros((5, 5))),
                            0.3 * rng.standard_normal((3, 5)), 0.0,
                            AdmmConfig(eps=1e-300, max_iters=max_iters),
                            supervision)
    assert report.iterations == max_iters
    assert len(calls) == (1 if supervised else max_iters)
    objectives = report.objective_trace
    assert all(v is not None for v in objectives[-1:])
    if supervised:
        assert objectives[:-1] == [None] * (max_iters - 1)
    for row in report.trace:
        assert all(np.isfinite(v) for v in row[1:6])
    monkeypatch.undo()
    assert objectives[-1] == reconstruction_objective(
        proj, x, np.zeros((5, 5)), 0.0, supervision)


def test_converged_fine_tune_run_evaluates_its_last_iterate():
    """A fine-tune run that converges before max_iters holds the exact layer
    objective of the projection it returns on its last row."""
    rng = np.random.default_rng(27)
    x = rng.random((4, 10)) / 4.0
    supervision = (rng.standard_normal((2, 2)), rng.standard_normal((2, 10)),
                   0.5, None)
    cfg = AdmmConfig(eps=1e-4, max_iters=500)
    proj, report = run_admm(LayerTerms(x, np.zeros((4, 4))),
                            0.3 * rng.standard_normal((2, 4)), 0.0, cfg,
                            supervision)
    assert report.converged and report.iterations < cfg.max_iters
    assert report.objective_trace[-1] == reconstruction_objective(
        proj, x, np.zeros((4, 4)), 0.0, supervision)
    assert report.objective_trace.count(None) == report.iterations - 1


@pytest.mark.parametrize("max_iters", [1, 7])
def test_run_admm_builds_prediction_terms_once(monkeypatch, max_iters):
    """The supervised features update reads the run's fixed prediction
    terms; run_admm builds them once, not once per iteration."""
    calls = []
    real = progsub.pretrain.prediction_terms

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(progsub.pretrain, "prediction_terms", counting)
    rng = np.random.default_rng(24)
    x = rng.standard_normal((5, 12))
    supervision = (rng.standard_normal((2, 3)), rng.standard_normal((2, 12)),
                   0.7, rng.random(12) < 0.5)
    _, report = run_admm(LayerTerms(x, np.zeros((5, 5))),
                         0.3 * rng.standard_normal((3, 5)), 0.0,
                         AdmmConfig(eps=1e-300, max_iters=max_iters),
                         supervision)
    assert report.iterations == max_iters
    assert len(calls) == 1


def test_run_admm_allocates_one_input_sized_array_per_iteration():
    """The objective's residual X - T'TX is formed and squared in the buffer
    of T'TX. Building the difference and its square as new arrays holds two
    input-sized temporaries at once and exceeds the bound."""
    rng = np.random.default_rng(25)
    d_in, d_out, n = 200, 20, 2000
    x = rng.random((d_in, n)) / 10.0
    proj0 = 0.1 * rng.standard_normal((d_out, d_in))
    cfg = AdmmConfig(max_iters=3)
    terms = LayerTerms(x, np.zeros((d_in, d_in)))
    run_admm(terms, proj0, 0.0, cfg)  # factor the systems outside the trace
    tracemalloc.start()
    try:
        run_admm(terms, proj0, 0.0, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the state and its replacements take about one x-sized block at
    # d_out = d_in / 10 (2.04 blocks measured; the two-temporary form: 3.03)
    assert peak < 2.5 * x.nbytes


# --------------------------------------------- buffered forms of the blocks

def _run_layout_state(seed, d_out, supervised):
    """A random state laid out as run_admm holds it: the projection is the
    transpose of a C-ordered solve, so Fortran-ordered for d_out > 1."""
    rng = np.random.default_rng(seed)
    d_in, n = d_out + 4, 37
    state = random_state(rng, d_out, d_in, n, mu=0.43)
    state.proj = np.ascontiguousarray(state.proj.T).T
    x = rng.random((d_in, n))
    labeled = {"none": None, "all": None,
               "partial": rng.random(n) < 0.3}[supervised]
    labeled = labeled if labeled is None or labeled.any() else None
    prediction = None if supervised == "none" else prediction_terms(
        rng.standard_normal((3, d_out)), rng.random((3, n)), 0.8, labeled)
    terms = LayerTerms(x, compute_graph_gram(x, random_laplacian(rng, n)))
    return state, x, terms, prediction


def _copy_state(state):
    return AdmmState(**{name: np.copy(value) if name != "penalty" else value
                        for name, value in vars(state).items()})


BUFFER_CASES = [(d_out, sup) for d_out in range(1, 6)
                for sup in ("none", "all", "partial")]


@pytest.mark.parametrize("d_out, supervised", BUFFER_CASES)
def test_buffered_block_updates_return_their_buffers_with_the_same_bits(
        d_out, supervised):
    state, x, terms, prediction = _run_layout_state(
        10 * d_out + len(supervised), d_out, supervised)
    ref = _copy_state(state)
    px = ref.proj @ x
    work = np.full(px.shape, np.nan)  # scratch contents must not matter

    got = np.empty(px.shape)
    assert np.matmul(state.proj, x, out=got) is got
    assert np.array_equal(got, px)
    assert np.array_equal(update_projection(state, terms, 0.3, work),
                          update_projection(ref, terms, 0.3))

    # the features right-hand side is built and solved in state.feats
    want = update_features(ref, x, px, prediction)
    feats = state.feats
    assert update_features(state, x, px, prediction, out=feats,
                           work=work) is feats
    assert np.array_equal(feats, want)
    state.feats = ref.feats = want

    want = update_nonneg(ref, px)
    nonneg = state.nonneg
    assert update_nonneg(state, px, out=nonneg) is nonneg
    assert np.array_equal(nonneg, want)
    ref.nonneg = want

    want = update_normed(ref, px)
    normed = state.normed
    assert update_normed(state, px, out=normed, work=work) is normed
    assert np.array_equal(normed, want)
    ref.normed = want

    want = constraint_gaps(ref, px)
    gaps = tuple(np.full(g.shape, np.nan) for g in want)
    got = constraint_gaps(state, px, out=gaps)
    for g, buf, w in zip(got, gaps, want):
        assert g is buf and np.array_equal(g, w)
    residuals = tuple(map(progsub.pretrain._frobenius, want))
    assert tuple(map(progsub.pretrain._frobenius, gaps)) == residuals

    # the duals are written over themselves, each gap scaled in place
    want = update_duals(ref, want)
    duals = (state.dual_feats, state.dual_decoder, state.dual_nonneg,
             state.dual_normed)
    got = update_duals(state, gaps, out=duals)
    for g, buf, w in zip(got, duals, want):
        assert g is buf and np.array_equal(g, w)


@pytest.mark.parametrize("d_out", range(1, 6))
def test_buffered_layer_terms_match_the_allocating_call(d_out):
    state, x, terms, _ = _run_layout_state(70 + d_out, d_out, "none")
    emb = state.proj @ x
    work = np.full(x.shape, np.nan)
    want = layer_terms(state.proj, x, terms.graph_gram, emb)
    got = layer_terms(state.proj, x, terms.graph_gram, emb, work)
    assert got[:2] == want[:2] and got[2] is emb
    assert (reconstruction_objective(state.proj, x, terms.graph_gram, 0.3,
                                     emb=emb, work=work)
            == reconstruction_objective(state.proj, x, terms.graph_gram, 0.3,
                                        emb=emb))


@pytest.mark.parametrize("shape", [(1, 9), (4, 9), (5, 1)])
def test_prox_operators_write_over_their_input_with_the_same_bits(shape):
    rng = np.random.default_rng(sum(shape))
    mat = 1.5 * rng.standard_normal(shape)
    for prox, extra in ((prox_nonneg, {}),
                        (prox_unit_ball, {"work": np.empty(shape)})):
        want = prox(mat)
        buf = mat.copy()
        assert prox(buf, out=buf, **extra) is buf
        assert np.array_equal(buf, want)


@pytest.mark.parametrize("n, m", SPD_SHAPES + [(1, 7)])
def test_c_ordered_solve_in_place_has_the_bits_of_the_copying_solve(n, m):
    lhs, rhs = _system(n, m, 8000 * n + m)
    factor = spd_factor(lhs)
    want = _solve(factor, rhs)
    buf = rhs.copy()
    assert _solve(factor, buf, overwrite_rhs=True) is buf
    assert np.array_equal(buf, want)
    # a Fortran-ordered rhs keeps dpotrs and is left as it is (one row is
    # C-ordered too, and is solved in place above)
    rhs_f = np.asfortranarray(rhs)
    if np.isfortran(rhs_f):
        got = _solve(factor, rhs_f, overwrite_rhs=True)
        assert np.array_equal(rhs_f, rhs)
        assert np.array_equal(got, _solve(factor, rhs_f))


def _run_admm_peak(supervision):
    rng = np.random.default_rng(26)
    d, n = 5, 20000
    x = rng.random((d, n)) / 3.0
    proj0 = np.linalg.qr(rng.standard_normal((d, d)))[0]
    terms = LayerTerms(x, np.zeros((d, d)))
    sup = None if supervision is None else (
        rng.standard_normal((3, d)), rng.random((3, n)), 1.0,
        None if supervision == "all" else rng.random(n) < 0.1)
    cfg = AdmmConfig(max_iters=4, eps=1e-300)
    run_admm(terms, proj0, 0.1, cfg, sup)  # factor the systems untraced
    tracemalloc.start()
    try:
        run_admm(terms, proj0, 0.1, cfg, sup)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / x.nbytes   # d_out x n column arrays, since d_out = d_in


@pytest.mark.parametrize("supervision", [None, "partial"])
def test_run_admm_iterations_allocate_no_column_array(supervision):
    """At 5 -> 5 over 20000 columns a run holds its state (six column
    arrays), TX, three gaps and, pre-training, T'TX: 11.43 column arrays
    measured (11.11 fine-tuning, at the one objective of its last iterate),
    against 13.01 (13.11) when every block allocated its result. A block
    that allocates its result again, the nonnegative copy or the projection
    numerator alone, reaches 12.0 or more in one of the two runs."""
    assert _run_admm_peak(supervision) < 11.8
