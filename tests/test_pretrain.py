import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import progsub.pretrain
from oracle_utils import (ball_quadratic_minimizer, fd_gradient_norm,
                          frob_rel_err, nonneg_quadratic_minimizer,
                          quadratic_minimizer, random_laplacian)
from progsub import (AdmmConfig, AdmmState, InputError, NumericalError,
                     pretrain_layer, prox_nonneg, prox_unit_ball,
                     update_decoder, update_duals, update_features,
                     update_nonneg, update_normed, update_projection)
from progsub.graphs import compute_graph_gram
from progsub.pretrain import (RIDGE, reconstruction_objective, run_admm,
                              solve_spd)


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
    out = update_projection(state, x, x @ x.T,
                            0.3 * compute_graph_gram(x, lap))
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
    out = update_projection(state, x, x @ x.T,
                            0.0 * compute_graph_gram(x, np.zeros((1, 1))))
    assert out[0, 0] == pytest.approx(24.0 / 13.0, rel=1e-9)


def test_update_projection_matches_first_order_oracle():
    rng = np.random.default_rng(3)
    state = random_state(rng, 2, 2, 5, mu=0.8)
    x = rng.standard_normal((2, 5))
    lap = random_laplacian(rng, 5)
    eta = 0.4
    got = update_projection(state, x, x @ x.T,
                            eta * compute_graph_gram(x, lap))
    want = quadratic_minimizer(projection_block_objective(state, x, lap, eta),
                               (2, 2))
    assert frob_rel_err(got, want) < 1e-8


def test_update_projection_numerator_linearity():
    rng = np.random.default_rng(4)
    state = random_state(rng, 3, 4, 6, mu=1.3)
    x = rng.standard_normal((4, 6))
    lap = random_laplacian(rng, 6)
    once = update_projection(state, x, x @ x.T,
                             0.2 * compute_graph_gram(x, lap))
    for name in ("feats", "decoder", "nonneg", "normed", "dual_feats",
                 "dual_decoder", "dual_nonneg", "dual_normed"):
        setattr(state, name, 2.0 * getattr(state, name))
    twice = update_projection(state, x, x @ x.T,
                              0.2 * compute_graph_gram(x, lap))
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
    new = update_duals(state, state.proj @ x)
    assert np.array_equal(new[0], state.dual_feats)
    assert np.array_equal(new[1], state.dual_decoder)
    assert np.array_equal(new[2], state.dual_nonneg)
    assert np.array_equal(new[3], state.dual_normed)

    state.feats = px + 1.0
    new = update_duals(state, state.proj @ x)
    assert np.allclose(new[0], state.dual_feats + 1.0)

    state = random_state(rng, 2, 3, 5, mu=0.6)
    new = update_duals(state, state.proj @ x)
    px = state.proj @ x
    assert np.allclose(new[2],
                       state.dual_nonneg + 0.6 * (state.nonneg - px))


# ------------------------------------------------- block-optimality checks

def test_each_smooth_update_has_vanishing_gradient():
    rng = np.random.default_rng(15)
    state = random_state(rng, 2, 3, 4, mu=1.0)
    x = rng.standard_normal((3, 4))
    lap = random_laplacian(rng, 4)

    theta_star = update_projection(state, x, x @ x.T,
                                   0.5 * compute_graph_gram(x, lap))
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
        run_admm(x, None, rng.standard_normal((2, 3)) * 1e200, 0.0,
                 AdmmConfig(max_iters=5))


def test_run_admm_rejects_graph_gram_of_wrong_shape():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 8))
    with pytest.raises(InputError, match="Gram"):
        run_admm(x, np.zeros((8, 8)), rng.standard_normal((2, 3)), 0.1,
                 AdmmConfig(max_iters=5))


# ------------------------------------------------------------- SPD solve

# (system size, right-hand sides) of the projection, features and decoder
# solves at the bench shapes: desk (12 -> 5 over 120 fused columns), scene
# (200 -> 20 over 320) and semisup (100 -> 20 over ~1.7k); plus 1x1
SPD_SHAPES = [(12, 5), (5, 120), (5, 12), (200, 20), (20, 320), (20, 200),
              (100, 20), (20, 1692), (20, 100), (1, 7)]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n, m", SPD_SHAPES)
def test_solve_spd_matches_scipy_solve_bit_for_bit(n, m, order):
    rng = np.random.default_rng(1000 * n + m)
    g = rng.standard_normal((n, n + 3))
    lhs = g @ g.T + (0.25 + RIDGE) * np.eye(n)
    rhs = np.asarray(rng.standard_normal((n, m)), order=order)
    got = solve_spd(lhs, rhs)
    assert got.flags.c_contiguous
    assert np.array_equal(got, scipy.linalg.solve(lhs, rhs, assume_a="pos"))


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


# ----------------------------------------------------- traced objective

@pytest.mark.parametrize("variant", ["graph", "supervised", "no graph"])
def test_traced_objective_matches_exact_objective(variant):
    """Every traced entry is the exact reconstruction_objective of the
    projection at that iteration, although run_admm reuses its own TX."""
    rng = np.random.default_rng(23)
    d_in, d_out, n, iters, weight = 6, 3, 14, 12, 0.4
    x = rng.standard_normal((d_in, n)) / 3.0
    proj0 = 0.3 * rng.standard_normal((d_out, d_in))
    graph_gram = None
    if variant != "no graph":
        graph_gram = compute_graph_gram(x, random_laplacian(rng, n))
    supervision = None
    if variant == "supervised":
        supervision = (rng.standard_normal((2, d_out)),
                       rng.standard_normal((2, n)), 0.7,
                       rng.random(n) < 0.6)

    def run(k):
        return run_admm(x, graph_gram, proj0, weight,
                        AdmmConfig(eps=1e-300, max_iters=k), supervision)

    _, full = run(iters)
    assert full.iterations == iters
    for k in range(1, iters + 1):
        proj, report = run(k)
        exact = reconstruction_objective(proj, x, graph_gram, weight,
                                         supervision)
        assert report.objective_trace[-1] == exact
        assert full.objective_trace[k - 1] == exact


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
    _, report = run_admm(x, None, 0.3 * rng.standard_normal((3, 5)), 0.0,
                         AdmmConfig(eps=1e-300, max_iters=max_iters),
                         supervision)
    assert report.iterations == max_iters
    assert len(calls) == 1
