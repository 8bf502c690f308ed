"""Acceptance suite: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Tolerances are fixed here, not configurable.
"""

import functools
import time
from pathlib import Path

import numpy as np

from bench_utils import benchmark_config
from oracle_utils import (ball_quadratic_minimizer, frob_rel_err,
                          nonneg_quadratic_minimizer, quadratic_minimizer,
                          random_laplacian)
from progsub import (AdmmConfig, compute_metrics, confusion, fit_readout,
                     fit_stack, knn_heat_graph, laplacian, lpp_fit,
                     prediction_terms, pretrain_layer, update_decoder,
                     update_features, update_nonneg, update_normed,
                     update_projection)
from progsub.formats import (dump_model_bytes, load_cube, load_labels,
                             parse_model_bytes, save_cube, save_labels)
from progsub.graphs import (alignment_graph, assemble_fused,
                            compute_graph_gram)
from progsub.harness import prepare_data, run_experiment
from progsub.metrics import ConfusionMatrix
from progsub.model import ProjectionStack
from test_metrics import _direct_formulas
from test_pretrain import inner, projection_block_objective, random_state, sq


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {name}: PASS")
        return run
    return wrap


# --------------------------------------------------------------------- 1

@criterion("1 closed-form-vs-oracle")
def test_criterion_1_closed_form_updates_match_oracles():
    started = time.time()
    rel_tol = 1e-6
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        d_out = int(rng.integers(1, 5))
        d_in = int(rng.integers(1, 5))
        n = int(rng.integers(2, 13))
        state = random_state(rng, d_out, d_in, n,
                             mu=float(rng.uniform(0.5, 2.0)))
        x = rng.standard_normal((d_in, n))
        lap = random_laplacian(rng, n)
        eta = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.1, 1.5))
        gamma = float(rng.uniform(0.1, 1.5))
        n_cls = int(rng.integers(1, 4))
        chain = rng.standard_normal((n_cls, d_out))
        y = rng.standard_normal((n_cls, n))

        got = update_projection(state, x, x @ x.T,
                                eta * compute_graph_gram(x, lap))
        want = quadratic_minimizer(
            projection_block_objective(state, x, lap, eta), (d_out, d_in)
        )
        assert frob_rel_err(got, want) < rel_tol

        def f_feats(h):
            return (0.5 * sq(x - state.decoder.T @ h)
                    + 0.5 * state.penalty * sq(h - state.proj @ x)
                    + inner(state.dual_feats, h - state.proj @ x))

        got = update_features(state, x, state.proj @ x)
        assert frob_rel_err(got, quadratic_minimizer(f_feats, (d_out, n))) \
            < rel_tol

        def f_sup(h):
            return f_feats(h) + 0.5 * alpha * sq(y - chain @ h)

        got = update_features(state, x, state.proj @ x,
                              prediction_terms(chain, y, alpha))
        assert frob_rel_err(got, quadratic_minimizer(f_sup, (d_out, n))) \
            < rel_tol

        def f_dec(g):
            return (0.5 * sq(x - g.T @ state.feats)
                    + 0.5 * state.penalty * sq(g - state.proj)
                    + inner(state.dual_decoder, g - state.proj))

        got = update_decoder(state, x)
        assert frob_rel_err(got, quadratic_minimizer(f_dec, (d_out, d_in))) \
            < rel_tol

        def f_nonneg(q):
            return (0.5 * state.penalty * sq(q - state.proj @ x)
                    + inner(state.dual_nonneg, q - state.proj @ x))

        got = update_nonneg(state, state.proj @ x)
        want = nonneg_quadratic_minimizer(f_nonneg, (d_out, n))
        assert frob_rel_err(got, want) < rel_tol

        def f_norm(s):
            return (0.5 * state.penalty * sq(s - state.proj @ x)
                    + inner(state.dual_normed, s - state.proj @ x))

        got = update_normed(state, state.proj @ x)
        want = ball_quadratic_minimizer(f_norm, (d_out, n))
        assert frob_rel_err(got, want) < rel_tol

        def f_readout(p):
            return 0.5 * alpha * sq(y - p @ (state.proj @ x)) \
                + 0.5 * gamma * sq(p)

        got = fit_readout([state.proj], x, y, alpha, gamma)
        assert frob_rel_err(got, quadratic_minimizer(f_readout,
                                                     (n_cls, d_out))) < rel_tol
    elapsed = time.time() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


# --------------------------------------------------------------------- 2

@criterion("2 ADMM-feasibility")
def test_criterion_2_admm_reaches_feasibility():
    cfg = AdmmConfig(mu0=1e-3, mu_max=1e6, rho=2.0, eps=1e-6, max_iters=500)
    converged = 0
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        x = rng.standard_normal((6, 30))
        theta0 = rng.standard_normal((3, 6))
        lap = random_laplacian(rng, 30) * 0.05
        proj, report = pretrain_layer(x, lap, theta0, 0.1, cfg)
        if report.converged and report.iterations <= 500:
            converged += 1
            assert all(r < cfg.eps for r in report.final_residuals)
            assert report.final_nonneg_min >= 0.0
            assert report.final_norm_max <= 1.0 + 1e-12
    assert converged >= 95, f"only {converged}/100 trials converged"


# --------------------------------------------------------------------- 3

@criterion("3 Laplacian-properties")
def test_criterion_3_laplacian_properties():
    rng = np.random.default_rng(3)

    def check(lap_dense, w_dense):
        assert np.allclose(lap_dense, lap_dense.T, atol=1e-12)
        assert np.max(np.abs(lap_dense.sum(axis=1))) < 1e-10
        assert np.linalg.eigvalsh(lap_dense).min() >= -1e-10
        for _ in range(3):
            v = rng.standard_normal(lap_dense.shape[0])
            direct = 0.5 * np.sum(
                w_dense * (v[:, None] - v[None, :]) ** 2
            )
            assert abs(v @ lap_dense @ v - direct) < 1e-9 * max(1.0, direct)

    for trial in range(100):
        n = int(rng.integers(2, 41))
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        w = np.triu(w, 1)
        w = w + w.T
        check(laplacian(w).toarray(), w)

    for trial in range(100):
        n = int(rng.integers(2, 21))
        x = rng.standard_normal((3, n))
        k = int(rng.integers(1, n))
        wp = knn_heat_graph(x, k, 0.8)
        wsp = knn_heat_graph(x + 0.1 * rng.standard_normal((3, n)), k, 0.8)
        wa = alignment_graph(rng.integers(0, max(2, n // 3), size=n))
        bundle = assemble_fused(wp, wsp, wa)
        check(bundle.lf.toarray(), bundle.wf.toarray())


# --------------------------------------------------------------------- 4

@criterion("4 LPP-residuals")
def test_criterion_4_lpp_generalized_eigen_residuals():
    rng = np.random.default_rng(4)
    for trial in range(50):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2 * d + 2, 41))
        x = rng.standard_normal((d, n))
        k = int(rng.integers(2, min(8, n)))
        w = knn_heat_graph(x, k, 1.0)
        lap = laplacian(w)
        deg = np.asarray(w.sum(axis=1)).ravel()
        d_out = int(rng.integers(1, d + 1))
        emb = lpp_fit(x, lap, deg, d_out)
        a_mat = x @ (lap.toarray() @ x.T)
        b_mat = (x * deg[None, :]) @ x.T
        scale = max(1.0, float(np.linalg.norm(a_mat)))
        for lam, row in zip(emb.eigenvalues, emb.projection):
            resid = np.linalg.norm(a_mat @ row - lam * (b_mat @ row))
            assert resid <= 1e-6 * scale * np.linalg.norm(row)


# --------------------------------------------------------------------- 5

@criterion("5 block-descent-monotonicity")
def test_criterion_5_outer_trace_monotone_and_converges():
    for m in (1, 2, 3):
        started = time.time()
        cfg = benchmark_config(seed=7, method="progsub", layers=m)
        data = prepare_data(cfg)
        train = np.asarray(data.split.train_indices)
        stack, report = fit_stack(
            data.cube[:, train],
            data.stream[:, train],
            [data.labels[i] for i in train],
            data.seg.labels[train],
            cfg.hyper, cfg.admm, n_classes=data.n_classes,
        )
        elapsed = time.time() - started
        trace = report.objective_trace
        assert len(trace) == report.outer_iterations + 1
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-8 * abs(a), f"m={m}: rise {a} -> {b}"
        assert report.termination == "converged", \
            f"m={m} hit the outer-iteration cap"
        assert report.outer_iterations <= 50
        assert elapsed < 120.0, f"m={m} took {elapsed:.1f}s"


# --------------------------------------------------------------------- 6

@criterion("6 metric-formulas")
def test_criterion_6_metric_formulas_match_oracles():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 500:
        c = int(rng.integers(2, 7))
        counts = rng.integers(0, 25, size=(c, c))
        if counts.sum() == 0:
            continue
        rep = compute_metrics(ConfusionMatrix(counts))
        oa, aa, kappa = _direct_formulas(counts)
        assert abs(rep.oa - oa) < 1e-12
        assert abs(rep.aa - aa) < 1e-12
        assert abs(rep.kappa - kappa) < 1e-12
        checked += 1
    # chance-level construction: truth half/half, all predicted class 1
    chance = compute_metrics(confusion([1] * 10 + [2] * 10, [1] * 20,
                                       n_classes=2))
    assert chance.kappa == 0.0


# --------------------------------------------------------------------- 7

@criterion("7 end-to-end-discrimination")
def test_criterion_7_stacked_model_beats_pca_on_benchmark():
    wins = 0
    scores = []
    for seed in (7, 8, 9, 10, 11):
        pca, _ = run_experiment(benchmark_config(seed=seed, method="pca"))
        prog, _ = run_experiment(
            benchmark_config(seed=seed, method="progsub", layers=2)
        )
        scores.append((seed, pca.oa, prog.oa))
        if prog.oa > pca.oa:
            wins += 1
    detail = ", ".join(f"s{s}: {p:.3f}/{q:.3f}" for s, p, q in scores)
    assert wins >= 4, f"only {wins}/5 seeds won ({detail})"


# --------------------------------------------------------------------- 8

@criterion("8 determinism-and-round-trips")
def test_criterion_8_determinism_and_round_trips(tmp_path):
    outs = []
    for sub in ("first", "second"):
        cfg = benchmark_config(seed=7, method="progsub",
                               out_dir=str(tmp_path / sub))
        _, artifacts = run_experiment(cfg)
        outs.append({n: Path(p).read_bytes() for n, p in artifacts.items()})
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], f"{name} not reproducible"

    rng = np.random.default_rng(8)
    for trial in range(34):
        bands = int(rng.integers(1, 6))
        w = int(rng.integers(1, 6))
        h = int(rng.integers(1, 6))
        values = rng.standard_normal((bands, w * h))
        hp = tmp_path / f"c{trial}.json"
        pp = tmp_path / f"c{trial}.raw"
        save_cube(hp, pp, values, w, h)
        back, _, _ = load_cube(hp, pp)
        assert back.tobytes() == values.tobytes()
    for trial in range(33):
        labels = [int(v) for v in rng.integers(0, 9, size=rng.integers(1, 60))]
        path = tmp_path / f"l{trial}.txt"
        save_labels(path, labels)
        assert np.array_equal(load_labels(path, len(labels)), labels)
    for trial in range(33):
        depth = int(rng.integers(1, 4))
        dims = [int(v) for v in rng.integers(1, 6, size=depth + 1)]
        mats = tuple(
            rng.standard_normal((dims[i + 1], dims[i]))
            for i in range(depth)
        )
        readout = rng.standard_normal((3, dims[-1])) if trial % 2 else None
        stack = ProjectionStack(mats, readout)
        back = parse_model_bytes(dump_model_bytes(stack))
        for a, b in zip(stack.projections, back.projections):
            assert a.tobytes() == b.tobytes()
        if readout is None:
            assert back.readout is None
        else:
            assert back.readout.tobytes() == readout.tobytes()
