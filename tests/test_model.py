import hashlib
from pathlib import Path

import numpy as np
import pytest

import progsub.model
import progsub.pretrain
from bench_utils import (benchmark_config, fast_admm, small_hyper,
                         two_gaussians_fixture)
from oracle_utils import frob_rel_err, quadratic_minimizer, random_laplacian
from progsub import (InputError, ProjectionStack, finetune_projection,
                     fit_readout, fit_stack, objective_value, pretrain_layer,
                     transform, update_features, prediction_terms)
from progsub.graphs import compute_graph_gram
from progsub.harness import (ExperimentConfig, _fit_method, prepare_data,
                             run_experiment)
from progsub.model import CONVERGENCE_HEADER
from progsub.pretrain import (RIDGE, LayerTerms, reconstruction_objective,
                              solve_spd)
from test_golden_semisup import SEMISUP_CONFIG
from test_pretrain import inner, random_state, sq


def test_stack_validates_chainability():
    with pytest.raises(InputError):
        ProjectionStack((np.eye(3), np.zeros((2, 4))))
    with pytest.raises(InputError):
        ProjectionStack((np.eye(3),), np.zeros((2, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stack_rejects_nonfinite_projections_and_readout(bad):
    proj = np.eye(2)
    proj[1, 0] = bad
    with pytest.raises(InputError, match="layer 1 projection is not a finite"):
        ProjectionStack((proj,))
    with pytest.raises(InputError, match="readout is not finite"):
        ProjectionStack((np.eye(2),), np.full((3, 2), bad))


# ------------------------------------------------------------- objective

def _hyper_for_objective(alpha=1.0, beta=0.0, gamma=1.0):
    return small_hyper(m=1, d=2, alpha=alpha, beta=beta, gamma=gamma)


def _input_terms(x, lf):
    """A layer input's LayerTerms as fit_stack builds them."""
    return LayerTerms(x, compute_graph_gram(x, lf))


def test_objective_identity_stack_is_zero():
    stack = ProjectionStack((np.eye(3),), np.zeros((2, 3)))
    xt = np.random.default_rng(0).standard_normal((3, 8))
    yt = np.zeros((2, 8))
    hp = _hyper_for_objective()
    assert objective_value(stack, [LayerTerms(xt, np.zeros((3, 3)))], yt,
                           hp) == 0.0


def test_objective_prediction_term_only():
    rng = np.random.default_rng(1)
    stack = ProjectionStack((np.eye(3),), np.zeros((2, 3)))
    xt = rng.standard_normal((3, 8))
    yt = rng.standard_normal((2, 8))
    hp = _hyper_for_objective(alpha=0.7)
    expected = 0.5 * 0.7 * float(np.sum(yt * yt))
    assert objective_value(stack, [LayerTerms(xt, np.zeros((3, 3)))], yt,
                           hp) == pytest.approx(expected, rel=1e-12)


def test_objective_matches_direct_summation_oracle():
    rng = np.random.default_rng(2)
    t1 = rng.standard_normal((4, 5))
    t2 = rng.standard_normal((3, 4))
    readout = rng.standard_normal((2, 3))
    stack = ProjectionStack((t1, t2), readout)
    xt = rng.standard_normal((5, 12))
    yt = rng.standard_normal((2, 12))
    lf = random_laplacian(rng, 12)
    hp = small_hyper(m=2, d=3, alpha=0.8, beta=0.3, gamma=0.5)

    x1 = t1 @ xt
    x2 = t2 @ x1
    recon = sq(xt - t1.T @ x1) + sq(x1 - t2.T @ x2)
    predict = sq(yt - readout @ x2)
    graph = float(np.trace(x1 @ lf @ x1.T) + np.trace(x2 @ lf @ x2.T))
    ridge = sq(readout)
    expected = 0.5 * recon + 0.4 * predict + 0.15 * graph + 0.25 * ridge
    inputs = [_input_terms(xt, lf), _input_terms(x1, lf)]
    got = objective_value(stack, inputs, yt, hp)
    assert got == pytest.approx(expected, rel=1e-10)


def test_objective_needs_one_input_per_layer():
    stack = ProjectionStack((np.eye(3), np.eye(3)), np.zeros((2, 3)))
    xt = np.zeros((3, 4))
    with pytest.raises(InputError, match="2-layer"):
        objective_value(stack, [LayerTerms(xt, np.zeros((3, 3)))],
                        np.zeros((2, 4)), small_hyper(m=2, d=3))


# ---------------------------------------------------------------- readout

def test_fit_readout_zero_alpha():
    rng = np.random.default_rng(3)
    p = fit_readout([rng.standard_normal((2, 4))], rng.standard_normal((4, 6)),
                    rng.standard_normal((3, 6)), alpha=0.0, gamma=0.5)
    assert np.allclose(p, 0.0)


def test_fit_readout_identity_case():
    p = fit_readout([np.eye(3)], np.eye(3), np.eye(3), alpha=1.0, gamma=1.0)
    assert np.allclose(p, 0.5 * np.eye(3), atol=1e-9)


def test_fit_readout_matches_ridge_oracle():
    rng = np.random.default_rng(4)
    proj = rng.standard_normal((3, 5))
    xt = rng.standard_normal((5, 10))
    yt = rng.standard_normal((2, 10))
    alpha, gamma = 0.9, 0.4

    def f(p):
        v = proj @ xt
        return 0.5 * alpha * sq(yt - p @ v) + 0.5 * gamma * sq(p)

    got = fit_readout([proj], xt, yt, alpha, gamma)
    want = quadratic_minimizer(f, (2, 3))
    assert frob_rel_err(got, want) < 1e-8


def test_fit_readout_mask_drops_unlabeled_columns():
    rng = np.random.default_rng(5)
    proj = rng.standard_normal((3, 5))
    xt = rng.standard_normal((5, 10))
    yt = rng.standard_normal((2, 10))
    mask = np.array([True] * 6 + [False] * 4)
    got = fit_readout([proj], xt, yt, 1.0, 0.3, labeled_cols=mask)
    want = fit_readout([proj], xt[:, :6], yt[:, :6], 1.0, 0.3)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("d", [1, 5, 20])
def test_fit_readout_has_the_bits_of_the_eye_ridge(d):
    # the ridge goes onto the diagonal in place; the system and the readout
    # keep the bits of adding (gamma + RIDGE) * I
    rng = np.random.default_rng(6)
    proj = rng.standard_normal((d, 12))
    xt = rng.standard_normal((12, 40))
    yt = rng.standard_normal((4, 40))
    alpha, gamma = 0.9, 0.1
    v = proj @ xt
    lhs = alpha * (v @ v.T) + (gamma + RIDGE) * np.eye(d)
    want = solve_spd(lhs, (alpha * (yt @ v.T)).T).T
    assert np.array_equal(fit_readout([proj], xt, yt, alpha, gamma), want)


# --------------------------------------------------- supervised H update

def test_supervised_features_reduces_to_plain_when_alpha_zero():
    rng = np.random.default_rng(6)
    state = random_state(rng, 3, 4, 6, mu=0.9)
    x = rng.standard_normal((4, 6))
    r = rng.standard_normal((2, 3))
    y = rng.standard_normal((2, 6))
    px = state.proj @ x
    got = update_features(state, x, px, prediction_terms(r, y, alpha=0.0))
    assert np.allclose(got, update_features(state, x, px), atol=0, rtol=0)


def test_supervised_features_penalty_dominance():
    rng = np.random.default_rng(7)
    state = random_state(rng, 3, 4, 6, mu=1e6)
    x = rng.standard_normal((4, 6))
    r = rng.standard_normal((2, 3))
    y = rng.standard_normal((2, 6))
    got = update_features(state, x, state.proj @ x,
                          prediction_terms(r, y, alpha=1.0))
    assert np.max(np.abs(got - state.proj @ x)) < 1e-4


def test_supervised_features_matches_oracle():
    rng = np.random.default_rng(8)
    state = random_state(rng, 3, 4, 6, mu=1.2)
    x = rng.standard_normal((4, 6))
    r = rng.standard_normal((2, 3))
    y = rng.standard_normal((2, 6))
    alpha = 0.7

    def f(h):
        return (0.5 * sq(x - state.decoder.T @ h)
                + 0.5 * alpha * sq(y - r @ h)
                + inner(state.dual_feats, h - state.proj @ x)
                + 0.5 * state.penalty * sq(h - state.proj @ x))

    got = update_features(state, x, state.proj @ x,
                          prediction_terms(r, y, alpha))
    want = quadratic_minimizer(f, (3, 6))
    assert frob_rel_err(got, want) < 1e-8


def test_supervised_features_mask_splits_columns():
    rng = np.random.default_rng(9)
    state = random_state(rng, 3, 4, 6, mu=1.1)
    x = rng.standard_normal((4, 6))
    r = rng.standard_normal((2, 3))
    y = rng.standard_normal((2, 6))
    mask = np.array([True, False, True, True, False, True])
    px = state.proj @ x
    got = update_features(state, x, px,
                          prediction_terms(r, y, 0.8, labeled_cols=mask))
    full = update_features(state, x, px, prediction_terms(r, y, 0.8))
    plain = update_features(state, x, px)
    assert np.allclose(got[:, mask], full[:, mask], atol=1e-12)
    assert np.allclose(got[:, ~mask], plain[:, ~mask], atol=1e-12)


# ------------------------------------------------------------ fine-tuning

def _fitted_single_layer(seed=10):
    rng = np.random.default_rng(seed)
    x, labels, seg_ids = two_gaussians_fixture(seed)
    xt = np.hstack([x, x])
    yt = np.zeros((2, xt.shape[1]))
    for i, lab in enumerate(labels + labels):
        yt[lab - 1, i] = 1.0
    lf = random_laplacian(rng, xt.shape[1], density=0.1) * 0.2
    theta0 = np.linalg.qr(rng.standard_normal((x.shape[0], 3)))[0].T
    proj, _ = pretrain_layer(xt, lf, theta0, 0.1, fast_admm())
    return proj, xt, yt, lf


def _layer_objective(proj, x_prev, readout_chain, yt, lf, hp):
    """One layer's fine-tuning objective with the other layers held fixed."""
    return reconstruction_objective(proj, x_prev,
                                    compute_graph_gram(x_prev, lf), hp.beta,
                                    (readout_chain, yt, hp.alpha, None))


def test_finetune_single_layer_objective_decreases():
    proj, xt, yt, lf = _fitted_single_layer()
    hp = small_hyper(m=1, d=3)
    readout = fit_readout([proj], xt, yt, hp.alpha, hp.gamma)
    stack = ProjectionStack((proj,), readout)
    entry = _layer_objective(proj, xt, readout, yt, lf, hp)
    new_proj, report = finetune_projection(1, stack, yt, hp,
                                           _input_terms(xt, lf), fast_admm())
    exit_val = _layer_objective(new_proj, xt, readout, yt, lf, hp)
    assert exit_val <= entry + 1e-10 * abs(entry)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_finetune_builds_graph_gram_once(monkeypatch):
    proj, xt, yt, lf = _fitted_single_layer()
    hp = small_hyper(m=1, d=3)
    stack = ProjectionStack((proj,), fit_readout([proj], xt, yt, hp.alpha,
                                                 hp.gamma))
    calls = _counting(monkeypatch, progsub.model, "compute_graph_gram")
    calls += _counting(monkeypatch, progsub.pretrain, "compute_graph_gram")
    terms = LayerTerms(xt, progsub.model.compute_graph_gram(xt, lf))
    # every fine-tune of the layer reads the one Gram of its input
    for _ in range(2):
        finetune_projection(1, stack, yt, hp, terms, fast_admm())
    assert len(calls) == 1


def test_finetune_alpha_zero_reproduces_pretrain_path():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 10))
    lf = random_laplacian(rng, 10) * 0.1
    theta0 = rng.standard_normal((2, 4))
    hp = small_hyper(m=1, d=2, alpha=0.0, beta=0.3)
    cfg = fast_admm(max_iters=60)
    pre, _ = pretrain_layer(x, lf, theta0, hp.beta, cfg)
    stack = ProjectionStack((theta0,), np.zeros((2, 2)))
    fine, _ = finetune_projection(1, stack, np.zeros((2, 10)), hp,
                                  _input_terms(x, lf), cfg)
    assert np.allclose(fine, pre, atol=1e-14, rtol=0)


def test_finetune_middle_layer_objective_decreases():
    rng = np.random.default_rng(12)
    x, labels, seg_ids = two_gaussians_fixture(12)
    xt = np.hstack([x, x])
    yt = np.zeros((2, xt.shape[1]))
    for i, lab in enumerate(labels + labels):
        yt[lab - 1, i] = 1.0
    lf = random_laplacian(rng, xt.shape[1], density=0.1) * 0.2
    hp = small_hyper(m=2, d=3, dims=(3, 3))
    cfg = fast_admm()
    t1, _ = pretrain_layer(xt, lf, np.linalg.qr(
        rng.standard_normal((6, 3)))[0].T, hp.beta, cfg)
    x1 = t1 @ xt
    t2, _ = pretrain_layer(x1, lf, np.linalg.qr(
        rng.standard_normal((3, 3)))[0].T, hp.beta, cfg)
    readout = fit_readout([t1, t2], xt, yt, hp.alpha, hp.gamma)
    stack = ProjectionStack((t1, t2), readout)
    chain = readout @ t2
    entry = _layer_objective(t1, xt, chain, yt, lf, hp)
    new_t1, _ = finetune_projection(1, stack, yt, hp, _input_terms(xt, lf),
                                    cfg)
    exit_val = _layer_objective(new_t1, xt, chain, yt, lf, hp)
    assert exit_val <= entry + 1e-10 * abs(entry)


# -------------------------------------------------------------- transform

def test_transform_identity_and_zero():
    stack = ProjectionStack((np.eye(3),), None)
    x = np.random.default_rng(13).standard_normal((3, 5))
    assert np.array_equal(transform(stack, x), x)
    zeros = np.zeros((3, 4))
    assert np.array_equal(transform(stack, zeros), np.zeros((3, 4)))


def test_transform_matches_sequential_oracle():
    rng = np.random.default_rng(14)
    mats = (rng.standard_normal((4, 5)), rng.standard_normal((3, 4)),
            rng.standard_normal((2, 3)))
    stack = ProjectionStack(mats, None)
    x = rng.standard_normal((5, 7))
    expected = x
    for m in mats:
        expected = m @ expected
    assert np.allclose(transform(stack, x), expected, atol=0, rtol=0)


def test_transform_rejects_wrong_dim():
    stack = ProjectionStack((np.eye(3),), None)
    with pytest.raises(InputError):
        transform(stack, np.zeros((4, 2)))


# --------------------------------------------------------------- full fit

def _fit_fixture(m=1, seed=0, **hp_overrides):
    x, labels, seg_ids = two_gaussians_fixture(seed)
    hp = small_hyper(m=m, d=3, dims=tuple([3] * m), **hp_overrides)
    return fit_stack(x, _stream_of(x, seg_ids), labels, seg_ids, hp,
                     fast_admm()), x, labels, seg_ids, hp


def _stream_of(x, seg_ids):
    from progsub import superpixel_stream
    return superpixel_stream(x, np.asarray(seg_ids))


def test_fit_stack_single_layer_monotone_trace():
    (stack, report), x, labels, seg_ids, hp = _fit_fixture(m=1)
    trace = report.objective_trace
    assert len(trace) == report.outer_iterations + 1
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-10 * abs(a)
    assert report.termination == "converged"
    assert stack.readout is not None


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fit_stack_depths_finite_and_feasible(m):
    (stack, report), x, labels, seg_ids, hp = _fit_fixture(m=m)
    cur = np.hstack([x, _stream_of(x, seg_ids)])
    for proj in stack.projections:
        assert np.all(np.isfinite(proj))
        cur = proj @ cur
        assert np.linalg.norm(cur, axis=0).max() <= 1.05
    assert report.termination in ("converged", "max_outer_iters")


def test_fit_stack_transform_consistency():
    (stack, report), x, labels, seg_ids, hp = _fit_fixture(m=2)
    xt = np.hstack([x, _stream_of(x, seg_ids)])
    train_cols = transform(stack, x)
    full = xt
    for proj in stack.projections:
        full = proj @ full
    assert np.allclose(train_cols, full[:, : x.shape[1]], atol=1e-12, rtol=0)


def test_fit_stack_pretrains_with_beta(monkeypatch):
    # one graph weight: beta weighs the graph term in pre-training too
    real_pretrain = progsub.model.pretrain_layer
    weights = []

    def recording(x, lap, proj0, weight, cfg, terms):
        weights.append(weight)
        return real_pretrain(x, lap, proj0, weight, cfg, terms=terms)

    monkeypatch.setattr(progsub.model, "pretrain_layer", recording)
    _fit_fixture(m=2, beta=0.3)
    assert weights == [0.3, 0.3]


def test_fit_stack_fits_readout_once_per_sweep(monkeypatch):
    calls = _counting(monkeypatch, progsub.model, "fit_readout")
    (_, report), *_ = _fit_fixture(m=2)
    assert report.outer_iterations >= 2
    assert len(calls) == report.outer_iterations


def test_fit_stack_deterministic():
    (stack_a, _), *_ = _fit_fixture(m=1, seed=3)
    (stack_b, _), *_ = _fit_fixture(m=1, seed=3)
    for a, b in zip(stack_a.projections, stack_b.projections):
        assert np.array_equal(a, b)
    assert np.array_equal(stack_a.readout, stack_b.readout)


def test_fit_stack_requires_labels():
    x, labels, seg_ids = two_gaussians_fixture(1)
    with pytest.raises(InputError, match="no labeled"):
        fit_stack(x, _stream_of(x, seg_ids), [0] * len(labels), seg_ids,
                  small_hyper(), fast_admm())


@pytest.mark.parametrize("block", ["pixels", "stream"])
def test_fit_stack_rejects_nonfinite_features(block):
    x, labels, seg_ids = two_gaussians_fixture(4)
    blocks = {"pixels": x.copy(), "stream": _stream_of(x, seg_ids)}
    blocks[block][0, 3] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        fit_stack(blocks["pixels"], blocks["stream"], labels, seg_ids,
                  small_hyper(), fast_admm())


def test_fit_stack_ignores_input_memory_order():
    # the harness passes fancy-indexed column slices, which numpy returns
    # Fortran-ordered; the fit must give the same bits as for C order
    cfg = benchmark_config(seed=1)
    data = prepare_data(cfg)
    train = np.asarray(data.split.train_indices)
    fancy = (data.cube[:, train], data.stream[:, train])
    assert all(m.flags.f_contiguous and not m.flags.c_contiguous
               for m in fancy)
    fits = []
    for pixels, stream in (fancy, [np.ascontiguousarray(m) for m in fancy]):
        fits.append(fit_stack(pixels, stream,
                              [data.labels[i] for i in train],
                              data.seg.labels[train], cfg.hyper, cfg.admm,
                              n_classes=data.n_classes))
    (stack_f, report_f), (stack_c, report_c) = fits
    for a, b in zip(stack_f.projections, stack_c.projections):
        assert np.array_equal(a, b)
    assert np.array_equal(stack_f.readout, stack_c.readout)
    assert report_f.convergence_csv() == report_c.convergence_csv()


def test_fit_stack_with_unlabeled_columns_runs():
    x, labels, seg_ids = two_gaussians_fixture(2)
    semi = list(labels)
    for i in range(0, len(semi), 4):
        semi[i] = 0
    (stack, report) = fit_stack(x, _stream_of(x, seg_ids), semi, seg_ids,
                                small_hyper(m=1, d=3), fast_admm(),
                                n_classes=2)
    assert stack.readout.shape == (2, 3)
    trace = report.objective_trace
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-8 * abs(a)


# ---------------------------------------------------- per-layer terms cache

def test_desk_fit_factors_each_projection_system_once(monkeypatch):
    # dpotrf also factors the features and decoder systems (spd_factor in
    # update_features and update_decoder) and the readout's; count the calls
    # made for projection systems
    requested, factored, inside = [], [], []
    real_factor = progsub.pretrain.LayerTerms.projection_factor
    real_dpotrf = progsub.pretrain.dpotrf

    def recording(terms, weight, mu):
        layer_input = hashlib.sha256(terms.x.tobytes()).hexdigest()
        requested.append((layer_input, terms.x.shape, weight, mu))
        inside.append(True)
        try:
            return real_factor(terms, weight, mu)
        finally:
            inside.pop()

    def counting_dpotrf(*args, **kwargs):
        if inside:
            factored.append(args[0].shape)
        return real_dpotrf(*args, **kwargs)

    monkeypatch.setattr(progsub.pretrain.LayerTerms, "projection_factor",
                        recording)
    monkeypatch.setattr(progsub.pretrain, "dpotrf", counting_dpotrf)
    run_experiment(benchmark_config(seed=7, layers=2))
    assert len(factored) == len(set(requested))
    # pre-training and every fine-tune of a layer share its factors
    assert len(requested) > 2 * len(factored)


def test_accepted_layer1_step_rebuilds_layer2_terms(monkeypatch, tmp_path):
    real_pretrain = progsub.model.pretrain_layer
    real_finetune = progsub.model.finetune_projection
    pretrained, graphs, fit_inputs = [], [], []
    layer2_inputs_after_step = []

    def pretrain(x, lap, proj0, eta, cfg, terms):
        proj, report = real_pretrain(x, lap, proj0, eta, cfg, terms=terms)
        pretrained.append(proj)
        graphs.append(lap)
        return proj, report

    def finetune(layer, stack, yt, hp, terms, *args, **kwargs):
        if layer == 1:
            fit_inputs.append(terms.x)
        elif not np.array_equal(stack.projections[0], pretrained[0]):
            # the layer-2 terms hold the input below the accepted step
            assert np.array_equal(terms.x,
                                  stack.projections[0] @ fit_inputs[-1])
            layer2_inputs_after_step.append(terms.x)
        return real_finetune(layer, stack, yt, hp, terms, *args, **kwargs)

    def fresh_pretrain(x, lap, proj0, eta, cfg, terms):
        graphs.append(lap)
        return real_pretrain(x, lap, proj0, eta, cfg)

    def fresh_finetune(layer, stack, yt, hp, terms, *args, **kwargs):
        fresh = _input_terms(terms.x, graphs[-1])
        return real_finetune(layer, stack, yt, hp, fresh, *args, **kwargs)

    outputs = {}
    for name, hooks in (("cached", (pretrain, finetune)),
                        ("fresh", (fresh_pretrain, fresh_finetune))):
        monkeypatch.setattr(progsub.model, "pretrain_layer", hooks[0])
        monkeypatch.setattr(progsub.model, "finetune_projection", hooks[1])
        _, artifacts = run_experiment(benchmark_config(
            seed=7, layers=2, out_dir=str(tmp_path / name)))
        outputs[name] = {key: Path(path).read_bytes()
                         for key, path in artifacts.items()}
    assert layer2_inputs_after_step
    assert "pretrain_layer2.csv" in outputs["cached"]
    assert outputs["cached"] == outputs["fresh"]


def test_fit_builds_each_layer_graph_gram_once(monkeypatch):
    # the fit's LayerTerms list is the one owner of every layer input's
    # X L X': each is formed once, when its LayerTerms is built, and the
    # objective reads them instead of forming its own
    built, grams, in_objective = [], [], []
    real_terms = progsub.model.LayerTerms
    real_gram = progsub.model.compute_graph_gram
    real_objective = progsub.model.objective_value

    def terms(x, graph_gram):
        built.append(x.shape)
        return real_terms(x, graph_gram)

    def gram(x, lap):
        grams.append(bool(in_objective))
        return real_gram(x, lap)

    def objective(*args, **kwargs):
        in_objective.append(True)
        try:
            return real_objective(*args, **kwargs)
        finally:
            in_objective.pop()

    monkeypatch.setattr(progsub.model, "LayerTerms", terms)
    monkeypatch.setattr(progsub.model, "compute_graph_gram", gram)
    monkeypatch.setattr(progsub.model, "objective_value", objective)
    pretrain_grams = _counting(monkeypatch, progsub.pretrain,
                               "compute_graph_gram")
    run_experiment(benchmark_config(seed=7, layers=2))
    # pre-training's two, then the layer-2 input of each layer-1 candidate
    assert len(built) > 2
    assert len(grams) == len(built)
    assert not any(grams)
    assert not pretrain_grams


# ------------------------------------------------------- penalty schedule

def _admm_iterations(report):
    """ADMM iterations of a fit: pre-training plus every fine-tune run."""
    return sum(rep.iterations for rep in report.pretrain_reports) + sum(
        rep.iterations for sweep in report.finetune_reports for rep in sweep)


def test_default_penalty_start_fits_desk_lower_in_fewer_iterations():
    # at admm.mu0=1e-3 the first low-penalty iterations of each run drag the
    # warm-started projection away; measured final objectives at seeds 1-5:
    # 38.303 / 36.357 / 36.799 / 39.416 / 38.750 at 1e-3 against
    # 38.157 / 36.267 / 36.631 / 39.221 / 38.718 at the default, in 19,909
    # against 12,683 ADMM iterations
    iterations = {"default": 0, "1e-3": 0}
    for seed in range(1, 6):
        data = prepare_data(benchmark_config(seed=seed))  # mu0 reads no input
        final = {}
        for name, keys in (("default", {}), ("1e-3", {"admm.mu0": "1e-3"})):
            config = benchmark_config(seed=seed, **keys)
            _, _, report = _fit_method(config, data, config.hyper)
            final[name] = report.objective_trace[-1]
            iterations[name] += _admm_iterations(report)
        assert final["default"] <= final["1e-3"], seed
    assert iterations["default"] < iterations["1e-3"]


def test_layer_guard_keeps_every_semisup_finetune_step(monkeypatch):
    # at admm.mu0=1e-3 the layer guard rejected 3 of these 6 runs
    real = progsub.model.finetune_projection
    kept = []

    def finetune(layer, stack, *args, **kwargs):
        proj, report = real(layer, stack, *args, **kwargs)
        kept.append(proj is not stack.projections[layer - 1])
        return proj, report

    monkeypatch.setattr(progsub.model, "finetune_projection", finetune)
    run_experiment(ExperimentConfig.from_mapping(SEMISUP_CONFIG, seed=3))
    assert kept == [True] * 6


# predictions.txt of the desk run at seed 7 with model.dims=1, the same at
# one and two layers; recorded when 1x1 systems were still divided instead
# of factored, which moves only the last bits of the objective
DIMS1_PREDICTIONS = (
    "734381c5c7c0b299964203f63573f30b0e61d4c2d75262e76c590216f608aaa3")


@pytest.mark.parametrize("layers", [1, 2])
def test_one_dimensional_fit_factors_its_1x1_systems(monkeypatch, tmp_path,
                                                     layers):
    shapes = set()
    real = progsub.pretrain.spd_factor

    def recording(lhs):
        shapes.add(lhs.shape)
        return real(lhs)

    monkeypatch.setattr(progsub.pretrain, "spd_factor", recording)
    _, artifacts = run_experiment(benchmark_config(
        seed=7, layers=layers, out_dir=str(tmp_path), **{"model.dims": 1}))
    assert (1, 1) in shapes
    lines = Path(artifacts["convergence.csv"]).read_text().splitlines()
    assert lines[0] == CONVERGENCE_HEADER
    trace = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(trace) > 1 and np.all(np.isfinite(trace))
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    digest = hashlib.sha256(
        Path(artifacts["predictions.txt"]).read_bytes()).hexdigest()
    assert digest == DIMS1_PREDICTIONS
