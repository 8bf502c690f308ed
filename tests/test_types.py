import numpy as np
import pytest
from hypothesis import given, strategies as st

from progsub import (AdmmConfig, HyperParams, InputError, SampleSplit,
                     one_hot_encode)


def test_one_hot_single_label():
    enc = one_hot_encode([1], 3)
    assert enc.shape == (3, 1)
    assert enc[:, 0].tolist() == [1.0, 0.0, 0.0]


def test_one_hot_repeated_label():
    enc = one_hot_encode([2, 2], 2)
    assert np.array_equal(enc, [[0.0, 0.0], [1.0, 1.0]])


def test_one_hot_random_tally_oracle():
    rng = np.random.default_rng(5)
    labels = [int(v) for v in rng.integers(1, 5, size=50)]
    enc = one_hot_encode(labels, 4)
    assert np.all(enc.sum(axis=0) == 1.0)
    tally = [labels.count(c) for c in (1, 2, 3, 4)]
    assert enc.sum(axis=1).tolist() == [float(t) for t in tally]


def test_one_hot_out_of_range_names_index():
    with pytest.raises(InputError, match="index 2"):
        one_hot_encode([1, 2, 7], 3)
    with pytest.raises(InputError, match="index 0"):
        one_hot_encode([0], 3)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=80))
def test_one_hot_column_sums_property(labels):
    enc = one_hot_encode(labels, 6)
    assert np.all(enc.sum(axis=0) == 1.0)
    assert set(np.unique(enc)) <= {0.0, 1.0}


def _valid_hyper(**overrides):
    base = dict(alpha=1.0, beta=0.1, gamma=0.1, layers=2,
                dims=(4, 4), knn_k=5, sigma=0.5)
    base.update(overrides)
    return base


def test_hyper_params_accepts_valid():
    hp = HyperParams(**_valid_hyper())
    assert hp.dims == (4, 4)
    assert hp.max_outer_iters == 50
    # beta is the one graph weight; the outer stop is a model constant
    assert not hasattr(hp, "eta") and not hasattr(hp, "zeta")


@pytest.mark.parametrize("bad", [
    dict(sigma=0.0),
    dict(sigma=-1.0),
    dict(dims=(4,)),          # length != layers
    dict(dims=(4, 0)),
    dict(layers=0, dims=()),
    dict(alpha=-0.5),
    dict(max_outer_iters=0),
    dict(superpixel_fraction=0.0),
    dict(superpixel_fraction=1.5),
    dict(knn_k=0),
])
def test_hyper_params_rejects_boundaries(bad):
    with pytest.raises(InputError):
        HyperParams(**_valid_hyper(**bad))


@pytest.mark.parametrize("bad", [
    dict(rho=1.0),
    dict(rho=0.5),
    dict(mu0=0.0),
    dict(mu0=10.0, mu_max=1.0),
    dict(eps=0.0),
    dict(max_iters=0),
])
def test_admm_config_rejects_boundaries(bad):
    with pytest.raises(InputError):
        AdmmConfig(**bad)


def test_admm_config_defaults_match_solver_settings():
    cfg = AdmmConfig()
    assert cfg.mu0 == 1e-3
    assert cfg.mu_max == 1e6
    assert cfg.rho == 2.0
    assert cfg.eps == 1e-6


def test_sample_split_disjointness():
    SampleSplit((0, 1), (2, 3), (4,))
    with pytest.raises(InputError):
        SampleSplit((0, 1), (1, 2))
    # the first offender in train -> test -> unlabeled order is named
    cases = [
        (((0, 1), (1, 2)), "index 1 appears in both train_indices and "
                           "test_indices"),
        (((0, 1), (2, -3), (1,)), "test_indices contains negative index -3"),
        (((0,), (2, 3, 2), (-1,)), "index 2 appears in both test_indices and "
                                   "test_indices"),
        (((5, 6), (7,), (8, 5)), "index 5 appears in both train_indices and "
                                 "unlabeled_indices"),
        (((-2, 4, 4), ()), "train_indices contains negative index -2"),
    ]
    for groups, message in cases:
        with pytest.raises(InputError) as exc:
            SampleSplit(*groups)
        assert str(exc.value) == message
    split = SampleSplit([3, 1], np.array([2]))
    assert split.train_indices.dtype == np.int64
    assert split.unlabeled_indices.shape == (0,)
    with pytest.raises(ValueError):
        split.train_indices[0] = 9  # read-only
