import tracemalloc

import numpy as np
import pytest

import progsub.superpixels
from oracle_utils import reference_merge_orphans, reference_slic_segment
from progsub import InputError, segment_count, slic_segment, superpixel_stream
from progsub.superpixels import Segmentation, _merge_orphans


def test_constant_image_yields_seed_grid_blocks():
    cube = np.full((2, 36), 3.0)
    seg = slic_segment(cube, 6, 6, 4)
    assert seg.n_segments == 4
    grid = seg.labels.reshape(6, 6)
    # four contiguous 3x3 quadrants, one segment each
    for r0 in (0, 3):
        for c0 in (0, 3):
            block = grid[r0:r0 + 3, c0:c0 + 3]
            assert np.all(block == block[0, 0])
    assert len({grid[0, 0], grid[0, 3], grid[3, 0], grid[3, 3]}) == 4


def test_two_region_image_splits_at_column_seam():
    values = np.zeros((1, 64))
    cols = np.arange(64) % 8
    values[0, cols >= 4] = 1.0
    cube = values
    seg = slic_segment(cube, 8, 8, 2, compactness=0.1)
    assert seg.n_segments == 2
    grid = seg.labels.reshape(8, 8)
    left = grid[:, :4]
    right = grid[:, 4:]
    assert np.all(left == left[0, 0])
    assert np.all(right == right[0, 0])
    assert left[0, 0] != right[0, 0]

    # exhaustive check: every pixel's nearest center in the clustering
    # distance lies on its own side
    spatial_scale = (0.1 ** 2) / (64 / 2)
    rows = np.arange(64) // 8
    members = [seg.labels == s for s in range(2)]
    centers_rc = np.array([(rows[m].mean(), cols[m].mean()) for m in members])
    centers_feat = np.array([values[:, m].mean(axis=1) for m in members])
    for i in range(64):
        d = []
        for s in range(2):
            feat = (values[0, i] - centers_feat[s, 0]) ** 2
            xy = ((rows[i] - centers_rc[s, 0]) ** 2
                  + (cols[i] - centers_rc[s, 1]) ** 2)
            d.append(feat + spatial_scale * xy)
        assert int(np.argmin(d)) == seg.labels[i]


def test_segment_count_fraction_rule():
    assert segment_count(100, 0.10) == 10


def test_segment_count_rounds_and_floors_at_one():
    assert segment_count(25, 0.10) == 2   # round(2.5) -> 2
    assert segment_count(3, 0.10) == 1


def test_slic_rejects_too_many_segments():
    cube = np.zeros((1, 4))
    with pytest.raises(InputError):
        slic_segment(cube, 2, 2, 5)


@pytest.mark.parametrize("key,value", [
    ("max_iters", 0),
    ("max_iters", -2),
    ("compactness", float("nan")),
    ("compactness", float("inf")),
    ("compactness", -1.0),
])
def test_slic_rejects_bad_settings(key, value):
    cube = np.random.default_rng(3).random((2, 36))
    with pytest.raises(InputError, match=key):
        slic_segment(cube, 6, 6, 4, **{key: value})


# (height, width): single pixels, single rows and columns, one partial
# tile, and shapes spanning several 16x16 tiles so that pruning runs
_SHAPES = [(1, 1), (1, 37), (29, 1), (7, 9), (40, 23), (33, 50), (18, 17)]


def _equivalence_case(i, kind):
    rng = np.random.default_rng(i)
    height, width = _SHAPES[i % len(_SHAPES)]
    n = height * width
    bands = 1 + i % 6
    if kind == "constant":
        values = np.full((bands, n), 0.5)
    elif kind == "two-valued":
        values = rng.integers(0, 2, size=(bands, n)).astype(np.float64)
    else:
        values = rng.random((bands, n))
    n_segments = (1, n, int(rng.integers(1, n + 1)), max(1, n // 10))[i % 4]
    return values, width, height, n_segments


@pytest.mark.parametrize("kind", ["random", "constant", "two-valued"])
@pytest.mark.parametrize("max_iters", [1, 2, 10])
@pytest.mark.parametrize("compactness", [0.0, 0.1, 10.0, 1000.0])
def test_slic_matches_dense_reference(compactness, max_iters, kind):
    for i in range(7):
        args = _equivalence_case(i + 7 * max_iters, kind)
        want = reference_slic_segment(*args, compactness, max_iters)
        got = slic_segment(*args, compactness, max_iters)
        assert got.n_segments == want.n_segments
        assert np.array_equal(got.labels, want.labels), args[1:]


def test_slic_prunes_centers_far_from_each_tile(monkeypatch):
    scored = []

    def spy(xa, xb, metric):
        scored.append(xb.shape[0])
        return cdist(xa, xb, metric)

    cdist = progsub.superpixels.cdist
    monkeypatch.setattr(progsub.superpixels, "cdist", spy)
    cube = np.random.default_rng(11).random((8, 64 * 64))
    k = segment_count(64 * 64, 0.10)
    slic_segment(cube, 64, 64, k, max_iters=2)
    assert scored and max(scored) < k // 4


@pytest.mark.parametrize("seed", range(6))
def test_windowed_orphan_merge_matches_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        height, width = rng.integers(1, 30, size=2)
        n_ids = int(rng.integers(1, 3 * seed + 4))
        grid = rng.integers(0, n_ids, size=(height, width))
        want = reference_merge_orphans(grid.copy())
        assert np.array_equal(_merge_orphans(grid.copy()), want)


def test_slic_memory_is_linear_in_pixels():
    # a dense N x K distance matrix alone would take 4096 * 410 * 8 = 13 MB
    cube = np.random.default_rng(2).random((8, 64 * 64))
    tracemalloc.start()
    try:
        slic_segment(cube, 64, 64, segment_count(64 * 64, 0.10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_slic_holds_no_centered_copy_of_the_cube():
    # the PCA reduction centers the cube once, in column blocks, and the
    # features are projected from the cube itself; a centered copy of the
    # whole cube would alone take cube.nbytes (the peak was 16.8 MB here)
    cube = np.random.default_rng(3).random((64, 256 * 128))
    tracemalloc.start()
    try:
        slic_segment(cube, 256, 128, segment_count(256 * 128, 0.01))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cube.nbytes / 2


@pytest.mark.parametrize("width", [1, 2])
def test_slic_segments_cube_with_fewer_pixels_than_components(width):
    # five bands reduce to min(3, pixel count) principal components
    cube = np.random.default_rng(5).random((5, width))
    seg = slic_segment(cube, width, 1, width)
    assert seg.labels.tolist() == list(range(width))


def test_slic_deterministic():
    rng = np.random.default_rng(7)
    cube = rng.random((5, 100))
    a = slic_segment(cube, 10, 10, 6)
    b = slic_segment(cube, 10, 10, 6)
    assert np.array_equal(a.labels, b.labels)


def test_slic_connectivity_every_segment_one_component():
    from scipy import ndimage
    rng = np.random.default_rng(13)
    cube = rng.random((4, 144))
    seg = slic_segment(cube, 12, 12, 8)
    grid = seg.labels.reshape(12, 12)
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    for s in range(seg.n_segments):
        _, n_comp = ndimage.label(grid == s, structure=structure)
        assert n_comp == 1


def test_stream_identity_segmentation():
    rng = np.random.default_rng(19)
    cube = rng.random((3, 6))
    out = superpixel_stream(cube, np.arange(6))
    assert np.array_equal(out, cube)


def test_stream_single_segment_gives_global_mean():
    rng = np.random.default_rng(20)
    cube = rng.random((3, 5))
    out = superpixel_stream(cube, np.zeros(5, dtype=int))
    mean = cube.mean(axis=1)
    for i in range(5):
        assert np.allclose(out[:, i], mean)


def test_stream_matches_tally_oracle():
    rng = np.random.default_rng(21)
    cube = rng.random((3, 12))
    ids = rng.integers(0, 3, size=12)
    while len(set(ids.tolist())) < 3:
        ids = rng.integers(0, 3, size=12)
    out = superpixel_stream(cube, ids)
    for i in range(12):
        members = [j for j in range(12) if ids[j] == ids[i]]
        brute = sum(cube[:, j] for j in members) / len(members)
        assert np.allclose(out[:, i], brute, atol=1e-12)


def test_stream_idempotent():
    rng = np.random.default_rng(22)
    cube = rng.random((4, 10))
    ids = rng.integers(0, 3, size=10)
    once = superpixel_stream(cube, ids)
    twice = superpixel_stream(once, ids)
    assert np.array_equal(once, twice)


def test_stream_preserves_global_mean():
    rng = np.random.default_rng(24)
    cube = rng.random((4, 30))
    ids = rng.integers(0, 5, size=30)
    out = superpixel_stream(cube, ids)
    assert np.allclose(out.mean(axis=1), cube.mean(axis=1),
                       atol=1e-12)


def test_segmentation_requires_contiguous_ids():
    with pytest.raises(InputError):
        Segmentation(np.array([0, 2]), 2)
