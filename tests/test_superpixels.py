import hashlib

import numpy as np
import pytest
from scipy import ndimage

import progsub.superpixels
from bench_utils import traced_peak
from oracle_utils import (reference_assign, reference_merge_orphans,
                          reference_slic_segment)
from progsub import (InputError, SyntheticSpec, generate_synthetic,
                     segment_count, slic_segment, superpixel_stream)
from progsub.superpixels import (Segmentation, _assign, _components,
                                 _merge_orphans, _seed_grid, _split_segments,
                                 _tiles)


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


# (height, width): single pixels, single rows and columns, one cell, and
# shapes spanning many cells
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


def _spy_on_scoring(monkeypatch):
    """Record (pixels per tile, centers per tile) of each scoring call."""
    scored = []
    nearest = progsub.superpixels._nearest

    def spy(feat, rows, cols, cand, *rest):
        scored.append((feat.shape[2], cand.shape[1]))
        return nearest(feat, rows, cols, cand, *rest)

    monkeypatch.setattr(progsub.superpixels, "_nearest", spy)
    return scored


def test_slic_prunes_centers_far_from_each_tile(monkeypatch):
    scored = _spy_on_scoring(monkeypatch)
    cube = np.random.default_rng(11).random((8, 64 * 64))
    k = segment_count(64 * 64, 0.10)
    slic_segment(cube, 64, 64, k, max_iters=2)
    assert scored and max(c for _, c in scored) < k // 4


def _clustered_cube(rng, bands, n, n_clusters):
    # tight clusters far apart in feature space: the feature term swamps
    # the spatial one, so a tile's best candidate can be far off
    means = rng.normal(scale=50.0, size=(bands, n_clusters))
    noise = rng.normal(scale=0.01, size=(bands, n))
    return means[:, rng.integers(0, n_clusters, n)] + noise


# (height, width, n_segments): no image side is a multiple of the cell side
_ODD_SHAPES = [(37, 23, 30), (51, 33, 90), (19, 44, 100), (9, 31, 12)]


@pytest.mark.parametrize("compactness", [0.0, 0.1])
@pytest.mark.parametrize("shape", _ODD_SHAPES)
def test_slic_matches_dense_reference_where_tiles_are_not_proven(
        monkeypatch, shape, compactness):
    height, width, n_segments = shape
    n = height * width
    side = int(np.ceil(np.sqrt(n / n_segments)))
    assert height % side and width % side
    rng = np.random.default_rng(n_segments)
    for bands in (2, 6):
        cube = _clustered_cube(rng, bands, n, 5)
        scored = _spy_on_scoring(monkeypatch)
        got = slic_segment(cube, width, height, n_segments, compactness)
        want = reference_slic_segment(cube, width, height, n_segments,
                                      compactness)
        assert np.array_equal(got.labels, want.labels)
        # pixels of tiles not proven were scored one by one
        assert min(p for p, _ in scored) == 1


@pytest.mark.parametrize("spatial_scale", [0.0, 0.01, 1.0, 100.0])
def test_assignment_matches_full_search_with_centers_bunched_in_one_cell(
        spatial_scale):
    rng = np.random.default_rng(31)
    height, width, side = 30, 26, 3
    feats = rng.random((3, height * width))
    # 40 centers inside cell (4, 4), 30 spread over the image, and two
    # copies of earlier centers whose ties must go to the lower id
    bunched = rng.uniform(12.0, 14.999, size=(2, 40))
    spread = rng.uniform(0.0, 1.0, size=(2, 30)) * [[height - 1], [width - 1]]
    center_rc = np.concatenate([bunched, spread, bunched[:, :1],
                                spread[:, 3:4]], axis=1)
    center_feat = rng.random((3, center_rc.shape[1]))
    center_feat[:, 70] = center_feat[:, 0]
    center_feat[:, 71] = center_feat[:, 43]
    got = _assign(feats, _tiles(width, height, side), width, height,
                  center_rc, center_feat, spatial_scale, side)
    want = reference_assign(feats, width, center_rc.T, center_feat.T,
                            spatial_scale)
    assert np.array_equal(got, want)
    assert not np.isin([70, 71], got).any()


def test_assignment_peak_memory_is_a_few_blocks_at_scene_shape():
    # the scene benchmark's shape: 145 x 145 pixels, 2116 centers, features
    # in [0, 1) and compactness 10, where every tile is proven. Scoring
    # holds two (tiles, pixels, candidates) arrays of at most 128 kB and
    # numpy's iterator buffers; with the candidate ids, the peak was 5.3
    # such blocks beyond the labels, 6.9 with 192 kB and 8.6 with 256 kB
    width = height = 145
    n = width * height
    n_segments = segment_count(n, 0.10)
    side = int(np.ceil(np.sqrt(n / n_segments)))
    feats = np.random.default_rng(8).random((3, n))
    tiles = _tiles(width, height, side)
    seed_r, seed_c = _seed_grid(width, height, n_segments)
    center_rc = np.stack([seed_r, seed_c]).astype(np.float64)
    center_feat = feats[:, seed_r * width + seed_c]
    peak, labels = traced_peak(_assign, feats, tiles, width, height,
                               center_rc, center_feat,
                               10.0 ** 2 * n_segments / n, side)
    assert peak < labels.nbytes + 6 * 2 ** 17


# SLIC label digests on the semisup benchmark cube (seed 3, fraction 0.10),
# recorded before the cell-index assignment: at compactness 0.1 no tile of
# the assignment is proven and at 1.0 two in five are not, so these bits
# guard the rescoring of unproven tiles; at 40 every tile is proven
SEMISUP_LABELS = {
    0.1: "a3c775ac5e40e9730012ad9fd37a47fd8c8220c415eba329984a594d0260c20b",
    1.0: "f5c0a006c5ce8ced5800153c389727d337a04749951bc1e4858ae04f88b9514d",
    40.0: "765572584634213ef2042307c91c5e89cf07d9ca17f0c659eb0f125f6a155e4f",
}


@pytest.mark.parametrize("compactness", sorted(SEMISUP_LABELS))
def test_slic_labels_keep_their_digest_across_compactness(compactness):
    cube, _, width, height = generate_synthetic(SyntheticSpec(
        seed=3, width=40, height=40, bands=100, n_classes=9,
        separation=3.0, noise=0.4, blob_size=5))
    seg = slic_segment(cube, width, height,
                       segment_count(width * height, 0.10), compactness)
    labels = np.ascontiguousarray(seg.labels, dtype="<i8")
    digest = hashlib.sha256(labels.tobytes()).hexdigest()
    assert digest == SEMISUP_LABELS[compactness]


@pytest.mark.parametrize("seed", range(6))
def test_windowed_orphan_merge_matches_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        height, width = rng.integers(1, 30, size=2)
        n_ids = int(rng.integers(1, 3 * seed + 4))
        grid = rng.integers(0, n_ids, size=(height, width))
        want = reference_merge_orphans(grid.copy())
        assert np.array_equal(_merge_orphans(grid.copy()), want)


# segments that touch themselves or each other only at corners are not
# 4-connected: a checkerboard, diagonal stripes and a ring of diagonal steps
_DIAGONAL_GRIDS = [
    np.indices((6, 7)).sum(axis=0) % 2,
    np.indices((9, 8)).sum(axis=0) % 3,
    np.array([[0, 1, 1, 0],
              [1, 0, 0, 1],
              [1, 0, 0, 1],
              [0, 1, 1, 0]]),
    np.eye(5, dtype=np.int64) + 2 * np.eye(5, k=1, dtype=np.int64),
]


@pytest.mark.parametrize("seed", range(4))
def test_components_and_split_segments_match_ndimage_label(seed):
    # few ids on small grids cut most segments into several pieces; many
    # ids leave most segments whole
    rng = np.random.default_rng(seed)
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    for _ in range(30):
        height, width = rng.integers(1, 25, size=2)
        grid = rng.integers(0, int(rng.integers(1, 4 * seed + 3)),
                            size=(height, width))
        comp, n_comp = _components(grid)
        split = []
        for s in np.unique(grid):
            mask = grid == s
            want, n_want = ndimage.label(mask, structure=structure)
            # the segment's components, numbered in the same order
            own = np.unique(comp[mask])
            assert np.array_equal(np.searchsorted(own, comp[mask]) + 1,
                                  want[mask])
            if n_want > 1:
                split.append(s)
        assert np.array_equal(np.unique(comp), np.arange(n_comp))
        assert _split_segments(grid).tolist() == split


@pytest.mark.parametrize("i", range(len(_DIAGONAL_GRIDS)))
def test_orphan_merge_splits_segments_touching_only_diagonally(i):
    grid = _DIAGONAL_GRIDS[i]
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    split = [s for s in np.unique(grid)
             if ndimage.label(grid == s, structure=structure)[1] > 1]
    assert split and _split_segments(grid).tolist() == split
    want = reference_merge_orphans(grid.copy())
    assert np.array_equal(_merge_orphans(grid.copy()), want)


def test_slic_matches_dense_reference_on_a_checkerboard():
    # at compactness 0 the labels follow the features, whose checkerboard
    # cuts segments into pieces that meet only at corners
    height, width = 12, 10
    board = np.indices((height, width)).sum(axis=0).ravel() % 2
    cube = np.stack([board, 1.0 - board]).astype(np.float64)
    for n_segments in (2, 6, 20):
        got = slic_segment(cube, width, height, n_segments, 0.0)
        want = reference_slic_segment(cube, width, height, n_segments, 0.0)
        assert np.array_equal(got.labels, want.labels)


def test_slic_memory_is_linear_in_pixels():
    # a dense N x K distance matrix alone would take 4096 * 410 * 8 = 13 MB
    cube = np.random.default_rng(2).random((8, 64 * 64))
    peak, _ = traced_peak(slic_segment, cube, 64, 64,
                          segment_count(64 * 64, 0.10))
    assert peak < 4 * 2 ** 20


def test_slic_holds_no_centered_copy_of_the_cube():
    # the PCA reduction centers the cube once, in column blocks, and the
    # features are projected from the cube itself; a centered copy of the
    # whole cube would alone take cube.nbytes (the peak was 16.8 MB here)
    cube = np.random.default_rng(3).random((64, 256 * 128))
    peak, _ = traced_peak(slic_segment, cube, 256, 128,
                          segment_count(256 * 128, 0.01))
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


def test_stream_columns_are_the_whole_stream_columns():
    rng = np.random.default_rng(25)
    cube = rng.random((4, 40))
    ids = rng.permutation(np.arange(40) % 7)
    cols = np.array([39, 3, 3, 0, 17, 22])
    out = superpixel_stream(cube, ids, cols)
    assert out.tobytes() == superpixel_stream(cube, ids)[:, cols].tobytes()


@pytest.mark.parametrize("columns", [
    [170, 3, 3, 0, 99, 21, 170],       # unsorted and repeated
    list(range(0, 400, 37)),           # sorted, most segments uncovered
    [5],
    [],
])
def test_stream_of_columns_sums_only_their_segments(columns):
    # segments of very different magnitudes and long, interleaved members,
    # so a sum taken in any other pixel order would round differently
    rng = np.random.default_rng(26)
    cube = rng.standard_normal((5, 400)) * 10.0 ** rng.integers(-6, 7, 400)
    ids = rng.permutation(np.arange(400) % 23)
    out = superpixel_stream(cube, ids, np.asarray(columns, dtype=np.int64))
    whole = superpixel_stream(cube, ids)
    assert out.shape == (5, len(columns))
    assert out.flags.c_contiguous
    assert out.tobytes() == whole[:, columns].tobytes()
    assert len(set(ids[columns].tolist())) < 23  # some segment uncovered


def test_stream_of_columns_checks_every_segment():
    cube = np.ones((2, 4))
    with pytest.raises(InputError, match="empty segment"):
        superpixel_stream(cube, np.array([0, 0, 2, 2]), np.array([0]))


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
