"""SLIC-style superpixel segmentation and the per-pixel mean-spectrum stream.

The segmentation is a small k-means in a joint feature/position space with
grid-seeded centers, followed by a connectivity pass that merges orphaned
components into their largest adjacent segment. Everything is deterministic:
same cube, same arguments, same labels.

The assignment step returns the labels of a full search of every center
for every pixel, in memory linear in the pixel count and, where tiles are
proven (below), in time linear in it too. With step
S = sqrt(n_pixels / n_segments), the image is cut into tiles of side
T = ceil(S), and the centers are bucketed into cells on the same grid:
cell (i, j) holds the centers with floor(r / T) = i and floor(c / T) = j.
Each tile is scored against the centers of its 3x3 block of cells, in
ascending center order, so ties go to the lowest id as in a full search.

A center outside the block is more than T away from every pixel of the
tile in rows or in columns, so its distance ``d_feat^2 + scale * d_xy^2``
(``scale = compactness^2 / S^2``, the feature term >= 0) is at least
``scale * T^2``; each rounding step in that chain is monotone, so the
computed distance is too. The tile's bound is the largest, over its
pixels, of each pixel's best distance among the candidates. When
``scale * T^2 * (1 - slack)`` exceeds the bound, no center outside the
block can win or tie at any pixel of the tile, and the tile is proven. The
pixels of a tile that is not proven are scored again against every center.
That covers a NaN bound and compactness 0, where no tile is proven.

The feature term is cdist's sqeuclidean written out: with at most three
features, the squared differences summed in order have its bits. Tiles are
scored in blocks whose temporaries stay within 128 kB, glibc's default
mmap threshold, so scoring reuses heap memory block after block and frees
no multi-MB temporary, whose size would raise the threshold and can keep
memory freed later in a run resident.

The center update takes the row and column means from bincount sums, which
are exact for integer coordinates and so have ``.mean()``'s bits; the
feature means are ``.mean()`` over each moved center's members in
ascending pixel order, one call per member count. The orphan merge finds
the segments split into several 4-connected components with one labelling
of the whole grid, and visits only those, each inside its bounding box. A
labelling joins the pairs of 4-adjacent pixels with the same id by pointer
jumping (_components); bounding boxes and sizes are integer reductions.
"""

from dataclasses import dataclass

import numpy as np

from .embedding import pca_fit
from .errors import InputError
from .types import matrix_values

_N_REDUCED = 3  # images with more bands are reduced to this many components
_SLACK = 1e-9  # relative margin a tile's bound must clear to be proven
_BLOCK_BYTES = 2 ** 17  # largest scoring temporary (see the module docstring)


@dataclass(frozen=True)
class Segmentation:
    """Per-pixel segment ids covering 0..n_segments-1."""

    labels: np.ndarray
    n_segments: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64).copy()
        labels.setflags(write=False)
        ids = np.unique(labels)
        if not np.array_equal(ids, np.arange(self.n_segments)):
            raise InputError(
                f"segment ids must cover 0..{self.n_segments - 1} exactly"
            )
        object.__setattr__(self, "labels", labels)


def segment_count(n_pixels, fraction):
    """Segment budget as a fraction of the pixel count (at least one)."""
    if not (0.0 < fraction <= 1.0):
        raise InputError(f"fraction must be in (0, 1], got {fraction}")
    return max(1, int(round(fraction * n_pixels)))


def _seed_grid(width, height, n_segments):
    cols = int(np.ceil(np.sqrt(n_segments * width / height)))
    cols = min(max(cols, 1), min(n_segments, width))
    rows = min(max(int(np.ceil(n_segments / cols)), 1), height)
    rs = np.floor((np.arange(rows) + 0.5) * height / rows).astype(np.int64)
    cs = np.floor((np.arange(cols) + 0.5) * width / cols).astype(np.int64)
    rr, cc = np.meshgrid(rs, cs, indexing="ij")
    return rr.ravel(), cc.ravel()


def _components(grid):
    """The same-id 4-connected components of a grid, as (labels, n): labels
    is a grid of ids 0..n-1, numbered in raster order of each component's
    first pixel, as ndimage.label numbers a mask's components.

    Each pixel points at a root, at first the first pixel of its row's
    same-id run. In each round, every root that a same-id down neighbour
    pair joins to a lower root points at one such root, and then each
    pointer is followed to its root. A root is always the lowest pixel of
    its tree, and every round joins the highest-rooted tree of a component
    to another, so the rounds end with one tree per component, rooted at
    its first pixel. SLIC's compact segments take one or two rounds.
    """
    pix = np.arange(grid.size)
    grid_pix = pix.reshape(grid.shape)
    start = np.ones(grid.shape, dtype=bool)
    start[:, 1:] = grid[:, 1:] != grid[:, :-1]
    root = np.maximum.accumulate(np.where(start, grid_pix, 0), axis=1).ravel()
    down = grid[1:] == grid[:-1]
    a, b = grid_pix[:-1][down], grid_pix[1:][down]
    while True:
        ra, rb = root[a], root[b]
        join = ra != rb
        if not join.any():
            break
        root[np.maximum(ra, rb)[join]] = np.minimum(ra, rb)[join]
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    first = root == pix
    return (np.cumsum(first)[root] - 1).reshape(grid.shape), int(first.sum())


def _split_segments(grid):
    """Ids of the segments that have more than one 4-connected component."""
    comp, n_comp = _components(grid)
    segment_of = np.empty(n_comp, dtype=np.int64)
    segment_of[comp] = grid
    return np.flatnonzero(np.bincount(segment_of) > 1)


def _merge_orphans(grid):
    """Keep each segment's largest connected component; fold the rest into
    the largest 4-adjacent segment.

    Segments are visited in ascending id order, each inside its bounding box
    padded by one pixel, which holds all of the segment and every pixel
    4-adjacent to it. A merge widens the target's box to cover the merged
    component. Only the segments split at entry are visited: a merge joins
    a component to a segment it is 4-adjacent to, so a segment in one piece
    stays in one piece.
    """
    height, width = grid.shape
    sizes = np.bincount(grid.ravel())
    split = _split_segments(grid)
    # boxes of the split segments, [r0, r1) x [c0, c1); no other segment's
    # box is read
    boxes = np.zeros((sizes.size, 4), dtype=np.int64)
    rank = np.zeros(sizes.size, dtype=np.int64)
    rank[split] = np.arange(1, split.size + 1)
    ranked = rank[grid]
    r, c = np.nonzero(ranked)
    order = np.argsort(ranked[r, c], kind="stable")
    r, c = r[order], c[order]
    first = np.cumsum(sizes[split]) - sizes[split]
    boxes[split] = np.stack([np.minimum.reduceat(r, first),
                             np.maximum.reduceat(r, first) + 1,
                             np.minimum.reduceat(c, first),
                             np.maximum.reduceat(c, first) + 1], axis=1)
    for sid in split:
        r0, r1, c0, c1 = boxes[sid]
        r0, c0 = max(r0 - 1, 0), max(c0 - 1, 0)
        window = grid[r0:min(r1 + 1, height), c0:min(c1 + 1, width)]
        comp, _ = _components(window)
        comp_sizes = np.bincount(comp[window == sid])
        # the segment's own components, in raster order of their first pixel
        own = np.flatnonzero(comp_sizes)
        keep = own[np.argmax(comp_sizes[own])]
        for cid in own:
            if cid == keep:
                continue
            cmask = comp == cid
            # the component and its 4-neighbours inside the window
            grown = cmask.copy()
            grown[1:] |= cmask[:-1]
            grown[:-1] |= cmask[1:]
            grown[:, 1:] |= cmask[:, :-1]
            grown[:, :-1] |= cmask[:, 1:]
            neighbors = np.unique(window[grown & ~cmask])
            neighbors = [int(v) for v in neighbors if v != sid]
            if not neighbors:
                continue
            target = max(neighbors, key=lambda v: (sizes[v], -v))
            rows, cols = np.nonzero(cmask)
            window[cmask] = target
            sizes[target] += rows.size
            sizes[sid] -= rows.size
            box = boxes[target]
            box[0] = min(box[0], r0 + rows.min())
            box[1] = max(box[1], r0 + rows.max() + 1)
            box[2] = min(box[2], c0 + cols.min())
            box[3] = max(box[3], c0 + cols.max() + 1)
    return grid


def _tiles(width, height, side):
    """The image cut into side x side tiles, in row-major order: each tile's
    rows and columns, two (n_tiles, side) arrays. A tile cut by the image
    edge repeats its last row or column, so every pixel of a tile's rows
    and columns is one of its own."""
    rows = np.minimum(np.arange(0, height, side)[:, None] + np.arange(side),
                      height - 1)
    cols = np.minimum(np.arange(0, width, side)[:, None] + np.arange(side),
                      width - 1)
    return (np.repeat(rows, cols.shape[0], axis=0),
            np.tile(cols, (rows.shape[0], 1)))


def _candidates(center_rc, side, n_tile_rows, n_tile_cols):
    """Ids of the centers in each tile's 3x3 block of cells, grouped by tile
    and ascending within a tile, and the number of them in each tile. Cell
    (i, j) holds the centers with (floor(r / side), floor(c / side)) equal
    to (i, j), so the cells are the tiles."""
    k = center_rc.shape[1]
    cell_r, cell_c = np.floor(center_rc / side).astype(np.int64)
    shift = np.arange(-1, 2)
    r = cell_r + shift[:, None, None]
    c = cell_c + shift[None, :, None]
    key = r * n_tile_cols + c
    key *= k
    key += np.arange(k)
    key = key[(r >= 0) & (r < n_tile_rows) & (c >= 0) & (c < n_tile_cols)]
    key.sort()
    ids = (key % k).astype(np.int32)
    key //= k
    return ids, np.bincount(key, minlength=n_tile_rows * n_tile_cols)


def _nearest(feat, rows, cols, cand, center_rc, center_feat, spatial_scale):
    """Nearest candidate center of each pixel of b tiles, and its D^2, as
    two (b, p) arrays; ties go to the first candidate.

    Tile i spans rows `rows[i]` (r of them) and columns `cols[i]` (q), and
    `feat[:, i]` holds its p = r * q pixels' features in row-major order.
    `cand` is (b, c), or (1, c) for centers shared by all tiles. D^2 is
    formed as a full search forms it (see the module docstring).
    """
    center = center_feat[:, cand]
    shape = (max(feat.shape[1], cand.shape[0]), feat.shape[2], cand.shape[1])
    d2, diff = np.zeros(shape), np.empty(shape)
    for f in range(feat.shape[0]):
        np.subtract(feat[f][:, :, None], center[f][:, None, :], out=diff)
        diff *= diff
        d2 += diff
    dr = rows[:, :, None] - center_rc[0, cand][:, None, :]
    dr *= dr
    dc = cols[:, :, None] - center_rc[1, cand][:, None, :]
    dc *= dc
    xy = diff.reshape(dr.shape[:2] + dc.shape[1:])
    np.add(dr[:, :, None, :], dc[:, None, :, :], out=xy)
    xy *= spatial_scale
    d2 += diff
    best = d2.argmin(axis=2)
    return (np.take_along_axis(cand, best, 1),
            np.take_along_axis(d2, best[:, :, None], 2)[:, :, 0])


def _assign(feats, tiles, width, height, center_rc, center_feat,
            spatial_scale, side):
    """Nearest center of every pixel, with the labels of a full search (see
    the module docstring); `tiles` is `_tiles(width, height, side)`."""
    rows, cols = tiles

    def pixels(tb):
        pix = rows[tb, :, None] * width + cols[tb, None, :]
        return pix.reshape(tb.size, side * side)

    labels = np.empty(width * height, dtype=np.int64)
    ids, counts = _candidates(center_rc, side, -(-height // side),
                              -(-width // side))
    starts = np.cumsum(counts) - counts
    # no center outside a tile's block scores below this at the tile
    limit = spatial_scale * (side * side) * (1.0 - _SLACK)
    # blocks take the tiles in order of their candidate count, as many as
    # fit in _BLOCK_BYTES with each tile's candidates padded to the block's
    # largest count by repeats of its last one, which never win a tie; a
    # tile with no candidate, or with more than a block holds, is not proven
    room = _BLOCK_BYTES // (8 * side * side)
    order = np.argsort(counts, kind="stable")
    ordered = counts[order]
    proven = np.zeros(counts.size, dtype=bool)
    lo, end = np.searchsorted(ordered, [1, room + 1])
    while lo < end:
        fits = ordered[lo:min(lo + room // ordered[lo], end)]
        hi = lo + np.count_nonzero(np.arange(1, fits.size + 1) * fits <= room)
        tb = order[lo:hi]
        pos = np.minimum(np.arange(ordered[hi - 1]), counts[tb, None] - 1)
        cand = ids[starts[tb, None] + pos]
        pix = pixels(tb)
        found, best = _nearest(feats[:, pix], rows[tb], cols[tb], cand,
                               center_rc, center_feat, spatial_scale)
        proven[tb] = ok = limit > best.max(axis=1)
        labels[pix[ok]] = found[ok]
        lo = hi
    # the pixels of the tiles not proven are scored against every center,
    # each pixel as a 1 x 1 tile
    rest = pixels(np.flatnonzero(~proven)).reshape(-1, 1)
    every = np.arange(center_rc.shape[1])[None, :]
    block = max(1, _BLOCK_BYTES // (8 * every.size))
    for p0 in range(0, rest.shape[0], block):
        q = rest[p0:p0 + block]
        found, _ = _nearest(feats[:, q], q // width, q % width, every,
                            center_rc, center_feat, spatial_scale)
        labels[q[:, 0]] = found[:, 0]
    return labels


def slic_segment(cube, width, height, n_segments, compactness=10.0, max_iters=10):
    """Segment a cube into roughly n_segments compact superpixels.

    The clustering distance is D^2 = d_feat^2 + (d_xy / S)^2 * compactness^2
    with S = sqrt(n_pixels / n_segments); features are the leading principal
    components when the cube has more than three bands.
    """
    values = matrix_values(cube)
    n = width * height
    if values.shape[1] != n:
        raise InputError(
            f"cube has {values.shape[1]} columns but width*height = {n}"
        )
    if not (1 <= n_segments <= n):
        raise InputError(f"need 1 <= n_segments <= {n}, got {n_segments}")
    if not (np.isfinite(compactness) and compactness >= 0):
        raise InputError(
            f"compactness must be finite and >= 0, got {compactness}"
        )
    if max_iters < 1:
        raise InputError(f"max_iters must be >= 1, got {max_iters}")
    feats = values
    if values.shape[0] > _N_REDUCED:
        # neither the component signs nor the offset P @ mean, which moves
        # every pixel and every segment mean alike, changes a squared
        # distance, so the cube is projected as it is: pca_fit centers it
        # once, block by block, for the covariance
        feats = pca_fit(values, min(_N_REDUCED, n)).projection @ values
    rows = np.arange(n) // width
    cols = np.arange(n) % width
    step2 = n / n_segments  # S^2
    spatial_scale = (compactness ** 2) / step2
    side = int(np.ceil(np.sqrt(step2)))
    tiles = _tiles(width, height, side)

    seed_r, seed_c = _seed_grid(width, height, n_segments)
    center_rc = np.stack([seed_r, seed_c]).astype(np.float64)
    center_feat = feats[:, seed_r * width + seed_c]
    n_centers = center_rc.shape[1]

    labels = None
    for _it in range(max_iters):
        new_labels = _assign(feats, tiles, width, height, center_rc,
                             center_feat, spatial_scale, side)
        if labels is None:
            moved = np.arange(n_centers)
        elif np.array_equal(new_labels, labels):
            break
        else:
            # a center whose member set is unchanged keeps its mean
            changed = new_labels != labels
            moved = np.union1d(labels[changed], new_labels[changed])
        labels = new_labels
        counts = np.bincount(labels, minlength=n_centers)
        filled = counts > 0
        # sums of pixel coordinates are exact, so these have .mean()'s bits
        for axis, coord in enumerate((rows, cols)):
            sums = np.bincount(labels, weights=coord, minlength=n_centers)
            center_rc[axis, filled] = sums[filled] / counts[filled]
        # members of each center in ascending pixel order, as a mask gives;
        # the moved centers with m members take one .mean() over a
        # (features, centers, m) gather, which reduces each center's row of
        # m members as a call of its own would
        order = np.argsort(labels, kind="stable")
        starts = np.cumsum(counts) - counts
        moved = moved[counts[moved] > 0]
        for m in np.unique(counts[moved]):
            ks = moved[counts[moved] == m]
            members = order[starts[ks, None] + np.arange(m)]
            center_feat[:, ks] = feats[:, members].mean(axis=2)

    grid = labels.reshape(height, width)
    grid = _merge_orphans(grid)
    labels = grid.ravel()
    # relabel to a contiguous 0-based range, ascending by old id
    old_ids = np.unique(labels)
    remap = np.full(old_ids.max() + 1, -1, dtype=np.int64)
    remap[old_ids] = np.arange(old_ids.size)
    return Segmentation(remap[labels], old_ids.size)


def superpixel_stream(cube, segment_ids, columns=None):
    """Per-pixel stream: column i is the mean spectrum of pixel i's segment.

    `segment_ids` holds one 0-based segment id per cube column (a
    Segmentation's `labels`); returns a C-ordered array shaped like `cube`.
    With `columns` (pixel indices), only those pixels' columns are returned,
    in the order given, and only their segments are summed. A segment's
    pixels are summed in pixel order either way, so each mean has the bits
    of the whole-image stream's.
    """
    values = matrix_values(cube)
    labels = np.asarray(segment_ids)
    if labels.size != values.shape[1]:
        raise InputError(
            f"segmentation covers {labels.size} pixels but cube has "
            f"{values.shape[1]} columns"
        )
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    if np.any(counts == 0):
        raise InputError("segmentation has an empty segment")
    pixels, members, picked = slice(None), labels, labels
    if columns is not None:
        kept, picked = np.unique(labels[columns], return_inverse=True)
        keep = np.zeros(k, dtype=bool)
        keep[kept] = True
        # a boolean mask, so no pixel-sized index array is built and freed
        pixels = np.flatnonzero(keep[labels])
        members = np.searchsorted(kept, labels[pixels])
        k, counts = kept.size, counts[kept]
    sums = np.zeros((values.shape[0], k))
    for j in range(values.shape[0]):
        sums[j] = np.bincount(members, weights=values[j, pixels], minlength=k)
    means = np.divide(sums, counts, out=sums)
    return np.take(means, picked, axis=1)
