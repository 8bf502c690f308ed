"""SLIC-style superpixel segmentation and the per-pixel mean-spectrum stream.

The segmentation is a small k-means in a joint feature/position space with
grid-seeded centers, followed by a connectivity pass that merges orphaned
components into their largest adjacent segment. Everything is deterministic:
same cube, same arguments, same labels.

The assignment step returns the same labels as a full search of every
center for every pixel, in memory linear in the pixel count. It scores the
image in fixed pixel tiles and drops, per tile, only the centers that
provably cannot win. A pixel's distance to a center is its feature term
(>= 0) plus ``spatial_scale * d_xy^2``, and ``d_xy^2`` is at least the
squared distance from the center to the tile's rectangle. Every rounding
step in that chain is monotone, so a center whose rectangle term alone
exceeds the tile's bound (the largest, over the tile's pixels, of each
pixel's best distance to the centers near the tile) scores strictly worse
than some center for every pixel of the tile: it can neither win nor tie.
The survivors are scored with the full formula in ascending center order,
so ties break toward the lowest center id as in a full search. The center
update groups the pixels by one stable sort of the labels, and the orphan
merge works inside each segment's bounding box.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import cdist

from .embedding import pca_fit
from .errors import InputError
from .types import matrix_values

_N_REDUCED = 3  # images with more bands are reduced to this many components
_TILE = 16  # side of the pixel tiles the assignment step scores at once
_SLACK = 1e-9  # relative margin a center must clear before it is dropped


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


def _merge_orphans(grid):
    """Keep each segment's largest connected component; fold the rest into
    the largest 4-adjacent segment.

    Segments are visited in ascending id order, each inside its bounding box
    padded by one pixel, which holds all of the segment and every pixel
    4-adjacent to it. A merge widens the target's box to cover the merged
    component.
    """
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    height, width = grid.shape
    sizes = np.bincount(grid.ravel())
    boxes = np.array([(0, 0, 0, 0) if sl is None else
                      (sl[0].start, sl[0].stop, sl[1].start, sl[1].stop)
                      for sl in ndimage.find_objects(grid + 1)])
    for sid in np.flatnonzero(sizes):
        r0, r1, c0, c1 = boxes[sid]
        r0, c0 = max(r0 - 1, 0), max(c0 - 1, 0)
        window = grid[r0:min(r1 + 1, height), c0:min(c1 + 1, width)]
        mask = window == sid
        comp, n_comp = ndimage.label(mask, structure=structure)
        if n_comp <= 1:
            continue
        comp_sizes = ndimage.sum_labels(mask, comp, index=np.arange(1, n_comp + 1))
        keep = int(np.argmax(comp_sizes)) + 1
        for cid, sl in enumerate(ndimage.find_objects(comp), start=1):
            if cid == keep:
                continue
            cmask = comp == cid
            grown = ndimage.binary_dilation(cmask, structure=structure)
            neighbors = np.unique(window[grown & ~cmask])
            neighbors = [int(v) for v in neighbors if v != sid]
            if not neighbors:
                continue
            target = max(neighbors, key=lambda v: (sizes[v], -v))
            npix = int(cmask.sum())
            window[cmask] = target
            sizes[target] += npix
            sizes[sid] -= npix
            box = boxes[target]
            box[0] = min(box[0], r0 + sl[0].start)
            box[1] = max(box[1], r0 + sl[0].stop)
            box[2] = min(box[2], c0 + sl[1].start)
            box[3] = max(box[3], c0 + sl[1].stop)
    return grid


def _assign(pts, rows, cols, width, height, center_rc, center_feat,
            spatial_scale, step2):
    """Nearest center of every pixel, scored tile by tile over the centers
    that can still win there (see the module docstring)."""

    def distances(pix, cen):
        feat_d2 = cdist(pts[pix], center_feat[cen], "sqeuclidean")
        xy_d2 = (rows[pix, None] - center_rc[None, cen, 0]) ** 2 + (
            cols[pix, None] - center_rc[None, cen, 1]
        ) ** 2
        return feat_d2 + spatial_scale * xy_d2

    labels = np.empty(width * height, dtype=np.int64)
    every = np.arange(center_rc.shape[0])
    for r0 in range(0, height, _TILE):
        r1 = min(r0 + _TILE, height) - 1
        dr = np.maximum(np.maximum(r0 - center_rc[:, 0],
                                   center_rc[:, 0] - r1), 0.0)
        for c0 in range(0, width, _TILE):
            c1 = min(c0 + _TILE, width) - 1
            pix = (np.arange(r0, r1 + 1)[:, None] * width
                   + np.arange(c0, c1 + 1)).ravel()
            cen = every
            if spatial_scale > 0:
                dc = np.maximum(np.maximum(c0 - center_rc[:, 1],
                                           center_rc[:, 1] - c1), 0.0)
                rect_d2 = dr ** 2 + dc ** 2
                near = np.flatnonzero(rect_d2 <= max(step2, rect_d2.min()))
                bound = distances(pix, near).min(axis=1).max()
                # the slack can only keep a center; a NaN bound keeps all
                cen = np.flatnonzero(
                    ~(spatial_scale * rect_d2 * (1.0 - _SLACK) > bound)
                )
            labels[pix] = cen[np.argmin(distances(pix, cen), axis=1)]
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
    pts = np.ascontiguousarray(feats.T)
    rows = np.arange(n) // width
    cols = np.arange(n) % width
    step2 = n / n_segments  # S^2
    spatial_scale = (compactness ** 2) / step2

    seed_r, seed_c = _seed_grid(width, height, n_segments)
    seed_idx = seed_r * width + seed_c
    center_rc = np.stack([seed_r, seed_c], axis=1).astype(np.float64)
    center_feat = feats[:, seed_idx].T.copy()

    labels = None
    for _it in range(max_iters):
        new_labels = _assign(pts, rows, cols, width, height, center_rc,
                             center_feat, spatial_scale, step2)
        if labels is None:
            moved = np.arange(center_rc.shape[0])
        elif np.array_equal(new_labels, labels):
            break
        else:
            # a center whose member set is unchanged keeps its mean
            changed = new_labels != labels
            moved = np.union1d(labels[changed], new_labels[changed])
        labels = new_labels
        # members of each center in ascending pixel order, as a mask gives
        order = np.argsort(labels, kind="stable")
        counts = np.bincount(labels, minlength=center_rc.shape[0])
        ends = np.cumsum(counts)
        for k in moved:
            members = order[ends[k] - counts[k]:ends[k]]
            if not members.size:
                continue
            center_rc[k, 0] = rows[members].mean()
            center_rc[k, 1] = cols[members].mean()
            center_feat[k] = feats[:, members].mean(axis=1)

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
    With `columns` (pixel indices), the means still cover the whole cube but
    only those pixels' columns are returned, in the order given.
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
    sums = np.zeros((values.shape[0], k))
    for j in range(values.shape[0]):
        sums[j] = np.bincount(labels, weights=values[j], minlength=k)
    means = sums / counts
    if columns is not None:
        labels = labels[columns]
    return np.take(means, labels, axis=1)
