"""SLIC-style superpixel segmentation and the per-pixel mean-spectrum stream.

The segmentation is a small k-means in a joint feature/position space with
grid-seeded centers, followed by a connectivity pass that merges orphaned
components into their largest adjacent segment. Everything is deterministic:
same cube, same arguments, same labels.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import cdist

from .embedding import pca_fit
from .errors import InputError
from .types import SUPERPIXEL_STREAM, FeatureMatrix, matrix_values

_N_REDUCED = 3  # images with more bands are reduced to this many components


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
    the largest 4-adjacent segment."""
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    sizes = {int(s): int(c) for s, c in zip(*np.unique(grid, return_counts=True))}
    for sid in sorted(sizes):
        mask = grid == sid
        comp, n_comp = ndimage.label(mask, structure=structure)
        if n_comp <= 1:
            continue
        comp_sizes = ndimage.sum_labels(mask, comp, index=np.arange(1, n_comp + 1))
        keep = int(np.argmax(comp_sizes)) + 1
        for cid in range(1, n_comp + 1):
            if cid == keep:
                continue
            cmask = comp == cid
            grown = ndimage.binary_dilation(cmask, structure=structure)
            neighbors = np.unique(grid[grown & ~cmask])
            neighbors = [int(v) for v in neighbors if v != sid]
            if not neighbors:
                continue
            target = max(neighbors, key=lambda v: (sizes[v], -v))
            npix = int(cmask.sum())
            grid[cmask] = target
            sizes[target] += npix
            sizes[sid] -= npix
    return grid


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
    feats = values
    if values.shape[0] > _N_REDUCED:
        # component signs do not move squared distances or segment means
        feats = pca_fit(values, min(_N_REDUCED, n)).transform(values)
    rows = np.arange(n) // width
    cols = np.arange(n) % width
    spatial_scale = (compactness ** 2) / (n / n_segments)  # compactness^2 / S^2

    seed_r, seed_c = _seed_grid(width, height, n_segments)
    seed_idx = seed_r * width + seed_c
    center_rc = np.stack([seed_r, seed_c], axis=1).astype(np.float64)
    center_feat = feats[:, seed_idx].T.copy()

    labels = None
    for _it in range(max_iters):
        feat_d2 = cdist(feats.T, center_feat, "sqeuclidean")
        xy_d2 = (rows[:, None] - center_rc[None, :, 0]) ** 2 + (
            cols[:, None] - center_rc[None, :, 1]
        ) ** 2
        new_labels = np.argmin(feat_d2 + spatial_scale * xy_d2, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(center_rc.shape[0]):
            members = labels == k
            if not members.any():
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


def superpixel_stream(cube, seg):
    """Per-pixel stream: column i is the mean spectrum of pixel i's segment."""
    values = matrix_values(cube)
    labels = seg.labels if isinstance(seg, Segmentation) else np.asarray(seg)
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
    return FeatureMatrix(means[:, labels], SUPERPIXEL_STREAM)
