"""Seeded synthetic cubes: blobby class regions with Gaussian class
signatures plus i.i.d. spectral noise. Class areas honor equal proportions
up to rounding, and identical seeds reproduce identical bytes.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InputError


@dataclass(frozen=True)
class SyntheticSpec:
    width: int
    height: int
    bands: int
    n_classes: int
    separation: float = 1.0
    noise: float = 0.3
    blob_size: int = 5
    seed: int = 0

    def __post_init__(self):
        if min(self.width, self.height, self.bands, self.n_classes) < 1:
            raise InputError("synthetic dims and class count must be positive")
        if self.n_classes > self.width * self.height:
            raise InputError("more classes than pixels")
        if self.blob_size < 1:
            raise InputError(f"blob_size must be >= 1, got {self.blob_size}")
        if self.noise < 0 or self.separation < 0:
            raise InputError("noise and separation must be nonnegative")


def _neighbors(i, width, height):
    r, c = divmod(i, width)
    if r > 0:
        yield i - width
    if r < height - 1:
        yield i + width
    if c > 0:
        yield i - 1
    if c < width - 1:
        yield i + 1


def _grow_regions(spec, rng):
    """Quota-balanced multi-source region growing; returns 0-based class map."""
    n = spec.width * spec.height
    c = spec.n_classes
    quotas = [n // c + (1 if i < n % c else 0) for i in range(c)]
    seeds_per_class = [
        max(1, q // (spec.blob_size * spec.blob_size)) for q in quotas
    ]
    total_seeds = sum(seeds_per_class)
    seed_pixels = rng.choice(n, size=min(total_seeds, n), replace=False)

    owner = np.full(n, -1, dtype=np.int64)
    counts = [0] * c
    frontiers = [[] for _ in range(c)]
    pos = 0
    for cls in range(c):
        for _ in range(seeds_per_class[cls]):
            if pos >= seed_pixels.size or counts[cls] >= quotas[cls]:
                break
            px = int(seed_pixels[pos])
            pos += 1
            owner[px] = cls
            counts[cls] += 1
            frontiers[cls].extend(_neighbors(px, spec.width, spec.height))

    remaining = n - int((owner >= 0).sum())
    while remaining > 0:
        progressed = False
        for cls in range(c):
            if counts[cls] >= quotas[cls]:
                continue
            claimed = -1
            frontier = frontiers[cls]
            while frontier:
                k = int(rng.integers(len(frontier)))
                frontier[k], frontier[-1] = frontier[-1], frontier[k]
                cand = frontier.pop()
                if owner[cand] < 0:
                    claimed = cand
                    break
            if claimed < 0:
                free = np.flatnonzero(owner < 0)
                claimed = int(free[rng.integers(free.size)])
            owner[claimed] = cls
            counts[cls] += 1
            remaining -= 1
            frontiers[cls].extend(_neighbors(claimed, spec.width, spec.height))
            progressed = True
            if remaining == 0:
                break
        if not progressed:
            break
    return owner


def _signatures(spec, rng):
    """Per-class mean spectra: a shared smooth base plus separated offsets."""

    def smooth(v):
        return ndimage.gaussian_filter1d(v, sigma=1.5, mode="nearest")

    base = 1.0 + 0.25 * smooth(rng.standard_normal(spec.bands))
    sigs = np.zeros((spec.bands, spec.n_classes))
    for cls in range(spec.n_classes):
        z = smooth(rng.standard_normal(spec.bands))
        norm = np.linalg.norm(z)
        if norm > 0:
            z = z / norm
        sigs[:, cls] = base + spec.separation * z
    return sigs


def generate_synthetic(spec):
    """Build (cube, labels, width, height): a C-ordered float64 bands x
    pixels array and one 1-based label per pixel."""
    rng = np.random.default_rng(spec.seed)
    class_map = _grow_regions(spec, rng)
    sigs = _signatures(spec, rng)
    n = spec.width * spec.height
    values = sigs[:, class_map]
    if spec.noise > 0:
        values = values + spec.noise * rng.standard_normal((spec.bands, n))
    labels = [int(v) + 1 for v in class_map]
    return np.ascontiguousarray(values), labels, spec.width, spec.height
