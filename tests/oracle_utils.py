"""Independent numerical oracles used across the test suite.

The closed-form solver updates are checked against minimizers recovered from
the *objective functions alone*: for an exactly-quadratic objective the
Hessian and linear term are reassembled from function evaluations on basis
vectors, then the stationary point is solved densely. Constrained blocks use
scipy optimizers on top of the same machinery. None of this shares code with
the library's update formulas.

The reference split and folds are the list-based forms that the array
versions in the harness replaced; both must give the same indices in the
same order.

The reference kNN graph measures every pair with cdist, block by block,
and takes the head of each row's stable argsort as its k nearest; the
library's search, which measures only each row's candidates and picks
them by one lexsort, must give the same graph bit for bit.

The reference fold score is the cross-validation scoring that the harness
replaced by its run path: it embeds a fold's fit and validation columns
separately, classifies the validation columns alone and counts the hits by
hand. The harness labels every pixel and reads oa from the confusion
matrix; both must give the same score bit for bit.

The reference SLIC is the dense full-search implementation: every pixel is
scored against every center through N x K matrices (`reference_assign`),
and the orphan merge labels the whole grid once per segment. The library's
cell-index search must return the same labels bit for bit.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from scipy import ndimage, optimize
from scipy.spatial.distance import cdist

from progsub.embedding import pca_fit
from progsub.errors import InputError
from progsub.harness import _fit_method
from progsub.metrics import nn_classify
from progsub.superpixels import _N_REDUCED, Segmentation, _seed_grid
from progsub.types import SampleSplit, matrix_values


def assemble_quadratic(f, shape):
    """Recover (A, b, c) with f(x) = 0.5 x'Ax + b'x + c from evaluations.

    Exact (up to rounding) whenever f really is quadratic in the entries of
    its matrix argument.
    """
    nvar = shape[0] * shape[1]

    def fv(vec):
        return float(f(vec.reshape(shape)))

    c = fv(np.zeros(nvar))
    a = np.zeros((nvar, nvar))
    b = np.zeros(nvar)
    f_plus = np.zeros(nvar)
    for i in range(nvar):
        e = np.zeros(nvar)
        e[i] = 1.0
        f_plus[i] = fv(e)
        f_minus = fv(-e)
        a[i, i] = f_plus[i] + f_minus - 2.0 * c
        b[i] = (f_plus[i] - f_minus) / 2.0
    for i in range(nvar):
        for j in range(i + 1, nvar):
            e = np.zeros(nvar)
            e[i] = 1.0
            e[j] = 1.0
            a[i, j] = a[j, i] = fv(e) - f_plus[i] - f_plus[j] + c
    return a, b, c


def quadratic_minimizer(f, shape):
    """Unconstrained minimizer of an exactly-quadratic matrix objective."""
    a, b, _ = assemble_quadratic(f, shape)
    return np.linalg.solve(a, -b).reshape(shape)


def nonneg_quadratic_minimizer(f, shape):
    """Minimizer of a quadratic objective over the nonnegative orthant."""
    a, b, c = assemble_quadratic(f, shape)
    nvar = shape[0] * shape[1]

    def fun(x):
        return 0.5 * x @ a @ x + b @ x + c

    def jac(x):
        return a @ x + b

    x0 = np.maximum(np.linalg.solve(a, -b), 0.0)
    res = optimize.minimize(
        fun, x0, jac=jac, method="L-BFGS-B",
        bounds=[(0.0, None)] * nvar,
        options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-12},
    )
    return res.x.reshape(shape)


def ball_quadratic_minimizer(f, shape):
    """Column-separable quadratic minimized under per-column unit-ball
    constraints (SLSQP per column; other columns held at zero only shift
    the objective by a constant)."""
    d, n = shape
    out = np.zeros(shape)
    for k in range(n):
        def fun(col, k=k):
            m = np.zeros(shape)
            m[:, k] = col
            return float(f(m))

        res = optimize.minimize(
            fun, np.zeros(d), method="SLSQP",
            constraints=[{"type": "ineq",
                          "fun": lambda col: 1.0 - float(col @ col)}],
            options={"maxiter": 400, "ftol": 1e-14},
        )
        out[:, k] = res.x
    return out


def fd_gradient_norm(f, x, h=1e-5):
    """Central finite-difference gradient norm of f at matrix point x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros(x.size)
    flat = x.ravel()
    for i in range(flat.size):
        step = np.zeros(flat.size)
        step[i] = h
        grad[i] = (f((flat + step).reshape(x.shape))
                   - f((flat - step).reshape(x.shape))) / (2.0 * h)
    return float(np.linalg.norm(grad))


def random_laplacian(rng, n, density=0.4):
    """Laplacian of a random symmetric nonnegative weight matrix."""
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w = np.triu(w, 1)
    w = w + w.T
    return np.diag(w.sum(axis=1)) - w


def frob_rel_err(got, want):
    denom = max(np.linalg.norm(want), 1e-12)
    return float(np.linalg.norm(got - want) / denom)


def reference_knn_heat_graph(x, k, sigma, block_floats=1 << 16):
    """knn_heat_graph by cdist over all columns, in row blocks of at most
    block_floats distances: the search before candidates were filtered."""
    n = x.shape[1]
    pts = x.T
    neigh = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    step = max(1, block_floats // n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        d2 = cdist(pts[start:stop], pts, "sqeuclidean")
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        neigh[start:stop] = np.argsort(d2, axis=1, kind="stable")[:, :k]
        dist[start:stop] = np.take_along_axis(d2, neigh[start:stop], axis=1)
    rows = np.repeat(np.arange(n), k)
    weights = np.exp(-dist.ravel() / (2.0 * sigma * sigma))
    w = sp.coo_matrix((weights, (rows, neigh.ravel())), shape=(n, n)).tocsr()
    w = w.maximum(w.T)
    w.setdiag(0.0)
    w.eliminate_zeros()
    return w


def reference_merge_orphans(grid):
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


def reference_assign(feats, width, center_rc, center_feat, spatial_scale):
    """Nearest center of every pixel by a full search over N x K matrices;
    `center_rc` is (K, 2) rows and columns, `center_feat` (K, d)."""
    n = feats.shape[1]
    rows = np.arange(n) // width
    cols = np.arange(n) % width
    feat_d2 = cdist(feats.T, center_feat, "sqeuclidean")
    xy_d2 = (rows[:, None] - center_rc[None, :, 0]) ** 2 + (
        cols[:, None] - center_rc[None, :, 1]
    ) ** 2
    return np.argmin(feat_d2 + spatial_scale * xy_d2, axis=1)


def reference_slic_segment(cube, width, height, n_segments, compactness=10.0, max_iters=10):
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
        new_labels = reference_assign(feats, width, center_rc, center_feat,
                                      spatial_scale)
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
    grid = reference_merge_orphans(grid)
    labels = grid.ravel()
    # relabel to a contiguous 0-based range, ascending by old id
    old_ids = np.unique(labels)
    remap = np.full(old_ids.max() + 1, -1, dtype=np.int64)
    remap[old_ids] = np.arange(old_ids.size)
    return Segmentation(remap[labels], old_ids.size)


def reference_make_split(labels, train_per_class, unlabeled_fraction, rng):
    """List-based stratified split; returns sorted (train, test, unlabeled)
    tuples of Python ints."""
    labels = np.asarray(list(labels), dtype=np.int64)
    train, test, unlabeled = [], [], list(np.flatnonzero(labels == 0))
    for cls in sorted(set(labels[labels > 0].tolist())):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        take = min(train_per_class, idx.size)
        train.extend(int(i) for i in idx[:take])
        rest = idx[take:]
        n_hide = int(round(unlabeled_fraction * rest.size))
        unlabeled.extend(int(i) for i in rest[:n_hide])
        test.extend(int(i) for i in rest[n_hide:])
    return (tuple(sorted(train)), tuple(sorted(test)),
            tuple(int(i) for i in sorted(unlabeled)))


def reference_stratified_folds(labels, train_idx, n_folds, rng):
    """List-based per-class round-robin folds: sorted lists of Python ints,
    empty folds dropped."""
    fold_of = {}
    for cls in sorted(set(int(labels[i]) for i in train_idx)):
        members = np.asarray([i for i in train_idx if labels[i] == cls])
        members = members[rng.permutation(members.size)]
        for j, i in enumerate(members):
            fold_of[int(i)] = j % n_folds
    folds = [[] for _ in range(n_folds)]
    for i in sorted(fold_of):
        folds[fold_of[i]].append(i)
    return [f for f in folds if f]


def reference_cv_score(config, data, hyper, folds):
    """Mean held-out-fold oa: fit on each fold's complement, embed its fit
    and validation columns separately, label the validation columns by
    their nearest fit column and count the hits."""
    oas = []
    all_idx = np.concatenate(folds)
    for val_idx in folds:
        fit_idx = np.setdiff1d(all_idx, val_idx)
        if fit_idx.size == 0:
            continue
        k = hyper.knn_k
        if k >= fit_idx.size:
            k = max(1, fit_idx.size - 1)
        fold = replace(data, split=SampleSplit(fit_idx, val_idx))
        embed, _, _ = _fit_method(config, fold, replace(hyper, knn_k=k))
        train_emb = embed(data.cube[:, fit_idx])
        val_emb = embed(data.cube[:, val_idx])
        preds = nn_classify(train_emb, data.labels[fit_idx], val_emb)
        oas.append(float((preds == data.labels[val_idx]).mean()))
    return float(np.mean(oas))
