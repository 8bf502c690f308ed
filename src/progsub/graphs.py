"""Graph construction: kNN heat-kernel graphs, the segment-membership
alignment graph, the fused two-stream block graph, and Laplacians.

All adjacency matrices are stored sparse (CSR built from coordinate lists);
dense conversion happens only inside small solves and tests.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InputError
from .types import matrix_values

_SYM_TOL = 1e-10
# nearest_columns takes its GEMM distances in row blocks of at most this many,
# and measures its candidate pairs in batches of about this many
_BLOCK_FLOATS = 1 << 16


def _check_symmetric(w, name):
    gap = abs(w - w.T)
    if gap.count_nonzero() and gap.max() > _SYM_TOL:
        raise InputError(f"{name} is asymmetric beyond {_SYM_TOL}")


def knn_heat_graph(feats, k, sigma):
    """Heat-kernel weights over mutual-ized k-nearest-neighbor pairs.

    W[i, j] = exp(-||x_i - x_j||^2 / (2 sigma^2)) when j is one of i's k
    Euclidean nearest neighbors (never i itself; nearest_columns), then
    W <- max(W, W.T).
    """
    x = matrix_values(feats)
    n = x.shape[1]
    if not (1 <= k < n):
        raise InputError(f"need 1 <= k < n, got k={k} for n={n} samples")
    if not (sigma > 0):
        raise InputError(f"sigma must be > 0, got {sigma}")
    rows, cols, d2 = nearest_columns(x, k)
    weights = np.exp(-d2 / (2.0 * sigma * sigma))
    w = sp.csr_matrix((weights, (rows, cols)), shape=(n, n))
    w = w.maximum(w.T)
    w.eliminate_zeros()     # weights that underflow at small sigma
    return w


def nearest_columns(points, k, queries=None):
    """Each query column's k nearest columns of points, as (rows, cols, d2)
    ascending by row: query rows[i]'s neighbor cols[i] at squared distance
    d2[i] (cdist's sqeuclidean bits), the head of a stable argsort of the
    query's distances, ties to the lower column. queries=None searches the
    points against themselves, a point never its own neighbor. Needs
    1 <= k <= n for n points, and k < n when queries=None.

    GEMM ranks the columns in row blocks of at most _BLOCK_FLOATS distances;
    only candidates are measured (_candidates), in batches of row blocks
    holding about _BLOCK_FLOATS pairs, so memory grows with queries x k.
    """
    x = matrix_values(points)
    q = x if queries is None else matrix_values(queries)
    # one C-ordered copy of each, so each GEMM row block is a slice
    pts = np.ascontiguousarray(x.T)
    qts = pts if queries is None else np.ascontiguousarray(q.T)
    psq, qsq = (np.einsum("ij,ij->i", a, a) for a in (pts, qts))
    # every GEMM distance and its terms then stay below 4 max ||x||^2
    if not math.isfinite(4.0 * float(np.concatenate((psq, qsq)).max())):
        raise InputError("features must be finite, with squared column "
                         "norms below a quarter of the float64 range")
    step = max(1, _BLOCK_FLOATS // pts.shape[0])
    # an empty triple first, so that no queries give empty arrays
    kept = [(np.empty(0, np.intp),) * 2 + (np.empty(0),)]
    batch, held = [], 0
    for start in range(0, qts.shape[0], step):
        stop = min(start + step, qts.shape[0])
        which, found = _candidates(qts[start:stop], qsq[start:stop], pts,
                                   psq, k, start if queries is None else None)
        batch.append((which + start, found))
        held += found.size
        if held >= _BLOCK_FLOATS or stop == qts.shape[0]:
            kept.append(_nearest(q, x, *map(np.concatenate, zip(*batch)), k))
            batch, held = [], 0
    return tuple(map(np.concatenate, zip(*kept)))


def _candidates(block, block_sq, pts, psq, k, own_start):
    """Candidate pairs (rows, cols) of one row block of queries, rows
    counted from the block's first, ascending by row and then by column:
    the columns of pts within 2 tau (||q||^2 + max ||p||^2) of the row's
    k-th GEMM distance, which holds every column at or below its k-th
    measured distance (README, "kNN graph in BLAS time", has the bound).
    A block of the points themselves, from row own_start on, never holds a
    point's own pair; own_start is None for other queries.
    """
    gemm = block @ pts.T
    gemm *= -2.0
    gemm += block_sq[:, None]
    gemm += psq
    if own_start is not None:
        np.fill_diagonal(gemm[:, own_start:], np.inf)
    if k == 1:
        bound = gemm.min(axis=1)
    else:
        # a copy, so the partitioned block is freed before the comparison
        bound = np.partition(gemm, k - 1, axis=1)[:, k - 1].copy()
    tau = (4 * pts.shape[1] + 9) * np.finfo(np.float64).eps   # 2 (4d + 9) u
    bound += 2.0 * (tau * (block_sq + psq.max()))
    return np.nonzero(gemm <= bound[:, None])


def _nearest(q, x, rows, cols, k):
    """The first k of each query's candidate pairs (rows, cols) by
    measured distance, ties to the lower column, as (rows, cols, d2)
    ascending by row. Every row of rows[0]..rows[-1] must have at least k
    pairs."""
    d2 = _sqeuclidean(q, x, rows, cols)
    # by row, then distance, then column: each row's first k pairs are the
    # head of a stable argsort of its distances
    order = np.lexsort((cols, d2, rows))
    counts = np.bincount(rows - rows[0])
    head = np.cumsum(counts) - counts
    take = order[(head[:, None] + np.arange(k)).ravel()]
    return rows[take], cols[take], d2[take]


def _sqeuclidean(q, x, rows, cols):
    """Squared distance of each pair (column rows[i] of q, column cols[i]
    of x): squared differences summed in feature order, as scipy's
    sqeuclidean metric sums them, so with its bits."""
    d2, diff = np.zeros(rows.size), np.empty(rows.size)
    for fq, fx in zip(q, x):
        np.subtract(fq[rows], fx[cols], out=diff)
        diff *= diff
        d2 += diff
    return d2


def alignment_graph(segment_ids):
    """Binary graph linking every pair of pixels that share a segment.

    Uses per-pixel stream indexing: entry (i, j) is 1 iff pixel i and pixel j
    belong to the same segment, including i == j.
    """
    ids = np.asarray(segment_ids, dtype=np.int64).ravel()
    if ids.size == 0:
        raise InputError("segment id list is empty")
    # W = M M' for the pixel x segment membership matrix M
    segs, member = np.unique(ids, return_inverse=True)
    n = ids.size
    m = sp.csr_matrix((np.ones(n), (np.arange(n), member)),
                      shape=(n, segs.size))
    w = (m @ m.T).tocsr()
    w.sort_indices()
    return w


def compute_graph_gram(x, lap):
    """X L X' with a sparse or dense Laplacian, symmetrized."""
    if sp.issparse(lap):
        gram = x @ (lap @ x.T)
    else:
        gram = x @ np.asarray(lap) @ x.T
    return (gram + gram.T) / 2.0


def laplacian(w):
    """Combinatorial Laplacian L = D - W with D the diagonal of row sums."""
    w = sp.csr_matrix(w)
    if w.shape[0] != w.shape[1]:
        raise InputError(f"weight matrix must be square, got {w.shape}")
    if w.nnz and w.data.min() < 0:
        raise InputError("graph weights must be nonnegative")
    _check_symmetric(w, "weight matrix")
    degrees = np.asarray(w.sum(axis=1)).ravel()
    return (sp.diags(degrees) - w).tocsr()


@dataclass(frozen=True)
class GraphBundle:
    """The three n x n blocks plus the fused 2n x 2n graph and Laplacian."""

    wp: sp.csr_matrix
    wsp: sp.csr_matrix
    wa: sp.csr_matrix
    wf: sp.csr_matrix
    lf: sp.csr_matrix


def assemble_fused(wp, wsp, wa):
    """Stack the pixel, stream, and alignment blocks into the fused graph.

    Layout: [[wp, wa], [wa, wsp]]; the fused Laplacian is D - W over that
    block matrix.
    """
    wp, wsp, wa = (sp.csr_matrix(m) for m in (wp, wsp, wa))
    n = wp.shape[0]
    for name, m in (("wp", wp), ("wsp", wsp), ("wa", wa)):
        if m.shape != (n, n):
            raise InputError(f"{name} has shape {m.shape}, expected {(n, n)}")
        if m.nnz and m.data.min() < 0:
            raise InputError(f"{name} has negative weights")
        _check_symmetric(m, name)
    wf = sp.bmat([[wp, wa], [wa, wsp]], format="csr")
    return GraphBundle(wp=wp, wsp=wsp, wa=wa, wf=wf, lf=laplacian(wf))


def coordinate_dump(w):
    """Debug dump: one 'i j weight' line per stored entry, sorted by (i, j)."""
    coo = sp.coo_matrix(w)
    triples = sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    return "".join(f"{i} {j} {v!r}\n" for i, j, v in triples)
