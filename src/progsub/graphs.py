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
# knn_heat_graph takes its GEMM distances in row blocks of at most this many,
# and measures its candidate pairs in batches of about this many
_BLOCK_FLOATS = 1 << 16
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _check_symmetric(w, name):
    gap = abs(w - w.T)
    if gap.count_nonzero() and gap.max() > _SYM_TOL:
        raise InputError(f"{name} is asymmetric beyond {_SYM_TOL}")


def knn_heat_graph(feats, k, sigma):
    """Heat-kernel weights over mutual-ized k-nearest-neighbor pairs.

    W[i, j] = exp(-||x_i - x_j||^2 / (2 sigma^2)) when j is one of i's k
    Euclidean nearest neighbors (never i itself), then W <- max(W, W.T).
    Neighbors are the head of a stable argsort of each row's distances
    (_sqeuclidean), ties to the lower column. GEMM ranks the columns in row
    blocks of at most _BLOCK_FLOATS distances and only candidates are
    measured (_candidates), in batches of consecutive row blocks holding
    about _BLOCK_FLOATS pairs, so memory grows with n k, not n^2.
    """
    x = matrix_values(feats)
    d, n = x.shape
    if not (1 <= k < n):
        raise InputError(f"need 1 <= k < n, got k={k} for n={n} samples")
    if not (sigma > 0):
        raise InputError(f"sigma must be > 0, got {sigma}")
    # one C-ordered copy of the points, so each GEMM row block is a slice
    pts = np.ascontiguousarray(x.T)
    sq = np.einsum("ij,ij->i", pts, pts)
    # every GEMM distance and its terms then stay below 4 max ||x||^2
    if not math.isfinite(4.0 * float(sq.max())):
        raise InputError("features must be finite, with squared column "
                         "norms below a quarter of the float64 range")
    slack = _candidate_slack(d) * (sq + sq.max())
    step = max(1, _BLOCK_FLOATS // n)
    kept, batch, held = [], [], 0
    for start in range(0, n, step):
        stop = min(start + step, n)
        batch.append(_candidates(pts, sq, slack, start, stop, k))
        held += batch[-1][0].size
        if held >= _BLOCK_FLOATS or stop == n:
            kept.append(_nearest(x, *map(np.concatenate, zip(*batch)), k))
            batch, held = [], 0
    rows, cols, d2 = map(np.concatenate, zip(*kept))
    weights = np.exp(-d2 / (2.0 * sigma * sigma))
    w = sp.csr_matrix((weights, (rows, cols)), shape=(n, n))
    w = w.maximum(w.T)
    w.eliminate_zeros()     # weights that underflow at small sigma
    return w


def _candidate_slack(d):
    """tau with |_sqeuclidean - (||a||^2 + ||b||^2 - 2 a.b)| <= tau (||a||^2
    + ||b||^2) for d-dimensional points a, b, with a margin of 2 (README,
    "kNN graph in BLAS time", has the bound)."""
    return 2.0 * (4 * d + 9) * _UNIT_ROUNDOFF


def _candidates(pts, sq, slack, start, stop, k):
    """Candidate pairs (rows, cols) of rows start..stop of the kNN search,
    ascending by row and then by column.

    GEMM ranks every column; a row's candidates are the columns within
    2 slack (slack = tau (||a||^2 + max ||b||^2)) of its k-th GEMM
    distance, which holds every column at or below its k-th measured
    distance. The point itself is never a candidate.
    """
    gemm = pts[start:stop] @ pts.T
    gemm *= -2.0
    gemm += sq[start:stop, None]
    gemm += sq
    np.fill_diagonal(gemm[:, start:], np.inf)
    bound = np.partition(gemm, k - 1, axis=1)[:, k - 1]
    bound += 2.0 * slack[start:stop]
    which, found = np.nonzero(gemm <= bound[:, None])
    return which + start, found


def _nearest(x, rows, cols, k):
    """The first k of each row's candidate pairs (rows, cols) by measured
    distance, ties to the lower column, as (rows, cols, d2) ascending by
    row. Every row of rows[0]..rows[-1] must have at least k pairs."""
    d2 = _sqeuclidean(x, rows, cols)
    # by row, then distance, then column: each row's first k pairs are the
    # head of a stable argsort of its distances
    order = np.lexsort((cols, d2, rows))
    counts = np.bincount(rows - rows[0])
    head = np.cumsum(counts) - counts
    take = order[(head[:, None] + np.arange(k)).ravel()]
    return rows[take], cols[take], d2[take]


def _sqeuclidean(x, rows, cols):
    """Squared distance of each pair of columns (rows[i], cols[i]) of x:
    squared differences summed in feature order, as scipy's sqeuclidean
    metric sums them, so with its bits."""
    d2, diff = np.zeros(rows.size), np.empty(rows.size)
    for f in x:
        np.subtract(f[rows], f[cols], out=diff)
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
