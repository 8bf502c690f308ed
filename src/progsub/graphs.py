"""Graph construction: kNN heat-kernel graphs, the segment-membership
alignment graph, the fused two-stream block graph, and Laplacians.

All adjacency matrices are stored sparse (CSR built from coordinate lists);
dense conversion happens only inside small solves and tests.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .errors import InputError
from .types import matrix_values

_SYM_TOL = 1e-10
# knn_heat_graph takes its distances in row blocks of at most this many
_BLOCK_FLOATS = 1 << 16
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _check_symmetric(w, name):
    gap = abs(w - w.T)
    if gap.count_nonzero() and gap.max() > _SYM_TOL:
        raise InputError(f"{name} is asymmetric beyond {_SYM_TOL}")


def knn_heat_graph(feats, k, sigma):
    """Heat-kernel weights over mutual-ized k-nearest-neighbor pairs.

    W[i, j] = exp(-||x_i - x_j||^2 / (2 sigma^2)) when j is one of i's k
    Euclidean nearest neighbors, then W <- max(W, W.T); diagonal forced to 0.
    Distances are cdist's, neighbors are the head of a stable argsort of
    each row (ties to the lower column). Rows are searched in blocks of at
    most _BLOCK_FLOATS distances, so memory grows with n k, not n^2, and
    cdist measures only each row's candidates (_candidates).
    """
    x = matrix_values(feats)
    d, n = x.shape
    if not (1 <= k < n):
        raise InputError(f"need 1 <= k < n, got k={k} for n={n} samples")
    if not (sigma > 0):
        raise InputError(f"sigma must be > 0, got {sigma}")
    # one C-ordered copy of the points, made once: the GEMM and every row's
    # gather of its candidates read it (cdist would copy any other layout
    # on every call)
    pts = np.ascontiguousarray(x.T)
    sq = np.einsum("ij,ij->i", pts, pts)
    # every GEMM distance and its terms then stay below 4 max ||x||^2
    if not math.isfinite(4.0 * float(sq.max())):
        raise InputError("features must be finite, with squared column "
                         "norms below a quarter of the float64 range")
    slack = _candidate_slack(d) * (sq + sq.max())
    neigh = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    step = max(1, _BLOCK_FLOATS // n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        cols, d2 = _candidates(pts, sq, slack, start, stop, k)
        pos, dist[start:stop] = _nearest(d2, k)
        neigh[start:stop] = np.take_along_axis(cols, pos, axis=1)
    rows = np.repeat(np.arange(n), k)
    weights = np.exp(-dist.ravel() / (2.0 * sigma * sigma))
    w = sp.coo_matrix((weights, (rows, neigh.ravel())), shape=(n, n)).tocsr()
    w = w.maximum(w.T)
    w.setdiag(0.0)
    w.eliminate_zeros()
    return w


def _candidate_slack(d):
    """tau such that a pair's cdist value and its GEMM distance
    ||a||^2 + ||b||^2 - 2 a.b differ by at most tau (||a||^2 + ||b||^2)
    for d-dimensional points, with a margin of 2 (README, "kNN graph in BLAS
    time", has the bound)."""
    return 2.0 * (4 * d + 9) * _UNIT_ROUNDOFF


def _candidates(pts, sq, slack, start, stop, k):
    """Candidate columns of rows start..stop of the kNN search and their
    cdist distances: (cols, d2), both (rows, widest row), ascending by
    column in each row and padded with column n at distance inf.

    GEMM ranks every column; a row's candidates are the columns within
    2 slack (slack = tau (||a||^2 + max ||b||^2)) of its k-th GEMM
    distance, which holds every column at or below its k-th cdist
    distance. The point itself is never a candidate.
    """
    n = pts.shape[0]
    rows = np.arange(stop - start)
    gemm = pts[start:stop] @ pts.T
    gemm *= -2.0
    gemm += sq[start:stop, None]
    gemm += sq
    gemm[rows, rows + start] = np.inf
    bound = np.partition(gemm, k - 1, axis=1)[:, k - 1]
    bound += 2.0 * slack[start:stop]
    which, found = np.nonzero(gemm <= bound[:, None])
    del gemm
    counts = np.bincount(which, minlength=rows.size)
    first = np.cumsum(counts) - counts
    cols = np.full((rows.size, counts.max()), n)
    cols[which, np.arange(found.size) - first[which]] = found
    d2 = np.full(cols.shape, np.inf)
    for i, (lo, m) in enumerate(zip(first.tolist(), counts.tolist())):
        cdist(pts[start + i:start + i + 1], pts[found[lo:lo + m]],
              "sqeuclidean", out=d2[i:i + 1, :m])
    return cols, d2


def _nearest(d2, k):
    """Columns and values of the k smallest entries of each row of d2, the
    first k of a stable argsort: by value, ties to the lower index."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    below = d2 < kth
    # every entry below the k-th value is taken; of those equal to it, the
    # lowest-indexed ones fill the row
    tied = d2 == kth
    room = k - np.count_nonzero(below, axis=1)[:, None]
    take = below | (tied & (np.cumsum(tied, axis=1) <= room))
    cols = np.nonzero(take)[1].reshape(-1, k)     # ascending in each row
    vals = np.take_along_axis(d2, cols, axis=1)
    order = np.argsort(vals, axis=1, kind="stable")
    return (np.take_along_axis(cols, order, axis=1),
            np.take_along_axis(vals, order, axis=1))


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

    @property
    def fused_degrees(self):
        return np.asarray(self.wf.sum(axis=1)).ravel()


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
