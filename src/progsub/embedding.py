"""Linear embeddings: PCA (baseline) and locality-preserving projections
(graph generalized eigenproblem), used to initialize each layer's projection.

Both fits use a fixed sign convention (the largest-magnitude entry of every
projection row is made positive) so repeated fits are bit-identical.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import InputError
from .graphs import compute_graph_gram
from .types import matrix_values

_LPP_RIDGE = 1e-8
# columns a whole-image pass takes at a time (the PCA covariance here, the
# column norms of harness.load_data): under 1 MB at 200 bands. glibc raises
# its mmap threshold to the size of a freed temporary, and memory freed
# later in the process then stays in the heap: blocks of 4096 columns
# (6.5 MB) left the fit's factor cache resident and put 4.8 MB on the scene
# peak RSS.
_PCA_BLOCK = 512
# columns LinearEmbedding.transform centers at a time. The product of a
# block has the bits of the unblocked product when every block has at least
# 4096 columns (512-column blocks differed in the last place at 5 x 200 over
# 21025 columns), so a shorter last block joins the one before it.
_TRANSFORM_BLOCK = 4096


@dataclass(frozen=True)
class LinearEmbedding:
    projection: np.ndarray   # (d_out, d_in)
    eigenvalues: np.ndarray
    mean: np.ndarray = None  # subtracted before projecting (pca only)

    def transform(self, feats):
        x = matrix_values(feats)
        if x.shape[0] != self.projection.shape[1]:
            raise InputError(
                f"embedding expects {self.projection.shape[1]} rows, got "
                f"{x.shape[0]}"
            )
        if self.mean is None:
            return self.projection @ x
        # centered in column blocks, so a whole-image transform holds no
        # centered copy of the image
        n = x.shape[1]
        edges = [start for start in range(0, n, _TRANSFORM_BLOCK)
                 if n - start >= _TRANSFORM_BLOCK] or [0]
        edges.append(n)
        out = np.empty((self.projection.shape[0], n))
        for start, stop in zip(edges, edges[1:]):
            out[:, start:stop] = self.projection @ (
                x[:, start:stop] - self.mean[:, None])
        return out


def _fix_signs(rows):
    rows = np.array(rows)
    for i in range(rows.shape[0]):
        j = int(np.argmax(np.abs(rows[i])))
        if rows[i, j] < 0:
            rows[i] = -rows[i]
    return rows


def pca_fit(x, d_out):
    """Top principal directions of the mean-centered covariance.

    Rows of the projection are orthonormal eigenvectors; eigenvalues are
    returned in nonincreasing order. The covariance uses the 1/n convention,
    so the mean squared reconstruction error of a rank-d fit equals the sum
    of the discarded eigenvalues.
    """
    values = matrix_values(x)
    d, n = values.shape
    if not (1 <= d_out <= min(d, n)):
        raise InputError(
            f"d_out must be in 1..min(d, n) = {min(d, n)}, got {d_out}"
        )
    mean = values.mean(axis=1)
    # centered in column blocks, so a whole-image fit holds no centered copy
    # of the image; one block gives the bits of the unblocked product
    cov = np.zeros((d, d))
    for start in range(0, n, _PCA_BLOCK):
        centered = values[:, start:start + _PCA_BLOCK] - mean[:, None]
        cov += centered @ centered.T
        del centered  # before the next block is allocated
    cov /= n
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals, kind="stable")[::-1][:d_out]
    projection = _fix_signs(vecs[:, order].T)
    return LinearEmbedding(projection, vals[order].copy(), mean=mean)


def lpp_fit(x, lap, deg, d_out):
    """Locality-preserving projection from a graph Laplacian.

    Rows a solve the generalized eigenproblem
        (X L X^T) a = lambda (X D X^T) a
    for the d_out smallest eigenvalues, with a small ridge added to X D X^T
    for invertibility. `deg` is the 1-D degree vector of the graph.

    When X has rank r below its row count, the problem is solved in the
    span of X, on Z = U_r' X with U_r the leading r left singular vectors
    of X, and the rows are mapped back (a = U_r a_z), as LPP does after its
    PCA step (He & Niyogi, NIPS 2003). Solved on X itself, such a problem is
    singular and its smallest eigenvalues belong to directions orthogonal
    to every column (TX = 0). At full row rank X is used as it is.
    """
    values = matrix_values(x)
    d, n = values.shape
    lap = sp.csr_matrix(lap)
    if lap.shape != (n, n):
        raise InputError(f"Laplacian has shape {lap.shape}, expected {(n, n)}")
    degrees = np.asarray(deg, dtype=np.float64)
    if degrees.shape != (n,):
        raise InputError(
            f"degree vector has shape {degrees.shape}, expected {(n,)}"
        )
    if np.any(degrees <= 0):
        raise InputError("every degree must be positive")

    rank = np.linalg.matrix_rank(values)
    if d_out > rank:
        raise InputError(
            f"d_out={d_out} exceeds the data's numerical rank; achievable "
            f"rank is {rank}"
        )
    basis = None
    if rank < d:
        basis = np.linalg.svd(values, full_matrices=False)[0][:, :rank]
        values = basis.T @ values
    a = compute_graph_gram(values, lap)
    b = (values * degrees[None, :]) @ values.T
    b = (b + b.T) / 2.0 + _LPP_RIDGE * np.eye(values.shape[0])
    vals, vecs = scipy.linalg.eigh(a, b)
    vecs = vecs[:, :d_out]
    if basis is not None:
        vecs = basis @ vecs
    projection = _fix_signs(vecs.T)
    return LinearEmbedding(projection, vals[:d_out].copy())
