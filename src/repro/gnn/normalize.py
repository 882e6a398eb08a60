"""Adjacency normalization for graph convolution.

Kipf & Welling propagation: ``A_hat = D^{-1/2} (A + I) D^{-1/2}``.
Self-loops are added only to *active* nodes so that padded (or pruned)
nodes — zero features, zero edges — stay exactly inert through Φ_e.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

from repro.nn.sparse import CSRMatrix

__all__ = ["EdgeStructure", "normalized_adjacency", "normalized_adjacency_csr"]


def normalized_adjacency(
    adjacency: np.ndarray, active_mask: np.ndarray | None = None
) -> np.ndarray:
    """Symmetrically normalized adjacency with masked self-loops.

    Parameters
    ----------
    adjacency:
        Weighted adjacency ``A ∈ {0,1,2}^{N×N}`` (call edges weigh 2).
    active_mask:
        Boolean vector of length N; ``False`` rows get no self-loop.
        Defaults to all-active.
    """
    adjacency, active = _validated(adjacency, active_mask)

    # Symmetrize: GCN message passing treats control-flow edges as
    # bidirectional information channels, as PyG's GCNConv does for
    # directed inputs.  Weights (1 jump / 2 call) are preserved.
    symmetric = np.maximum(adjacency, adjacency.T)
    with_loops = symmetric + np.diag(active.astype(np.float64))

    degree = with_loops.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    return with_loops * inv_sqrt[:, None] * inv_sqrt[None, :]


def _validated(
    adjacency: np.ndarray, active_mask: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    adjacency = np.asarray(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    if active_mask is None:
        return adjacency, np.ones(n, dtype=bool)
    active = np.asarray(active_mask, dtype=bool)
    if active.shape != (n,):
        raise ValueError(f"mask shape {active.shape} != ({n},)")
    return adjacency, active


def _with_loops(adjacency: np.ndarray, active: np.ndarray) -> "_sp.csr_matrix":
    """Symmetrized ``A`` plus self-loops on active nodes, unscaled CSR."""
    n = adjacency.shape[0]
    rows, cols = np.nonzero(adjacency)
    sparse = _sp.csr_matrix(
        (adjacency[rows, cols], (rows, cols)), shape=(n, n), dtype=np.float64
    )
    symmetric = sparse.maximum(sparse.T.tocsr()).tocsr()
    return (symmetric + _sp.diags(active.astype(np.float64), format="csr")).tocsr()


def _scale_symmetric(
    data: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> None:
    """``data ← D^{-1/2} W D^{-1/2}`` in place for a CSR ``W``.

    The one edge-list normalizer behind every CSR Â.  The degree is a
    ``reduceat`` over each non-empty row — the reduction scipy's
    ``csr_matrix.sum(axis=1)`` performs — and rows are scaled before
    columns, the ``(w * r) * c`` order of the dense reference.  Entries
    stored as explicit zeros stay zero; edge weights are small integers,
    so the degree is exact whether or not such zeros sit in a row.
    """
    counts = np.diff(indptr)
    degree = np.zeros(counts.shape[0])
    nonempty = counts > 0
    degree[nonempty] = np.add.reduceat(data, indptr[:-1][nonempty])
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    data *= np.repeat(inv_sqrt, counts)
    data *= inv_sqrt[indices]


def normalized_adjacency_csr(
    adjacency: np.ndarray, active_mask: np.ndarray | None = None
) -> "_sp.csr_matrix":
    """:func:`normalized_adjacency` computed directly in CSR form.

    The dense reference materializes three O(N²) intermediates
    (symmetrized matrix, self-loop sum, scaled product); this path
    scans the dense input once for its nonzeros and does everything
    else on the O(nnz) sparse structure — the form the batched engine
    packs into block-diagonal matrices, so Â is never round-tripped
    through a second dense materialization.  Equivalent to the dense
    reference to within last-ulp summation-order effects in the degree
    (≪ 1e-8; ``tests/test_kernel_backend.py`` pins it down).
    """
    adjacency, active = _validated(adjacency, active_mask)
    with_loops = _with_loops(adjacency, active)
    _scale_symmetric(with_loops.data, with_loops.indptr, with_loops.indices)
    return with_loops


class EdgeStructure:
    """One graph's Â under node pruning, re-weighted in place per rung.

    Algorithm 2 re-embeds the same graph about ten times, each time
    with the edges of some nodes removed.  The symmetrized edge
    structure — every edge of ``A`` plus a diagonal slot per active
    node — is built once; :meth:`normalized` only rewrites the data
    array for a ``keep`` mask, so a rung makes no scipy constructor
    call, no O(N²) pass and no content hash.  The result equals
    ``normalized_adjacency_csr(A * keep keepᵀ, active_mask)`` bit for
    bit once its explicit zeros (the pruned entries) are eliminated:
    self-loops stay on every active node, pruned or not, exactly as
    zeroing ``A``'s rows and columns leaves them.
    """

    def __init__(self, adjacency: np.ndarray, active_mask: np.ndarray | None = None):
        adjacency, active = _validated(adjacency, active_mask)
        self.matrix = _with_loops(adjacency, active)
        rows = np.repeat(
            np.arange(adjacency.shape[0]), np.diff(self.matrix.indptr)
        )
        cols = self.matrix.indices
        self._rows = rows
        self._weights = np.maximum(adjacency[rows, cols], adjacency[cols, rows])
        self._loops = ((rows == cols) & active[rows]).astype(np.float64)

    def normalized(self, keep: np.ndarray) -> CSRMatrix:
        """Â with every edge touching a node outside ``keep`` removed.

        The returned matrix shares this structure's buffers: it is
        valid until the next call.
        """
        data = self.matrix.data
        np.multiply(
            self._weights, keep[self._rows] & keep[self.matrix.indices], out=data
        )
        data += self._loops
        _scale_symmetric(data, self.matrix.indptr, self.matrix.indices)
        return CSRMatrix(self.matrix)
