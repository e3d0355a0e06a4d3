"""Count matrices for tests, built straight from (column, count) pairs."""

from __future__ import annotations

import numpy as np
from scipy import sparse


def csr(dim, rows):
    """CSR count matrix with one row per list of (column, count) pairs."""
    indptr, indices, data = [0], [], []
    for pairs in rows:
        for i, c in sorted(pairs):
            indices.append(i)
            data.append(c)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64), indptr), shape=(len(rows), dim)
    )


def pairs(X, row):
    """Row `row` of X as a tuple of (column, count) int pairs."""
    start, end = X.indptr[row], X.indptr[row + 1]
    return tuple(zip(X.indices[start:end].tolist(), X.data[start:end].astype(np.int64).tolist()))
