"""Dense exact linear algebra over GF(q).

Everything is built on reduced row echelon form with a fixed elimination
order (leftmost pivot, first nonzero row, full reduction), so canonical
forms are reproducible bit-for-bit: two matrices span the same row space
iff their RREFs are identical arrays.
"""

from __future__ import annotations

import numpy as np

from .field import Field


def rref(field: Field, M: np.ndarray):
    """Return (R, rank, pivot_cols); R is the RREF of M, row space preserved.

    When column c gets its pivot, the pivot row is zero left of c: earlier
    pivot columns were cleared in it, and skipped columns were zero from the
    current rank down.  So each step touches only the columns from c on.
    """
    A = np.array(M, dtype=np.int64, copy=True)
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        pv = int(A[r, c])
        if pv != 1:
            A[r, c:] = field.mul(A[r, c:], field.inv(pv))
        col = A[:, c].copy()
        col[r] = 0
        tgt = col.nonzero()[0]
        if tgt.size:
            A[tgt, c:] = field.sub_outer(A[tgt, c:], col[tgt], A[r, c:])
        pivots.append(c)
        r += 1
    return A[:r], r, pivots


def kernel(field: Field, M: np.ndarray) -> np.ndarray:
    """Basis (rows) of {x : M x^T = 0}; row count = cols - rank."""
    M = np.asarray(M, dtype=np.int64)
    rows, cols = M.shape
    R, rank, piv = rref(field, M)
    free = sorted(set(range(cols)) - set(piv))
    K = np.zeros((len(free), cols), dtype=np.int64)
    K[range(len(free)), free] = 1
    K[:, piv] = field.neg(R[:, free].T)
    return K
