"""Dense exact linear algebra over GF(q).

Everything is built on reduced row echelon form with a fixed elimination
order (leftmost pivot, first nonzero row, full reduction), so canonical
forms are reproducible bit-for-bit: two matrices span the same row space
iff their RREFs are identical arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .field import Field


def as_rep_array(field: Field, data, cols: int | None = None) -> np.ndarray:
    """Validate and normalize a 2-D array of element reps."""
    a = np.asarray(data, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, cols or 0)
    if a.ndim != 2:
        raise DimensionError(f"expected 2-D data, got shape {a.shape}")
    if a.size and (a.min() < 0 or a.max() >= field.q):
        raise ValueError(f"entries outside [0, {field.q})")
    return a


def rref(field: Field, M: np.ndarray):
    """Return (R, rank, pivot_cols); R is the RREF of M, row space preserved.

    Every 32 pivots, tall inputs drop their all-zero unreduced rows, so the
    remaining pivot steps touch only live rows.
    """
    A = np.array(M, dtype=np.int64, copy=True)
    cols = A.shape[1]
    pivots: list[int] = []
    r = 0
    next_compact = 32
    for c in range(cols):
        if r == A.shape[0]:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        pv = int(A[r, c])
        if pv != 1:
            A[r] = field.mul(A[r], field.inv(pv))
        col = A[:, c].copy()
        col[r] = 0
        tgt = np.nonzero(col)[0]
        if tgt.size:
            A[tgt] = field.sub(A[tgt], field.mul(col[tgt, None], A[r][None, :]))
        pivots.append(c)
        r += 1
        if r == next_compact:
            next_compact += 32
            if A.shape[0] - r > 256:
                live = np.flatnonzero(A[r:].any(axis=1))
                if live.size < A.shape[0] - r:
                    A = np.vstack([A[:r], A[r:][live]])
    return A[: len(pivots)], len(pivots), pivots


def kernel(field: Field, M: np.ndarray) -> np.ndarray:
    """Basis (rows) of {x : M x^T = 0}; row count = cols - rank."""
    M = np.asarray(M, dtype=np.int64)
    rows, cols = M.shape
    R, rank, piv = rref(field, M)
    free = [c for c in range(cols) if c not in set(piv)]
    K = np.zeros((len(free), cols), dtype=np.int64)
    for j, f in enumerate(free):
        K[j, f] = 1
    if rank and free:
        K[:, piv] = field.neg(R[:rank, free].T)
    return K


def solve(field: Field, M: np.ndarray, b: np.ndarray):
    """Some x with M x^T = b^T, or None when the system is inconsistent."""
    M = np.asarray(M, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if b.size != M.shape[0]:
        raise DimensionError(f"rhs length {b.size} != rows {M.shape[0]}")
    aug = np.hstack([M, b[:, None]])
    R, rank, piv = rref(field, aug)
    if piv and piv[-1] == M.shape[1]:
        return None
    x = np.zeros(M.shape[1], dtype=np.int64)
    x[piv] = R[:rank, -1]
    return x


def contains(field: Field, A: np.ndarray, v: np.ndarray) -> bool:
    v = np.asarray(v, dtype=np.int64).reshape(-1)
    if v.size != A.shape[1]:
        raise DimensionError(f"vector length {v.size} != cols {A.shape[1]}")
    _, rank_a, _ = rref(field, A)
    _, rank_b, _ = rref(field, np.vstack([A, v[None, :]]))
    return rank_a == rank_b

