"""Matrix permanent kernels.

Two deliberately independent routes:

* ``naive``   - literal sum over all n! permutations, the definitional
  oracle.  Capped at n <= 9.
* ``ryser``   - Ryser's inclusion-exclusion formula, O(2^n * n), in numpy.
  Capped at n <= 24.

The Ryser kernel is the one production route of ``permanent``; the Fock
lift computes no permanents (``fock.lift_unitary`` builds each sector from
the one below it).  The kernel takes one matrix and splits its columns in
two.  The row sums of every subset of the inner columns are tabulated at
once (2^n subsets for small n, 2^8 at n = 20); the outer columns are walked
in Gray-code order (Nijenhuis & Wilf 1978), adding or removing one column
per step and reducing the whole inner table at each.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidInputError, ResourceLimitError

__all__ = ["permanent", "NAIVE_MAX_N", "RYSER_MAX_N"]

NAIVE_MAX_N = 9
RYSER_MAX_N = 24

# Complex entries in one block of the subset table (2^13 x 16 B = 128 KiB).
# The tabulated columns are as many as fit one block.  fock.lift_unitary
# bounds its row chunks by the same block.
_BLOCK_ENTRIES = 1 << 13


def _ryser(mat: np.ndarray) -> complex:
    """Permanent of an (n, n) complex matrix.

    Per(A) = (-1)^n * sum_S (-1)^|S| prod_i sum_{j in S} a_ij over all
    column subsets S.  The row sums over subsets of the first lo columns
    form an (n, 2^lo) table, built by doubling: the subsets containing
    column j are those without it plus column j.  Step t of the Gray walk
    over the other columns adds or removes one column, so the outer subset
    has the parity of t.
    """
    n = mat.shape[0]
    lo = min(n, (_BLOCK_ENTRIES // max(n, 1)).bit_length() - 1)
    signs = np.ones(1 << lo)  # (-1)^|S|, bit j of S meaning column j
    for j in range(lo):
        signs[1 << j:2 << j] = -signs[:1 << j]
    cols = mat.T[:, :, None]  # (column, row, 1)
    sums = np.zeros((n, 1 << lo), dtype=complex)
    for j in range(lo):
        np.add(sums[:, :1 << j], cols[j], out=sums[:, 1 << j:2 << j])
    outer = np.zeros((n, 1), dtype=complex)
    total = 0j
    for t in range(1 << (n - lo)):
        if t:
            j = (t & -t).bit_length() - 1
            if (t ^ (t >> 1)) >> j & 1:
                outer += cols[lo + j]
            else:
                outer -= cols[lo + j]
        term = ((sums + outer).prod(axis=0) * signs).sum()
        if (n + t) & 1:
            total -= term
        else:
            total += term
    return complex(total)


# Cached permutation index tables for the naive kernel, keyed by n.
_PERM_TABLES: dict[int, np.ndarray] = {}


def _naive(mat: np.ndarray) -> complex:
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    perms = _PERM_TABLES.get(n)
    if perms is None:
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        _PERM_TABLES[n] = perms
    rows = np.arange(n)
    return complex(mat[rows, perms].prod(axis=1).sum())


def permanent(mat: np.ndarray, algorithm: str = "ryser") -> complex:
    """Permanent of a square complex matrix.

    Parameters
    ----------
    mat : (n, n) array_like
        Square matrix; the empty 0 x 0 matrix has permanent 1.
    algorithm : {"ryser", "naive"}
        Kernel choice.  Both agree to floating rounding; "naive" exists as
        the independent definitional oracle.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInputError(f"permanent expects a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    if algorithm == "naive":
        if n > NAIVE_MAX_N:
            raise ResourceLimitError(f"naive permanent capped at n <= {NAIVE_MAX_N}, got n = {n}")
        return _naive(mat)
    if algorithm == "ryser":
        if n > RYSER_MAX_N:
            raise ResourceLimitError(f"ryser permanent capped at n <= {RYSER_MAX_N}, got n = {n}")
        return _ryser(mat)
    raise InvalidInputError(f"unknown permanent algorithm {algorithm!r}")
