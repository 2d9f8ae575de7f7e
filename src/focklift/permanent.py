"""Matrix permanent kernels.

Two deliberately independent routes:

* ``naive``   - literal sum over all n! permutations, the definitional
  oracle.  Capped at n <= 9.
* ``ryser``   - Ryser's formula in half-sum form (Nijenhuis & Wilf 1978;
  Glynn 2010), 2^(n-1) products of n row sums, in numpy.  Capped at n <= 24.

The Ryser kernel is the one production route of ``permanent``; the Fock
lift computes no permanents (``fock.lift_unitary`` builds each sector from
the one below it).  The kernel splits the columns after the first in two.
The signed row sums of every sign pattern of the inner columns are
tabulated at once (2^(n-1) patterns for small n, 2^9 at n = 20); the outer
columns are walked in Gray-code order, each step updating the whole table
in place and adding its signed column products into one accumulator, which
one dot with the inner signs closes.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .linalg import _as_square

__all__ = ["permanent"]

NAIVE_MAX_N = 9
RYSER_MAX_N = 24

# Complex entries in one block of the sign table (2^14 x 16 B = 256 KiB).
# The tabulated columns are as many as fit one block: 2^9 at n = 20.
_BLOCK_ENTRIES = 1 << 14


def _ryser(mat: np.ndarray) -> complex:
    """Permanent of an (n, n) complex matrix.

    Per(A) = 2^-(n-1) sum_d (prod_k d_k) prod_i sum_j d_j a_ij over sign
    vectors d with d_0 = +1.  The sums run along rows, so rows scaled by
    1e200 and 1e-200 cancel in the product.  The sums for every pattern of
    columns 1..lo form an (n, 2^lo) table, built by doubling from d = +1:
    d_j = -1 is d_j = +1 minus twice column j.  Step t of the Gray walk
    over the other columns flips one sign in place, so the outer signs
    multiply to the parity of t; its products add into a (2^lo,) sum, one
    entry per inner pattern, dotted with the inner signs at the end.  The
    walk's three lowest columns, flipped by 7 of every 8 steps, are added as
    contiguous (n, 2^lo) copies, not as broadcast (n, 1) columns.
    """
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    lo = min(n - 1, (_BLOCK_ENTRIES // n).bit_length() - 1)
    signs = np.ones(1 << lo, dtype=complex)  # prod_k d_k over columns 1..lo
    sums = np.empty((n, 1 << lo), dtype=complex)
    sums[:, 0] = mat.sum(axis=1)
    twice = 2 * mat.T[:, :, None]  # (column, row, 1)
    for j in range(lo):
        np.subtract(sums[:, :1 << j], twice[1 + j], out=sums[:, 1 << j:2 << j])
        signs[1 << j:2 << j] = -signs[:1 << j]
    walk = list(twice[lo + 1:])
    walk[:3] = [np.broadcast_to(c, sums.shape).copy() for c in walk[:3]]
    acc = sums.prod(axis=0)
    for t in range(1, 1 << (n - 1 - lo)):
        j = (t & -t).bit_length() - 1
        if (t ^ (t >> 1)) >> j & 1:
            sums -= walk[j]
        else:
            sums += walk[j]
        if t & 1:
            acc -= sums.prod(axis=0)
        else:
            acc += sums.prod(axis=0)
    return complex(acc @ signs) / (1 << (n - 1))


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
        Finite square matrix (else ``InvalidInputError``); the empty 0 x 0
        matrix has permanent 1.
    algorithm : {"ryser", "naive"}
        "ryser", Ryser's formula in half-sum form (2^(n-1) terms), or the
        independent definitional oracle "naive".  Both agree to floating
        rounding.  Past a route's size cap, or when the permanent of finite
        entries overflows float64, ``ResourceLimitError`` is raised.
    """
    mat = _as_square(mat, "permanent matrix")
    if algorithm not in ("naive", "ryser"):
        raise InvalidInputError(f"unknown permanent algorithm {algorithm!r}")
    n = mat.shape[0]
    kernel, cap = (_naive, NAIVE_MAX_N) if algorithm == "naive" else (_ryser, RYSER_MAX_N)
    if n > cap:
        raise ResourceLimitError(f"{algorithm} permanent capped at n <= {cap}, got n = {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = kernel(mat)
    if not np.isfinite(value):
        raise ResourceLimitError(f"{algorithm} permanent overflows float64 at n = {n}")
    return value
