import importlib
import math
import warnings

import numpy as np
import pytest

from focklift.errors import InvalidInputError, ResourceLimitError
from focklift.linalg import haar_random_unitary
from focklift.permanent import NAIVE_MAX_N, RYSER_MAX_N, permanent

ALGOS = ("naive", "ryser")


@pytest.mark.parametrize("algorithm", ALGOS)
def test_small_closed_forms(algorithm):
    assert permanent(np.array([[2.5 + 1j]]), algorithm=algorithm) == pytest.approx(2.5 + 1j)
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    # per([[a, b], [c, d]]) = ad + bc
    assert permanent(m, algorithm=algorithm) == pytest.approx(10)
    m3 = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=complex)
    assert permanent(m3, algorithm=algorithm) == pytest.approx(450)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_identity_and_ones(algorithm):
    for n in range(1, 7):
        assert permanent(np.eye(n), algorithm=algorithm) == pytest.approx(1)
        assert permanent(np.ones((n, n)), algorithm=algorithm) == pytest.approx(math.factorial(n))


def test_empty_matrix():
    assert permanent(np.zeros((0, 0))) == pytest.approx(1)
    assert permanent(np.zeros((0, 0)), algorithm="naive") == pytest.approx(1)


def test_routes_agree_on_random_matrices():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(30):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = permanent(m, algorithm="naive")
            b = permanent(m, algorithm="ryser")
            worst = max(worst, abs(a - b) / max(abs(a), 1e-30))
    assert worst < 1e-10


def test_permutation_and_transpose_invariance():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    p = permanent(m)
    assert permanent(m[::-1]) == pytest.approx(p)
    assert permanent(m[:, ::-1]) == pytest.approx(p)
    assert permanent(m.T) == pytest.approx(p)


def test_row_scaling_multiplies():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    scaled = m.copy()
    scaled[2] *= 3.0 - 1.0j
    assert permanent(scaled) == pytest.approx((3.0 - 1.0j) * permanent(m))


def test_expansion_along_first_row():
    # per(A) = sum_j a_0j * per(A without row 0, column j)
    rng = np.random.default_rng(10)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    acc = 0.0 + 0.0j
    rest = np.delete(m, 0, axis=0)
    for j in range(5):
        acc += m[0, j] * permanent(np.delete(rest, j, axis=1))
    assert acc == pytest.approx(permanent(m))


def test_size_caps_and_validation():
    with pytest.raises(ResourceLimitError):
        permanent(np.eye(NAIVE_MAX_N + 1), algorithm="naive")
    with pytest.raises(ResourceLimitError):
        permanent(np.eye(RYSER_MAX_N + 1), algorithm="ryser")
    with pytest.raises(InvalidInputError):
        permanent(np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        permanent(np.ones(4))
    with pytest.raises(InvalidInputError):
        permanent(np.eye(2), algorithm="fastest")


def test_ryser_handles_moderate_sizes():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(12, 12))
    # cross-check through the expansion identity, which only needs n = 11
    acc = 0.0 + 0.0j
    rest = np.delete(m, 0, axis=0)
    for j in range(12):
        acc += m[0, j] * permanent(np.delete(rest, j, axis=1))
    assert acc == pytest.approx(permanent(m), rel=1e-9)


def test_ryser_at_n_20():
    # a rank-one u v^T has per = n! prod(u) prod(v); v's phases spread evenly
    # round the circle, so no subset sum of v is large and the sum cancels little
    n = 20
    rng = np.random.default_rng(16)
    u = rng.uniform(0.9, 1.1, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    v = rng.uniform(0.9, 1.1, n) * np.exp(2j * np.pi * rng.permutation(n) / n)
    want = math.factorial(n) * np.prod(u) * np.prod(v)
    assert abs(permanent(np.outer(u, v)) - want) <= 1e-10 * abs(want)
    # |per(A)| <= ||A||_2^n, and a Haar block's permanent is not 0
    a = haar_random_unitary(2 * n, 16)[:n, :n]
    assert 0 < abs(permanent(a)) <= np.linalg.norm(a, 2) ** n


def _kernel_matches_naive(monkeypatch, block, seed):
    kernel = importlib.import_module("focklift.permanent")
    monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(seed)
    for n in range(0, 9):
        for _ in range(7):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            want = permanent(m, algorithm="naive")
            assert abs(kernel._ryser(m) - want) / abs(want) < 1e-10


def test_kernel_gray_walk_matches_naive(monkeypatch):
    # a tiny block forces the Gray walk over most columns, so it runs at
    # sizes the naive oracle reaches: six at n = 8, so that both the copied
    # lowest three walk columns and the broadcast ones are added
    _kernel_matches_naive(monkeypatch, 16, seed=12)


def test_kernel_single_table_matches_naive(monkeypatch):
    # a huge block tabulates every column after the first: no Gray walk
    _kernel_matches_naive(monkeypatch, 1 << 30, seed=13)


def _extended_permanent(mat):
    """Half-sum Ryser formula in np.clongdouble with no running sums: a
    table over the sign patterns of columns 1..k, and one direct matrix
    product for the patterns of the other columns."""
    a = np.asarray(mat).astype(np.clongdouble)
    n = a.shape[0]
    k = min(n - 1, 10)

    def patterns(m):  # every d in {+1, -1}^m, one per row, and prod(d)
        d = 1 - 2 * ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1)
        return d, d.prod(axis=1)

    d_in, s_in = patterns(k)
    d_out, s_out = patterns(n - 1 - k)
    inner = a[:, :1] + a[:, 1:1 + k] @ d_in.T
    outer = a[:, 1 + k:] @ d_out.T
    total = sum(s * (np.prod(inner + outer[:, t:t + 1], axis=0) @ s_in)
                for t, s in enumerate(s_out))
    return total / np.longdouble(2) ** (n - 1)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("n", [16, 18])
def test_ryser_matches_extended_precision(n):
    # The top-left block of a Haar unitary has a permanent far smaller
    # than its largest terms, so the alternating sum cancels hard.
    rng = np.random.default_rng(14)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    want = permanent(m, algorithm="naive")
    assert abs(complex(_extended_permanent(m)) - want) / abs(want) < 1e-14
    for seed in range(4):
        a = haar_random_unitary(2 * n, seed)[:n, :n]
        want = _extended_permanent(a)
        assert abs(permanent(a) - want) / abs(want) <= 1e-12


def test_extreme_row_scales_multiply_back():
    # each factor of the product sums along one row, so rows scaled by
    # 1e200 and 1e-200 neither overflow nor underflow
    rng = np.random.default_rng(15)
    for n in range(12, 21):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        d = np.ones(n)
        d[:2] = 1e200, 1e-200
        want = permanent(a)
        assert abs(permanent(d[:, None] * a) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("algorithm", ALGOS)
@pytest.mark.parametrize("mat", [[[np.nan]], [[np.inf, 1], [1, 1]], [[1, 2], [np.nan + 1j, 4]],
                                 "ab", [[1, 2], [3]], [[1, "x"], [3, 4]]],
                         ids=["nan", "inf", "complex-nan", "string", "ragged", "text-entry"])
def test_non_finite_or_unreadable_input_is_invalid(algorithm, mat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            permanent(mat, algorithm=algorithm)


@pytest.mark.parametrize("algorithm, scale, n", [("ryser", 1e30, 20), ("ryser", 1e200, 3),
                                               ("naive", 1e200, 3)])
def test_overflow_from_finite_entries_is_a_resource_limit(algorithm, scale, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceLimitError, match="overflow"):
            permanent(scale * np.ones((n, n)), algorithm=algorithm)
