import importlib
import math

import numpy as np
import pytest

from focklift.errors import InvalidInputError, ResourceLimitError
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


def test_kernel_gray_walk_matches_naive(monkeypatch):
    # a tiny block forces the Gray walk over most columns, so it runs at
    # sizes the naive oracle reaches
    kernel = importlib.import_module("focklift.permanent")
    monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 16)
    rng = np.random.default_rng(12)
    for n in range(0, 9):
        for _ in range(7):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            want = permanent(m, algorithm="naive")
            assert abs(kernel._ryser(m) - want) / abs(want) < 1e-10
