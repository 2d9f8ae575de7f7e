import numpy as np
import pytest

from focklift.errors import InvalidInputError
from focklift.linalg import (
    CHECK_TOL,
    exp_i_hermitian,
    haar_random_unitary,
    require_hermitian,
    require_unitary,
)


def random_hermitian(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (h + h.conj().T) / 2


def test_hermitian_predicates():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 4)
    assert require_hermitian(h) is not None
    with pytest.raises(InvalidInputError):
        require_hermitian(h + 1e-6 * 1j * np.eye(4))
    with pytest.raises(InvalidInputError):
        require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(InvalidInputError):
        require_hermitian(np.ones((2, 3)))


def test_unitary_predicates():
    v = haar_random_unitary(5, 1)
    require_unitary(v)
    with pytest.raises(InvalidInputError):
        require_unitary(1.001 * v)
    with pytest.raises(InvalidInputError):
        require_unitary(np.ones((3, 3)))


def test_checks_reject_non_finite_matrices():
    # NaN > tol is False, so a plain "dev > tol" test let these through
    nan = np.full((3, 3), np.nan, dtype=complex)
    one_inf = np.eye(3, dtype=complex)
    one_inf[0, 2] = np.inf
    inf_diag = np.diag([np.inf, 0.0, 1.0]).astype(complex)
    for m in (nan, one_inf):
        with pytest.raises(InvalidInputError):
            require_unitary(m)
    for m in (nan, one_inf, inf_diag):
        with pytest.raises(InvalidInputError):
            require_hermitian(m)
    with pytest.raises(InvalidInputError):
        exp_i_hermitian(nan)


def test_exp_i_hermitian_unitary_and_diagonal_case():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 5)
    v = exp_i_hermitian(h)
    require_unitary(v)
    d = np.diag([0.3, -1.2, 2.0])
    assert np.allclose(exp_i_hermitian(d), np.diag(np.exp(1j * np.diag(d))), atol=1e-14)
    assert np.allclose(exp_i_hermitian(np.zeros((4, 4))), np.eye(4), atol=1e-15)


def test_exp_i_hermitian_stack_equals_each_member_alone():
    rng = np.random.default_rng(6)
    stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
    stack[1] = 0.0
    out = exp_i_hermitian(stack)
    assert out.shape == (5, 4, 4)
    for h, v in zip(stack, out):
        assert np.array_equal(exp_i_hermitian(h), v)
    assert np.array_equal(out[1], np.eye(4))


def test_exp_i_hermitian_stack_fails_closed_on_one_bad_member():
    rng = np.random.default_rng(7)
    stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
    skew = stack.copy()
    skew[3, 0, 1] += 10 * CHECK_TOL
    with pytest.raises(InvalidInputError, match=r"stack member 3\) is not Hermitian"):
        exp_i_hermitian(skew)
    for value in (np.nan, np.inf):
        bad = stack.copy()
        bad[1, 2, 2] = value
        with pytest.raises(InvalidInputError, match="stack member 1"):
            exp_i_hermitian(bad)
    for shape in ((2, 3, 4), (2, 2, 3, 3), (3,)):
        with pytest.raises(InvalidInputError):
            exp_i_hermitian(np.zeros(shape))
    # the single-matrix checks still refuse stacks
    with pytest.raises(InvalidInputError):
        require_hermitian(stack)


def test_haar_random_unitary_determinism_and_shapes():
    a = haar_random_unitary(6, 42)
    b = haar_random_unitary(6, 42)
    c = haar_random_unitary(6, 43)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)
    require_unitary(a)
    assert haar_random_unitary(1, 0).shape == (1, 1)
    rng = np.random.default_rng(9)
    require_unitary(haar_random_unitary(3, rng))
    with pytest.raises(InvalidInputError):
        haar_random_unitary(0, 1)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None],
                         ids=["negative", "float", "bool", "string", "none"])
def test_haar_random_unitary_rejects_a_bad_seed(seed):
    with pytest.raises(InvalidInputError, match="seed"):
        haar_random_unitary(3, seed)


def test_haar_phase_statistics():
    # column phases should not cluster: the QR phase fix removes the
    # diag-positive bias of plain QR
    samples = [haar_random_unitary(2, s)[0, 0] for s in range(300)]
    mean = np.mean(samples)
    assert abs(mean) < 0.15


def test_check_tol_value():
    assert CHECK_TOL == 1e-10
