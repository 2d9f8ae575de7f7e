"""Every public matrix entry point reads its argument through one reader,
``linalg._as_square``: an input it cannot read, of the wrong shape, or with
a non-finite entry ends in a package error, never in numpy's own exception
or a NaN result; an accepted stack, empty ones too, gives one result per
member."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from focklift.errors import InvalidInputError, LeakyGateError, ResourceLimitError
from focklift.fock import (basis_monomial, lift_unitary, lift_via_substitution, LiftedUnitary,
                           OccupationPolynomial)
from focklift.linalg import exp_i_hermitian
from focklift.modes import reck_decompose
from focklift.nogo import block_diagonality_defect, block_lemma_check, dont_cause_errors_residuals
from focklift.permanent import permanent
from focklift.singlerail import (
    assemble_from_mode_matrix,
    computational_block,
    entangling_measure,
    extract_computational,
    leakage,
    nearest_unitary_block,
)

ENTRY_POINTS = {
    "permanent": permanent,
    "lift_unitary": lambda m: lift_unitary(m, 2),
    "lift_unitary-unchecked": lambda m: lift_unitary(m, 2, check=False),
    "lift_via_substitution": lambda m: lift_via_substitution(m, basis_monomial((1, 1))),
    "exp_i_hermitian": exp_i_hermitian,
    "assemble_from_mode_matrix": assemble_from_mode_matrix,
    "leakage": leakage,
    "computational_block": computational_block,
    "nearest_unitary_block": nearest_unitary_block,
    "extract_computational": extract_computational,
    "entangling_measure": entangling_measure,
    "reck_decompose": reck_decompose,
    "block_diagonality_defect": block_diagonality_defect,
    "block_lemma_check": block_lemma_check,
    "dont_cause_errors_residuals": dont_cause_errors_residuals,
}
PACKAGE_ERRORS = (InvalidInputError, ResourceLimitError, LeakyGateError)


@pytest.mark.parametrize("name", ["entangling_measure", "leakage", "lift_unitary",
                                  "exp_i_hermitian", "reck_decompose"])
@pytest.mark.parametrize("bad", ["abc", [[1, 2], [3]], [[10 ** 400, 0], [0, 1]]],
                         ids=["string", "ragged", "400-digit"])
def test_unreadable_matrices_are_invalid_input(name, bad):
    # each once let numpy's ValueError or OverflowError out
    with pytest.raises(InvalidInputError):
        ENTRY_POINTS[name](bad)


# the substitution oracle's readers: a term key or a state that is not a
# sequence of integers once raised Python's TypeError, and a bool mode count
# was read as one mode
ORACLE_INPUTS = {
    "term-key-int": lambda: OccupationPolynomial(2, {3: 1.0}),
    "state-int": lambda: basis_monomial(5),
    "modes-bool": lambda: OccupationPolynomial(True, {(1,): 1.0}),
}


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_oracle_readers_fail_closed(name):
    with pytest.raises(InvalidInputError):
        ORACLE_INPUTS[name]()


# entries of every kind a JSON file or a caller can hand over, sized so that
# a finite matrix stays far from overflow
CLEAN = st.one_of(st.floats(-1e3, 1e3), st.complex_numbers(max_magnitude=1e3))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
ODD = st.sampled_from([10 ** 400, -10 ** 400, True, False, None, "1", "x", ""])
ENTRY_POOLS = [CLEAN, st.one_of(CLEAN, NON_FINITE), st.one_of(CLEAN, NON_FINITE, ODD)]


@st.composite
def matrix_like(draw):
    """A square matrix or a stack of them, with entries from one pool; an
    array stack that is empty or has exactly one non-finite member; or any
    nesting of lists."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(st.recursive(st.one_of(CLEAN, NON_FINITE, ODD),
                                 lambda inner: st.lists(inner, max_size=4), max_leaves=20))
    side = draw(st.sampled_from([1, 2, 3, 4, 6]))
    if kind == 1:  # an array: numpy reads an empty list as shape (0,)
        return np.zeros((0, side, side), dtype=draw(st.sampled_from([float, complex])))
    if kind == 2:
        lanes = draw(st.integers(1, 3))
        stack = np.array(draw(st.lists(CLEAN, min_size=lanes * side * side,
                                       max_size=lanes * side * side)), dtype=complex)
        stack[draw(st.integers(0, len(stack) - 1))] = draw(NON_FINITE)
        return stack.reshape(lanes, side, side)
    entries = draw(st.sampled_from(ENTRY_POOLS))
    square = st.lists(st.lists(entries, min_size=side, max_size=side),
                      min_size=side, max_size=side)
    return draw(st.one_of(square, st.lists(square, min_size=1, max_size=3)))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(m=matrix_like())
@example(m=np.zeros((0, 2, 2)))
@example(m=np.zeros((0, 4, 4)))
@example(m=np.zeros((0, 6, 6)))
def test_matrix_entry_points_fail_closed_or_accept_finite_input(name, m):
    try:
        result = ENTRY_POINTS[name](m)
    except PACKAGE_ERRORS:
        return
    m = np.asarray(m, dtype=complex)
    assert np.isfinite(m).all()
    if m.ndim == 3:  # a stack gives one result per member, or none for none
        held = [*result.sectors, result.entries] if isinstance(result, LiftedUnitary) else [result]
        assert all(np.shape(a)[:1] == (len(m),) for a in held)
