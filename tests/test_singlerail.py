import math

import numpy as np
import pytest

from focklift.errors import InvalidInputError, LeakyGateError
from focklift.linalg import _as_square, haar_random_unitary, require_unitary
from focklift.modes import composite_gate_mode_matrix, CompositeGateParams
from focklift.singlerail import (
    _phases,
    _RESHUFFLES,
    BASIS_SIX,
    assemble_from_mode_matrix,
    composite_gate_fock,
    computational_block,
    decoupled_form_even,
    decoupled_form_odd,
    entangling_measure,
    extract_computational,
    leakage,
    nearest_unitary_block,
)

SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)

CNOT = np.eye(4, dtype=complex)
CNOT[2:, 2:] = [[0, 1], [1, 0]]


def random_params(rng):
    return CompositeGateParams(*rng.uniform(-math.pi, math.pi, size=5))


def operator_schmidt_values(gate: np.ndarray) -> np.ndarray:
    """Operator-Schmidt coefficients of a two-qubit gate, descending.

    Singular values of the reshuffled matrix R[(r1,c1),(r2,c2)] =
    g[(r1,r2),(c1,c2)]; their squares sum to ||g||_F^2 = 4 for unitary g.
    """
    r = _as_square(gate, "gate", dim=4).reshape(16)[_RESHUFFLES[0]]
    return np.linalg.svd(r, compute_uv=False)


def test_basis_ordering():
    assert BASIS_SIX == ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


# ---------------------------------------------------------------------------
# closed form versus the permanent lift
# ---------------------------------------------------------------------------

def test_closed_form_matches_lifted_gate():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(200):
        p = random_params(rng)
        closed = composite_gate_fock(p)
        lifted = assemble_from_mode_matrix(composite_gate_mode_matrix(p))
        worst = max(worst, float(np.max(np.abs(closed - lifted))))
    assert worst < 1e-12


def test_phase_diagonal_is_the_lift_of_the_mode_phases():
    # the composite gate is D(a, b)[:, None] * mixer * D(g, d): D must be
    # the Fock matrix of diag(e^{ix}, e^{iy}), which is diagonal
    rng = np.random.default_rng(29)
    for x, y in [*rng.uniform(-math.pi, math.pi, (50, 2)), (0.0, 0.0), (math.pi, -math.pi)]:
        lifted = assemble_from_mode_matrix(np.diag([np.exp(1j * x), np.exp(1j * y)]))
        assert np.count_nonzero(lifted - np.diag(np.diagonal(lifted))) == 0
        assert np.max(np.abs(_phases(x, y) - np.diagonal(lifted))) <= 1e-15


def test_gate_is_unitary_and_vacuum_preserving():
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = composite_gate_fock(random_params(rng))
        require_unitary(u)
        assert u[0, 0] == 1.0
        assert np.max(np.abs(u[0, 1:])) == 0.0
        assert np.max(np.abs(u[1:, 0])) == 0.0


def test_photon_number_conservation():
    u = composite_gate_fock(CompositeGateParams(0.2, 0.4, -0.6, 1.0, 0.9))
    # no coupling between the one-photon block (1, 2) and two-photon (3, 4, 5)
    assert np.max(np.abs(u[1:3, 3:])) == 0.0
    assert np.max(np.abs(u[3:, 1:3])) == 0.0


def test_pinned_two_photon_entries():
    a, b, g, d, e = 0.3, -1.1, 0.7, 2.2, 0.9
    u = composite_gate_fock(CompositeGateParams(a, b, g, d, e))
    s2, c2 = math.sin(2 * e), math.cos(2 * e)
    assert u[3, 3] == pytest.approx(np.exp(1j * (a + b + g + d)) * c2, abs=1e-14)
    assert u[3, 4] == pytest.approx(1j * np.exp(1j * (a + b + 2 * g)) * s2 / math.sqrt(2), abs=1e-14)
    assert u[3, 5] == pytest.approx(1j * np.exp(1j * (a + b + 2 * d)) * s2 / math.sqrt(2), abs=1e-14)
    assert u[4, 3] == pytest.approx(1j * np.exp(1j * (2 * a + g + d)) * s2 / math.sqrt(2), abs=1e-14)
    assert u[5, 3] == pytest.approx(1j * np.exp(1j * (2 * b + g + d)) * s2 / math.sqrt(2), abs=1e-14)
    c, s = math.cos(e), math.sin(e)
    assert u[4, 4] == pytest.approx(np.exp(2j * (a + g)) * c * c, abs=1e-14)
    assert u[4, 5] == pytest.approx(-np.exp(2j * (a + d)) * s * s, abs=1e-14)
    assert u[5, 4] == pytest.approx(-np.exp(2j * (b + g)) * s * s, abs=1e-14)
    assert u[5, 5] == pytest.approx(np.exp(2j * (b + d)) * c * c, abs=1e-14)


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------

def test_leakage_law_on_grid():
    rng = np.random.default_rng(32)
    for eps in np.linspace(-2 * math.pi, 2 * math.pi, 501):
        a, b, g, d = rng.uniform(-math.pi, math.pi, size=4)
        rep = leakage(composite_gate_fock(CompositeGateParams(a, b, g, d, eps)))
        assert abs(rep.frobenius_leakage - math.sqrt(2) * abs(math.sin(2 * eps))) < 1e-12


def test_leakage_report_entries():
    rep = leakage(composite_gate_fock(CompositeGateParams(0, 0, 0, 0, 0.3)))
    assert {(r, c) for r, c, _ in rep.offending} == {(3, 4), (3, 5), (4, 3), (5, 3)}
    clean = leakage(decoupled_form_even(0, 0.1, 0.2, 0.3, 0.4))
    assert clean.offending == ()
    assert clean.frobenius_leakage == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)],
                         ids=["nan", "inf", "imag-inf"])
@pytest.mark.parametrize("fn, dim", [
    (leakage, 6), (computational_block, 6), (extract_computational, 6),
    (nearest_unitary_block, 6), (entangling_measure, 4),
], ids=["leakage", "computational_block", "extract_computational",
        "nearest_unitary_block", "entangling_measure"])
def test_non_finite_gates_fail_closed(fn, dim, bad):
    # on a 6 x 6 gate the bad entry sits on a bunched coupling, |11> -> |20>
    gate = np.eye(dim, dtype=complex)
    gate[(3, 4) if dim == 6 else (1, 2)] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        fn(gate)


def test_leakage_validates_shape():
    with pytest.raises(InvalidInputError):
        leakage(np.eye(4))


# ---------------------------------------------------------------------------
# decoupled closed forms
# ---------------------------------------------------------------------------

def test_decoupled_forms_match_generic_route():
    rng = np.random.default_rng(33)
    for _ in range(50):
        a, b, g, d = rng.uniform(-math.pi, math.pi, size=4)
        for n in (0, 1, 2):
            even = decoupled_form_even(n, a, b, g, d)
            generic = composite_gate_fock(CompositeGateParams(a, b, g, d, n * math.pi))
            assert np.max(np.abs(even - generic)) < 1e-12
            odd = decoupled_form_odd(n, a, b, g, d)
            generic = composite_gate_fock(
                CompositeGateParams(a, b, g, d, (2 * n + 1) * math.pi / 2))
            assert np.max(np.abs(odd - generic)) < 1e-12


@pytest.mark.parametrize("form", [decoupled_form_even, decoupled_form_odd])
@pytest.mark.parametrize("args", [
    (0, math.nan, 0, 0, 0), (0, 0, math.inf, 0, 0), (0, 0, 0, "x", 0), (0, 0, 0, 0, True),
    (True, 0, 0, 0, 0), (1.0, 0, 0, 0, 0), (0, 0, 0, 10 ** 400, 0),
], ids=["nan", "inf", "string", "bool-angle", "bool-n", "float-n", "400-digits"])
def test_decoupled_forms_fail_closed(form, args):
    with pytest.raises(InvalidInputError):
        form(*args)


def test_decoupled_forms_take_negative_n():
    assert np.array_equal(decoupled_form_even(-2, 0.1, 0.2, 0.3, 0.4),
                          decoupled_form_even(2, 0.1, 0.2, 0.3, 0.4))
    assert np.array_equal(decoupled_form_odd(-1, 0.1, 0.2, 0.3, 0.4),
                          decoupled_form_odd(1, 0.1, 0.2, 0.3, 0.4))


def test_decoupled_forms_have_literally_zero_leakage():
    even = decoupled_form_even(1, 0.3, -0.2, 0.9, 1.4)
    odd = decoupled_form_odd(0, 0.3, -0.2, 0.9, 1.4)
    for u in (even, odd):
        for r, c in ((3, 4), (3, 5), (4, 3), (5, 3)):
            assert u[r, c] == 0.0


def test_even_form_is_diagonal_phase_gate():
    a, b, g, d, n = 0.5, -0.8, 1.1, 0.2, 1
    u = decoupled_form_even(n, a, b, g, d)
    assert np.max(np.abs(u - np.diag(np.diag(u)))) == 0.0
    block = extract_computational(u)
    expect = np.kron(np.diag([1, -np.exp(1j * (a + g))]),
                     np.diag([1, -np.exp(1j * (b + d))]))
    assert np.max(np.abs(block - expect)) < 1e-14


def test_odd_form_is_swap_times_local_phases():
    a, b, g, d, n = 0.5, -0.8, 1.1, 0.2, 0
    block = extract_computational(decoupled_form_odd(n, a, b, g, d))
    expect = SWAP @ np.kron(np.diag([1, 1j * np.exp(1j * (b + g))]),
                            np.diag([1, 1j * np.exp(1j * (a + d))]))
    assert np.max(np.abs(block - expect)) < 1e-14


# ---------------------------------------------------------------------------
# computational block handling
# ---------------------------------------------------------------------------

def test_computational_block_reorders_to_qubit_convention():
    u = composite_gate_fock(CompositeGateParams(0.1, 0.2, 0.3, 0.4, 0.5))
    block = computational_block(u)
    # qubit order n1 n2: |01> is fock state (0, 1) at six-dim index 2
    assert block[1, 1] == u[2, 2]
    assert block[2, 2] == u[1, 1]
    assert block[3, 3] == u[3, 3]
    assert block[0, 0] == u[0, 0]


def test_extract_computational_raises_on_leaky_gates():
    leaky = composite_gate_fock(CompositeGateParams(0, 0, 0, 0, 0.4))
    with pytest.raises(LeakyGateError):
        extract_computational(leaky)
    clean = decoupled_form_odd(0, 0.1, 0.2, 0.3, 0.4)
    block = extract_computational(clean)
    require_unitary(block)


def test_nearest_unitary_block_is_unitary_and_faithful_when_decoupled():
    clean = decoupled_form_even(0, 0.7, -0.3, 0.2, 1.9)
    near = nearest_unitary_block(clean)
    assert np.max(np.abs(near - computational_block(clean))) < 1e-12
    leaky = composite_gate_fock(CompositeGateParams(0.3, 0.1, -0.2, 0.8, 0.77))
    require_unitary(nearest_unitary_block(leaky))


# ---------------------------------------------------------------------------
# closed-form scores of 1 + 2 + 1 gates against the SVD
# ---------------------------------------------------------------------------

# the computational entries of a 6 x 6 gate in qubit order 2*n1 + n2
QUBIT = np.array([0, 2, 1, 3])


def random_blocks(rng, count):
    """count random non-unitary 1 + 2 + 1 blocks, (count, 4, 4) in qubit order."""
    blocks = np.zeros((count, 4, 4), dtype=complex)
    for r, c in ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)):
        blocks[:, r, c] = rng.normal(size=count) + 1j * rng.normal(size=count)
    return blocks


def as_gates(blocks):
    """(L, 6, 6) gates with these computational blocks and an idle bunched pair."""
    gates = np.zeros((len(blocks), 6, 6), dtype=complex)
    gates[:, 4, 4] = gates[:, 5, 5] = 1.0
    gates[:, QUBIT[:, np.newaxis], QUBIT] = blocks
    return gates


def svd_measure(gates):
    """The measure from one SVD of each reshuffle, the oracle of the closed form."""
    top = np.linalg.svd(gates.reshape(-1, 16)[:, _RESHUFFLES], compute_uv=False)[:, :, 0]
    s = top.max(axis=1)
    return np.maximum(0.0, 1.0 - s * s / 4.0)


def test_closed_form_matches_the_svd_on_random_blocks():
    blocks = random_blocks(np.random.default_rng(36), 20_000)
    u, _, vh = np.linalg.svd(blocks)
    near = nearest_unitary_block(as_gates(blocks))
    assert np.max(np.abs(near - u @ vh)) <= 1e-13
    assert np.max(np.abs(entangling_measure(blocks) - svd_measure(blocks))) <= 1e-14
    assert np.max(np.abs(entangling_measure(near) - svd_measure(near))) <= 1e-14


def test_degenerate_blocks_give_a_unitary_and_a_finite_measure():
    # the eps = pi/4 gate, whose |11> amplitude cos(2 eps) is 0 (the float pi/4 leaves 2e-16)
    quarter = composite_gate_fock(CompositeGateParams(0.3, -0.4, 1.1, 0.2, math.pi / 4))
    quarter[3, 3] = 0.0
    rank_one = as_gates(random_blocks(np.random.default_rng(37), 1))[0]
    rank_one[1:3, 1:3] = np.outer([1.0, 0.5j], [0.3 - 1j, 2.0])
    empty = rank_one.copy()
    empty[1:3, 1:3] = 0.0
    # a subnormal 1 x 1 entry, and a W whose det is subnormal
    tiny = composite_gate_fock(CompositeGateParams(0.3, 0.1, -0.2, 0.8, 0.77))
    tiny[0, 0], tiny[1:3, 1:3] = 1e-320 * (1 + 1j), 1e-158 * tiny[1:3, 1:3]
    # W = 1e-170 diag(1, i) in qubit order: its det underflows to 0, though W has full rank
    faint = quarter.copy()
    faint[1:3, 1:3] = 1e-170 * np.diag([1j, 1.0])
    gates = [quarter, rank_one, empty, tiny, faint]
    for gate in gates:
        near = require_unitary(nearest_unitary_block(gate))
        assert 0.0 <= entangling_measure(near) <= 0.75
        assert 0.0 <= entangling_measure(computational_block(gate)) <= 1.0
    assert nearest_unitary_block(quarter)[3, 3] == 1.0  # a zero 1 x 1 entry takes the phase 1
    assert np.array_equal(nearest_unitary_block(empty)[1:3, 1:3], np.eye(2))
    assert np.max(np.abs(nearest_unitary_block(faint)[1:3, 1:3] - np.diag([1.0, 1j]))) <= 1e-15
    for gate in (tiny, faint):  # the polar factor of a block does not change with its scale
        u, _, vh = np.linalg.svd(computational_block(gate) * 2.0 ** 600)
        assert np.max(np.abs(nearest_unitary_block(gate) - u @ vh)) <= 1e-13
    # W = 1e160 W0, whose det overflows, and |11> = 1e300 e^{i.}: the same polar factor
    gate = composite_gate_fock(CompositeGateParams(0.3, 0.1, -0.2, 0.8, 0.77))
    huge = gate.copy()
    huge[3, 3], huge[1:3, 1:3] = 1e300 * gate[3, 3], 1e160 * gate[1:3, 1:3]
    # det W is inf - inf before the rescale, and warns nothing
    assert np.max(np.abs(nearest_unitary_block(huge) - nearest_unitary_block(gate))) <= 1e-13
    # p = r = inf in both reshuffle blocks; the SVD scores such a gate 0 too
    assert entangling_measure(np.diag([1e300, 1.0, 1.0, 1e300])[[0, 2, 1, 3]]) == 0.0
    assert np.array_equal(nearest_unitary_block(np.array(gates)),
                          np.array([nearest_unitary_block(g) for g in gates]))


def test_nearest_unitary_block_fails_closed_off_the_photon_number_blocks():
    clean = composite_gate_fock(CompositeGateParams(0.3, 0.1, -0.2, 0.8, 0.77))
    mixed = clean.copy()
    mixed[0, 1] = 1e-17  # vacuum <- one photon
    with pytest.raises(InvalidInputError, match=r"entry \(0, 2\) of computational block 0 "):
        nearest_unitary_block(mixed)
    with pytest.raises(InvalidInputError, match="block 1 is nonzero: photon number"):
        nearest_unitary_block(np.array([clean, mixed]))


def test_a_mixed_stack_scores_each_row_as_it_scores_alone():
    # CNOT and a Haar gate take the SVD, the 1 + 2 + 1 rows the closed form
    rng = np.random.default_rng(38)
    gates = np.concatenate([random_blocks(rng, 2), [CNOT, haar_random_unitary(4, rng)],
                            random_blocks(rng, 2)])
    stacked = entangling_measure(gates)
    assert list(stacked) == [entangling_measure(g) for g in gates]
    assert np.array_equal(stacked[2:4], svd_measure(gates[2:4]))
    assert stacked[2] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# entangling measure
# ---------------------------------------------------------------------------

def test_operator_schmidt_values_known_cases():
    vals = operator_schmidt_values(np.kron(haar_random_unitary(2, 1),
                                           haar_random_unitary(2, 2)))
    assert vals[0] == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(vals[1:])) < 1e-12
    vals = operator_schmidt_values(CNOT)
    assert np.max(np.abs(vals - [math.sqrt(2), math.sqrt(2), 0, 0])) < 1e-12


def test_entangling_measure_matches_two_separate_decompositions():
    # reference: top Schmidt values of the gate and of SWAP . gate, one SVD each
    rng = np.random.default_rng(11)
    for i in range(200):
        g = (haar_random_unitary(4, rng) if i % 2
             else rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        s_direct = operator_schmidt_values(g)[0]
        s_swapped = operator_schmidt_values(SWAP @ g)[0]
        ref = max(0.0, float(min(1.0 - (s_direct * s_direct) / 4.0,
                                 1.0 - (s_swapped * s_swapped) / 4.0)))
        assert entangling_measure(g) == ref


def test_entangling_measure_pinned_values():
    assert entangling_measure(CNOT) == pytest.approx(0.5, abs=1e-12)
    assert entangling_measure(np.eye(4, dtype=complex)) == pytest.approx(0.0, abs=1e-12)
    assert entangling_measure(SWAP) == pytest.approx(0.0, abs=1e-12)
    # iSWAP saturates one branch but SWAP . iSWAP is CNOT-like
    iswap = np.diag([1, 1j, 1j, 1]).astype(complex)[[0, 2, 1, 3]]
    assert entangling_measure(iswap) == pytest.approx(0.5, abs=1e-12)


def test_entangling_measure_kills_local_and_swap_local():
    rng = np.random.default_rng(34)
    for _ in range(20):
        local = np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
        assert entangling_measure(local) < 1e-12
        assert entangling_measure(SWAP @ local) < 1e-12


def test_entangling_measure_range_and_local_invariance():
    rng = np.random.default_rng(35)
    for _ in range(30):
        g = haar_random_unitary(4, rng)
        m = entangling_measure(g)
        assert 0.0 <= m <= 0.75 + 1e-12
        local_l = np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
        local_r = np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
        assert entangling_measure(local_l @ g @ local_r) == pytest.approx(m, abs=1e-10)
