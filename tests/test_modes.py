import math

import numpy as np
import pytest

from focklift.errors import InvalidInputError
from focklift.linalg import exp_i_hermitian, haar_random_unitary, require_unitary
from focklift.modes import (
    beam_splitter,
    composite_gate_mode_matrix,
    CompositeGateParams,
    elements_from_jsonable,
    elements_to_jsonable,
    OpticalElement,
    reck_decompose,
    recompose,
)


# ---------------------------------------------------------------------------
# the beam splitter and the composite gate
# ---------------------------------------------------------------------------

def test_beam_splitter_is_the_exponential_of_its_generator():
    # the single-photon matrix of a2+a1 + a1+a2 that the docstring names
    generator = np.array([[0.0, 1.0], [1.0, 0.0]])
    for eps in np.random.default_rng(23).uniform(-math.pi, math.pi, 50):
        assert np.max(np.abs(beam_splitter(eps) - exp_i_hermitian(eps * generator))) < 1e-14


def test_beam_splitter_special_values():
    assert np.array_equal(beam_splitter(0.0), np.eye(2))
    half = beam_splitter(math.pi / 2)
    assert np.max(np.abs(half - np.array([[0, 1j], [1j, 0]]))) < 1e-15
    require_unitary(beam_splitter(0.83))


def test_composite_matrix_is_phase_bs_phase_product():
    rng = np.random.default_rng(20)
    for _ in range(25):
        a, b, g, d, e = rng.uniform(-math.pi, math.pi, size=5)
        params = CompositeGateParams(a, b, g, d, e)
        expected = (np.diag([np.exp(1j * a), np.exp(1j * b)])
                    @ beam_splitter(e)
                    @ np.diag([np.exp(1j * g), np.exp(1j * d)]))
        assert np.max(np.abs(composite_gate_mode_matrix(params) - expected)) < 1e-14
        require_unitary(composite_gate_mode_matrix(params))


def test_params_reduce_angles_without_changing_the_gate():
    base = CompositeGateParams(0.4, -0.9, 1.3, 2.0, 0.6)
    shifted = CompositeGateParams(0.4 + 2 * math.pi, -0.9 - 4 * math.pi,
                                  1.3, 2.0 + 2 * math.pi, 0.6 - 2 * math.pi)
    assert abs(shifted.alpha - base.alpha) < 1e-12
    assert np.max(np.abs(composite_gate_mode_matrix(shifted)
                         - composite_gate_mode_matrix(base))) < 1e-12
    assert -math.pi < CompositeGateParams(math.pi, 0, 0, 0, 0).alpha <= math.pi


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("slot", range(5))
def test_params_reject_non_finite_angles(slot, bad):
    angles = [0.1, 0.2, 0.3, 0.4, 0.5]
    angles[slot] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        CompositeGateParams(*angles)


# ---------------------------------------------------------------------------
# optical elements
# ---------------------------------------------------------------------------

def test_element_validation():
    with pytest.raises(InvalidInputError):
        OpticalElement("phase-shifter", (0, 1), (0.5,))
    with pytest.raises(InvalidInputError):
        OpticalElement("beam-splitter", (0, 1), (0.5,))
    with pytest.raises(InvalidInputError):
        OpticalElement("beam-splitter", (1, 1), (0.5, 0.1))
    with pytest.raises(InvalidInputError):
        OpticalElement("mirror", (0,), (0.5,))
    with pytest.raises(InvalidInputError):
        OpticalElement("phase-shifter", (-1,), (0.5,))


@pytest.mark.parametrize("make", [
    lambda: beam_splitter(math.nan),
    lambda: beam_splitter(math.inf),
    lambda: beam_splitter(True),
    lambda: OpticalElement("phase-shifter", (0,), (math.nan,)),
    lambda: OpticalElement("beam-splitter", (0, 1), (0.4, -math.inf)),
    lambda: OpticalElement("phase-shifter", (0,), (False,)),
    lambda: OpticalElement("phase-shifter", (0,), (10 ** 400,)),
    lambda: OpticalElement("phase-shifter", (0.5,), (0.1,)),
    lambda: OpticalElement("beam-splitter", (0, True), (0.4, 0.1)),
    lambda: elements_from_jsonable([{"kind": "phase-shifter", "modes": [0], "angles": ["abc"]}]),
    lambda: elements_from_jsonable([{"kind": "phase-shifter", "modes": [0.5], "angles": [0.1]}]),
    lambda: elements_from_jsonable([{"kind": "phase-shifter", "modes": [True], "angles": [0.1]}]),
], ids=["bs-nan", "bs-inf", "bs-bool", "ps-nan", "bs-angle-inf", "ps-bool-angle",
        "ps-huge-int-angle", "fractional-mode", "bool-mode", "json-angle-abc",
        "json-mode-0.5", "json-mode-true"])
def test_malformed_angles_and_modes_fail_closed(make):
    with pytest.raises(InvalidInputError):
        make()


def test_element_matrices_embed_correctly():
    ps = OpticalElement("phase-shifter", (1,), (0.7,))
    m = recompose([ps], 3)
    expect = np.eye(3, dtype=complex)
    expect[1, 1] = np.exp(0.7j)
    assert np.max(np.abs(m - expect)) < 1e-15

    bs = OpticalElement("beam-splitter", (0, 2), (0.0, 0.0))
    assert np.array_equal(recompose([bs], 3), np.eye(3))
    bs2 = OpticalElement("beam-splitter", (0, 1), (0.4, -1.1))
    require_unitary(recompose([bs2], 4))


# ---------------------------------------------------------------------------
# mesh decomposition
# ---------------------------------------------------------------------------

def test_reck_round_trip_and_budget():
    rng = np.random.default_rng(21)
    for dim in range(2, 9):
        v = haar_random_unitary(dim, rng)
        elements = reck_decompose(v)
        assert np.max(np.abs(recompose(elements, dim) - v)) < 1e-10
        assert len(elements) <= dim * (dim + 1) // 2
        assert sum(len(e.angles) for e in elements) <= dim * dim


def test_reck_identity_and_diagonal():
    assert reck_decompose(np.eye(4, dtype=complex)) == []
    d = np.diag(np.exp(1j * np.array([0.3, -1.0, 2.2])))
    elements = reck_decompose(d)
    assert all(e.kind == "phase-shifter" for e in elements)
    assert np.max(np.abs(recompose(elements, 3) - d)) < 1e-12


def test_reck_on_a_single_beam_splitter():
    v = beam_splitter(0.7)
    elements = reck_decompose(v)
    assert sum(1 for e in elements if e.kind == "beam-splitter") == 1
    assert np.max(np.abs(recompose(elements, 2) - v)) < 1e-12


def test_reck_rejects_non_unitary():
    with pytest.raises(InvalidInputError):
        reck_decompose(np.ones((3, 3), dtype=complex))


def test_recompose_empty_is_identity():
    assert np.array_equal(recompose([], 4), np.eye(4))


def test_recompose_rejects_an_element_beyond_its_dimension():
    bs = OpticalElement("beam-splitter", (1, 3), (0.4, -1.1))
    with pytest.raises(InvalidInputError, match="element touches mode 3, dim is 3"):
        recompose([bs], 3)


def test_elements_json_round_trip():
    v = haar_random_unitary(4, 22)
    elements = reck_decompose(v)
    data = elements_to_jsonable(elements)
    assert all(set(d) == {"kind", "modes", "angles"} for d in data)
    back = elements_from_jsonable(data)
    assert back == elements
