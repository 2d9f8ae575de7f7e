import importlib
import math

import numpy as np
import pytest

from focklift.errors import InvalidInputError, ResourceLimitError
from focklift.fock import (
    FockBasis,
    LiftedUnitary,
    basis_enumerate,
    basis_monomial,
    basis_to_jsonable,
    lift_unitary,
    lift_via_substitution,
    lifted_to_csv,
    lifted_to_jsonable,
    OccupationPolynomial,
    poly_to_vector,
)
from focklift.linalg import haar_random_unitary, require_unitary
from focklift.modes import beam_splitter
from focklift.permanent import permanent


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_basis_size_is_binomial():
    for modes in range(1, 5):
        for photons in range(0, 5):
            basis = basis_enumerate(modes, photons)
            assert len(basis) == math.comb(modes + photons - 1, photons)


def test_basis_ordering_and_index():
    basis = basis_enumerate(2, 2)
    assert basis.states == ((2, 0), (1, 1), (0, 2))
    basis3 = basis_enumerate(3, 2)
    assert basis3.states[0] == (2, 0, 0)
    for i, s in enumerate(basis3.states):
        assert basis3.index(s) == i
        assert sum(s) == 2
    with pytest.raises(KeyError):
        basis3.index((3, 0, 0))


def test_basis_enumerate_is_cached():
    assert basis_enumerate(3, 2) is basis_enumerate(3, 2)


def test_basis_validation():
    with pytest.raises(InvalidInputError):
        basis_enumerate(0, 2)
    with pytest.raises(InvalidInputError):
        basis_enumerate(2, -1)
    with pytest.raises(ResourceLimitError):
        basis_enumerate(30, 12)
    # True == 1, so a cache keyed on equal counts once answered True as 1
    v = haar_random_unitary(3, 5)
    lift_unitary(v, 1)
    for photons in (True, 1.0):
        with pytest.raises(InvalidInputError, match="photons"):
            lift_unitary(v, photons)
        with pytest.raises(InvalidInputError, match="photons"):
            basis_enumerate(3, photons)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_identity_is_identity():
    # bunched diagonal entries pick up one ulp from the norm factors
    for modes, photons in ((2, 2), (3, 3), (4, 2)):
        lifted = lift_unitary(np.eye(modes, dtype=complex), photons)
        assert np.max(np.abs(lifted.matrix - np.eye(len(lifted.basis)))) < 1e-14


def test_lift_single_photon_is_the_mode_matrix():
    v = haar_random_unitary(4, 0)
    for m in (v, np.array([v, haar_random_unitary(4, 1)])):
        given = m.copy()
        lifted = lift_unitary(given, 1)
        assert np.array_equal(lifted.matrix, m)
        given[...] = 0.0  # the lift keeps its own copy of the caller's array
        assert np.array_equal(lifted.matrix, m)


def test_hong_ou_mandel_dip():
    lifted = lift_unitary(beam_splitter(math.pi / 4), 2)
    i11 = lifted.basis.index((1, 1))
    i20 = lifted.basis.index((2, 0))
    i02 = lifted.basis.index((0, 2))
    assert abs(lifted.matrix[i11, i11]) < 1e-14
    # the photon pair exits bunched with probability 1/2 each way
    assert abs(lifted.matrix[i20, i11]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert abs(lifted.matrix[i02, i11]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_lift_homomorphism_and_unitarity():
    rng = np.random.default_rng(12)
    for modes, photons in ((2, 3), (3, 2), (3, 3), (4, 2)):
        v1 = haar_random_unitary(modes, rng)
        v2 = haar_random_unitary(modes, rng)
        lhs = lift_unitary(v1 @ v2, photons).matrix
        rhs = lift_unitary(v1, photons).matrix @ lift_unitary(v2, photons).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        m = lift_unitary(v1, photons).matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < 1e-10


def test_lift_rejects_non_unitary_unless_unchecked():
    m = np.ones((2, 2), dtype=complex)
    with pytest.raises(InvalidInputError):
        lift_unitary(m, 2)
    unchecked = lift_unitary(m, 2, check=False)
    assert unchecked.matrix.shape == (3, 3)


def test_lift_bounds_all_kept_sectors(monkeypatch):
    # every top sector here is under the basis cap, but the sectors 0..N a
    # lift keeps once had no bound: (M, N) = (2, 3000) passed the 10 000-state
    # cap and asked for ~144 GB
    fock = importlib.import_module("focklift.fock")
    monkeypatch.setattr(fock, "MAX_BASIS_SIZE", 40)
    assert len(lift_unitary(np.eye(2), 15).sectors) == 16  # 1496 entries <= 40**2
    with pytest.raises(ResourceLimitError, match="cap"):
        lift_unitary(np.eye(2), 30)  # 31 states, 10416 entries in sectors 0..30
    # one mode: N + 1 entries, but each kept sector also costs its tables
    assert len(lift_unitary(np.eye(1), 39).sectors) == 40
    with pytest.raises(ResourceLimitError, match="cap"):
        lift_unitary(np.eye(1), 40)


def test_lift_matches_substitution_oracle():
    rng = np.random.default_rng(13)
    for modes, photons in ((2, 2), (2, 3), (3, 2)):
        v = haar_random_unitary(modes, rng)
        lifted = lift_unitary(v, photons)
        basis = lifted.basis
        for j, state in enumerate(basis.states):
            poly = lift_via_substitution(v, basis_monomial(state))
            col = poly_to_vector(poly, basis)
            assert np.max(np.abs(col - lifted.matrix[:, j])) < 1e-12


def test_substitution_skips_the_zero_entries_of_a_mode_permutation():
    # swapping modes 0 and 2 sends each a_0+ to a_2+ and keeps a_1+: a
    # single term, its coefficient only multiplied by exact ones
    swap = np.eye(3)[[2, 1, 0]]
    poly = lift_via_substitution(swap, basis_monomial((2, 1, 0)))
    assert poly.terms == {(0, 1, 2): complex(1.0 / math.sqrt(2.0))}
    basis = basis_enumerate(3, 3)
    col = lift_unitary(swap, 3).matrix[:, basis.index((2, 1, 0))]
    assert np.array_equal(poly_to_vector(poly, basis), col)


def exact_sectors(mpmath, v, photons):
    """Sectors 0..N of v as nested lists, by the creation recursion in the
    current mpmath precision: column |n> is n_j^(-1/2) (sum_i v[i, j] a_i+)
    applied to column |n - e_j>, with a_i+ |r> = sqrt(r_i + 1) |r + e_i>."""
    modes = len(v)
    w = [[mpmath.mpc(z.real, z.imag) for z in row] for row in v]
    cols = {(0,) * modes: {(0,) * modes: mpmath.mpc(1)}}
    sectors = [[[mpmath.mpc(1)]]]
    for n in range(1, photons + 1):
        states = basis_enumerate(modes, n).states
        for s in states:
            j = next(i for i, k in enumerate(s) if k)
            col = {}
            for r, amp in cols[s[:j] + (s[j] - 1,) + s[j + 1:]].items():
                for i in range(modes):
                    up = r[:i] + (r[i] + 1,) + r[i + 1:]
                    col[up] = col.get(up, 0) + w[i][j] * amp * mpmath.sqrt(up[i])
            cols[s] = {r: amp / mpmath.sqrt(s[j]) for r, amp in col.items()}
        sectors.append([[cols[c].get(r, 0) for c in states] for r in states])
    return sectors


def test_lift_matches_a_40_digit_creation_recursion():
    # an exact reference that does not depend on a past float run
    import mpmath

    from focklift.linalg import exp_i_hermitian
    from focklift.nogo import _project_feasible
    rng = np.random.default_rng(2613)
    worst = 0.0
    with mpmath.workdps(40):
        for modes in (3, 4):
            z = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
            near = exp_i_hermitian(1e-3 * (z + z.conj().T)) @ _project_feasible(
                haar_random_unitary(modes, rng))
            for v in (haar_random_unitary(modes, rng), near):
                for got, ref in zip(lift_unitary(v, 4).sectors, exact_sectors(mpmath, v, 4)):
                    for a, b in np.ndindex(got.shape):
                        worst = max(worst, abs(mpmath.mpc(got[a, b].real, got[a, b].imag)
                                               - ref[a][b]))
    assert worst < 1e-15, float(worst)


def test_lift_matches_naive_permanent_entrywise():
    # <m|phi(v)|n> = Per(v[m|n]) / sqrt(prod m_i! prod n_j!), one entry at a
    # time with the definitional permanent, against every sector 0..N that
    # the recursive production lift returns
    rng = np.random.default_rng(14)
    for modes, photons in ((4, 3), (4, 4), (6, 3), (6, 4), (2, 4)):
        v = haar_random_unitary(modes, rng)
        lifted = lift_unitary(v, photons)
        assert len(lifted.sectors) == photons + 1
        assert lifted.matrix is lifted.sectors[photons]
        for k, sector in enumerate(lifted.sectors):
            states = basis_enumerate(modes, k).states
            expected = np.empty((len(states), len(states)), dtype=complex)
            for a, m in enumerate(states):
                rows = [i for i, c in enumerate(m) for _ in range(c)]
                for b, n in enumerate(states):
                    cols = [j for j, c in enumerate(n) for _ in range(c)]
                    scale = math.sqrt(math.prod(map(math.factorial, m + n)))
                    expected[a, b] = permanent(v[np.ix_(rows, cols)], algorithm="naive") / scale
            assert np.max(np.abs(sector - expected)) < 1e-13, (modes, photons, k)


def test_lift_row_chunks_match_one_block(monkeypatch):
    # a block of 16 entries leaves one output row per chunk, so the chunk
    # bounds of every sector are exercised against a single-chunk lift
    fock = importlib.import_module("focklift.fock")
    for v in (haar_random_unitary(5, 18), np.array([haar_random_unitary(5, s) for s in (19, 20)])):
        monkeypatch.setattr(fock, "_BLOCK_ENTRIES", 1 << 30)
        whole = lift_unitary(v, 4)
        monkeypatch.setattr(fock, "_BLOCK_ENTRIES", 16)
        chunked = lift_unitary(v, 4)
        for a, b in zip(whole.sectors, chunked.sectors, strict=True):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) < 1e-15


def test_lift_entries_hold_each_sector_where_entry_index_says():
    # the layout the lift writes and the ancilla scores read: sectors 0..N in
    # turn, each row-major; the tables that build them stay O(D * M)
    fock = importlib.import_module("focklift.fock")
    v = np.array([haar_random_unitary(4, s) for s in (21, 22)])
    lifted = lift_unitary(v, 3)
    assert lifted.entries.shape == (2, fock._check_lift_size(4, 3))
    for n, sector in enumerate(lifted.sectors):
        assert np.shares_memory(sector, lifted.entries)
        r, c = np.divmod(np.arange(sector[0].size), len(sector[0]))
        at = fock._entry_index(4, n, r, c)
        assert np.array_equal(lifted.entries.take(at, axis=1), sector.reshape(2, -1))
    for n in range(2, 7):
        d = len(basis_enumerate(5, n))
        assert all(table.size <= 5 * d for table in fock._recursion_tables(5, n))


def test_stacked_lift_equals_each_matrix_lifted_alone():
    rng = np.random.default_rng(19)
    for modes in range(1, 5):
        stack = np.array([haar_random_unitary(modes, rng) for _ in range(5)])
        for photons in range(5):
            lifted = lift_unitary(stack, photons)
            assert lifted.basis == basis_enumerate(modes, photons)
            for lane, v in enumerate(stack):
                for a, b in zip(lifted.sectors, lift_unitary(v, photons).sectors, strict=True):
                    assert np.array_equal(a[lane], b), (modes, photons, lane)


def test_stacked_lift_fails_closed_on_one_non_unitary_member():
    stack = np.array([haar_random_unitary(3, seed) for seed in range(4)])
    stack[2, 0, 0] += 1e-6
    with pytest.raises(InvalidInputError, match="stack member 2"):
        lift_unitary(stack, 2)
    assert lift_unitary(stack, 2, check=False).matrix.shape == (4, 6, 6)
    for bad in (np.ones((2, 3, 4)), np.ones((2, 2, 3, 3))):
        with pytest.raises(InvalidInputError):
            lift_unitary(bad, 2, check=False)


def test_empty_stack_lifts_to_empty_sectors():
    # as exp_i_hermitian, computational_block and entangling_measure do, a
    # (0, M, M) stack gives (0, D, D) sectors and (0, kept) entries
    for modes in range(1, 4):
        for photons in range(4):
            for check in (True, False):
                lifted = lift_unitary(np.zeros((0, modes, modes)), photons, check=check)
                assert lifted.basis == basis_enumerate(modes, photons)
                assert [s.shape for s in lifted.sectors] == [
                    (0, len(basis_enumerate(modes, n)), len(basis_enumerate(modes, n)))
                    for n in range(photons + 1)]
                assert lifted.entries.shape == (0, sum(s.shape[1] ** 2 for s in lifted.sectors))


def test_oversize_lift_fails_before_building_anything(monkeypatch):
    fock = importlib.import_module("focklift.fock")
    monkeypatch.setattr(fock, "MAX_BASIS_SIZE", 8)
    # at a cap of 8, (M, N) = (3, 2) keeps 1 + 9 + 36 = 46 <= 64 entries
    assert fock._check_lift_size(3, 2) == 46
    assert lift_unitary(np.array([haar_random_unitary(3, s) for s in range(3)]), 2).matrix.shape \
        == (3, 6, 6)
    # an oversize single matrix fails before any basis or table is built
    def refuse(*args):
        raise AssertionError("built before the lift size check")

    monkeypatch.setattr(fock, "basis_enumerate", refuse)
    monkeypatch.setattr(fock, "_recursion_tables", refuse)
    with pytest.raises(ResourceLimitError, match="cap"):
        lift_unitary(np.eye(3), 3)  # 1 + 9 + 36 + 100 entries > 64


# ---------------------------------------------------------------------------
# occupation polynomials
# ---------------------------------------------------------------------------

def test_monomial_normalization():
    for s in ((2, 0), (1, 1), (3, 2, 1)):
        vec = poly_to_vector(basis_monomial(s), basis_enumerate(len(s), sum(s)))
        assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_polynomial_prune_and_degrees():
    poly = OccupationPolynomial(2, {(2, 0): 1.0, (1, 1): 1e-20, (1, 0): 0.5})
    pruned = poly.prune()
    assert (1, 1) not in pruned.terms


def test_polynomial_validation():
    with pytest.raises(InvalidInputError):
        OccupationPolynomial(2, {(1, 1, 0): 1.0})
    with pytest.raises(InvalidInputError):
        OccupationPolynomial(2, {(1, -1): 1.0})
    # each was once truncated to (1, 0), kept as a NaN amplitude or, at 200
    # photons, sent poly_to_vector into math's OverflowError
    for terms in ({(1.5, 0): 1.0}, {(True, 0): 1.0}, {(1, 0): math.nan}, {(200, 0): 1.0},
                  {(1, 0): complex(0.0, math.inf)}, {(1, 0): True}, {(1, 0): "1"}):
        with pytest.raises(InvalidInputError):
            OccupationPolynomial(2, terms)
    assert OccupationPolynomial(2, {(np.int64(1), 0): np.complex128(0.5j)}).terms == {(1, 0): 0.5j}


def test_basis_monomial_reads_occupations():
    # each was once read as (1, 0), or raised math's ValueError or OverflowError
    for state in ((1.5, 0), (True, 0), (-1, 0), (10 ** 6, 0), (100, 71)):
        with pytest.raises(InvalidInputError):
            basis_monomial(state)
    assert basis_monomial((170, 0)).terms[(170, 0)] == 1.0 / math.sqrt(math.factorial(170))


def test_poly_to_vector_unit_and_sector_mismatch():
    basis = basis_enumerate(2, 2)
    vec = poly_to_vector(basis_monomial((1, 1)), basis)
    expect = np.zeros(3, dtype=complex)
    expect[basis.index((1, 1))] = 1.0
    assert np.array_equal(vec, expect)
    with pytest.raises(InvalidInputError):
        poly_to_vector(basis_monomial((1, 0)), basis)
    with pytest.raises(InvalidInputError, match="modes"):  # once a KeyError
        poly_to_vector(basis_monomial((1, 1, 0)), basis)


def test_substitution_validates_shape():
    with pytest.raises(InvalidInputError):
        lift_via_substitution(np.eye(3), basis_monomial((1, 1)))


# ---------------------------------------------------------------------------
# factorized propagation
# ---------------------------------------------------------------------------

def sector_product_check(v_c: np.ndarray, v_a: np.ndarray, photons: int) -> float:
    """Residual of the factorization of phi(v_c (+) v_a) on one sector.

    For a block-diagonal mode unitary the lifted matrix must factor as
    phi[(m_c, m_a), (n_c, n_a)] = phi_c[m_c, n_c] * phi_a[m_a, n_a] whenever
    the per-block photon numbers agree, and vanish otherwise.  Returns the
    max entrywise deviation over the full sector.
    """
    v_c = require_unitary(np.asarray(v_c, dtype=complex), name="computational block")
    v_a = require_unitary(np.asarray(v_a, dtype=complex), name="ancilla block")
    mc, ma = v_c.shape[0], v_a.shape[0]
    v = np.zeros((mc + ma, mc + ma), dtype=complex)
    v[:mc, :mc] = v_c
    v[mc:, mc:] = v_a
    full = lift_unitary(v, photons)
    sectors_c = lift_unitary(v_c, photons).sectors
    sectors_a = lift_unitary(v_a, photons).sectors

    def entry(sectors, m, n):
        index = basis_enumerate(len(m), sum(m)).index
        return sectors[sum(m)][index(m), index(n)]

    worst = 0.0
    for r, m in enumerate(full.basis.states):
        for s, n in enumerate(full.basis.states):
            expected = 0j
            if sum(m[:mc]) == sum(n[:mc]):
                expected = entry(sectors_c, m[:mc], n[:mc]) * entry(sectors_a, m[mc:], n[mc:])
            worst = max(worst, abs(full.matrix[r, s] - expected))
    return worst


def test_sector_product_factorization():
    rng = np.random.default_rng(15)
    for photons in (1, 2, 3):
        v_c = haar_random_unitary(2, rng)
        v_a = haar_random_unitary(2, rng)
        assert sector_product_check(v_c, v_a, photons) < 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_jsonable_shapes():
    lifted = lift_unitary(haar_random_unitary(2, 16), 2)
    data = lifted_to_jsonable(lifted)
    assert data["modes"] == 2 and data["photons"] == 2
    assert data["basis"] == basis_to_jsonable(lifted.basis)
    assert len(data["matrix"]) == 3 and len(data["matrix"][0][0]) == 2
    z = complex(data["matrix"][1][2][0], data["matrix"][1][2][1])
    assert z == pytest.approx(complex(lifted.matrix[1, 2]))


def test_csv_round_trip():
    lifted = lift_unitary(haar_random_unitary(2, 17), 2)
    text = lifted_to_csv(lifted)
    rows = []
    for line in text.strip().splitlines():
        cells = [float(t) for t in line.split(",")]
        rows.append([complex(cells[i], cells[i + 1]) for i in range(0, len(cells), 2)])
    assert np.max(np.abs(np.array(rows) - lifted.matrix)) == 0.0


def test_lifted_unitary_is_immutable_record():
    lifted = lift_unitary(np.eye(2, dtype=complex), 2)
    assert isinstance(lifted, LiftedUnitary)
    assert isinstance(lifted.basis, FockBasis)
