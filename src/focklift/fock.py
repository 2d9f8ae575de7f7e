"""Fock-sector representation of mode unitaries.

A mode unitary v acting on M bosonic modes induces, on the N-photon sector,
the matrix

    <m| phi(v) |n> = Per(v[m|n]) / sqrt(prod_i m_i! * prod_j n_j!)

where v[m|n] repeats row i of v m_i times (output occupations) and column j
n_j times (input occupations).  ``lift_unitary`` computes no permanent:
the creation-operator recursion (Miatto & Quesada, Quantum 4, 366 (2020))

    phi(v)|n> = n_j^{-1/2} (sum_i v[i, j] a_i+) phi(v)|n - e_j>

builds sector N from sector N - 1, so one pass from sector 1 (v) yields sectors 0..N.
The permanent formula is the test oracle; ``lift_via_substitution``
recomputes the same action by substituting a_i+ -> sum_j v[j, i] a_j+ and
expanding, the independent oracle for the orientation conventions above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .linalg import _as_square, _finite_complex, _integer, require_unitary

__all__ = [
    "FockBasis",
    "basis_enumerate",
    "LiftedUnitary",
    "lift_unitary",
    "OccupationPolynomial",
    "basis_monomial",
    "lift_via_substitution",
    "poly_to_vector",
    "basis_to_jsonable",
    "lifted_to_jsonable",
    "lifted_to_csv",
]

# Hard cap on sector dimension; C(N+M-1, M-1) grows fast.  A lift keeps
# every sector 0..N, so their entries together may not exceed what one
# sector at the cap holds, MAX_BASIS_SIZE**2, nor their number the cap
# itself (each sector also costs ~2 KB of tables, which on one mode
# dominate its single entry).
MAX_BASIS_SIZE = 10_000
PRUNE_EPS = 1e-15  # OccupationPolynomial.prune drops terms with coefficients this small
# Complex entries in one row chunk of a lift's gather (2^13 x 16 B = 128 KiB)
_BLOCK_ENTRIES = 1 << 13


def _occupations(modes: int, photons: int):
    if modes == 1:
        yield (photons,)
        return
    for k in range(photons, -1, -1):
        for rest in _occupations(modes - 1, photons - k):
            yield (k,) + rest


@dataclass(frozen=True)
class FockBasis:
    """Ordered basis of the N-photon sector on M modes.

    States are occupation tuples in lexicographically descending order, so
    for (M=2, N=2) the order is (2,0), (1,1), (0,2).
    """

    modes: int
    photons: int
    states: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.states)

    def index(self, state: tuple[int, ...]) -> int:
        return self._index_map()[tuple(state)]

    def _index_map(self) -> dict[tuple[int, ...], int]:
        m = getattr(self, "_imap", None)
        if m is None:
            m = {s: i for i, s in enumerate(self.states)}
            object.__setattr__(self, "_imap", m)
        return m


# typed: True == 1, so an untyped cache would answer a bool count without the check
@lru_cache(maxsize=None, typed=True)
def basis_enumerate(modes: int, photons: int) -> FockBasis:
    """Enumerate the N-photon occupation basis on M modes.

    Size is C(N+M-1, M-1); basis sizes above MAX_BASIS_SIZE raise
    ResourceLimitError before any enumeration work is done.
    """
    modes, photons = _integer(modes, "modes", 1), _integer(photons, "photons", 0)
    size = math.comb(photons + modes - 1, modes - 1)
    if size > MAX_BASIS_SIZE:
        raise ResourceLimitError(
            f"sector basis has {size} states, cap is {MAX_BASIS_SIZE} (M={modes}, N={photons})"
        )
    states = tuple(_occupations(modes, photons))
    return FockBasis(modes=modes, photons=photons, states=states)


@lru_cache(maxsize=None)
def _kept_entries(modes: int, photons: int) -> int:
    """Entries of the sectors 0..N that a lift keeps."""
    return sum(math.comb(n + modes - 1, modes - 1) ** 2 for n in range(photons + 1))


def _entry_index(modes: int, photons: int, rows, cols):
    """Where a lift's entries (sectors 0..N in turn, row-major) hold sector N's (rows, cols)."""
    return _kept_entries(modes, photons - 1) + rows * len(basis_enumerate(modes, photons)) + cols


def _check_lift_size(modes: int, photons: int) -> int:
    """Raise ResourceLimitError when a lift to N photons would keep more than
    MAX_BASIS_SIZE sectors or MAX_BASIS_SIZE**2 entries in all; else return
    how many entries it keeps."""
    photons = _integer(photons, "photons", 0)
    if photons >= MAX_BASIS_SIZE or _kept_entries(modes, photons) > MAX_BASIS_SIZE ** 2:
        raise ResourceLimitError(
            f"a lift keeps the sectors 0..{photons} on {modes} modes; the cap is "
            f"{MAX_BASIS_SIZE} sectors and {MAX_BASIS_SIZE ** 2} entries in all"
        )
    return _kept_entries(modes, photons)


@dataclass(frozen=True)
class LiftedUnitary:
    """A mode unitary on the photon-number sectors 0..N: ``sectors[k]`` is
    its k-photon matrix; ``basis`` and ``matrix`` are those of sector N.
    Sectors are views of ``entries``, which holds them in turn, row-major."""

    basis: FockBasis
    sectors: tuple[np.ndarray, ...]
    entries: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return self.sectors[-1]


@lru_cache(maxsize=None)
def _recursion_tables(modes: int, photons: int) -> tuple[np.ndarray, ...]:
    """Tables that build the N-photon sector from the (N-1)-photon one.

    Column n peels a photon off its first occupied mode j (``peel``), from
    column ``parent`` = index of n - e_j, with factor ``inv`` = 1/sqrt(n_j).  Row
    r adds it back from each mode i: a lift's ``entries`` hold row r - e_i of
    sector N - 1 from ``above[r, i, 0]`` and ``weight[r, 0, i]`` = sqrt(r_i) (0,
    row 0, when r_i = 0; factors complex so no product casts).  O(D * M)
    entries, read-only: callers share them.
    """
    states = basis_enumerate(modes, photons).states
    below = basis_enumerate(modes, photons - 1)
    occ = np.array(states)
    source = np.array([[below.index(s[:i] + (k - 1,) + s[i + 1:]) if k else 0
                        for i, k in enumerate(s)] for s in states], dtype=np.intp)
    rows = np.arange(len(states))
    peel = np.argmax(occ > 0, axis=1)
    tables = (peel, source[rows, peel], (1.0 / np.sqrt(occ[rows, peel])).astype(complex),
              _entry_index(modes, photons - 1, source[:, :, None], 0),
              np.sqrt(occ)[:, None, :].astype(complex))
    for table in tables:
        table.flags.writeable = False
    return tables


def lift_unitary(v: np.ndarray, photons: int, check: bool = True) -> LiftedUnitary:
    """Lift a mode unitary, or a stack of them, to the sectors 0..N.

    Parameters
    ----------
    v : (M, M) or (L, M, M) array_like
        Mode unitary; rows are output modes, columns input modes.  A stack
        gives (L, D, D) sectors, each lane bit for bit its matrix alone.
    photons : int
        Top sector photon number N >= 0.  N = 0 gives the 1 x 1 identity.
        The kept sectors of one matrix may number at most MAX_BASIS_SIZE
        and hold at most MAX_BASIS_SIZE**2 entries in all; more raise
        ResourceLimitError before anything is allocated.  A stack keeps L
        times that many entries: the caller sizes it.
    check : bool
        Validate unitarity of every member of v (skip only in hot loops
        that construct v as an exact exponential).
    """
    v = require_unitary(v, name="mode matrix", stack=True) if check else \
        _as_square(v, "mode matrix", stack=True)
    modes = v.shape[-1]
    kept = _check_lift_size(modes, photons)
    basis = basis_enumerate(modes, photons)
    vs = v.reshape(-1, modes, modes)
    lanes = len(vs)
    entries = np.empty((lanes, kept), dtype=complex)
    entries[:, 0] = 1.0
    sectors = [entries[:, :1].reshape(lanes, 1, 1)]
    if photons:  # sector 1 is a copy of v itself
        entries[:, 1:modes * modes + 1] = vs.reshape(lanes, modes * modes)
        sectors.append(entries[:, 1:modes * modes + 1].reshape(lanes, modes, modes))
    # gathers use take (fancy indexing may put the lane axis innermost) and
    # products are formed out of place (in place, numpy rounds another way),
    # so a lane meets the same kernels on the same strides at any width
    for n in range(2, photons + 1):
        peel, parent, inv, above, weight = _recursion_tables(modes, n)
        coeff = (vs.take(peel, axis=2) * inv)[:, np.newaxis]  # v[i, j] / sqrt(n_j), column n
        d, at = len(peel), _entry_index(modes, n, 0, 0)
        out = entries[:, at:at + d * d].reshape(lanes, d, 1, d)
        # row r, column n: sum_i sqrt(r_i) v[i, j] / sqrt(n_j) <r - e_i|sector n-1|n - e_j>,
        # as many rows at a time as keep the (lanes, rows, M, D) gather within one block
        step = max(1, _BLOCK_ENTRIES // (max(lanes, 1) * modes * d))
        for a in range(0, d, step):
            rows = slice(a, a + step)
            index = above[rows] + parent  # (r - e_i, n - e_j) of sector n - 1
            np.matmul(weight[rows], entries.take(index, axis=1) * coeff, out=out[:, rows])
        sectors.append(out.reshape(lanes, d, d))
    sectors = tuple(s[0] for s in sectors) if v.ndim == 2 else tuple(sectors)
    return LiftedUnitary(basis, sectors, entries[0] if v.ndim == 2 else entries)


# ---------------------------------------------------------------------------
# substitution oracle
# ---------------------------------------------------------------------------

def _state_tuple(state) -> tuple[int, ...]:
    """state as a tuple of non-negative ints; anything else fails closed."""
    try:
        return tuple(_integer(k, "exponent", 0) for k in state)
    except TypeError:  # not iterable
        raise InvalidInputError(f"occupations must be a sequence of integers, got {state!r}") from None


class OccupationPolynomial:
    """Polynomial in creation operators applied to the vacuum.

    Terms map occupation-exponent tuples m to coefficients c_m, representing
    sum_m c_m * prod_i (a_i+)^(m_i) |vac>.  The monomials are orthogonal with
    squared norms prod_i m_i!.
    """

    __slots__ = ("modes", "terms")

    def __init__(self, modes: int, terms: dict[tuple[int, ...], complex] | None = None):
        self.modes = _integer(modes, "modes", 1)
        self.terms: dict[tuple[int, ...], complex] = {}
        for m, c in (terms or {}).items():
            m, c = _state_tuple(m), _finite_complex(c, "coefficient")
            if len(m) != modes:
                raise InvalidInputError(f"term {m} does not have {modes} modes")
            _integer(sum(m), "photon number", 0, 170)  # 170! is the largest factorial a float holds
            if c != 0:
                self.terms[m] = c

    def prune(self) -> "OccupationPolynomial":
        self.terms = {m: c for m, c in self.terms.items() if abs(c) > PRUNE_EPS}
        return self


def basis_monomial(state: tuple[int, ...]) -> OccupationPolynomial:
    """Normalized Fock basis state |n> as an occupation polynomial."""
    state = _state_tuple(state)
    poly = OccupationPolynomial(len(state), {state: 1.0})
    poly.terms[state] = complex(1.0 / math.sqrt(math.prod(math.factorial(k) for k in state)))
    return poly


def lift_via_substitution(v: np.ndarray, poly: OccupationPolynomial) -> OccupationPolynomial:
    """Apply a mode unitary to a creation polynomial by substitution.

    Each a_i+ is replaced by sum_j v[j, i] a_j+ (column i of the mode
    matrix) and the product is expanded term by term.  Exponential in the
    photon number; this is the oracle, not the production path.
    """
    v = _as_square(v, "mode matrix", dim=poly.modes)
    modes = poly.modes
    out: dict[tuple[int, ...], complex] = {}
    for m, c in poly.terms.items():
        # expand prod_i (sum_j v[j,i] a_j+)^(m_i), one linear factor at a time
        partial: dict[tuple[int, ...], complex] = {(0,) * modes: c}
        for i, power in enumerate(m):
            for _ in range(power):
                nxt: dict[tuple[int, ...], complex] = {}
                for mono, coef in partial.items():
                    for j in range(modes):
                        vji = v[j, i]
                        if vji == 0:
                            continue
                        key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                        nxt[key] = nxt.get(key, 0j) + coef * vji
                partial = nxt
        for mono, coef in partial.items():
            out[mono] = out.get(mono, 0j) + coef
    return OccupationPolynomial(modes, out).prune()


def poly_to_vector(poly: OccupationPolynomial, basis: FockBasis) -> np.ndarray:
    """Amplitudes <m|P|vac> of a polynomial on a sector basis.

    <m| prod (a_i+)^(m_i) |vac> = sqrt(prod m_i!), so each coefficient picks
    up the monomial norm.  Terms outside the sector raise InvalidInputError.
    """
    if poly.modes != basis.modes:
        raise InvalidInputError(f"polynomial has {poly.modes} modes, basis has {basis.modes}")
    vec = np.zeros(len(basis), dtype=complex)
    for m, c in poly.terms.items():
        if sum(m) != basis.photons:
            raise InvalidInputError(
                f"term {m} has {sum(m)} photons, basis sector has {basis.photons}"
            )
        vec[basis.index(m)] = c * math.sqrt(math.prod(math.factorial(k) for k in m))
    return vec


# ---------------------------------------------------------------------------
# export helpers
# ---------------------------------------------------------------------------

def basis_to_jsonable(basis: FockBasis) -> list[list[int]]:
    """FockBasis as a JSON-ready array of occupation vectors."""
    return [list(s) for s in basis.states]


def lifted_to_jsonable(lifted: LiftedUnitary) -> dict:
    """Lifted matrix as nested [re, im] pairs plus its basis."""
    return {
        "modes": lifted.basis.modes,
        "photons": lifted.basis.photons,
        "basis": basis_to_jsonable(lifted.basis),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in lifted.matrix],
    }


def lifted_to_csv(lifted: LiftedUnitary) -> str:
    """Lifted matrix as CSV text: one row per line, flat re,im pairs."""
    lines = []
    for row in lifted.matrix:
        cells = []
        for z in row:
            cells.append(repr(float(z.real)))
            cells.append(repr(float(z.imag)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
