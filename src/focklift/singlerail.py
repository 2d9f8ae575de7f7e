"""Two single-rail qubits under passive two-mode optics.

The combined 0/1/2-photon space of two modes is six dimensional with fixed
basis order

    |00>, |10>, |01>, |11>, |20>, |02>

(first four: computational occupations, last two: bunched).  The composite
gate phases(alpha,beta) . mix(eps) . phases(gamma,delta) is block diagonal
over photon number; its closed form, leakage into the bunched pair, the
exactly decoupled families at eps = k*pi/2, and the operator-Schmidt
entangling measure live here.

Qubit convention for extracted 4 x 4 gates: index = 2*n1 + n2, i.e. qubit 1
is mode 1 and occupies the first tensor slot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, LeakyGateError
from .fock import lift_unitary
from .linalg import _as_square, _finite, _integer
from .modes import CompositeGateParams, exact_sin_cos

__all__ = [
    "BASIS_SIX",
    "SWAP",
    "composite_gate_fock",
    "assemble_from_mode_matrix",
    "LeakageReport",
    "leakage",
    "decoupled_form_even",
    "decoupled_form_odd",
    "computational_block",
    "extract_computational",
    "nearest_unitary_block",
    "entangling_measure",
]

BASIS_SIX: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))

# bunched couplings: |11> (index 3) against |20>, |02> (indices 4, 5)
_LEAK_ENTRIES = ((3, 4), (3, 5), (4, 3), (5, 3))
_LEAK_ROWS, _LEAK_COLS = np.array(_LEAK_ENTRIES).T

# 6-dim computational indices reordered to qubit order 2*n1 + n2
_QUBIT_ORDER = np.array((0, 2, 1, 3))

# leakage lists coupling entries above this magnitude
LISTING_TOL = 1e-12
# extract_computational refuses gates that leak more than this
EXTRACT_TOL = 1e-9

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

# flat 4 x 4 gate indices of the reshuffles R[(r1,c1),(r2,c2)] of the gate,
# g[(r1,r2),(c1,c2)], and of its SWAP twin, g[(r2,r1),(c1,c2)]
_RESHUFFLES = np.stack([np.arange(16).reshape(2, 2, 2, 2).transpose(axes)
                        for axes in ((0, 2, 1, 3), (1, 2, 0, 3))]).reshape(2, 4, 4)

# diag(a, W, b) is 0 at _OFF_BLOCK; _POLAR_AT: a, b, det's row, W, W reversed;
# _SCHMIDT_AT: [[a, x], [y, b]] of the two reshuffles, interleaved
_OFF_BLOCK = np.array([1, 2, 3, 4, 7, 8, 11, 12, 13, 14])
_POLAR_AT = np.array([0, 15, 0, 5, 6, 9, 10, 10, 9, 6, 5])
_SCHMIDT_AT = np.array([0, 0, 5, 9, 10, 6, 15, 15])
_COF_SIGN = np.array([[1], [-1], [-1], [1]], dtype=complex)


# the composite gate's 13 phase entries as flat indices 6 * row + column,
# grouped by the steps after their phase (i e^{i.} s, i e^{i.} s2 / sqrt2,
# e^{i.} c or c2, e^{2i.} c c, -e^{2i.} s s); entry k's phase is i or 2i times
# the left-to-right sum of (a, b, g, d, 2a, 2b, 2g, 2d, 0) at _PHASE_TERMS[:, k]
_GATE_ENTRIES = np.array([(1, 2), (2, 1), (3, 4), (3, 5), (4, 3), (5, 3), (1, 1), (2, 2),
                          (3, 3), (4, 4), (5, 5), (4, 5), (5, 4)]) @ (6, 1)
_PHASE_TERMS = np.array([(0, 3, 8, 8), (1, 2, 8, 8), (0, 1, 6, 8), (0, 1, 7, 8), (4, 2, 3, 8),
                         (5, 2, 3, 8), (0, 2, 8, 8), (1, 3, 8, 8), (0, 1, 2, 3), (0, 2, 8, 8),
                         (1, 3, 8, 8), (0, 3, 8, 8), (1, 2, 8, 8)]).T
_PHASE_UNITS = np.array([1j] * 9 + [2j] * 4)[:, np.newaxis]


def composite_gate_fock(params: CompositeGateParams) -> np.ndarray:
    """Closed-form 6 x 6 Fock matrix of the composite gate.

    Sector blocks: scalar 1 on the vacuum; on one photon
        [[e^{i(a+g)} c,  i e^{i(a+d)} s], [i e^{i(b+g)} s,  e^{i(b+d)} c]]
    with c = cos(eps), s = sin(eps); on two photons the double-angle block
    whose |11> <-> bunched couplings carry i*sin(2 eps)/sqrt(2).  Equals the
    permanent lift of the mode matrix entrywise.
    """
    return _composite_gates(np.array([params.as_tuple()]))[0]


def _composite_gates(angles: np.ndarray) -> np.ndarray:
    """(L, 6, 6) composite gates of an (L, 5) stack of angles (alpha, beta,
    gamma, delta, epsilon) in the range CompositeGateParams reduces to.
    Each entry takes the floating-point steps of the closed form above."""
    s, c = exact_sin_cos(angles[:, 4])
    # double angles as products so quarter-turn zeros stay literal
    s2, c2 = 2.0 * s * c, c * c - s * s
    terms = np.concatenate([angles.T[:4], 2 * angles.T[:4], np.zeros((1, len(angles)))])
    z = np.exp(_PHASE_UNITS * np.add.reduce(terms[_PHASE_TERMS], axis=0))
    z[:6] *= 1j
    np.negative(z[11:], out=z[11:])
    z *= np.array([s, s, s2, s2, s2, s2, c, c, c2, c, c, s, s])
    z[2:6] /= math.sqrt(2)
    z[9:] *= np.array([c, c, s, s])
    u = np.zeros((len(angles), 6, 6), dtype=complex)
    u[:, 0, 0] = 1.0
    u.reshape(-1, 36)[:, _GATE_ENTRIES] = z.T
    return u


def assemble_from_mode_matrix(v: np.ndarray) -> np.ndarray:
    """6 x 6 Fock matrix of a two-mode unitary from its lift to sectors 0..2."""
    v = _as_square(v, "mode matrix", dim=2)
    zero, one, two = lift_unitary(v, 2).sectors
    u = np.zeros((6, 6), dtype=complex)
    u[0, 0] = zero[0, 0]
    u[1:3, 1:3] = one
    pos = (4, 3, 5)  # two-photon sector order (2,0), (1,1), (0,2)
    u[np.ix_(pos, pos)] = two
    return u


@dataclass(frozen=True)
class LeakageReport:
    """Frobenius weight of the computational <-> bunched couplings.

    ``offending`` lists (row, col, magnitude) for coupling entries above
    LISTING_TOL; the report is "decoupled" when the list is empty.
    """

    frobenius_leakage: float
    offending: tuple[tuple[int, int, float], ...]


def leakage(gate: np.ndarray) -> LeakageReport:
    """Leakage of a 6 x 6 gate out of the computational subspace.

    For the composite gate this equals sqrt(2) * |sin(2 eps)|, which vanishes
    exactly when eps is a multiple of pi/2.
    """
    mags, total = _couplings(_as_square(gate, "gate", dim=6)[np.newaxis])
    offending = tuple((r, c, float(mag)) for (r, c), mag in zip(_LEAK_ENTRIES, mags[0])
                      if mag > LISTING_TOL)
    return LeakageReport(frobenius_leakage=float(total[0]), offending=offending)


def _couplings(gates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, 4) magnitudes of the bunched couplings of an (L, 6, 6) stack and
    their (L,) Frobenius norms.  np.hypot is scalar abs() bit for bit (np.abs
    on complex entries is not), and the squares add in _LEAK_ENTRIES order."""
    entries = gates[:, _LEAK_ROWS, _LEAK_COLS]
    mags = np.hypot(entries.real, entries.imag)
    sq = mags * mags
    return mags, np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3])


def decoupled_form_even(n: int, alpha: float, beta: float, gamma: float, delta: float) -> np.ndarray:
    """Exact composite gate at eps = n*pi: a diagonal phase gate.

    diag(1, (-1)^n e^{i(a+g)}, (-1)^n e^{i(b+d)}, e^{i(a+b+g+d)},
         e^{2i(a+g)}, e^{2i(b+d)}); leakage is identically zero.
    """
    n = _integer(n, "n", -math.inf)
    alpha, beta, gamma, delta = (_finite(a, "angle") for a in (alpha, beta, gamma, delta))
    sign = -1.0 if n % 2 else 1.0
    ph = np.exp
    return np.diag(
        [
            1.0,
            sign * ph(1j * (alpha + gamma)),
            sign * ph(1j * (beta + delta)),
            ph(1j * (alpha + beta + gamma + delta)),
            ph(2j * (alpha + gamma)),
            ph(2j * (beta + delta)),
        ]
    ).astype(complex)


def decoupled_form_odd(n: int, alpha: float, beta: float, gamma: float, delta: float) -> np.ndarray:
    """Exact composite gate at eps = (2n+1)*pi/2: a mode swap with phases.

    One-photon block antidiagonal with entries (-1)^n i e^{i(a+d)} and
    (-1)^n i e^{i(b+g)}; two-photon block maps |11> to -|11> and exchanges
    the bunched pair; leakage is identically zero.
    """
    n = _integer(n, "n", -math.inf)
    alpha, beta, gamma, delta = (_finite(a, "angle") for a in (alpha, beta, gamma, delta))
    sign = -1.0 if n % 2 else 1.0
    ph = np.exp
    u = np.zeros((6, 6), dtype=complex)
    u[0, 0] = 1.0
    u[1, 2] = sign * 1j * ph(1j * (alpha + delta))
    u[2, 1] = sign * 1j * ph(1j * (beta + gamma))
    u[3, 3] = -ph(1j * (alpha + beta + gamma + delta))
    u[4, 5] = -ph(2j * (alpha + delta))
    u[5, 4] = -ph(2j * (beta + gamma))
    return u


def computational_block(gate: np.ndarray) -> np.ndarray:
    """Raw 4 x 4 computational block in qubit order 2*n1 + n2 (no projection);
    an (L, 6, 6) stack gives an (L, 4, 4) stack."""
    gate = _as_square(gate, "gate", stack=True, dim=6)
    return gate[..., _QUBIT_ORDER[:, np.newaxis], _QUBIT_ORDER]


def nearest_unitary_block(gate: np.ndarray) -> np.ndarray:
    """Polar-project the computational block without a leakage gate.

    Diagnostic companion to ``extract_computational`` for sweeps over leaky
    parameter regions.  The block diag(a, W, b) has the closed-form polar factor
    ``_polar_blocks``, unitary also at rank-deficient points such as eps = pi/4; a
    nonzero entry between photon numbers raises InvalidInputError.  An (L, 6, 6)
    stack gives an (L, 4, 4) stack, each entry as for its gate alone.
    """
    block = computational_block(gate)
    mixed = np.argwhere(block.reshape(-1, 16).take(_OFF_BLOCK, axis=1))
    if len(mixed):
        raise InvalidInputError(f"entry {divmod(int(_OFF_BLOCK[mixed[0, 1]]), 4)} of computational "
                                f"block {mixed[0, 0]} is nonzero: photon number not conserved")
    return _polar_blocks(block.reshape(-1, 4, 4)).reshape(block.shape)


def _polar_blocks(gates: np.ndarray) -> np.ndarray:
    """Polar factors of an (L, 4, 4) stack of diag(a, W, b) gates (Higham, Functions of
    Matrices, 2008, ch. 8): phases of a, b, and W + e^{i arg det W} conj(cof W) over its
    Frobenius norm / sqrt 2, unitary also at rank 1; 0 has phase 1, and W = 0 goes to 1."""
    n = len(gates)
    y = gates.reshape(n, 16).T.take(_POLAR_AT, axis=0)
    y[2] = y[3] * y[7] - y[4] * y[8]  # det W
    size = np.abs(y[:3])
    if np.count_nonzero((size > 1e-290) & (size < 1e290)) < size.size:
        # scale W, then a, b and det W, into [0.5, 1) by powers of 2, which is exact and moves
        # no polar factor; W = 0 goes to 1, and 0 takes the phase 1
        f = y.view(float)
        np.ldexp(f[3:], -np.repeat(np.frexp(np.abs(y[3:7]).max(axis=0))[1], 2), out=f[3:])
        y[np.ix_((3, 6, 7, 10), ~y[3:7].any(axis=0))] = 1.0
        y[2] = y[3] * y[7] - y[4] * y[8]
        np.ldexp(f[:3], -np.repeat(np.frexp(np.abs(y[:3]))[1], 2, axis=1), out=f[:3])
        y[:3][y[:3] == 0] = 1.0
        size = np.abs(y[:3])
    phase = y[:3] / size  # not np.sign, which numpy < 2 takes from Re z alone
    s = y[3:7] + phase[2] * _COF_SIGN * y[7:].conj()
    norm = np.hypot.reduce(np.abs(s), axis=0) / math.sqrt(2.0)  # W = 1 keeps norm 1 exactly
    s /= norm
    out = np.zeros((16, n), dtype=complex)
    out[::15], out[5:7], out[9:11] = phase[:2], s[:2], s[2:]
    return out.T.reshape(n, 4, 4)


def extract_computational(gate: np.ndarray) -> np.ndarray:
    """Two-qubit gate carried by a decoupled 6 x 6 gate.

    Raises LeakyGateError when the bunched couplings exceed EXTRACT_TOL.
    The block is polar-projected onto the unitary group; for leakage within
    that tolerance the projection moves it by O(EXTRACT_TOL) at most.
    """
    rep = leakage(gate)
    if not rep.frobenius_leakage <= EXTRACT_TOL:
        raise LeakyGateError(f"gate couples to bunched states: leakage "
                             f"{rep.frobenius_leakage:.3e} > {EXTRACT_TOL:.1e}")
    return nearest_unitary_block(gate)


def entangling_measure(gate: np.ndarray):
    """Entangling power proxy in [0, 3/4], zero iff the gate is A (x) B or
    SWAP . (A (x) B).

    min over the gate and its SWAP twin of 1 - sigma_1^2 / 4, where sigma_1
    is the top operator-Schmidt coefficient.  Invariant under local
    unitaries on either side; CNOT scores 1/2.  A 4 x 4 gate gives a float,
    an (L, 4, 4) stack an (L,) array, each entry as for its gate alone.

    A gate diag(a, W, b), exactly 0 between photon numbers, takes the closed form
    (Nielsen et al., PRA 67, 052301, 2003): sigma_1^2 of [[a, w11], [w22, b]] and of
    its SWAP twin's block from their Gram matrices; other gates take the SVD.
    """
    gate = _as_square(gate, "gate", stack=True, dim=4)
    flat = gate.reshape(-1, 16)
    x = flat.T.take(_SCHMIDT_AT, axis=0)
    sq, q = np.abs(x) ** 2, x[:4] * x[4:].conj()
    p, r = sq[:2] + sq[2:4], sq[4:6] + sq[6:]  # rows |a|^2 + |x|^2 and |y|^2 + |b|^2
    top = (p + r) + np.hypot(p - r, 2.0 * np.abs(q[:2] + q[2:]))  # 2 sigma_1^2
    s2 = 0.5 * np.maximum(top[0], top[1])  # the larger s^2 gives the smaller 1 - s^2 / 4
    mixed = flat.take(_OFF_BLOCK, axis=1)
    if np.count_nonzero(mixed):
        rows = mixed.any(axis=1)
        s = np.linalg.svd(flat[rows].take(_RESHUFFLES, axis=1), compute_uv=False)[:, :, 0]
        s2[rows] = s.max(axis=1) ** 2
    measure = np.fmax(0.0, 1.0 - s2 / 4.0)  # entries past 1e154 make inf - inf, and score 0
    return float(measure[0]) if gate.ndim == 2 else measure
