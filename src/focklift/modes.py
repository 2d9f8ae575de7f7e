"""Mode-layer objects: the five-parameter composite gate and triangular
mesh decomposition of mode unitaries.

Mode matrices act on column vectors of mode amplitudes; rows are output
modes, columns input modes, matching the lift orientation in ``fock``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import _finite, _integer, require_unitary

__all__ = [
    "CompositeGateParams",
    "beam_splitter",
    "composite_gate_mode_matrix",
    "OpticalElement",
    "reck_decompose",
    "recompose",
    "elements_to_jsonable",
    "elements_from_jsonable",
]

_TAU = 2.0 * math.pi
_QUARTER_TURN = math.pi / 2
# (sin, cos) at the quarter turns q = 0, 1, 2, 3 (mod 4)
_LATTICE = np.array([(0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0)])
# reck_decompose drops entries and phases this close to zero
ZERO_EPS = 1e-14


def exact_sin_cos(angle):
    """(sin, cos) with exact values on float multiples of pi/2, elementwise.

    A float equal to q*(pi/2) stands for a quarter turn, so it gets the
    exact lattice values instead of ~1e-16 trig residue.  This is what
    makes decoupling points land at literal zero leakage downstream.
    Takes a float or an array of finite angles.
    """
    angle = np.asarray(angle, dtype=float)
    q = np.rint(angle / _QUARTER_TURN)
    sin_cos = _LATTICE[np.mod(q, 4).astype(np.intp)]
    on_lattice = angle == q * _QUARTER_TURN
    s = np.where(on_lattice, sin_cos[..., 0], np.sin(angle))
    c = np.where(on_lattice, sin_cos[..., 1], np.cos(angle))
    return s[()], c[()]


def _reduce_angles(angles: np.ndarray) -> np.ndarray:
    """Reduce finite angles to (-pi, pi] exactly: fmod is exact, and so is
    the shift by 2pi of a result beyond pi or at or below -pi (Sterbenz's
    lemma), which takes -pi to pi."""
    r = np.fmod(angles, _TAU)
    return np.where(r > math.pi, r - _TAU, np.where(r <= -math.pi, r + _TAU, r))


@dataclass(frozen=True)
class CompositeGateParams:
    """Parameters (alpha, beta, gamma, delta, epsilon) of the composite gate
    phases(alpha, beta) . mix(epsilon) . phases(gamma, delta).

    Angles are reduced to (-pi, pi] on construction; the reduction never
    changes the gate beyond floating rounding.  A non-finite angle fails
    closed with InvalidInputError.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float

    def __post_init__(self):
        names = ("alpha", "beta", "gamma", "delta", "epsilon")
        angles = np.array([_finite(getattr(self, name), name) for name in names])
        for name, angle in zip(names, _reduce_angles(angles).tolist()):
            object.__setattr__(self, name, angle)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta, self.epsilon)


def beam_splitter(epsilon: float) -> np.ndarray:
    """Two-mode mixer exp(i*eps*(a2+a1 + a1+a2)); on the modes this is
    exp(i*eps*[[0, 1], [1, 0]])."""
    s, c = exact_sin_cos(_finite(epsilon, "epsilon"))
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


def composite_gate_mode_matrix(params: CompositeGateParams) -> np.ndarray:
    """Mode matrix diag(e^ia, e^ib) . B(eps) . diag(e^ig, e^id)."""
    a, b, g, d, e = params.as_tuple()
    pre = np.array([np.exp(1j * g), np.exp(1j * d)])
    post = np.array([np.exp(1j * a), np.exp(1j * b)])
    return (beam_splitter(e) * pre[np.newaxis, :]) * post[:, np.newaxis]


# ---------------------------------------------------------------------------
# mesh decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpticalElement:
    """One passive element of a mesh.

    kind "phase-shifter": modes = (m,), angles = (lam,), matrix is the
    identity with e^{i lam} at mode m.  kind "beam-splitter": modes = (p, q),
    angles = (theta, phi), matrix embeds
    [[e^{i phi} cos th, i sin th], [i e^{i phi} sin th, cos th]] on (p, q).
    Mode indices are 0-based integers and angles finite numbers (booleans
    are neither); anything else fails closed.
    """

    kind: str
    modes: tuple[int, ...]
    angles: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(_integer(m, "mode index", 0) for m in self.modes))
        object.__setattr__(self, "angles", tuple(_finite(a, "element angle") for a in self.angles))
        if self.kind == "phase-shifter":
            if len(self.modes) != 1 or len(self.angles) != 1:
                raise InvalidInputError("phase-shifter takes one mode and one angle")
        elif self.kind == "beam-splitter":
            if len(self.modes) != 2 or len(self.angles) != 2:
                raise InvalidInputError("beam-splitter takes two modes and two angles")
            if self.modes[0] == self.modes[1]:
                raise InvalidInputError("beam-splitter modes must differ")
        else:
            raise InvalidInputError(f"unknown element kind {self.kind!r}")


def _block(element: OpticalElement, s: float, c: float) -> np.ndarray:
    """The element's matrix on its own modes: 1 x 1 or 2 x 2, given the
    exact (sin, cos) of its first angle."""
    if element.kind == "phase-shifter":
        return np.array([[np.exp(1j * element.angles[0])]])
    eph = np.exp(1j * element.angles[1])
    return np.array([[eph * c, 1j * s], [1j * eph * s, c]])


def reck_decompose(v: np.ndarray) -> list[OpticalElement]:
    """Triangular decomposition of a mode unitary into mesh elements.

    Nulls the below-diagonal entries row by row from the bottom with
    two-mode rotations applied from the right, leaving a diagonal phase
    layer.  Emits at most M phase shifters plus M(M-1)/2 beam splitters;
    elements indistinguishable from the identity at ZERO_EPS are dropped.
    recompose(reck_decompose(v), M) reproduces v to ~1e-12 Frobenius.
    """
    v = require_unitary(v, name="mode matrix")
    m = v.shape[0]
    work = v.copy()
    applied: list[OpticalElement] = []
    for r in range(m - 1, 0, -1):
        for p in range(r):
            q = r
            urp = work[r, p]
            if abs(urp) <= ZERO_EPS:
                continue
            urq = work[r, q]
            th = math.atan2(abs(urp), abs(urq))
            ph = float(np.angle(urp) - np.angle(urq) - math.pi / 2)
            el = OpticalElement("beam-splitter", (p, q), (th, ph))
            # right-multiply work by the element's inverse: mix columns p, q
            c, s = math.cos(th), math.sin(th)
            emph = np.exp(-1j * ph)
            col_p = work[:, p].copy()
            col_q = work[:, q].copy()
            work[:, p] = emph * c * col_p - 1j * s * col_q
            work[:, q] = -1j * emph * s * col_p + c * col_q
            applied.append(el)
    elements: list[OpticalElement] = []
    for k in range(m):
        lam = float(np.angle(work[k, k]))
        if abs(lam) > ZERO_EPS:
            elements.append(OpticalElement("phase-shifter", (k,), (lam,)))
    elements.extend(reversed(applied))
    return elements


def recompose(elements: list[OpticalElement], dim: int) -> np.ndarray:
    """Product of element matrices in list order (empty list -> identity).

    Each element mixes only the columns of its own modes, so M^2 / 2
    elements on M modes cost O(M^3) in all."""
    dim = _integer(dim, "dim", 1)
    out = np.eye(dim, dtype=complex)
    sin, cos = exact_sin_cos([el.angles[0] for el in elements])
    for el, s, c in zip(elements, sin, cos):
        if max(el.modes) >= dim:
            raise InvalidInputError(f"element touches mode {max(el.modes)}, dim is {dim}")
        modes = list(el.modes)
        out[:, modes] = out[:, modes] @ _block(el, s, c)
    return out


def elements_to_jsonable(elements: list[OpticalElement]) -> list[dict]:
    return [
        {"kind": el.kind, "modes": list(el.modes), "angles": [float(a) for a in el.angles]}
        for el in elements
    ]


def elements_from_jsonable(data: list[dict]) -> list[OpticalElement]:
    out = []
    for entry in data:
        try:
            out.append(
                OpticalElement(
                    kind=entry["kind"],
                    modes=tuple(entry["modes"]),
                    angles=tuple(entry["angles"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed netlist entry {entry!r}") from exc
    return out
