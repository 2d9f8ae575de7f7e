"""Dense linear-algebra kernel for small complex matrices, and the
package's input readers.

Thin, contract-checked wrappers around numpy.linalg plus a seeded Haar
sampler.  Everything in here operates on plain complex ndarrays; callers
own the physical interpretation.  Every matrix, count and finite number
that enters the package passes one of ``_as_square``, ``_integer``,
``_finite`` and ``_finite_complex``, which turn what they cannot read into
InvalidInputError.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "exp_i_hermitian",
    "haar_random_unitary",
]

# Frobenius tolerance for validating Hermiticity / unitarity of inputs.
CHECK_TOL = 1e-10


def _as_square(m, name: str, stack: bool = False, dim: int | None = None) -> np.ndarray:
    """m as a finite complex square matrix, of side dim when given, or with
    stack=True also an (L, M, M) stack of them; anything else fails closed."""
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{name} is not a complex matrix: {exc}") from None
    if (m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-2] != m.shape[-1]
            or dim not in (None, m.shape[-1])):
        side = "square" if dim is None else f"{dim} x {dim}"
        raise InvalidInputError(f"{name} must be a {side} matrix, got shape {m.shape}")
    finite = np.isfinite(m)
    if np.count_nonzero(finite) < m.size:  # on small stacks half the cost of .all()
        member = ""
        if m.ndim == 3:
            bad = np.flatnonzero(~finite.all(axis=(1, 2)))[0]
            member = f" (stack member {bad})"
        raise InvalidInputError(f"{name}{member} has a non-finite entry")
    return m


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    """value as an int when it is an integer (not a bool) in low..high."""
    if type(value) is not int and (type(value) is bool or not isinstance(value, numbers.Integral)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low or high is not None and value > high:
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise InvalidInputError(f"{name} must be {bounds}, got {value}")
    return int(value)


def _finite(value, name: str) -> float:
    """value as a float when it is a finite real number (not a bool)."""
    try:
        if (type(value) in (float, int) or isinstance(value, numbers.Real)
                and not isinstance(value, bool)) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise InvalidInputError(f"{name} must be a finite number, got {value!r}")


def _finite_complex(value, name: str) -> complex:
    """value as a complex when it is a finite complex number (not a bool)."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        return complex(_finite(value.real, name), _finite(value.imag, name))
    raise InvalidInputError(f"{name} must be a finite complex number, got {value!r}")


def _within(m: np.ndarray, dev: np.ndarray, tol: float, name: str, what: str) -> np.ndarray:
    """m once every member's defect norm dev is within tol; NaN or inf fails."""
    if (dev <= tol).all():
        return m
    dev = np.reshape(dev, -1)
    bad = np.flatnonzero(~(dev <= tol))[0]
    member = f" (stack member {bad})" if m.ndim == 3 else ""
    raise InvalidInputError(f"{name}{member} is not {what} = {dev[bad]:.3e} > {tol:.1e}")


def require_hermitian(h: np.ndarray, stack: bool = False) -> np.ndarray:
    """h, or with stack=True each member of an (L, M, M) stack, Hermitian to CHECK_TOL."""
    h = _as_square(h, "matrix", stack)
    with np.errstate(invalid="ignore", over="ignore"):  # an overflow to inf or NaN fails below
        d = h - h.conj().swapaxes(-1, -2)
        dev = np.sqrt(np.add.reduce((d.conj() * d).real, axis=(-2, -1)))  # as np.linalg.norm
    return _within(h, dev, CHECK_TOL, "matrix", "Hermitian: ||h - h^dag||")


def require_unitary(u: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """u, or with stack=True each member of an (L, M, M) stack, unitary to CHECK_TOL."""
    u = _as_square(u, name, stack)
    with np.errstate(invalid="ignore", over="ignore"):  # an overflow to inf or NaN fails below
        dev = np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]), axis=(-2, -1))
    return _within(u, dev, CHECK_TOL, name, "unitary: ||u^dag u - 1||")


def exp_i_hermitian(h: np.ndarray) -> np.ndarray:
    """Unitary exp(i*h) of a Hermitian matrix via its eigendecomposition,
    or of each member of an (L, M, M) stack as for it alone.  Raises
    InvalidInputError when h (any member) is not Hermitian to CHECK_TOL."""
    w, q = np.linalg.eigh(require_hermitian(h, stack=True))
    return (q * np.exp(1j * w)[..., np.newaxis, :]) @ q.conj().swapaxes(-1, -2)


def haar_random_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary of size dim x dim.

    Complex Ginibre matrix, QR factorization, then column k is rescaled by
    conj(r_kk)/|r_kk| to detach the sample from the QR phase convention.
    The seed is either a non-negative integer fed to numpy's default PCG64
    generator or an existing Generator (useful for spawned streams).
    """
    dim = _integer(dim, "dim", 1)
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(_integer(seed, "seed", 0)))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))
