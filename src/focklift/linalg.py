"""Dense linear-algebra kernel for small complex matrices.

Thin, contract-checked wrappers around numpy.linalg plus a seeded Haar
sampler.  Everything in here operates on plain complex ndarrays; callers
own the physical interpretation.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "require_hermitian",
    "require_unitary",
    "hermitian_eig",
    "exp_i_hermitian",
    "haar_random_unitary",
]

# Frobenius tolerance for validating Hermiticity / unitarity of inputs.
CHECK_TOL = 1e-10


def _as_square(m: np.ndarray, name: str, stack: bool = False) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-2] != m.shape[-1]:
        raise InvalidInputError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


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
    with np.errstate(invalid="ignore", over="ignore"):  # NaN or inf fails below
        d = h - h.conj().swapaxes(-1, -2)
        dev = np.sqrt(np.add.reduce((d.conj() * d).real, axis=(-2, -1)))  # as np.linalg.norm
    return _within(h, dev, CHECK_TOL, "matrix", "Hermitian: ||h - h^dag||")


def require_unitary(u: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """u, or with stack=True each member of an (L, M, M) stack, unitary to CHECK_TOL."""
    u = _as_square(u, name, stack)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN or inf fails below
        dev = np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]), axis=(-2, -1))
    return _within(u, dev, CHECK_TOL, name, "unitary: ||u^dag u - 1||")


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each of an (L, M, M) stack.

    Returns (w, q) with real eigenvalues w in ascending order and unitary q
    such that h = q @ diag(w) @ q^dag.  Raises InvalidInputError when the
    input (any member) deviates from Hermiticity beyond the check tolerance.
    """
    h = require_hermitian(h, stack=True)
    w, q = np.linalg.eigh(h)
    return w, q


def exp_i_hermitian(h: np.ndarray) -> np.ndarray:
    """Unitary exp(i*h) of a Hermitian matrix via its eigendecomposition,
    or of each member of an (L, M, M) stack as for it alone."""
    w, q = hermitian_eig(h)
    return (q * np.exp(1j * w)[..., np.newaxis, :]) @ q.conj().swapaxes(-1, -2)


def haar_random_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary of size dim x dim.

    Complex Ginibre matrix, QR factorization, then column k is rescaled by
    conj(r_kk)/|r_kk| to detach the sample from the QR phase convention.
    The seed is either an integer fed to numpy's default PCG64 generator or
    an existing Generator (useful for spawned streams).
    """
    if dim < 1:
        raise InvalidInputError(f"dim must be >= 1, got {dim}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))
