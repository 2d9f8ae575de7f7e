"""Exception types shared across the package."""

__all__ = [
    "InvalidInputError",
    "ResourceLimitError",
    "LeakyGateError",
]


class InvalidInputError(ValueError):
    """Input violates a documented precondition (shape, symmetry, range)."""


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds a hard size cap."""


class LeakyGateError(RuntimeError):
    """Gate couples the computational subspace to bunched states beyond tolerance."""
