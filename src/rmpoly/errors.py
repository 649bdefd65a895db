"""Exception types shared across the package.

The CLI maps these onto process exit codes: validation failures exit 1,
numerical failures exit 2, verification-gate failures exit 3.
"""

__all__ = ["ValidationError", "NumericalError", "ConvergenceError",
           "SingularUpdateError"]


class ValidationError(ValueError):
    """Raised when inputs, shapes, or configuration violate a precondition."""


class NumericalError(RuntimeError):
    """Base class for failures inside a numerical kernel."""


class ConvergenceError(NumericalError):
    """An iterative factorization (SVD/QR eigensolver) failed to converge."""


class SingularUpdateError(NumericalError):
    """A low-rank update produced a numerically singular small matrix.

    ``sigma_min`` records the offending smallest singular value.
    """

    def __init__(self, message: str, sigma_min: float):
        super().__init__(message)
        self.sigma_min = sigma_min
