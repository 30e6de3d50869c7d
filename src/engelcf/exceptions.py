"""Exception types shared across the package.

Arithmetic is exact everywhere; these errors mark contract violations,
not numeric noise. Anything raised here on valid input is a bug.
"""


class EngelError(Exception):
    """Base class for all package-specific errors."""


class ZeroCoefficient(EngelError, ValueError):
    """A continued fraction coefficient a_j (j >= 1) is zero."""


class DivisibilityViolation(EngelError, ArithmeticError):
    """x_{n-1}^2 does not divide x_n where the square-divisibility is required."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"square of term {index - 1} does not divide term {index}")


class NegativeGap(EngelError, ValueError):
    """Exponent gap d_k = c_{k+1} - 2*c_k is negative; no factor sequence exists."""


class IdentityViolation(EngelError, RuntimeError):
    """A matrix/convergent identity failed; signals an implementation bug."""


class DegenerateRoot(EngelError, ValueError):
    """d1 + d2 <= 2: the characteristic root would not exceed 2."""


class InvalidSpec(EngelError, ValueError):
    """A recurrence spec violates its integrality/positivity requirements."""


class BitBudgetExceeded(EngelError, RuntimeError):
    """Doubly-exponential growth passed the configured bit cap: ``bits`` is
    the exact size of the refused term, or of the running total."""

    def __init__(self, bits: int, cap: int, what: str = "term"):
        self.bits = bits
        self.cap = cap
        super().__init__(f"{what} needs {bits} bits, cap is {cap}")


class InsufficientFactors(EngelError, ValueError):
    """A finite factor list ran out before the request could be certified."""
