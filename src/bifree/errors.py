"""Exception types shared across the package."""


class BifreeError(Exception):
    """Base class for all errors raised by this package."""


class NonzeroConstantTerm(BifreeError):
    """A substituted series must have zero constant term."""


class NotInvertible(BifreeError):
    """Series has no compositional inverse (f(0) != 0 or f'(0) == 0)."""


class ZeroConstantTerm(BifreeError):
    """Series has no reciprocal (constant term is zero)."""


class CapExceeded(BifreeError):
    """Requested enumeration exceeds the configured ground-set cap."""


class SizeMismatch(BifreeError):
    """Partitions live on different ground sets."""


class UniquenessViolation(BifreeError):
    """Brute-force complement search found zero or several candidates."""


class NotComparable(BifreeError):
    """Mobius function requested on a non-interval (pi is not <= sigma)."""


class InvalidSize(BifreeError):
    """Doubling partition requested outside its valid (n, m) range."""


class TruncationExceeded(BifreeError):
    """A value beyond the stored truncation order was requested."""


class NotNormalized(BifreeError):
    """Input must be normalized (unit mean / f_1 = 1) for this operation."""


class ZeroMean(BifreeError):
    """A face has mean zero; the transform is undefined and rescaling impossible."""


class ZeroScale(BifreeError):
    """Rescaling factor must be nonzero."""


class WDivisionError(BifreeError):
    """Operand is not divisible by w (a coefficient that must vanish does not)."""


class ZWDivisionError(BifreeError):
    """Operand is not divisible by z*w (a coefficient that must vanish does not)."""


class InvalidSubclass(BifreeError):
    """Unknown subclass label for a partition class."""


class InvariantViolation(BifreeError):
    """An internal structural check failed: a bug, not a bad input."""
