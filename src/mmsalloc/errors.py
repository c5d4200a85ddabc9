"""Exception types shared across the package."""


class MmsError(Exception):
    """Base class for all package-specific errors."""


class SignViolation(MmsError):
    """A valuation entry has the wrong sign for the declared item kind."""


class EmptyMatrix(MmsError):
    """The valuation matrix has no agents."""


class ShapeMismatch(MmsError):
    """An allocation or matrix does not match the instance dimensions."""


class MalformedDocument(MmsError):
    """A JSON document lacks a field or holds a value of the wrong type."""


class TooLarge(MmsError):
    """A search ran past its limit: a share or threshold search past its
    node budget or the stack, or the reference enumeration past its cap."""


class InternalInvariantViolation(MmsError):
    """A property guaranteed by the theory failed; indicates a bug."""


class PreconditionUnmet(MmsError):
    """A caller-checked precondition of a reduction did not hold."""


class EmptyGroup(MmsError):
    """A bundle group that must be non-empty was empty."""


class DanglingReference(MmsError):
    """A reduction step references an agent or item not in the instance."""


class NegativeC(MmsError):
    """The surplus-item count c must be non-negative."""


class COutOfRange(MmsError):
    """The requested c is outside the formula's range of validity."""
