"""Exception hierarchy shared by all endospec modules."""


class EndospecError(ValueError):
    """Base class; subclasses ValueError so generic callers can catch both."""


class DomainError(EndospecError):
    """Value outside the mathematical domain of an operation."""


class ShapeError(EndospecError):
    """Dimension or length mismatch."""


class ValidityError(EndospecError):
    """Structural precondition violated (parity, degree, model constraints)."""


class SingularActionError(EndospecError):
    """An action with eigenvalue 0 where an invertible one is required."""


class ConsistencyError(EndospecError):
    """Supplied pieces of data contradict each other."""


class DualityViolationError(EndospecError):
    """Poincare-duality degree pairing does not match."""


class InapplicableModelError(ValidityError):
    """Model fails the premises of a check; result is not-applicable."""
