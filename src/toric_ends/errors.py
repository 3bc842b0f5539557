"""Exceptions shared across the package."""


class ToricEndError(Exception):
    """Base class for all library errors."""


class DegenerateTargetError(ToricEndError):
    """A non-attained rational target coincides with the current slope."""


class MalformedPathError(ToricEndError):
    """A vertex sequence violates the slope-path invariants."""


class InfiniteBlockError(ToricEndError):
    """A finite-block operation was applied to an infinite block."""


class CoverageMismatchError(ToricEndError):
    """Sign data does not cover exactly the basic slices of a decomposition."""


class IllegalTailError(ToricEndError):
    """A sign tail rule is inconsistent with the finiteness of the path."""


class IncomparableTargetsError(ToricEndError):
    """Invariants built over different boundary data cannot be compared."""


class ValidationError(ToricEndError):
    """An end description failed validation.  Carries the violation list."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class UndecidableError(ToricEndError):
    """The question is posed but undecidable for the given inputs."""


class UndecidableAtHorizonError(UndecidableError):
    """No exact decision procedure applies and the scan horizon was reached."""

    def __init__(self, message, horizon):
        super().__init__(f"{message} (horizon={horizon})")
        self.horizon = horizon


class NoRealizedPointError(ToricEndError):
    """No slope of the form 1/n lies on the realized arc."""


class AttainedZeroSlopeError(ToricEndError):
    """Solid-torus classification excludes attained slope zero at infinity."""


class MixedSignRotativityError(ToricEndError):
    """Rotative layers of both signs cannot coexist."""


class InsufficientBlocksError(ToricEndError):
    """A member of a requested non-extendable family is not certified."""


class SchemaError(ToricEndError):
    """An input document does not match the expected schema."""
