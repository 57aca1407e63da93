"""Exception hierarchy shared across the package."""


class KhleeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(KhleeError):
    """Malformed PD / braid / ssr input text."""


class NonPlanar(KhleeError):
    """The input diagram fails the planarity (Euler) check."""


class OrientationConflict(KhleeError):
    """Arc orientations of a single component are inconsistent."""


class BadComponent(KhleeError):
    """A component index is out of range."""


class ResourceLimit(KhleeError):
    """A computation would exceed the configured generator budget."""


class NotACycle(KhleeError):
    """A chain expected to be a cycle has nonzero differential.

    This signals a circle-sign bug and is never silently ignored.
    """


class InconsistentModule(KhleeError):
    """A homology summary does not have the shape implied by the theory."""


class NotNullHomologous(KhleeError):
    """An operation requiring a null-homologous link got eta != 0."""


class NotPositive(KhleeError):
    """An operation requiring a positive base diagram got negative crossings."""
