"""Exception types shared across the toolkit."""


class ExtendersError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameters(ExtendersError):
    """Arguments outside an operation's documented domain."""


class NotASubcomplex(ExtendersError):
    """The second complex of a pair is not contained in the first."""


class InvalidPartitioning(ExtendersError):
    """An operation required a valid interval partitioning."""


class NotAPermutation(ExtendersError):
    """A facet order is not a permutation of the expected facets."""


class SizeLimitExceeded(ExtendersError):
    """Input exceeds a configurable search bound."""

    def __init__(self, message, limit=None, parameter=None):
        super().__init__(message)
        self.limit = limit
        self.parameter = parameter


class NotPure(ExtendersError):
    """A pure complex was required."""


class VoidComplex(ExtendersError):
    """The void complex is outside this operation's domain."""


class InvalidResult(ExtendersError):
    """An extender result failed re-verification."""


class InternalCheckError(ExtendersError):
    """A constructor's self-verification failed; indicates a bug, not bad input."""
