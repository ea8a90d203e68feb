"""Exception types and process exit codes."""

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNSTABLE = 2
EXIT_EXCLUDED = 3


class PolarlinkError(Exception):
    """Base class for all engine errors."""


class ParseError(PolarlinkError):
    """Raised on malformed polynomial input; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExcludedCaseError(PolarlinkError):
    """The input falls outside the standing assumptions: f(0) = 0 and the
    origin a singular point of a not-locally-constant f reduced there.

    `reason` is a short machine-readable string, one per excluded case.
    """

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class NoValidFrame(PolarlinkError):
    """For some k, no sampled frame was valid, or for k = n, the line H_n of
    every valid frame lay in the tangent cone: a sampling failure."""


class DegreeLimitError(PolarlinkError, ValueError):
    """A monomial's total degree reached orders.DEGREE_LIMIT, beyond which
    the packed order keys would no longer be exact."""
