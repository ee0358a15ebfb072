"""Exception types raised on contract violations."""


class ObligeError(Exception):
    """Base class for all engine errors.

    ``stage`` is filled in by the end-to-end driver so callers can tell
    which pipeline stage aborted.
    """

    stage = None


class CapacityExceeded(ObligeError):
    """An oblivious-memory allocation would exceed the arena capacity."""


# The scan documents its budget failures under this name; it is the same
# condition surfaced by the arena.
BudgetExceeded = CapacityExceeded


class OMTooSmall(ObligeError):
    """The configured oblivious memory cannot hold even one vertex chunk pair."""


class OMUnavailable(ObligeError):
    """The oblivious memory cannot hold two records, so no in-OM compare fits."""


class SizeMismatch(ObligeError):
    """Actual array sizes disagree with the publicly declared sizes."""


class BlockOverflow(ObligeError):
    """More edges fell into a block than its declared length allows."""


class MalformedBlock(ObligeError):
    """An encoded edge block violates the wire format."""


class MalformedPartyFile(ObligeError):
    """A party's input is unreadable or names vertices it cannot hold.

    Raised for a bad record tag, a missing or non-integer field, a vertex
    key outside [0, 2^64), an edge to a key the party does not list, and
    keys (or edge endpoints) of more than one type among int, str, bytes.
    """


class MissingID(ObligeError):
    """A MAP_RETURN or RESULT_RETURN message lacks one of the party's own IDs."""


class ParamMismatch(ObligeError):
    """Parties submitted grids built against inconsistent public parameters."""


class UnknownSource(ObligeError):
    """A traversal source vertex is absent from the merged graph."""


class SymmetryRequired(ObligeError):
    """The application needs a grid built from symmetrized edges."""


class ObliviousnessViolation(ObligeError):
    """Memory traces diverged across runs that only differ in secret inputs."""

    def __init__(self, message, worker=None, event_index=None):
        super().__init__(message)
        self.worker = worker
        self.event_index = event_index
