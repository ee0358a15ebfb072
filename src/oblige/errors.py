"""Exception types raised on contract violations."""


class ObligeError(Exception):
    """Base class for all engine errors.

    ``stage`` is filled in by the end-to-end driver so callers can tell
    which pipeline stage aborted.
    """

    stage = None


class CapacityExceeded(ObligeError):
    """An oblivious-memory allocation would exceed the arena capacity."""


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

    Raised for a party-file line with a bad record tag, a missing or extra
    field, or a field that is not ASCII digits or exceeds 2^64 - 1; for a
    key or endpoint that is not an integer in [0, 2^64), keys that are not
    1-D or edges that are not (m, 2); and for an edge to a key the party
    does not list.
    """


class MalformedEdgeList(ObligeError):
    """An edge-list line is not two fields of ASCII digits below 2^64."""


class MissingID(ObligeError):
    """A MAP_RETURN or RESULT_RETURN message lacks one of the party's own IDs."""


class InputNotFound(ObligeError):
    """An input file named on the command line cannot be opened."""


class UsageError(ObligeError):
    """A command-line value (a size, granularity or number list) is malformed."""


class ParamMismatch(ObligeError):
    """Parties submitted grids built against inconsistent public parameters."""


class UnknownSource(ObligeError):
    """A traversal source key is missing, not in [0, 2^64) or not in the graph."""


class SymmetryRequired(ObligeError):
    """The application needs a grid built from symmetrized edges."""


class ObliviousnessViolation(ObligeError):
    """Memory traces diverged across runs that only differ in secret inputs.

    ``window`` names the compared trace window (None for the whole trace).
    """

    def __init__(self, message, worker=None, event_index=None, window=None):
        super().__init__(message)
        self.worker = worker
        self.event_index = event_index
        self.window = window
