"""Data-oblivious multi-party graph analytics on a simulated trusted processor."""

from .errors import (
    BlockOverflow,
    CapacityExceeded,
    MalformedBlock,
    ObligeError,
    ObliviousnessViolation,
    OMTooSmall,
    OMUnavailable,
    ParamMismatch,
    SizeMismatch,
    SymmetryRequired,
    UnknownSource,
)
from .omsim import CACHELINE, ELEMENT, READ, WRITE, AccessTrace, Buffer, OMArena, OMSim

__all__ = [
    "AccessTrace",
    "Buffer",
    "OMArena",
    "OMSim",
    "ELEMENT",
    "CACHELINE",
    "READ",
    "WRITE",
    "ObligeError",
    "CapacityExceeded",
    "OMTooSmall",
    "OMUnavailable",
    "SizeMismatch",
    "BlockOverflow",
    "MalformedBlock",
    "ParamMismatch",
    "UnknownSource",
    "SymmetryRequired",
    "ObliviousnessViolation",
]
