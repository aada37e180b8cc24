"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MachineModelError(ReproError):
    """Invalid machine profile or cost accounting request."""


class BufferError_(ReproError):
    """Buffer management failure (out-of-range view, exhausted pool...)."""


class StageError(ReproError):
    """A data-manipulation stage was misused or failed."""


class PipelineError(ReproError):
    """Pipeline composition or execution failure."""


class OrderingConstraintError(PipelineError):
    """An integration (fusion) request violates an ordering constraint."""


class PresentationError(ReproError):
    """Presentation-layer encode/decode failure."""


class DecodeError(PresentationError):
    """Malformed transfer-syntax input."""


class NegotiationError(PresentationError):
    """Sender/receiver could not agree on a conversion strategy."""


class SimulationError(ReproError):
    """Discrete-event simulator misuse."""


class NetworkError(ReproError):
    """Network substrate failure (bad topology, oversized packet...)."""


class TransportError(ReproError):
    """Transport protocol failure."""


class FramingError(ReproError):
    """ADU framing/fragmentation failure."""


class ApplicationError(ReproError):
    """Application-layer (apps package) failure."""
