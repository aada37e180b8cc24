"""Structured event tracing for simulations.

Traces are how the tests assert on protocol dynamics ("the retransmission
happened after the timeout", "ADU 7 was delivered before ADU 3") without
reaching into component internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence."""

    time: float
    category: str
    message: str
    fields: tuple[tuple[str, Any], ...] = ()

    def field_dict(self) -> dict[str, Any]:
        """The record's fields as a dict."""
        return dict(self.fields)


@dataclass
class Tracer:
    """Collects :class:`TraceRecord` entries; cheap when disabled."""

    enabled: bool = True
    records: list[TraceRecord] = field(default_factory=list)

    def emit(self, time: float, category: str, message: str, **fields: Any) -> None:
        """Record one occurrence (no-op when disabled)."""
        if not self.enabled:
            return
        self.records.append(
            TraceRecord(time, category, message, tuple(sorted(fields.items())))
        )

    def by_category(self, category: str) -> list[TraceRecord]:
        """All records in ``category``, in time order."""
        return [record for record in self.records if record.category == category]

    def messages(self, category: str | None = None) -> list[str]:
        """Just the message strings, optionally filtered by category."""
        return [
            record.message
            for record in self.records
            if category is None or record.category == category
        ]

    def clear(self) -> None:
        """Drop all records."""
        self.records.clear()


class _DisabledTracer(Tracer):
    """A tracer that records nothing and cannot be switched on.

    Its records are an empty tuple and its attributes are read-only, so
    one instance serves every component built without a tracer: none of
    them can turn tracing on for the others.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "enabled", False)
        object.__setattr__(self, "records", ())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            "the shared disabled tracer is read-only; "
            "pass a Tracer() to the component to trace it"
        )

    def emit(self, time: float, category: str, message: str, **fields: Any) -> None:
        """Record nothing."""

    def clear(self) -> None:
        """Nothing to drop."""


#: The tracer of every component built without one.
DISABLED_TRACER: Tracer = _DisabledTracer()
