"""Structured trace recording.

Devices and protocol modules emit trace records (``kind`` plus free-form
fields) instead of printing.  Experiments and tests then query the trace:
counting retransmissions, extracting white-space intervals, checking
invariants such as "no ZigBee data frame overlaps an active Wi-Fi data frame
inside a granted white space".

Every event is counted, stored or not: ``counters`` (and so a scenario's
``trace_digest``) is the same whatever kinds a recorder stores.  A record's
fields, though, are read only when its kind is stored, and compiled runs
store none.  So a call site that fires once per frame must not build them
for a kind that is not stored: it counts the event with
:meth:`TraceRecorder.note` and builds the fields, for
:meth:`TraceRecorder.store`, only when ``note`` returns True::

    if trace.note("medium.tx_end"):
        trace.store(now, "medium.tx_end", source=tx.source_name)

Elsewhere :meth:`TraceRecorder.record` does both in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: a timestamp, a kind, and arbitrary fields."""

    time: float
    kind: str
    fields: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


@dataclass
class TraceRecorder:
    """Append-only trace with simple querying.

    Recording can be restricted to a set of kinds (``enabled_kinds``) to keep
    long simulations lean; counters are always maintained for every kind.

    Stored records are additionally indexed per kind, so :meth:`of_kind`
    (which experiments call in inner loops over long traces) is a dict
    lookup plus copy instead of a full scan of every record.
    """

    enabled_kinds: Optional[set] = None
    records: List[TraceRecord] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    _by_kind: Dict[str, List[TraceRecord]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Rebuild the index if the recorder was constructed pre-populated.
        for record in self.records:
            self._by_kind.setdefault(record.kind, []).append(record)

    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append a record (if the kind is enabled) and bump its counter."""
        if self.note(kind):
            self.store(time, kind, **fields)

    def note(self, kind: str) -> bool:
        """Count one event of ``kind``; True if its records are stored.

        A per-frame call site builds its record's fields, and calls
        :meth:`store`, only when this returns True.
        """
        counters = self.counters
        counters[kind] = counters.get(kind, 0) + 1
        enabled = self.enabled_kinds
        return enabled is None or kind in enabled

    def store(self, time: float, kind: str, **fields: Any) -> None:
        """Append a record of an event :meth:`note` has already counted."""
        entry = TraceRecord(time, kind, fields)
        self.records.append(entry)
        bucket = self._by_kind.get(kind)
        if bucket is None:
            self._by_kind[kind] = [entry]
        else:
            bucket.append(entry)

    def count(self, kind: str) -> int:
        """Total number of records of ``kind`` seen (enabled or not)."""
        return self.counters.get(kind, 0)

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All stored records of ``kind`` in time order (indexed, O(matches))."""
        return list(self._by_kind.get(kind, ()))

    def where(self, predicate: Callable[[TraceRecord], bool]) -> Iterator[TraceRecord]:
        """Lazily iterate over stored records matching ``predicate``."""
        return (r for r in self.records if predicate(r))

    def between(self, start: float, end: float, kind: Optional[str] = None) -> List[TraceRecord]:
        """Stored records with ``start <= time < end``, optionally of one kind."""
        pool = self.records if kind is None else self._by_kind.get(kind, [])
        return [r for r in pool if start <= r.time < end]

    def clear(self) -> None:
        """Drop stored records and counters."""
        self.records.clear()
        self.counters.clear()
        self._by_kind.clear()
