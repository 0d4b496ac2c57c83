"""Discrete-event simulation engine.

The engine is a deterministic priority queue of timestamped callbacks, kept
as a binary heap of ``(time, seq, event)`` entries.  Two properties matter
for reproducibility:

* **Stable ordering** — events scheduled for the same instant fire in the
  order they were scheduled (FIFO tie-break on a monotonically increasing
  sequence number), so a run is a pure function of the seed.
* **O(1) cancellation** — MAC layers constantly re-plan backoff completions
  when the medium state changes; cancelled events are flagged and skipped when
  they surface rather than being removed from the structure eagerly.  A
  threshold-triggered compaction rebuilds the queue when cancelled entries
  outnumber pending ones, so cancel-heavy workloads cannot grow the queue
  without bound.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Any, Callable, List, Optional, Tuple

#: Compaction never triggers below this many cancelled-but-queued entries, so
#: small simulations never pay a rebuild.
COMPACT_MIN_CANCELLED = 64

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (in the past, or not finite)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled.  The callback is
    invoked as ``callback(*args)`` with the simulator clock already advanced
    to the event's time.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling a fired event is a no-op.

        The owning simulator is notified so its live pending counter stays
        exact and compaction can trigger; a detached event (``sim=None``)
        just flips the flag.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and neither fired nor cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.9f} seq={self.seq} {name} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run(until=10.0)

    The clock (:attr:`now`) only moves inside :meth:`run` / :meth:`step`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.events_processed: int = 0
        #: Live count of scheduled-and-not-yet-fired/cancelled events.
        self._pending = 0
        #: Cancelled events still sitting in the queue (lazy cancellation).
        self._cancelled_in_queue = 0
        #: Highest the *pending* count ever got.  Cancelled-but-unpopped
        #: entries are excluded, so this is real queue depth, not the
        #: lazy-cancellation artifact the old gauge reported.
        self.queue_hwm: int = 0
        #: Number of threshold-triggered queue compactions performed.
        self.compactions: int = 0
        #: Cumulative wall-clock seconds spent inside :meth:`run` — profiling
        #: only; the simulation itself never reads it.
        self.wall_time: float = 0.0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        # One chained comparison rejects negative, infinite and NaN delays.
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"cannot schedule {delay} s from now")
        # Body of :meth:`schedule_at`, inlined: this is the hottest call in
        # the engine and the delegation showed up in scenario profiles.
        event = Event(self.now + delay, next(self._seq), callback, args, self)
        heapq.heappush(self._queue, (event.time, event.seq, event))
        pending = self._pending + 1
        self._pending = pending
        if pending > self.queue_hwm:
            self.queue_hwm = pending
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not self.now <= time < _INF:
            raise SimulationError(
                f"cannot schedule at t={time} from current time t={self.now}"
            )
        # ``args`` is already a fresh tuple from the *args packing — no copy.
        event = Event(time, next(self._seq), callback, args, self)
        heapq.heappush(self._queue, (time, event.seq, event))
        pending = self._pending + 1
        self._pending = pending
        if pending > self.queue_hwm:
            self.queue_hwm = pending
        return event

    # ------------------------------------------------------------------
    # Cancellation accounting
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` exactly once per live cancel."""
        self._pending -= 1
        cancelled = self._cancelled_in_queue + 1
        self._cancelled_in_queue = cancelled
        if cancelled > COMPACT_MIN_CANCELLED and cancelled > self._pending:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (in place, preserving order).

        Triggered when cancelled entries outnumber pending ones, which bounds
        the queue at roughly twice the pending count under cancel-heavy MAC
        backoff re-planning instead of growing without bound.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled_in_queue = 0
        self.compactions += 1

    def _prune_cancelled_head(self) -> Optional[Tuple[float, int, Event]]:
        """Pop cancelled events off the head; return the pending head entry.

        This is the single source of truth for "what fires next":
        :meth:`peek` and :meth:`step` consult it and :meth:`run` inlines it,
        so they always agree.  Note it *mutates* the queue (cancelled heads
        are discarded), which is what makes the follow-up pop O(log n)
        rather than a rescan.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if not head[2].cancelled:
                return head
            heapq.heappop(queue)
            self._cancelled_in_queue -= 1
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False when the queue is empty."""
        head = self._prune_cancelled_head()
        if head is None:
            return False
        heapq.heappop(self._queue)
        event = head[2]
        self.now = head[0]
        event.fired = True
        self._pending -= 1
        self.events_processed += 1
        event.callback(*event.args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given and every event up to it has fired, the clock
        is left exactly at ``until`` even if the queue drained earlier, so
        utilization denominators are well defined.  A run cut short by
        ``max_events`` or :meth:`stop` leaves the clock at the last fired
        event, so the events still due before ``until`` fire on time later.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        budget = _INF if max_events is None else max_events
        horizon = _INF if until is None else until
        queue = self._queue
        pop = heapq.heappop
        wall_start = time.perf_counter()
        try:
            while not self._stopped and fired < budget and queue:
                head = queue[0]
                event = head[2]
                if event.cancelled:
                    # ``_prune_cancelled_head``, one entry at a time.
                    pop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                if head[0] > horizon:
                    break
                pop(queue)
                self.now = head[0]
                event.fired = True
                self._pending -= 1
                self.events_processed += 1
                fired += 1
                event.callback(*event.args)
            if until is not None and self.now < until and not self._stopped:
                head = self._prune_cancelled_head()
                if head is None or head[0] > until:
                    self.now = until
        finally:
            self._running = False
            self.wall_time += time.perf_counter() - wall_start

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing event returns."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next *pending* event, or None if the queue is empty.

        Like :meth:`run` and :meth:`step` this goes through
        :meth:`_prune_cancelled_head`, so cancelled heads are popped (the
        queue is mutated) and all three views of "next event" agree.
        """
        head = self._prune_cancelled_head()
        return head[0] if head is not None else None

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1), live counter)."""
        return self._pending

    def queue_length(self) -> int:
        """Physical queue length, cancelled entries included.

        ``queue_length() - pending_count()`` is the lazy-cancellation debt;
        compaction keeps it bounded (see :meth:`_compact`).
        """
        return len(self._queue)
