"""Discrete-event simulation engine.

The whole reproduction runs on a single deterministic event loop.  Time is
kept in integer nanoseconds so that runs are bit-reproducible across
platforms; ties between events scheduled for the same instant are broken by
a priority band and then insertion order (a monotonically increasing
sequence number), never by object identity.

The engine is deliberately minimal: entities schedule callbacks, callbacks
may schedule more callbacks.  Higher layers (hypervisor, guest kernel) build
their state machines on top of this primitive.

Events live in a binary heap of ``(time, prio, seq, event)`` tuples, so
ordering is decided by C-level integer comparisons.  ``seq`` is unique per
engine, so no two keys tie and an :class:`Event` is never compared; it
keeps only its ``time``.  Cancellation is lazy, but the engine counts
cancelled-in-heap events and compacts when they dominate, so ``run_until``
does not churn through millions of dead entries.  ``pending()`` is O(1),
maintained on push/pop/cancel.

Priority bands (``prio``) order the periodic timers among same-instant
events.  Each guest tick, host balance and DVFS timer owns a negative
"lane" (:meth:`Engine.alloc_lane`), so its position among same-instant
events is a function of (time, lane) alone, however often it was cancelled
and re-armed.  Ordinary events use prio 0.

Compaction filters dead entries and re-heapifies the survivors; since the
``(time, prio, seq)`` key is unique per event, the pop order after
compaction is identical to the order before it — event ordering semantics
are preserved.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One microsecond / millisecond / second expressed in engine time units.
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000

#: Compact the heap only when at least this many dead entries accumulated
#: (avoids rebuilding tiny heaps) ...
_COMPACT_MIN_CANCELLED = 64
#: ... and the dead entries are at least half of the heap.
_COMPACT_FRACTION = 2

#: Process-wide engine counters, summed over every engine in the process,
#: forks included (read them with :meth:`Engine.counters`):
#:
#: * ``pushes`` — ``call_at``/``call_in`` arms;
#: * ``cancels`` — ``Event.cancel`` calls on still-pending events;
#: * ``fired`` — live dispatches (cancelled entries never count);
#: * ``dead_drops`` — cancelled entries physically discarded from the heap
#:   (dead pops + compaction sweeps); over a fully drained run it
#:   converges to ``cancels``.
#:
#: They live in a module-level dict, not on the class: on CPython 3.11+
#: every write to a class attribute resets the class's type version,
#: which de-specialises attribute access on every ``Engine`` instance,
#: and these are written once per push, cancel and dead pop.  No engine
#: refers to the dict, so a snapshot image never carries a copy of it
#: and a fork counts into the same totals.
_COUNTERS: Dict[str, int] = {"pushes": 0, "cancels": 0, "fired": 0,
                             "dead_drops": 0}


def ns_to_ms(t: int) -> float:
    """Convert engine nanoseconds to floating-point milliseconds."""
    return t / MSEC


def ns_to_sec(t: int) -> float:
    """Convert engine nanoseconds to floating-point seconds."""
    return t / SEC


class Event:
    """A cancellable scheduled callback.

    Instances are returned by :meth:`Engine.call_at` / :meth:`Engine.call_in`.
    Cancellation is lazy: the event stays in the heap but is skipped when it
    surfaces.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_engine")

    def __init__(self, time: int, callback: Callable[..., None], args: tuple,
                 engine: Optional["Engine"] = None):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the callback from running when the event fires."""
        if self.cancelled:
            return
        self.cancelled = True
        eng = self._engine
        if eng is not None:
            self._engine = None
            eng._note_cancelled()

    @property
    def active(self) -> bool:
        """True while the event is still pending and not cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time} {name} {state}>"


class Engine:
    """The simulation clock and event queue.

    Typical use::

        eng = Engine()
        eng.call_in(5 * MSEC, my_callback, arg)
        eng.run_until(1 * SEC)
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: The event heap of ``(time, prio, seq, Event)`` entries.  Only
        #: ever mutated in place, so ``_push`` and the dispatch loop's
        #: local reference always see the live list.
        self._heap: List[Tuple[int, int, int, Event]] = []
        #: C-level push fast path over ``_heap``.
        self._push = partial(heappush, self._heap)
        #: Cancelled entries still in the heap: drives compaction and
        #: O(1) ``pending()``.
        self._ncancelled = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        #: Events fired by this engine instance.
        self.events_fired = 0
        #: Next negative priority lane to hand out (see module docstring).
        self._next_lane = 0

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def call_at(self, time: int, callback: Callable[..., None], *args: Any,
                prio: int = 0) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        Scheduling in the past is a programming error and raises
        ``ValueError`` — silent time travel hides causality bugs.

        ``prio`` orders same-instant events: lower fires first, default 0.
        Pass a lane from :meth:`alloc_lane` for timers whose same-instant
        position must not depend on when they were (re-)pushed.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        self._seq = seq = self._seq + 1
        ev = Event(time, callback, args, self)
        self._push((time, prio, seq, ev))
        _COUNTERS["pushes"] += 1
        return ev

    def call_in(self, delay: int, callback: Callable[..., None], *args: Any,
                prio: int = 0) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.call_at(self.now + delay, callback, *args, prio=prio)

    def alloc_lane(self) -> int:
        """Reserve a unique negative priority band for one periodic timer.

        Allocation order must be deterministic (construction order of the
        owning objects): lanes shape same-instant ordering, which is part
        of the reference output.
        """
        self._next_lane -= 1
        return self._next_lane

    @staticmethod
    def counters() -> Dict[str, int]:
        """Snapshot of the process-wide engine counters (``_COUNTERS``),
        the only way to read them.

        Callers measure a scenario by differencing two snapshots (the
        campaign's per-unit stats, which ``tools/perf_guard.py`` reads).
        """
        return dict(_COUNTERS)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, deadline: Optional[int],
                  max_events: Optional[int]) -> int:
        """Shared dispatch loop: pop due heap entries and fire them.

        Cancelled entries are dropped as they surface.
        """
        if self._running:
            raise RuntimeError("engine is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heappop
        fired = 0
        try:
            while heap and not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                entry = heap[0]
                if deadline is not None and entry[0] > deadline:
                    break
                pop(heap)
                ev = entry[3]
                if ev.cancelled:
                    self._ncancelled -= 1
                    _COUNTERS["dead_drops"] += 1
                    continue
                ev._engine = None
                self.now = entry[0]
                ev.callback(*ev.args)
                fired += 1
        finally:
            self._running = False
            self.events_fired += fired
            _COUNTERS["fired"] += fired
        return fired

    def run_until(self, deadline: int) -> None:
        """Process events up to and including ``deadline``.

        The clock is left at ``deadline`` even if the queue drains earlier,
        so that subsequent relative scheduling behaves intuitively.
        """
        self._dispatch(deadline, None)
        if self.now < deadline:
            self.now = deadline

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire); return count."""
        return self._dispatch(None, max_events)

    def stop(self) -> None:
        """Stop the current ``run``/``run_until`` after the active callback."""
        self._stopped = True

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self._heap) - self._ncancelled

    # ------------------------------------------------------------------
    # Snapshot support (repro.sim.snapshot pickles the engine)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """The engine's state for pickle and ``copy.deepcopy``; refused
        while it is dispatching.

        Everything — heap contents, lanes, ``now``, per-instance counters
        — is plain data that pickles (or copies) through the memo, so
        event back-refs and callback bindings land on the restored world.
        The ``_push`` partial holds the heap list itself, so it targets
        the restored heap.
        """
        if self._running:
            raise RuntimeError("cannot snapshot a running engine "
                               "(snapshot between run()/run_until() calls)")
        return self.__dict__

    # ------------------------------------------------------------------
    # Lazy-cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """An in-heap event was cancelled (called from Event.cancel).

        Compacts the heap once dead entries dominate it.
        """
        _COUNTERS["cancels"] += 1
        self._ncancelled = n = self._ncancelled + 1
        if (n >= _COMPACT_MIN_CANCELLED
                and n * _COMPACT_FRACTION >= len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, preserving pop order.

        Mutates the heap list in place so ``_push`` and a running dispatch
        loop keep targeting the live list.  Since the ``(time, prio, seq)``
        key is unique per event, pop order after compaction is identical
        to the order before it.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapify(heap)
        _COUNTERS["dead_drops"] += before - len(heap)
        self._ncancelled = 0
