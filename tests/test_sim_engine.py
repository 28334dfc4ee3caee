"""Unit tests for the event engine.

The engine keeps its events in one binary heap.  Behaviour tests build
their engines through the ``make_engine`` fixture, whose ``heap`` id
names that store.
"""

import sys

import pytest

from repro.sim import Engine, MSEC, SEC, USEC
from repro.sim.snapshot import WorldSnapshot


@pytest.fixture(params=["heap"])
def make_engine(request):
    """Engine factory for the behaviour tests."""
    return Engine


def test_time_constants():
    assert USEC == 1_000
    assert MSEC == 1_000_000
    assert SEC == 1_000_000_000


def test_backend_selection():
    """The heap is the only event store: nothing selects another."""
    eng = Engine()
    assert type(eng._heap) is list
    assert not hasattr(eng, "backend")
    with pytest.raises(TypeError):
        Engine(backend="heap")


def test_events_fire_in_time_order(make_engine):
    eng = make_engine()
    fired = []
    eng.call_in(30, lambda: fired.append("c"))
    eng.call_in(10, lambda: fired.append("a"))
    eng.call_in(20, lambda: fired.append("b"))
    eng.run_until(100)
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_insertion_order(make_engine):
    eng = make_engine()
    fired = []
    for label in "abcde":
        eng.call_in(50, lambda l=label: fired.append(l))
    eng.run_until(50)
    assert fired == list("abcde")


def test_run_until_advances_clock_even_without_events(make_engine):
    eng = make_engine()
    eng.run_until(123456)
    assert eng.now == 123456


def test_run_until_does_not_fire_future_events(make_engine):
    eng = make_engine()
    fired = []
    eng.call_in(200, lambda: fired.append(1))
    eng.run_until(100)
    assert fired == []
    eng.run_until(300)
    assert fired == [1]


def test_cancelled_event_does_not_fire(make_engine):
    eng = make_engine()
    fired = []
    ev = eng.call_in(10, lambda: fired.append(1))
    ev.cancel()
    eng.run_until(100)
    assert fired == []
    assert not ev.active


def test_event_callback_args(make_engine):
    eng = make_engine()
    got = []
    eng.call_in(5, lambda a, b: got.append((a, b)), 1, "x")
    eng.run_until(10)
    assert got == [(1, "x")]


def test_scheduling_in_the_past_raises(make_engine):
    eng = make_engine()
    eng.run_until(100)
    with pytest.raises(ValueError):
        eng.call_at(50, lambda: None)
    with pytest.raises(ValueError):
        eng.call_in(-1, lambda: None)


def test_callbacks_can_schedule_more_events(make_engine):
    eng = make_engine()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            eng.call_in(10, chain, n + 1)

    eng.call_in(10, chain, 1)
    eng.run_until(SEC)
    assert fired == [1, 2, 3, 4, 5]


def test_stop_halts_processing(make_engine):
    eng = make_engine()
    fired = []
    eng.call_in(10, lambda: (fired.append(1), eng.stop()))
    eng.call_in(20, lambda: fired.append(2))
    eng.run_until(100)
    assert fired == [1]


def test_pending_counts_uncancelled(make_engine):
    eng = make_engine()
    ev1 = eng.call_in(10, lambda: None)
    eng.call_in(20, lambda: None)
    ev1.cancel()
    assert eng.pending() == 1


def test_run_drains_queue(make_engine):
    eng = make_engine()
    fired = []
    for i in range(10):
        eng.call_in(i + 1, lambda i=i: fired.append(i))
    count = eng.run()
    assert count == 10
    assert fired == list(range(10))


def test_engine_not_reentrant(make_engine):
    eng = make_engine()

    def bad():
        eng.run_until(100)

    eng.call_in(1, bad)
    with pytest.raises(RuntimeError):
        eng.run_until(10)


# ----------------------------------------------------------------------
# Edge cases around lazy cancellation and O(1) pending
# ----------------------------------------------------------------------
def test_cancel_after_fire_is_harmless(make_engine):
    eng = make_engine()
    fired = []
    ev = eng.call_in(10, lambda: fired.append(1))
    eng.run_until(100)
    assert fired == [1]
    before = eng.pending()
    ev.cancel()  # already popped: must not corrupt the pending count
    ev.cancel()  # idempotent
    assert eng.pending() == before == 0


def test_cancel_from_inside_callback_same_instant(make_engine):
    """A callback cancelling a later event at the same timestamp wins."""
    eng = make_engine()
    fired = []
    evs = {}
    evs["b"] = None

    def first():
        fired.append("a")
        evs["b"].cancel()

    eng.call_in(10, first)
    evs["b"] = eng.call_in(10, lambda: fired.append("b"))
    eng.run_until(100)
    assert fired == ["a"]


def test_stop_mid_run_then_resume(make_engine):
    eng = make_engine()
    fired = []
    eng.call_in(10, lambda: (fired.append(1), eng.stop()))
    eng.call_in(20, lambda: fired.append(2))
    eng.run_until(100)
    assert fired == [1]
    assert eng.now == 100  # clock still advances to the deadline
    assert eng.pending() == 1  # the unprocessed event survives stop()
    eng.run_until(100)  # a fresh run resumes where stop() left off
    assert fired == [1, 2]
    assert eng.pending() == 0


def test_scheduling_at_now_is_allowed(make_engine):
    eng = make_engine()
    eng.run_until(50)
    fired = []
    eng.call_at(50, lambda: fired.append(1))
    eng.run_until(50)
    assert fired == [1]


def test_mass_cancellation_preserves_order_and_pending(make_engine):
    """Mass cancellation (compaction territory) leaves survivors firing
    in (time, seq) order and pending() exact throughout."""
    eng = make_engine()
    fired = []
    keep, drop = [], []
    for i in range(300):
        ev = eng.call_in(1000 + i, lambda i=i: fired.append(i))
        (keep if i % 5 == 0 else drop).append((i, ev))
    assert eng.pending() == 300
    for _, ev in drop:
        ev.cancel()
    assert eng.pending() == len(keep)
    eng.run_until(SEC)
    assert fired == [i for i, _ in keep]
    assert eng.pending() == 0


def test_heap_compaction_bounds_dead_entries():
    """Crossing the compaction threshold actually sweeps the dead entries
    out of the underlying heap list."""
    eng = Engine()
    fired = []
    keep, drop = [], []
    for i in range(300):
        ev = eng.call_in(1000 + i, lambda i=i: fired.append(i))
        (keep if i % 5 == 0 else drop).append((i, ev))
    for _, ev in drop:
        ev.cancel()  # 240 cancels: crosses the compaction threshold
    # Compaction ran (possibly more than once); at most a sub-threshold
    # residue of dead entries may remain in the heap.
    heap = eng._heap
    assert len(heap) < 300
    assert len(heap) - len(keep) < 64
    eng.run_until(SEC)
    assert fired == [i for i, _ in keep]


def test_cancel_heavy_same_timestamp_tiebreak(make_engine):
    """Cancel-heavy churn at one instant must not disturb insertion order."""
    eng = make_engine()
    fired = []
    survivors = []
    for i in range(200):
        ev = eng.call_at(777, lambda i=i: fired.append(i))
        if i % 3 == 0:
            survivors.append(i)
        else:
            ev.cancel()
    eng.run_until(777)
    assert fired == survivors


def test_pending_exact_through_mixed_churn(make_engine):
    eng = make_engine()
    events = [eng.call_in(i + 1, lambda: None) for i in range(50)]
    assert eng.pending() == 50
    for ev in events[::2]:
        ev.cancel()
    assert eng.pending() == 25
    eng.run_until(10)  # fires the live half of the first 10
    assert eng.pending() == 20
    eng.run_until(SEC)
    assert eng.pending() == 0


def test_events_fired_counters(make_engine):
    base = Engine.counters()["fired"]
    eng = make_engine()
    for i in range(7):
        eng.call_in(i + 1, lambda: None)
    eng.run_until(100)
    assert eng.events_fired == 7
    assert Engine.counters()["fired"] - base == 7


def test_push_cancel_counters_backend_invariant():
    """pushes/cancels/fired count API calls, whatever the store does
    with its entries; dead_drops counts the lazily cancelled entries it
    discards.  Checked over one fully drained run."""
    before = Engine.counters()
    eng = Engine()
    evs = [eng.call_in(10 * (i + 1), lambda: None) for i in range(20)]
    for ev in evs[::2]:
        ev.cancel()
    eng.run_until(SEC)
    after = Engine.counters()
    d = {k: after[k] - before[k] for k in after}
    assert d["pushes"] == 20
    assert d["cancels"] == 10
    assert d["fired"] == 10
    # Fully drained: every cancelled entry was physically discarded.
    assert d["dead_drops"] == 10


def _repro_classes():
    """Every class defined at the top level of a loaded ``repro`` module."""
    return [obj for name, mod in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
            for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__ == name]


def _freeze_and_fork():
    """A small world run cold to 1 s, frozen, and its fork run to 2 s."""
    from tests.test_snapshot import _spin_world
    warm = _spin_world()
    warm["engine"].run_until(1 * SEC)
    _eng, fork = WorldSnapshot(warm["engine"], warm).fork()
    fork["engine"].run_until(2 * SEC)


def test_a_run_writes_no_class_attribute():
    """Running, freezing and forking a world writes no class attribute.
    On CPython 3.11+ each such write resets the class's type version and
    de-specialises attribute access on every instance of the class, so a
    counter kept on a class and written per event slows every layer."""
    # Warm-up: the first freeze caches ``__slotnames__`` on each class it
    # pickles (``copyreg._slotnames``), once per process.
    _freeze_and_fork()
    missing = object()
    before = [(cls, dict(vars(cls))) for cls in _repro_classes()]
    _freeze_and_fork()
    written = [f"{cls.__module__}.{cls.__qualname__}.{attr}"
               for cls, attrs in before
               for attr in attrs.keys() | vars(cls).keys()
               if vars(cls).get(attr, missing) is not attrs.get(attr,
                                                                missing)]
    assert written == []


# ----------------------------------------------------------------------
# Same-instant ordering edges: absolute expected dispatch logs
# ----------------------------------------------------------------------
def test_cancel_then_rearm_same_instant():
    """A callback cancels a later same-instant event and re-arms a
    replacement at the same instant: the replacement's fresh seq orders
    it after every older same-instant arm."""
    eng = Engine()
    log = []
    state = {}

    def killer():
        log.append(("killer", eng.now))
        state["victim"].cancel()
        # Re-arm at the very same instant, default lane: runs last.
        eng.call_at(eng.now, lambda: log.append(("rearmed", eng.now)))

    eng.call_at(5 * USEC, killer)
    state["victim"] = eng.call_at(
        5 * USEC, lambda: log.append(("victim", eng.now)))
    eng.call_at(5 * USEC, lambda: log.append(("bystander", eng.now)))
    eng.run_until(MSEC)
    log.append(("pending", eng.pending()))
    assert log == [("killer", 5 * USEC), ("bystander", 5 * USEC),
                   ("rearmed", 5 * USEC), ("pending", 0)]


def test_lane_rearm_same_instant_orders_by_lane():
    """With a lane priority, a mid-instant re-arm lands at its lane
    position among the *not yet popped* same-instant events."""
    eng = Engine()
    log = []
    lane = eng.alloc_lane()  # negative: fires before prio-0 events

    def opener():
        log.append("opener")
        # Lane entry armed mid-instant: every prio-0 event still pending
        # at this instant must yield to it.
        eng.call_at(eng.now, lambda: log.append("lane"), prio=lane)

    eng.call_at(7 * USEC, opener)
    eng.call_at(7 * USEC, lambda: log.append("plain-1"))
    eng.call_at(7 * USEC, lambda: log.append("plain-2"))
    eng.run_until(MSEC)
    assert log == ["opener", "lane", "plain-1", "plain-2"]


def test_cancel_far_timer_then_rearm():
    """Cancelling a far-future timer and re-arming a replacement leaves
    no ghost behind."""
    eng = Engine()
    log = []
    far = eng.call_in(300 * MSEC, lambda: log.append("far"))
    eng.call_in(USEC, lambda: log.append("near"))
    eng.run_until(2 * USEC)
    far.cancel()
    eng.call_in(299 * MSEC, lambda: log.append("replacement"))
    eng.run_until(SEC)
    log.append(("pending", eng.pending()))
    assert log == ["near", "replacement", ("pending", 0)]


def test_zero_delay_call_in_during_dispatch():
    """call_in(0, ...) from inside a callback fires later in the same
    run at the same instant, after already-armed same-instant events."""
    eng = Engine()
    log = []

    def opener():
        log.append("opener")
        eng.call_in(0, lambda: log.append("zero-1"))
        eng.call_in(0, lambda: (log.append("zero-2"),
                                eng.call_in(0, lambda:
                                            log.append("nested"))))

    eng.call_at(3 * USEC, opener)
    eng.call_at(3 * USEC, lambda: log.append("sibling"))
    eng.call_at(3 * USEC + 1, lambda: log.append("next-ns"))
    eng.run_until(MSEC)
    assert log == ["opener", "sibling", "zero-1", "zero-2", "nested",
                   "next-ns"]


def test_run_until_deadline_splits_close_events():
    """Events a few ns apart straddling the deadline: only the due part
    fires now, the rest exactly on the next run."""
    eng = Engine()
    log = []
    base = MSEC
    for off in (0, 3, 7, 999):
        eng.call_at(base + off, lambda off=off: log.append(("fire", off)))
    eng.run_until(base + 3)
    log.append(("mid", eng.now, eng.pending()))
    eng.run_until(base + 1000)
    log.append(("end", eng.pending()))
    assert log == [("fire", 0), ("fire", 3), ("mid", base + 3, 2),
                   ("fire", 7), ("fire", 999), ("end", 0)]
