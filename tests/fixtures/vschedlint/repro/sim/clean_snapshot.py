"""Copy-safe registration forms: none of these may fire VSL4xx.

Bound methods of ordinary objects deep-copy through the memo; module-level
functions are atoms by design; functools.partial over either is fine;
@snapshot_safe vouches for the rest at runtime and statically.
"""

from functools import partial

from repro.sim.snapshot import snapshot_safe


def on_fire(world, n):
    world.note(n)


_shared_total = 0


@snapshot_safe
def vouched_bump():
    global _shared_total
    _shared_total += 1  # vschedlint: disable=cross-unit-state -- fixture: @snapshot_safe silences VSL4xx only; the write is a separate (intended-for-this-file) concern


class Ticker:
    def __init__(self, engine, period):
        self.engine = engine
        self.period = period
        self.count = 0

    def _tick(self):
        self.count += 1
        self.engine.call_in(self.period, self._tick)


def wire(engine, world):
    t = Ticker(engine, 1000)
    engine.call_in(t.period, t._tick)          # bound method: safe
    engine.call_at(2000, on_fire, world, 3)    # module function + args
    engine.call_at(3000, partial(on_fire, world))  # partial over module fn
    engine.call_at(4000, vouched_bump)         # decorator-vouched
