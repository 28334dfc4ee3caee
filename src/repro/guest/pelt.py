"""Per-entity load tracking (PELT), as used by the guest CFS.

This is a faithful reimplementation of the kernel's PELT signal: utilization
is accumulated in 1024 µs periods and decayed geometrically with a half-life
of 32 periods, yielding ``util_avg`` in ``[0, 1024]``.  vSched uses PELT for
task classification exactly as the paper does (§3.2/§3.3): *small* tasks
(low utilization) are candidates for biased vCPU selection; *CPU-intensive*
tasks (high utilization) are candidates for intra-VM harvesting.

Time is charged only while the task actually executes on an active vCPU
(paravirtual steal-time accounting), so a stalled task's utilization does
not inflate during vCPU inactivity.
"""

from __future__ import annotations

#: PELT period in nanoseconds (1024 µs, like the kernel).
PELT_PERIOD_NS = 1024 * 1024

#: Decay factor per period: y ** 32 == 0.5.
PELT_Y = 0.5 ** (1.0 / 32.0)

#: Maximum accumulated sum (geometric series limit), kernel's LOAD_AVG_MAX.
PELT_MAX_SUM = PELT_PERIOD_NS / (1.0 - PELT_Y)

#: Full-scale utilization.
UTIL_SCALE = 1024

#: Memoized decay factors ``PELT_Y ** (delta / PELT_PERIOD_NS)`` keyed by
#: the integer ns delta.  Tick-driven updates arrive at a handful of
#: recurring intervals (the 1 ms tick dominates), and ``pow`` is the hot
#: instruction of the signal.  Dividing by 2**20 is exact, so the key maps
#: one-to-one onto the period count and a memo hit returns the identical
#: float: faster and bit-identical by construction.  Cleared at 256 entries.
_DECAY_CACHE: dict = {}


class Pelt:
    """Utilization tracker for one task (or one runqueue).

    ``update(now, running)`` charges the interval since the previous update
    as running (or idle) time.  Callers must update on every state
    transition and periodically (ticks) while running.
    """

    __slots__ = ("last_update", "_sum", "util_avg")

    def __init__(self, now: int = 0):
        self.last_update = now
        self._sum = 0.0
        self.util_avg = 0.0

    def update(self, now: int, running: bool) -> float:
        """Charge [last_update, now) as running/idle; return util_avg."""
        delta = now - self.last_update
        if delta <= 0:
            return self.util_avg
        self.last_update = now
        decay = _DECAY_CACHE.get(delta)
        if decay is None:
            if len(_DECAY_CACHE) >= 256:
                _DECAY_CACHE.clear()
            decay = _DECAY_CACHE[delta] = PELT_Y ** (delta / PELT_PERIOD_NS)
        if running:
            # Integral of contribution over the interval with continuous
            # decay: new = old*decay + (1 - decay) * MAX_SUM.
            self._sum = self._sum * decay + (1.0 - decay) * PELT_MAX_SUM
        else:
            self._sum *= decay
        self.util_avg = self._sum / PELT_MAX_SUM * UTIL_SCALE
        return self.util_avg

    def peek(self, now: int, running: bool) -> float:
        """util_avg as it would be at ``now``, without mutating state."""
        delta = now - self.last_update
        if delta <= 0:
            return self.util_avg
        decay = _DECAY_CACHE.get(delta)
        if decay is None:
            if len(_DECAY_CACHE) >= 256:
                _DECAY_CACHE.clear()
            decay = _DECAY_CACHE[delta] = PELT_Y ** (delta / PELT_PERIOD_NS)
        s = self._sum * decay
        if running:
            s += (1.0 - decay) * PELT_MAX_SUM
        return s / PELT_MAX_SUM * UTIL_SCALE

    def set_util(self, util: float, now: int) -> None:
        """Force the signal (used for task-fork initialization)."""
        self.util_avg = max(0.0, min(float(UTIL_SCALE), util))
        self._sum = self.util_avg / UTIL_SCALE * PELT_MAX_SUM
        self.last_update = now
