"""Host-speed probes, so that timings do not drift with the host.

The benchmark runs on vCPUs that other tenants share.  Their speed changes
by up to 2x, from one fraction of a second to the next and over tens of
minutes, and the guest sees no steal time: the code simply runs slower, in
wall time and in CPU time alike.  A fixed piece of pure-Python work, run
at short intervals *inside* the measured code, slows down with it.
:class:`Sampler` runs that probe from a ``SIGPROF`` handler every
``PERIOD_S`` of CPU time, in the measured process itself and in the pool
workers it forks, with no extra thread.

:func:`normalise` turns a raw time into the time at the reference speed:
the raw time, less the probes' own time, times the mean probe speed
relative to the reference.  The mean of the speeds (not the median of the
probe times) is what tracks the host, because the host flips between a
fast and a slow state and a median jumps between the two.  README.md gives
the measurements behind this design.
"""

from __future__ import annotations

import heapq
import os
import signal
import statistics
import time
from typing import List, Optional

#: CPU seconds between two probes.
PERIOD_S = 0.02

#: The probe's time at the reference speed: 1 ms, close to its median on
#: the reference host (2-vCPU KVM guest, Xeon family 6 model 143, Python
#: 3.11.7).  Only ratios to it enter a comparison.
REFERENCE_PROBE_S = 0.001


class _Timer:
    __slots__ = ("due", "period", "hits")

    def __init__(self, due: float, period: float):
        self.due = due
        self.period = period
        self.hits = 0

    def fire(self, heap: list, seq: int) -> None:
        self.hits += 1
        self.due += self.period
        heapq.heappush(heap, (self.due, seq, self))


def probe_work(events: int = 900) -> int:
    """A small discrete-event loop in the simulator's idiom: a heap of
    (time, seq, object) keys, attribute updates, method calls, a dict."""
    heap: list = []
    timers = [_Timer(float(i % 7), 1.0 + (i % 5) * 0.25) for i in range(32)]
    for seq, t in enumerate(timers):
        heapq.heappush(heap, (t.due, seq, t))
    load = {}
    seq = len(timers)
    for _ in range(events):
        now, _s, t = heapq.heappop(heap)
        load[t.period] = load.get(t.period, 0.0) * 0.5 + now
        t.fire(heap, seq)
        seq += 1
    return sum(t.hits for t in timers)


def probe() -> float:
    """Seconds that one run of :func:`probe_work` takes now."""
    started = time.perf_counter()
    probe_work()
    return time.perf_counter() - started


class Sampler:
    """Runs :func:`probe` every ``PERIOD_S`` of CPU time while started.

    ``samples`` holds this process's probe times and ``spent_s`` their sum,
    the time the probes took from the measured code.  A process forked
    while the sampler runs (a pool worker) probes too, and appends its
    probe times to ``spill_dir/<pid>``; :meth:`spilled` reads them back.
    Create one sampler per process: each registers a fork hook.
    """

    def __init__(self, spill_dir: str):
        self.samples: List[float] = []
        self.spent_s = 0.0
        self.spill_dir = spill_dir
        self._fd: Optional[int] = None
        self._running = False
        os.register_at_fork(after_in_child=self._in_forked_child)

    def start(self) -> None:
        self._running = True
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self._running = False

    def _in_forked_child(self) -> None:
        # A forked child inherits the handler but not the interval timer.
        if self._running:
            self._fd = os.open(os.path.join(self.spill_dir, str(os.getpid())),
                               os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _tick(self, _signum, _frame) -> None:
        took = probe()
        self.samples.append(took)
        self.spent_s += took
        if self._fd is not None:
            os.write(self._fd, b"%r\n" % took)

    def spilled(self) -> List[float]:
        """Probe times the forked children wrote.  A child killed
        mid-write leaves an unterminated last line, which is skipped."""
        out: List[float] = []
        for name in sorted(os.listdir(self.spill_dir)):
            with open(os.path.join(self.spill_dir, name)) as fh:
                out += [float(line) for line in fh if line.endswith("\n")]
        return out


def factor(samples: List[float]) -> float:
    """The host's mean speed relative to the reference, below 1 when
    slower; 1 without samples (the traced pass), so times stay raw."""
    if not samples:
        return 1.0
    return REFERENCE_PROBE_S * statistics.fmean(1.0 / s for s in samples)


def normalise(raw_s: float, spent_s: float, samples: List[float]) -> float:
    """``raw_s`` less the probes' own time, at the reference speed."""
    return (raw_s - spent_s) * factor(samples)
