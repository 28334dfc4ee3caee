"""Nginx-style server workload: open-loop requests, live throughput.

Used by the adaptability (§5.7) and multi-tenant (§5.8) experiments, which
plot requests/second over time while host conditions change, and by the
mixed-workload SMT experiment (§5.3).
"""

from __future__ import annotations

from typing import List, Optional

from functools import partial

from repro.guest.sync import Channel
from repro.guest.task import StatefulBody
from repro.sim.engine import SEC, USEC
from repro.workloads.base import RequestRecord, Workload, WorkloadContext


class NginxServer(Workload):
    """``workers`` event-loop workers serving small requests.

    Open loop: requests arrive at ``rate_per_sec`` regardless of progress
    (excess queues up, throughput saturates at capacity — the paper's live
    throughput curves).  ``throughput_series(window)`` returns requests
    completed per window.
    """

    kind = "latency"

    def __init__(self, name: str = "nginx", workers: int = 16,
                 service_ns: int = 400 * USEC, rate_per_sec: float = 3000.0,
                 duration_ns: Optional[int] = None, record_requests: bool = False):
        super().__init__(name)
        self.workers = workers
        self.service_ns = service_ns
        self.rate_per_sec = rate_per_sec
        self.duration_ns = duration_ns
        self.record_requests = record_requests
        self.completions: List[int] = []   # completion timestamps
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        self.channel = Channel(f"{self.name}-req", capacity=4096, lines=8)
        factory = partial(_NginxWorkerBody, workload=self)
        for i in range(self.workers):
            self._spawn(factory, f"{self.name}-w{i}", latency_sensitive=True)
        self._schedule_arrival()
        if self.duration_ns is not None:
            ctx.engine.call_in(self.duration_ns, self.stop)

    def stop(self) -> None:
        self._stopped = True
        self._mark_done()

    def _schedule_arrival(self) -> None:
        if self._stopped:
            return
        gap = max(1, int(self.ctx.rng.exponential(SEC / self.rate_per_sec)))
        self.ctx.engine.call_in(gap, self._arrive)

    def _arrive(self) -> None:
        if self._stopped:
            return
        # Drop rather than queue unboundedly when saturated (the channel
        # capacity models the listen backlog).
        if not self.channel.full():
            self.ctx.kernel.send_external(self.channel, self.ctx.now())
        self._schedule_arrival()

    # ------------------------------------------------------------------
    def throughput_series(self, window_ns: int = 1 * SEC,
                          t0: Optional[int] = None,
                          t1: Optional[int] = None) -> List[float]:
        """Requests/sec per window over [t0, t1)."""
        t0 = self.started_at if t0 is None else t0
        t1 = (self.finished_at or self.ctx.now()) if t1 is None else t1
        n_windows = max(1, (t1 - t0) // window_ns)
        counts = [0] * n_windows
        for c in self.completions:
            idx = (c - t0) // window_ns
            if 0 <= idx < n_windows:
                counts[idx] += 1
        return [cnt / (window_ns / SEC) for cnt in counts]

    def served_between(self, t0: int, t1: int) -> int:
        return sum(1 for c in self.completions if t0 <= c < t1)


class _NginxWorkerBody(StatefulBody):
    """Event-loop worker as an explicit state machine.

    The three phases (idle → waiting-for-request → serving) replace the
    generator's suspension points, so a snapshot can park a worker
    mid-service and a fork resumes it bit-identically.
    """

    def __init__(self, api, *, workload: "NginxServer"):
        self.api = api
        self.workload = workload
        self.phase = "idle"
        self.arrival = 0
        self.service_start = 0

    def send(self, value):
        wl = self.workload
        if self.phase == "serving":
            finish = self.api.now()
            wl.completions.append(finish)
            if wl.record_requests:
                wl.requests.append(
                    RequestRecord(self.arrival, self.service_start, finish))
            self.phase = "waiting"
            return self.api.recv(wl.channel)
        if self.phase == "waiting":
            if value is None:
                raise StopIteration
            self.arrival = value
            self.service_start = self.api.now()
            self.phase = "serving"
            return self.api.run(wl.service_ns)
        self.phase = "waiting"
        return self.api.recv(wl.channel)
