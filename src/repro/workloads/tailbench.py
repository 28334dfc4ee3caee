"""Tailbench-style latency-sensitive workloads (§5.1, §5.4).

An open-loop request generator (Poisson arrivals from "the network")
dispatches small requests to a pool of worker tasks.  Per-request queue /
service / end-to-end times are recorded — Table 3's breakdown.

Each named Tailbench benchmark maps to a service-time distribution and a
default arrival rate chosen to keep the system lightly loaded (as the paper
does: it reduces arrival rates so runqueue delay behind other requests is
negligible and the extended runqueue latency dominates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.engine import MSEC, USEC
from repro.workloads.base import RequestRecord, Workload, WorkloadContext
from repro.guest.sync import Channel


@dataclass(frozen=True)
class TailbenchSpec:
    """Service-time shape of one Tailbench benchmark."""

    service_mean_ns: int
    service_sigma_ns: int
    interarrival_mean_ns: int
    workers: int = 8


#: Benchmark catalogue.  Service times follow the relative magnitudes
#: reported for Tailbench (Kasture & Sanchez 2016): masstree/silo are
#: sub-millisecond key-value/OLTP, img-dnn ~ a millisecond, moses/sphinx
#: are heavyweight.
TAILBENCH: Dict[str, TailbenchSpec] = {
    "img-dnn":  TailbenchSpec(1100 * USEC, 200 * USEC, 25 * MSEC),
    "masstree": TailbenchSpec(350 * USEC, 80 * USEC, 12 * MSEC),
    "moses":    TailbenchSpec(2500 * USEC, 600 * USEC, 40 * MSEC),
    "silo":     TailbenchSpec(120 * USEC, 40 * USEC, 8 * MSEC),
    "shore":    TailbenchSpec(900 * USEC, 250 * USEC, 20 * MSEC),
    "specjbb":  TailbenchSpec(600 * USEC, 150 * USEC, 15 * MSEC),
    "sphinx":   TailbenchSpec(2800 * USEC, 900 * USEC, 50 * MSEC),
    "xapian":   TailbenchSpec(500 * USEC, 120 * USEC, 12 * MSEC),
}


class LatencyWorkload(Workload):
    """Open-loop request/worker latency benchmark."""

    kind = "latency"

    def __init__(self, name: str, spec: Optional[TailbenchSpec] = None,
                 n_requests: int = 400, workers: Optional[int] = None,
                 warmup_requests: int = 30):
        super().__init__(name)
        self.spec = spec or TAILBENCH[name]
        self.n_requests = n_requests
        self.workers = workers if workers is not None else self.spec.workers
        self.warmup_requests = warmup_requests
        self._sent = 0
        self._served = 0

    # ------------------------------------------------------------------
    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        self.channel = Channel(f"{self.name}-req", lines=8)
        spec = self.spec
        wl = self

        def worker(api):
            while True:
                req = yield api.recv(wl.channel)
                start = api.now()
                yield api.run(req["service"])
                finish = api.now()
                wl._served += 1
                if req["index"] >= wl.warmup_requests:
                    wl.requests.append(
                        RequestRecord(req["arrival"], start, finish))
                if wl._served >= wl.n_requests:
                    wl._mark_done()

        for i in range(self.workers):
            self._spawn(worker, f"{self.name}-w{i}", latency_sensitive=True)
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        if self._sent >= self.n_requests:
            return
        gap = max(1, int(self.ctx.rng.exponential(self.spec.interarrival_mean_ns)))
        self.ctx.engine.call_in(gap, self._arrive)

    def _arrive(self) -> None:
        service = max(10_000, int(self.ctx.rng.normal(
            self.spec.service_mean_ns, self.spec.service_sigma_ns)))
        req = {"arrival": self.ctx.now(), "service": service,
               "index": self._sent}
        self._sent += 1
        self.ctx.kernel.send_external(self.channel, req)
        self._schedule_next_arrival()
