"""Remaining application workloads: Pbzip2, Fio, Hackbench.

* :class:`Pbzip2` — parallel file compression: a read stage feeding
  compression workers and a write stage (pipeline with coarse chunks).
* :class:`Fio` — I/O-intensive: threads alternating tiny CPU bursts with
  I/O waits; almost no CPU demand, sensitive only to wake-up latency.
* :class:`Hackbench` — scheduler stress: groups of senders and receivers
  exchanging many small messages; throughput is dominated by wake-up cost
  and communication distance (the LLC experiment of §5.3).
"""

from __future__ import annotations

from repro.guest.sync import Channel
from repro.sim.engine import MSEC, USEC
from repro.workloads.base import Workload, WorkloadContext
from repro.workloads.parsec import PipelineWorkload


class Pbzip2(PipelineWorkload):
    """Parallel bzip2: 1 reader, N compressors, 1 writer."""

    def __init__(self, name: str = "pbzip2", threads: int = 8,
                 blocks: int = 400, block_work_ns: int = 3 * MSEC):
        compressors = max(1, threads - 2)
        super().__init__(
            name, items=blocks,
            stages=[("read", 1, block_work_ns // 10),
                    ("bzip", compressors, block_work_ns),
                    ("write", 1, block_work_ns // 10)],
            queue_capacity=2 * compressors, lines=32)


class Fio(Workload):
    """Flexible I/O tester: submit, wait for completion, repeat."""

    def __init__(self, name: str = "fio", threads: int = 8,
                 iterations: int = 400, cpu_ns: int = 30 * USEC,
                 io_wait_ns: int = 800 * USEC):
        super().__init__(name)
        self.threads = threads
        self.iterations = iterations
        self.cpu_ns = cpu_ns
        self.io_wait_ns = io_wait_ns
        self.ios_done = 0

    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        join = self._join_counter(self.threads)
        rng = ctx.rng
        wl = self

        def body(api):
            for _ in range(wl.iterations):
                yield api.run(wl.cpu_ns)
                yield api.sleep(max(10_000, int(rng.exponential(wl.io_wait_ns))))
                wl.ios_done += 1

        for i in range(self.threads):
            t = self._spawn(body, f"{self.name}-{i}")
            self.ctx.kernel.on_exit(t, join)


class Hackbench(Workload):
    """Groups of sender/receiver pairs flooding small messages."""

    def __init__(self, name: str = "hackbench", groups: int = 4,
                 pairs_per_group: int = 4, messages: int = 200,
                 msg_work_ns: int = 10 * USEC, lines: int = 48):
        super().__init__(name)
        self.groups = groups
        self.pairs_per_group = pairs_per_group
        self.messages = messages
        self.msg_work_ns = msg_work_ns
        #: Cache lines per message (socket buffer + header footprint).
        self.lines = lines

    @property
    def threads(self) -> int:
        return self.groups * self.pairs_per_group * 2

    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        join = self._join_counter(self.groups * self.pairs_per_group * 2)
        wl = self

        for g in range(self.groups):
            for p in range(self.pairs_per_group):
                fwd = Channel(f"{self.name}-g{g}p{p}f", capacity=64,
                              lines=self.lines)
                ack = Channel(f"{self.name}-g{g}p{p}a", capacity=64,
                              lines=max(1, self.lines // 8))

                def sender(api, fwd=fwd, ack=ack):
                    for i in range(wl.messages):
                        yield api.run(wl.msg_work_ns)
                        yield api.send(fwd, i)
                        yield api.recv(ack)

                def receiver(api, fwd=fwd, ack=ack):
                    for _ in range(wl.messages):
                        yield api.recv(fwd)
                        yield api.run(wl.msg_work_ns)
                        yield api.send(ack, True)

                t1 = self._spawn(sender, f"{self.name}-s{g}.{p}")
                t2 = self._spawn(receiver, f"{self.name}-r{g}.{p}")
                self.ctx.kernel.on_exit(t1, join)
                self.ctx.kernel.on_exit(t2, join)
