"""Physical host topology: sockets, cores, hardware threads.

The topology is the ground truth the hypervisor schedules on and the thing
vtop tries to rediscover from inside the guest.  Distances between hardware
threads determine cache-line transfer latencies (see :mod:`repro.hw.cache`).
"""

from __future__ import annotations

import enum
from typing import List, Optional


class Distance(enum.IntEnum):
    """Topological distance between two hardware threads.

    Ordered so that larger values mean farther apart (higher latency).
    ``STACKED`` is not a physical distance — it is what two vCPUs pinned to
    the *same* hardware thread look like to a cache-line prober (they can
    never run simultaneously), and is included here so probers and the cache
    model share one vocabulary.
    """

    SAME_THREAD = 0
    SMT_SIBLING = 1
    SAME_SOCKET = 2
    CROSS_SOCKET = 3


# The members as plain module-level names, for the per-event paths: on
# CPython 3.11 every ``Distance.CROSS_SOCKET`` load goes through
# ``EnumType.__getattr__`` (INTERNALS §8).
SAME_THREAD = Distance.SAME_THREAD
SMT_SIBLING = Distance.SMT_SIBLING
SAME_SOCKET = Distance.SAME_SOCKET
CROSS_SOCKET = Distance.CROSS_SOCKET


class HwThread:
    """One hardware thread (logical CPU) of the host."""

    __slots__ = ("index", "core", "runqueue")

    def __init__(self, index: int, core: "Core"):
        self.index = index
        self.core = core
        #: Host runqueue attached by the hypervisor layer.
        self.runqueue = None

    @property
    def socket(self) -> "Socket":
        return self.core.socket

    def sibling(self) -> Optional["HwThread"]:
        """The SMT sibling thread, or None on a non-SMT core."""
        for t in self.core.threads:
            if t is not self:
                return t
        return None

    def __repr__(self) -> str:
        return f"<HwThread {self.index} core={self.core.index} socket={self.socket.index}>"


class Core:
    """A physical core holding one or two hardware threads."""

    __slots__ = ("index", "socket", "threads")

    def __init__(self, index: int, socket: "Socket"):
        self.index = index
        self.socket = socket
        self.threads: List[HwThread] = []


class Socket:
    """A package sharing a last-level cache."""

    __slots__ = ("index", "cores")

    def __init__(self, index: int):
        self.index = index
        self.cores: List[Core] = []

    @property
    def threads(self) -> List[HwThread]:
        return [t for c in self.cores for t in c.threads]


class HostTopology:
    """The full host: ``sockets × cores_per_socket × smt`` hardware threads."""

    def __init__(self, sockets: int, cores_per_socket: int, smt: int = 2):
        if sockets < 1 or cores_per_socket < 1 or smt not in (1, 2):
            raise ValueError("invalid topology shape")
        self.smt = smt
        self.sockets: List[Socket] = []
        self.cores: List[Core] = []
        self.threads: List[HwThread] = []
        thread_idx = 0
        core_idx = 0
        for s in range(sockets):
            sock = Socket(s)
            self.sockets.append(sock)
            for _ in range(cores_per_socket):
                core = Core(core_idx, sock)
                core_idx += 1
                sock.cores.append(core)
                self.cores.append(core)
                for _ in range(smt):
                    t = HwThread(thread_idx, core)
                    thread_idx += 1
                    core.threads.append(t)
                    self.threads.append(t)

    def thread(self, index: int) -> HwThread:
        return self.threads[index]

    def distance(self, a: HwThread, b: HwThread) -> Distance:
        """Topological distance between two hardware threads."""
        if a is b:
            return SAME_THREAD
        if a.core is b.core:
            return SMT_SIBLING
        if a.socket is b.socket:
            return SAME_SOCKET
        return CROSS_SOCKET

    def __repr__(self) -> str:
        return (
            f"<HostTopology {len(self.sockets)} sockets x "
            f"{len(self.sockets[0].cores)} cores x {self.smt} threads>"
        )
