"""Guest tasks and the action vocabulary of their bodies.

A task body is a Python generator produced by a factory that receives a
:class:`TaskApi`.  The body yields *actions*; the guest kernel completes
each action (running work on a vCPU, sleeping on a timer, blocking on a
synchronization object) and resumes the generator with the action's result.

Example::

    def worker(api):
        while True:
            req = yield api.recv(requests)
            start = api.now()
            yield api.run(req.service_ns)
            record_latency(start - req.arrival, api.now() - req.arrival)

Work amounts are in nanoseconds-at-nominal-speed; actual wall duration
depends on the vCPU's execution rate (capacity) and activity.
"""

from __future__ import annotations

import enum
import inspect
import types
from typing import Any, Callable, Generator, Iterable, Optional

from repro.guest.pelt import Pelt

#: CFS weight of a nice-0 guest task.
GUEST_NICE0_WEIGHT = 1024
#: Weight of a SCHED_IDLE task (kernel uses 3).
SCHED_IDLE_WEIGHT = 3


class Policy(enum.Enum):
    """Guest scheduling policy (the two classes the paper exercises)."""

    NORMAL = "normal"
    IDLE = "idle"  # sched_idle best-effort


class TaskState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"      # on a runqueue, waiting for the vCPU
    RUNNING = "running"        # current on some guest CPU
    SLEEPING = "sleeping"      # timer sleep
    BLOCKED = "blocked"        # waiting on a sync object / channel
    EXITED = "exited"


# The members as plain module-level names, for the per-event paths: on
# CPython 3.11 every ``TaskState.RUNNING`` load goes through
# ``EnumType.__getattr__`` (INTERNALS §8).
TASK_NEW = TaskState.NEW
TASK_RUNNABLE = TaskState.RUNNABLE
TASK_RUNNING = TaskState.RUNNING
TASK_SLEEPING = TaskState.SLEEPING
TASK_BLOCKED = TaskState.BLOCKED
TASK_EXITED = TaskState.EXITED


# ----------------------------------------------------------------------
# Actions
# ----------------------------------------------------------------------
class Action:
    __slots__ = ()


class Run(Action):
    """Execute ``work_ns`` nanoseconds-at-nominal-speed of computation."""

    __slots__ = ("work_ns",)

    def __init__(self, work_ns: int):
        if work_ns < 0:
            raise ValueError("negative work")
        self.work_ns = int(work_ns)


class Sleep(Action):
    """Block for ``duration_ns`` of wall time (timer wakeup)."""

    __slots__ = ("duration_ns",)

    def __init__(self, duration_ns: int):
        if duration_ns < 0:
            raise ValueError("negative sleep")
        self.duration_ns = int(duration_ns)


class Recv(Action):
    """Receive one item from a channel (blocks while empty)."""

    __slots__ = ("channel",)

    def __init__(self, channel):
        self.channel = channel


class Send(Action):
    """Send an item to a channel (blocks while at capacity)."""

    __slots__ = ("channel", "item")

    def __init__(self, channel, item):
        self.channel = channel
        self.item = item


class Lock(Action):
    """Acquire a mutex; blocking or spinning depends on the mutex kind."""

    __slots__ = ("mutex",)

    def __init__(self, mutex):
        self.mutex = mutex


class Unlock(Action):
    """Release a mutex (never blocks)."""

    __slots__ = ("mutex",)

    def __init__(self, mutex):
        self.mutex = mutex


class BarrierWait(Action):
    """Wait until all parties arrive at the barrier."""

    __slots__ = ("barrier",)

    def __init__(self, barrier):
        self.barrier = barrier


class YieldCpu(Action):
    """Voluntarily yield the vCPU (sched_yield)."""

    __slots__ = ()


class MigrateTo(Action):
    """Migrate this task to a specific vCPU (sched_setaffinity + yield).

    Used by the Figure 3 motivating experiment where the synthetic thread
    circularly migrates itself among idle vCPUs.
    """

    __slots__ = ("cpu_index",)

    def __init__(self, cpu_index: int):
        self.cpu_index = cpu_index


# ----------------------------------------------------------------------
# Snapshot-forkable bodies
# ----------------------------------------------------------------------
class StatefulBody:
    """Explicit state-machine replacement for a generator task body.

    A generator cannot be pickled, so a task suspended inside one
    cannot be snapshot-forked.  Subclasses hold all suspension state in
    instance attributes and implement :meth:`send` — called exactly like
    ``generator.send`` by the kernel's action interpreter — raising
    ``StopIteration`` when the body is done.  Instances pickle
    structurally into the snapshot image (restored by ``setattr``, like
    any plain object), so a fork resumes from the same suspension point
    with the same state.
    """

    def send(self, value):  # pragma: no cover - interface
        raise NotImplementedError

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


#: Body factories whose tasks may be forked by *fresh restart*: the
#: snapshot image leaves the generator out, and calling the restored
#: factory again yields a generator that, on its next send, produces
#: exactly the action the suspended original would have.  Valid
#: only for homogeneous loops whose cross-iteration state lives outside
#: the generator (on the task / workload object) and is mutated *before*
#: the yield — see docs/INTERNALS.md §15.
_RESTARTABLE_BODIES: set = set()


def restartable_body(factory: Callable) -> Callable:
    """Register ``factory`` (a plain function or method) as restartable."""
    _RESTARTABLE_BODIES.add(factory)
    return factory


def _factory_restartable(factory) -> bool:
    return (factory in _RESTARTABLE_BODIES
            or getattr(factory, "__func__", None) in _RESTARTABLE_BODIES)


# ----------------------------------------------------------------------
# Task
# ----------------------------------------------------------------------
class Task:
    """One guest thread.

    Its attributes live in ``__slots__``: CPython 3.11 keeps at most 30
    instance attributes inline, and a task has more, so without slots
    every task would carry a materialised ``__dict__`` and read its
    attributes slower on the per-event paths.
    """

    __slots__ = ("kernel", "tid", "name", "policy", "is_idle_policy",
                 "weight", "group", "allowed", "latency_sensitive", "state",
                 "api", "factory", "body", "cpu", "prev_cpu_index",
                 "vruntime", "pelt", "pending_work", "extra_work",
                 "resume_value", "needs_advance", "spinning_on",
                 "spin_streak", "slice_ran", "last_wake_time",
                 "run_started_at", "ivh_last_migration",
                 "last_migration_time", "spin_poll_ns", "pending_stall_from",
                 "pending_stall_lines", "exit_callbacks", "stats")

    def __init__(self, kernel, name: str, factory, policy: Policy = Policy.NORMAL,
                 weight: Optional[int] = None, group=None,
                 allowed: Optional[Iterable[int]] = None,
                 latency_sensitive: bool = False):
        self.kernel = kernel
        # tids rise in spawn order within the task's own kernel, so a
        # world forked from an image numbers its new tasks as a cold run.
        kernel.last_tid += 1
        self.tid = kernel.last_tid
        self.name = name
        self.policy = policy
        #: ``policy`` is fixed at spawn, so its class test is a plain
        #: attribute read on the per-event paths.
        self.is_idle_policy = policy == Policy.IDLE
        if weight is None:
            weight = SCHED_IDLE_WEIGHT if self.is_idle_policy else GUEST_NICE0_WEIGHT
        self.weight = weight
        self.group = group
        self.allowed = frozenset(allowed) if allowed is not None else None
        #: latency-nice hint (the user-space classification channel the
        #: paper cites alongside PELT, §3.2).
        self.latency_sensitive = latency_sensitive
        self.state = TASK_NEW
        self.api = TaskApi(kernel, self)
        #: The body factory, kept for snapshot forking (restartable
        #: bodies are recreated from it when a fork is restored).
        self.factory = factory
        self.body: Generator = factory(self.api)

        # --- scheduler state ------------------------------------------
        self.cpu = None                  # GuestCpu currently hosting us
        self.prev_cpu_index = 0          # last CPU we ran on
        self.vruntime = 0
        self.pelt = Pelt()
        self.pending_work = 0            # remainder of the current Run
        self.extra_work = 0              # pending communication stall
        self.resume_value: Any = None    # value for the next generator send
        self.needs_advance = True        # generator must be advanced on dispatch
        self.spinning_on = None          # spin-sync object being polled
        self.spin_streak = 0             # consecutive failed spin polls
        self.slice_ran = 0               # wall-active time in the current slice
        self.last_wake_time = 0
        self.run_started_at: Optional[int] = None  # on-CPU since (ivh threshold)
        self.ivh_last_migration = 0
        self.last_migration_time = -(10 ** 12)  # cache-hot cooldown marker
        self.spin_poll_ns = 3000         # work burned per failed spin poll
        self.pending_stall_from = None   # producer thread of an undelivered stall
        self.pending_stall_lines = 4
        self.exit_callbacks = []

        # --- statistics -------------------------------------------------
        self.stats = TaskStats()

    # ------------------------------------------------------------------
    def effective_allowed(self) -> Optional[frozenset]:
        """Intersection of the task's own and its cgroup's CPU masks."""
        masks = []
        if self.allowed is not None:
            masks.append(self.allowed)
        if self.group is not None and self.group.allowed is not None:
            masks.append(self.group.allowed)
        if not masks:
            return None
        result = masks[0]
        for m in masks[1:]:
            result = result & m
        return result

    def may_run_on(self, cpu_index: int) -> bool:
        """``cpu_index`` is in :meth:`effective_allowed` (None: any CPU)."""
        allowed = self.allowed
        if allowed is not None and cpu_index not in allowed:
            return False
        group = self.group
        return (group is None or group.allowed is None
                or cpu_index in group.allowed)

    def util(self, now: int) -> float:
        """Current PELT utilization (peek; no state mutation)."""
        return self.pelt.peek(now, self.state == TASK_RUNNING)

    # ------------------------------------------------------------------
    # Snapshot forking
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """The task's state for a snapshot image (pickle or deepcopy).

        All scheduler state — pending_work, resume_value, vruntime, PELT,
        spin state — pickles structurally through the memo (the kernel,
        cpu, and group back-refs land on the restored world).  A generator
        cannot be pickled, so the body follows these rules:

        * an exited task carries neither body nor factory (an exhausted
          generator is never resumed; ``advance_task`` is unreachable for
          EXITED, and its factory may be a closure pickle cannot name,
          such as vtop's ``PairProbe._spin_body.<locals>.body``);
        * a :class:`StatefulBody` pickles structurally;
        * a generator from a registered :func:`restartable_body` factory
          (or any never-started generator) is left out, and
          :meth:`__setstate__` recreates it by calling the restored
          factory — valid by the restart-equivalence contract;
        * anything else raises :class:`~repro.sim.snapshot.SnapshotError`
          naming the task, so an unforkable world fails loudly.
        """
        state = {name: getattr(self, name) for name in Task.__slots__}
        body = self.body
        if body is None or self.state == TASK_EXITED:
            state["body"] = state["factory"] = None
        elif isinstance(body, types.GeneratorType):
            self._check_restartable(body)
            del state["body"]
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore the slots one ``setattr`` at a time, then restart a
        body that :meth:`__getstate__` left out."""
        for k, v in state.items():
            setattr(self, k, v)
        if "body" not in state:
            self.body = self.factory(self.api)

    def _check_restartable(self, body: Generator) -> None:
        from repro.sim.snapshot import SnapshotError

        restartable = (_factory_restartable(self.factory)
                       and self.resume_value is None)
        never_started = (inspect.getgeneratorstate(body)
                         == inspect.GEN_CREATED)
        factory_name = getattr(self.factory, "__qualname__", self.factory)
        if not (restartable or never_started):
            raise SnapshotError(
                f"task {self.name!r} is suspended inside a plain generator "
                f"body ({factory_name!r}); convert it to a StatefulBody or "
                f"register it with @restartable_body to make the world "
                f"forkable")

    def __repr__(self) -> str:
        return f"<Task {self.tid} {self.name} {self.state.value}>"


class TaskStats:
    """Per-task counters maintained by the guest kernel."""

    __slots__ = ("wakeups", "migrations", "work_done", "wall_running",
                 "stall_ns", "wait_ns", "dispatches")

    def __init__(self) -> None:
        self.wakeups = 0
        self.migrations = 0
        self.work_done = 0        # ns-at-nominal of retired computation
        self.wall_running = 0     # wall time on an active vCPU
        self.stall_ns = 0         # communication stalls charged
        self.wait_ns = 0          # runnable time spent waiting for a vCPU
        self.dispatches = 0


class TaskApi:
    """The interface a task body uses to interact with the guest kernel."""

    __slots__ = ("_kernel", "_task")

    def __init__(self, kernel, task):
        self._kernel = kernel
        self._task = task

    # --- actions -------------------------------------------------------
    def run(self, work_ns: int) -> Run:
        return Run(work_ns)

    def sleep(self, duration_ns: int) -> Sleep:
        return Sleep(duration_ns)

    def recv(self, channel) -> Recv:
        return Recv(channel)

    def send(self, channel, item) -> Send:
        return Send(channel, item)

    def lock(self, mutex) -> Lock:
        return Lock(mutex)

    def unlock(self, mutex) -> Unlock:
        return Unlock(mutex)

    def barrier(self, barrier) -> BarrierWait:
        return BarrierWait(barrier)

    def yield_cpu(self) -> YieldCpu:
        return YieldCpu()

    def migrate_to(self, cpu_index: int) -> MigrateTo:
        return MigrateTo(cpu_index)

    # --- introspection ---------------------------------------------------
    def now(self) -> int:
        """Guest sched_clock (wall nanoseconds)."""
        return self._kernel.engine.now

    def cpu_index(self) -> int:
        """Index of the vCPU the task last ran on."""
        return self._task.prev_cpu_index

    @property
    def task(self):
        return self._task
