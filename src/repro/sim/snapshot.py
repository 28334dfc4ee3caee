"""World snapshot/fork: freeze a simulated world, then fork it cheaply.

A *world* is everything reachable from an engine's event queue plus the
experiment-level roots (machine, guest kernels, probers, workloads,
contexts).  Freezing takes one :func:`copy.deepcopy` over all of it in a
single call, so every shared reference — engine back-refs inside events,
the kernel's CPUs, a workload's channel — lands on exactly one copy.
Forking deep-copies the frozen image again; each fork is a fully
independent world that resumes bit-identically to the original.

Why a *guard* is needed: ``copy.deepcopy`` silently treats three kinds of
callables as atoms (the copy *shares* them with the original):

* closures / lambdas — their cells keep pointing at objects of the
  original world, so a fork would mutate the world it was forked from;
* bound builtin methods (``some_list.append``) — the receiver stays the
  original object;
* functions with mutable defaults — the defaults are shared.

Bound methods of ordinary objects are safe (the receiver is copied
through the memo and the method rebinds), as are module-level functions
(stateless by convention) and ``functools.partial`` over either (the
arguments copy through the memo).  :func:`guard_world` walks every
pending event before freezing and raises :class:`SnapshotError` naming
each offender, so an unsafe world fails loudly at freeze time instead of
corrupting results at fork time.  Generators cannot be deep-copied at
all; live task bodies are handled by :class:`repro.guest.task.Task`'s
own ``__deepcopy__`` (restartable-factory registry / explicit
state-machine bodies), and the guard rejects raw generators appearing in
event arguments.

Every periodic timer is a live heap event, so the state frozen between two
runs is exactly the state a cold run holds at that instant; a fork resumes
from it byte-identically with forking on or off.
"""

from __future__ import annotations

import copy
import types
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Engine


class SnapshotError(RuntimeError):
    """The world cannot be safely frozen or forked."""


#: Module-level callables explicitly vetted as snapshot-safe despite not
#: being recognisable as such structurally (rare; prefer bound methods).
_SAFE_CALLBACKS: set = set()


def snapshot_safe(func: Callable) -> Callable:
    """Mark a callable as safe to sit in a pending event across a freeze.

    Decorator form.  Registering asserts the callable neither closes over
    nor defaults to mutable world state — use only when restructuring to
    a bound method is genuinely impossible.
    """
    _SAFE_CALLBACKS.add(func)
    return func


def _why_unsafe(cb: Callable) -> Optional[str]:
    """Why ``cb`` would not survive a deep copy, or None when it would."""
    if cb in _SAFE_CALLBACKS:
        return None
    if isinstance(cb, types.MethodType):
        # Bound method of an in-world object: the receiver copies through
        # the memo and the method rebinds to the copy.
        return None
    if isinstance(cb, partial):
        return _why_unsafe(cb.func)
    if isinstance(cb, types.FunctionType):
        if cb.__closure__:
            return (f"closure {cb.__qualname__!r} (free variables "
                    f"{cb.__code__.co_freevars} copy by reference and "
                    f"would alias the original world)")
        if cb.__defaults__ and any(
                isinstance(d, (list, dict, set)) for d in cb.__defaults__):
            return (f"function {cb.__qualname__!r} has mutable defaults "
                    f"(shared between original and fork)")
        return None  # plain module-level function
    if isinstance(cb, (types.BuiltinFunctionType, types.BuiltinMethodType,
                       types.MethodWrapperType)):
        self_obj = getattr(cb, "__self__", None)
        if self_obj is None or isinstance(self_obj, types.ModuleType):
            return None  # free builtin (heapq.heappush, math.floor, ...)
        return (f"bound builtin {cb!r} (deep-copies atomically, keeping "
                f"the original receiver)")
    return None  # callable object instance: copied through the memo


def guard_world(engine: Engine) -> None:
    """Vet every pending event for deep-copy safety.

    Raises :class:`SnapshotError` listing all offenders at once (so one
    pass of the guard surfaces every edge that needs converting, not just
    the first).
    """
    problems: List[str] = []
    for entry in engine._heap:
        ev = entry[3]
        if ev.cancelled:
            continue
        why = _why_unsafe(ev.callback)
        if why is not None:
            problems.append(f"pending event at t={ev.time}: {why}")
        for arg in ev.args:
            if isinstance(arg, types.GeneratorType):
                problems.append(
                    f"pending event at t={ev.time}: argument is a live "
                    f"generator {arg!r} (generators cannot be deep-copied)")
    if problems:
        raise SnapshotError(
            "world is not snapshot-safe:\n  " + "\n  ".join(problems))


class WorldSnapshot:
    """A frozen simulation world, forkable any number of times.

    ``roots`` is the experiment's dictionary of top-level handles (env,
    vsched instance, workload context, workloads, ...).  The engine and
    all roots freeze in **one** deep copy, so shared references stay
    shared inside the frozen image; :meth:`fork` deep-copies the image
    again and returns the copied roots (the copied engine is reachable
    both through them and as ``fork()[0]``).
    """

    def __init__(self, engine: Engine, roots: Dict[str, Any]):
        if engine._running:
            raise SnapshotError("cannot freeze a running engine "
                                "(freeze between run()/run_until() calls)")
        guard_world(engine)
        try:
            self._image = copy.deepcopy({"engine": engine, "roots": roots})
        except TypeError as exc:
            raise SnapshotError(
                f"world freeze failed mid-copy: {exc} — most often a live "
                f"generator body without a restartable factory or "
                f"StatefulBody conversion") from exc

    def fork(self) -> Tuple[Engine, Dict[str, Any]]:
        """Return ``(engine, roots)`` of a fresh independent world."""
        world = copy.deepcopy(self._image)
        return world["engine"], world["roots"]
