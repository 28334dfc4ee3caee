"""World snapshot/fork: freeze a simulated world, then fork it cheaply.

A *world* is everything reachable from an engine's event queue plus the
experiment-level roots (machine, guest kernels, probers, workloads,
contexts).  Freezing pickles all of it in a single call into one
``bytes`` *image*, so every shared reference — engine back-refs inside
events, the kernel's CPUs, a workload's channel — is one pickle memo
entry and lands on exactly one object of each fork.  Forking is one C
``pickle.loads`` of the image; each fork is a fully independent world
that resumes bit-identically to the original.

The image restores attributes with ``setattr``.  Pickle's default
rebuilds a plain instance by updating its ``__dict__``, and under
CPython 3.11 an object restored that way keeps a materialised dict
instead of inline attribute values: reading its attributes took 3.9x as
long in a microbenchmark (a 20-attribute instance, CPython 3.11.7), and
the forked world simulates slower.  A prototype with plain
``pickle.dumps``/``loads`` forked 4x faster than two ``copy.deepcopy``
passes but made vbench's dense-dispatch slower (2.546 -> 2.697 s,
slower in 4 of 4 pairs), while a deepcopy that restored with ``setattr``
was itself 6.3% faster (2.604 -> 2.439 s).  In-process, fig14's CPU
outside freeze and fork (two cold warm-ups, 20 forked units) was 30-42%
higher with a plain pickle than with this image (3 alternating runs).
So :class:`_ImagePickler` emits pickle's ``(None, state)`` form, which
the unpickler applies one ``setattr`` at a time, for every instance of
a plain class; keep it when simplifying this module.

What pickle cannot restore fails the freeze with :class:`SnapshotError`
naming the object: a closure, lambda or nested function anywhere in the
world (pickle names functions by module and qualified name), and a live
generator.  Task bodies follow :class:`repro.guest.task.Task`'s
``__getstate__``/``__setstate__`` rules (explicit state-machine bodies,
restartable factories, exited tasks keep neither body nor factory).

Bound methods, builtin ones included (``some_list.append``), and
``functools.partial`` objects rebind inside the image, to the fork's own
receiver.  A module-level function pickles by reference, so a mutable
default argument stays shared between the original world and every
fork; vschedlint's VSL403 rejects one in ``src/repro``.

Every periodic timer is a live heap event, so the state frozen between two
runs is exactly the state a cold run holds at that instant; a fork resumes
from it byte-identically with forking on or off.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import types
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim.engine import Engine


class SnapshotError(RuntimeError):
    """The world cannot be safely frozen or forked."""


#: ``type.__flags__`` bit of a class made by a ``class`` statement
#: (CPython's ``Py_TPFLAGS_HEAPTYPE``).
_HEAPTYPE = 1 << 9
#: ``object.__getstate__`` (Python 3.11+; None before).
_DEFAULT_GETSTATE = getattr(object, "__getstate__", None)
_instance_dict = attrgetter("__dict__")


def _setattr_state(cls: type) -> Optional[Callable[[Any], dict]]:
    """How to read a ``cls`` instance's state for a ``setattr`` restore.

    Returns None unless pickle's default for ``cls`` is ``cls.__new__(cls)``
    followed by an update of the instance ``__dict__``: a class built by
    ``class`` statements over ``object`` alone, with an instance dict and
    no slots, and no reduce, ``__getnewargs__``, ``__setstate__`` or
    ``__setattr__`` of its own.  A ``__getstate__`` of such a class
    (:class:`~repro.sim.engine.Engine`'s) must return a dict.
    """
    if not (all(c.__flags__ & _HEAPTYPE for c in cls.__mro__[:-1])
            and cls.__dictoffset__
            and not copyreg._slotnames(cls)
            and cls.__reduce_ex__ is object.__reduce_ex__
            and cls.__reduce__ is object.__reduce__
            and cls.__setattr__ is object.__setattr__
            and not hasattr(cls, "__setstate__")
            and not hasattr(cls, "__getnewargs_ex__")
            and not hasattr(cls, "__getnewargs__")):
        return None
    getstate = getattr(cls, "__getstate__", _DEFAULT_GETSTATE)
    return _instance_dict if getstate is _DEFAULT_GETSTATE else getstate


class _ImagePickler(pickle.Pickler):
    """Writes a world image whose plain instances restore by ``setattr``.

    For those instances it emits ``(copyreg.__newobj__, (cls,), (None,
    state))``: the unpickler treats the dict in a ``(None, dict)`` state
    as slot state and sets each entry with ``setattr``, which keeps the
    restored object's attributes inline (module docstring).  Every other
    object pickles as usual, except that a live generator's error names
    the generator.
    """

    def __init__(self, file: io.BytesIO):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._state_of: Dict[type, Optional[Callable[[Any], dict]]] = {}

    def reducer_override(self, obj: Any) -> Any:
        cls = type(obj)
        try:
            state_of = self._state_of[cls]
        except KeyError:
            state_of = self._state_of[cls] = _setattr_state(cls)
        if state_of is not None:
            return copyreg.__newobj__, (cls,), (None, state_of(obj))
        if cls is types.GeneratorType:
            raise TypeError(f"cannot pickle live generator "
                            f"{obj.__qualname__!r}")
        return NotImplemented


class WorldSnapshot:
    """A frozen simulation world, forkable any number of times.

    ``roots`` is the experiment's dictionary of top-level handles (env,
    vsched instance, workload context, workloads, ...).  The engine and
    all roots pickle into **one** image, so shared references stay
    shared inside it; :meth:`fork` unpickles the image and returns the
    restored roots (the restored engine is reachable both through them
    and as ``fork()[0]``).  The original world is not modified, but its
    plain objects may read attributes slower afterwards (pickling reads
    their ``__dict__``); :class:`~repro.experiments.snapstore.SnapshotStore`
    throws it away.  ``image`` is the frozen bytes; :meth:`from_image`
    wraps an image frozen in another process.
    """

    def __init__(self, engine: Engine, roots: Dict[str, Any]):
        if engine._running:
            raise SnapshotError("cannot freeze a running engine "
                                "(freeze between run()/run_until() calls)")
        buf = io.BytesIO()
        try:
            _ImagePickler(buf).dump({"engine": engine, "roots": roots})
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise SnapshotError(
                f"world freeze failed: {exc} (the image can hold no "
                f"closure, lambda, nested function or live generator, "
                f"in a pending event or anywhere else in the world)"
            ) from exc
        self.image = buf.getvalue()

    @classmethod
    def from_image(cls, image: bytes) -> "WorldSnapshot":
        """The snapshot whose frozen bytes are ``image``, without a
        freeze."""
        snap = cls.__new__(cls)
        snap.image = image
        return snap

    def fork(self) -> Tuple[Engine, Dict[str, Any]]:
        """Return ``(engine, roots)`` of a fresh independent world."""
        world = pickle.loads(self.image)
        return world["engine"], world["roots"]
