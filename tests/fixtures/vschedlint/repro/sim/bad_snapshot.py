"""Mutable default arguments, none of them registered anywhere.

Expected findings: snapshot-mutable-default x6, one per mutable default
below (list display, dict display, keyword-only ``set()``, container
constructor in a method, comprehension in a nested def, list display in
a lambda).  Functions pickle by reference, so each default is shared by
the world, every fork of it and every later unit in a warm worker,
whether or not the function is ever a callback.  ``immutable`` stays
quiet.
"""

from collections import deque


def collect(acc=[]):
    acc.append(1)
    return acc


def tally(counts={}, *, seen=set()):
    return counts, seen


class Buffer:
    def push(self, item, backlog=deque()):
        backlog.append(item)


def outer():
    def inner(cache={k: 0 for k in "ab"}):
        return cache
    return inner


hits_of = lambda hits=[]: hits


def immutable(limit=None, pair=(1, 2), name="x", frozen=frozenset()):
    return limit, pair, name, frozen
