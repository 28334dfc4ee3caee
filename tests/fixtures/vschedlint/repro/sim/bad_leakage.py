"""Process-level state written at simulation time.

Expected findings: cross-unit-state x3 (module-dict store, module-list
append, global rebind), class-attr-state x4 (write via the class name,
write via ``cls``, subscript store into a dict held by the class name,
``append`` to a list held via ``cls``).  All seven outlive a work unit
in a warm pooled worker.
"""

_RESULT_MEMO = {}
_TRACE = []
_RUNS = 0


class WarmPool:
    reused = 0
    seen = {}
    log = []

    def mark_reuse(self):
        WarmPool.reused += 1

    def remember(self, key):
        WarmPool.seen[key] = True

    @classmethod
    def reset(cls):
        cls.reused = 0

    @classmethod
    def record(cls, event):
        cls.log.append(event)


def memoize(key, value):
    _RESULT_MEMO[key] = value


def trace(event):
    _TRACE.append(event)


def bump_runs():
    global _RUNS
    _RUNS += 1
