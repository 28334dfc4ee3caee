"""Per-layer attribution: cProfile self time folded into layers, and spans.

Layers are the packages of ``src/repro`` in vschedlint's ``LAYER_RANK``
order.  Python code outside ``repro`` lands in one of three ``outside``
buckets: ``copy`` (the deepcopy behind snapshot freeze/fork), ``pickle``
(result transport and the result cache) and ``other``.  A C builtin
(``len``, ``heappop``, a pickler method) has no file of its own, so its
self time is charged to the layers of the functions that called it, in
proportion to the time pstats records per caller.

Spans are the harness's own records around public calls into each layer:
name, start, end, parent span and workload id.  A span's self time is its
duration minus the part of that interval its child spans cover.

This module imports nothing from ``repro``; the tests run it on synthetic
tables.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: vschedlint's layers, lowest first.
LAYERS = ("sim", "hw", "hypervisor", "guest", "core", "probers", "workloads",
          "metrics", "cluster", "experiments")
OUTSIDE = ("outside.copy", "outside.pickle", "outside.other")
BUCKETS = LAYERS + OUTSIDE

_COPY_FILES = {"copy.py", "copyreg.py"}
_PICKLE_FILES = {"pickle.py", "_compat_pickle.py"}

#: pstats' key for one function: (filename, first line, name).
FuncKey = Tuple[str, int, str]


def classify(filename: str) -> Optional[Tuple[str, Optional[str]]]:
    """Bucket and module for a profiled file; None for a C builtin.

    ``.../repro/guest/balance.py`` gives ``("guest", "balance")``;
    ``.../copy.py`` gives ``("outside.copy", None)``.
    """
    if filename == "~":
        return None
    parts = filename.replace("\\", "/").split("/")
    base = parts[-1]
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        rest = parts[idx + 1:]
        if len(rest) >= 2 and rest[0] in LAYERS:
            return rest[0], os.path.splitext(rest[1])[0]
        return "outside.other", None
    if base in _COPY_FILES:
        return "outside.copy", None
    if base in _PICKLE_FILES:
        return "outside.pickle", None
    return "outside.other", None


def _is_pickler(name: str) -> bool:
    """The C pickler belongs to ``outside.pickle`` whoever calls it."""
    return "_pickle" in name


def fold_self_time(stats: Dict[FuncKey, tuple]) -> Dict[str, float]:
    """Fold a ``pstats.Stats(...).stats`` table into per-layer self time.

    Returns seconds keyed by bucket (``"guest"``, ``"outside.copy"``) and
    by ``"<layer>.<module>"`` for ``repro`` modules.  The bucket totals sum
    to the table's total self time.
    """
    memo: Dict[FuncKey, Dict[Tuple[str, Optional[str]], float]] = {}

    def owners(func: FuncKey, seen: frozenset
               ) -> Dict[Tuple[str, Optional[str]], float]:
        if func in memo:
            return memo[func]
        where = classify(func[0])
        if where is not None:
            share = {where: 1.0}
        elif _is_pickler(func[2]):
            share = {("outside.pickle", None): 1.0}
        else:
            entry = stats.get(func)
            callers = entry[4] if entry is not None else {}
            share = {}
            total = 0.0
            for caller, call in callers.items():
                if caller in seen or call[2] <= 0:
                    continue
                sub = owners(caller, seen | {func})
                total += call[2] if sub else 0.0
                for key, frac in sub.items():
                    share[key] = share.get(key, 0.0) + frac * call[2]
            share = {k: v / total for k, v in share.items()} if total else {}
            if seen:
                # Inside a walk up the callers: an empty share means every
                # path led back into the walk; do not memoize either.
                return share
            if not share:
                share = {("outside.other", None): 1.0}
        memo[func] = share
        return share

    out: Dict[str, float] = {}
    for func, entry in stats.items():
        tt = entry[2]
        if tt <= 0:
            continue
        for (bucket, module), frac in owners(func, frozenset()).items():
            out[bucket] = out.get(bucket, 0.0) + tt * frac
            if module is not None:
                key = f"{bucket}.{module}"
                out[key] = out.get(key, 0.0) + tt * frac
    return out


class Tracer:
    """In-memory span recorder; spans nest by call order.

    ``wrap(name, fn)`` returns ``fn`` wrapped in a span.  Spans are kept in
    a list and written out once, by :func:`chrome_trace`, when the traced
    pass ends.
    """

    def __init__(self, workload: str,
                 clock: Optional[Callable[[], float]] = None):
        self.workload = workload
        self.clock = clock or time.perf_counter
        #: (name, start, end, parent index or -1)
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, self.clock(), 0.0, parent))
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                n, start, _end, p = self.spans[idx]
                self.spans[idx] = (n, start, self.clock(), p)
        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, it: Iterator) -> Iterator:
        """Yield from ``it``, one span per ``next()`` (one per experiment)."""
        step = self.wrap(name, lambda: next(it, _DONE))
        while True:
            item = step()
            if item is _DONE:
                return
            yield item


_DONE = object()


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_self_times(spans: Sequence[Tuple[str, float, float, int]]
                    ) -> Dict[str, float]:
    """Self time per span name: duration minus child coverage, summed.

    A child interval is clipped to its parent's, so a child that outlives
    its parent cannot make the parent's self time negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            _pn, ps, pe, _pp = spans[parent]
            children.setdefault(parent, []).append(
                (max(start, ps), min(end, pe)))
    out: Dict[str, float] = {}
    for idx, (name, start, end, _parent) in enumerate(spans):
        own = (end - start) - _covered(children.get(idx, []))
        out[name] = out.get(name, 0.0) + own
    return out


def span_totals(spans: Sequence[Tuple[str, float, float, int]]
                ) -> Dict[str, Tuple[int, float]]:
    """``name -> (count, summed duration)``."""
    out: Dict[str, Tuple[int, float]] = {}
    for name, start, end, _parent in spans:
        n, d = out.get(name, (0, 0.0))
        out[name] = (n + 1, d + (end - start))
    return out


def chrome_trace(spans: Sequence[Tuple[str, float, float, int]],
                 workload: str) -> dict:
    """Spans as Chrome trace-event JSON (complete events, microseconds)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(s[1] for s in spans)
    events = []
    for idx, (name, start, end, parent) in enumerate(spans):
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": round((start - t0) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"id": idx, "parent": parent, "workload": workload},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
