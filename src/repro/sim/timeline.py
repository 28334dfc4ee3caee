"""ASCII execution timelines from trace records (KernelShark, roughly).

The paper uses KernelShark to visualize the stalled-running-task behaviour
(Figure 3).  This renderer turns the tracer's ``guest.run``/``guest.idle``
and ``host.run``/``host.stop`` records into per-vCPU lanes:

    vCPU0 |████████░░░░░░░░████████░░░░░░░░|
    vCPU1 |░░░░░░░░████████░░░░░░░░████████|

where a filled cell means the lane's vCPU was executing the watched task
and a shaded cell means the vCPU was host-active but running something
else (or idle).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.tracing import Tracer

FULL = "#"
ACTIVE = "-"
EMPTY = "."


def _intervals_from_trace(tracer: Tracer, begin_cat: str, end_cat: str,
                          match) -> Dict[int, List[Tuple[int, int]]]:
    """Collect per-lane [start, end) intervals from begin/end records."""
    open_at: Dict[int, int] = {}
    lanes: Dict[int, List[Tuple[int, int]]] = {}
    for rec in tracer.records:
        if rec.category == begin_cat and match(rec.payload):
            open_at[rec.payload[0]] = rec.time
        elif rec.category in (end_cat, begin_cat):
            lane = rec.payload[0]
            start = open_at.pop(lane, None)
            if start is not None and rec.time > start:
                lanes.setdefault(lane, []).append((start, rec.time))
            if rec.category == begin_cat and match(rec.payload):
                open_at[lane] = rec.time
    for lane, start in open_at.items():
        lanes.setdefault(lane, []).append((start, None))
    return lanes


def render_task_timeline(tracer: Tracer, task_name: str, n_cpus: int,
                         t0: int, t1: int, width: int = 64) -> str:
    """Render where ``task_name`` executed across vCPUs in [t0, t1)."""
    cell = (t1 - t0) / width

    # Task-on-CPU intervals from guest.run/guest.idle records.
    task_lanes = _intervals_from_trace(
        tracer, "guest.run", "guest.idle",
        lambda payload: len(payload) > 1 and payload[1] == task_name)
    # Host activity intervals per vCPU from host.run/host.stop.
    host_lanes = _intervals_from_trace(
        tracer, "host.run", "host.stop",
        lambda payload: len(payload) > 1 and "vcpu" in str(payload[1]))

    def covered(intervals, lo: float, hi: float) -> bool:
        for start, end in intervals:
            end = t1 if end is None else end
            if start < hi and end > lo:
                return True
        return False

    lines = []
    for cpu in range(n_cpus):
        row = []
        for i in range(width):
            lo = t0 + i * cell
            hi = lo + cell
            if covered(task_lanes.get(cpu, ()), lo, hi):
                row.append(FULL)
            elif covered(host_lanes.get(cpu, ()), lo, hi):
                row.append(ACTIVE)
            else:
                row.append(EMPTY)
        lines.append(f"vCPU{cpu} |{''.join(row)}|")
    header = (f"task '{task_name}' over [{t0 / 1e6:.0f}, {t1 / 1e6:.0f}] ms "
              f"({FULL}=task running, {ACTIVE}=vCPU active, {EMPTY}=vCPU off)")
    return header + "\n" + "\n".join(lines)
