"""EEVDF runqueue: the successor scheduler the paper targets for porting.

The paper implements vSched on CFS but notes (§4) that it "can be easily
ported to the latest kernel that uses the Earliest Eligible Virtual
Deadline First (EEVDF) scheduler".  This module backs that claim: an EEVDF
pick policy that drops into the same runqueue interface, selected with
``GuestConfig(scheduler="eevdf")``.  All of vSched (probers, bvs, ivh,
rwc) runs unchanged on top — the hook points don't care which fair
scheduler picks tasks.

EEVDF in brief: each entity owes/holds *lag* relative to the runqueue's
virtual time ``V`` (the weighted average vruntime).  Only entities that
are **eligible** — lag ≥ 0, i.e. ``vruntime ≤ V`` — may be picked, and
among them the one with the **earliest virtual deadline**
(``vruntime + slice/weight``) runs first.  Compared with CFS's pure
min-vruntime rule this bounds latency for short-slice tasks without
starving anyone.
"""

from __future__ import annotations

from typing import List, Optional

from repro.guest.runqueue import CfsRunqueue
from repro.guest.task import GUEST_NICE0_WEIGHT, Task


class EevdfRunqueue(CfsRunqueue):
    """Drop-in EEVDF variant of the per-CPU runqueue."""

    def virtual_time(self) -> float:
        """V: weighted average vruntime over runnable entities."""
        entities: List[Task] = list(self.normal)
        cur = self.cpu.current
        if cur is not None and not cur.is_idle_policy:
            entities.append(cur)
        if not entities:
            return float(self.min_vruntime)
        return sum(t.vruntime * t.weight for t in entities) / self.load()

    def virtual_deadline(self, task: Task) -> float:
        """vruntime + the task's virtual slice."""
        base = self.cpu.kernel.config.eevdf_base_slice_ns
        return task.vruntime + base * GUEST_NICE0_WEIGHT / task.weight

    def pick_next(self) -> Optional[Task]:
        band = self.normal or self.idle_band
        if not band:
            return None
        if band is self.normal:
            v = self.virtual_time()
            eligible = [t for t in band if t.vruntime <= v + 1]
            pool = eligible or band
        else:
            pool = band
        best = min(pool, key=lambda t: (self.virtual_deadline(t), t.tid))
        band.remove(best)
        kernel = self.cpu.kernel
        if not best.is_idle_policy:
            self.normal_weight -= best.weight
            kernel.nr_queued_normal -= 1
        kernel.nr_queued -= 1
        if best.vruntime > self.min_vruntime:
            self.min_vruntime = best.vruntime
        return best
