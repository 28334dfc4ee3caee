"""The benchmark's workloads and metric names.

Each workload loads one layer of the simulator heavily where another
workload barely touches it; README.md and BENCHMARK.json give the measured
reason for each.
Sizes are chosen so that several fresh-interpreter repetitions of every
workload fit in one measured run.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from layers import BUCKETS


@dataclass(frozen=True)
class Workload:
    name: str
    #: Fast-mode experiment ids handed to ``run_units``.
    experiments: Tuple[str, ...]
    #: Worker count; 1 runs the in-process serial scheduler.
    jobs: int = 1
    #: Use a fresh result cache: a timed cold pass, then a warm pass.
    cache: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("dense-dispatch", ("fig21", "fig3")),
    Workload("wide-balance", ("fig13", "fig10a", "tab2")),
    Workload("fork-sweep", ("fig14", "fig10b")),
    Workload("campaign-2w", ("fig2", "fig20", "fig3", "fig10b"), jobs=2,
             cache=True),
)}

#: Under a second; the self-tests run it.
SMOKE = Workload("smoke", ("fig3", "fig10b"))


def get(name: str) -> Workload:
    if name == SMOKE.name:
        return SMOKE
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: "
                       f"{', '.join(WORKLOADS)}")
    return WORKLOADS[name]


def submission_order(workload: Workload, seed: int) -> List[str]:
    """The workload's experiments in a seed-determined order.

    Scenario RNG labels are fixed inside the experiments, so the seed
    varies only the order in which experiments are submitted.
    """
    ids = list(workload.experiments)
    random.Random(f"vbench|{workload.name}|{seed}").shuffle(ids)
    return ids


NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "output_ok": ("bool", "higher"),
}

#: ``repro`` modules that took at least 1% of traced self time on some
#: workload; each is reported on every workload.
PROFILED_MODULES = (
    "sim.engine",
    "hw.topology",
    "hypervisor.machine", "hypervisor.runqueue", "hypervisor.vcpu",
    "guest.balance", "guest.cpu", "guest.domains", "guest.kernel",
    "guest.pelt", "guest.runqueue", "guest.select", "guest.task",
    "core.ivh",
    "probers.vcap", "probers.vtop",
)


def _per_layer() -> Dict[str, str]:
    names = {
        "sim.events_fired": "count", "sim.events_elided": "count",
        "sim.pushes": "count", "sim.cancels": "count",
        "sim.cancel_ratio": "ratio", "sim.ns_per_event": "ns",
    }
    names.update({f"self_s.{b}": "s" for b in BUCKETS})
    names.update({f"self_s.{m}": "s" for m in PROFILED_MODULES})
    names.update({
        "snapstore.hits": "count", "snapstore.misses": "count",
        "snapstore.forks": "count", "snapstore.hit_ratio": "ratio",
        "snapstore.prefix_build_s": "s", "snapstore.fork_s": "s",
        "cache.hits": "count", "cache.misses": "count",
        "cache.lookup_s": "s", "cache.store_s": "s", "cache.bytes": "B",
        "cache.warm_pass_s": "s",
        "parallel.efficiency": "ratio", "parallel.idle_s": "s",
        "parallel.critical_unit_s": "s",
        "supervisor.retries": "count", "supervisor.requeues": "count",
        "supervisor.respawns": "count",
        "experiments.decompose_s": "s", "experiments.check_s": "s",
        "experiments.unit_wall_s.p50": "s",
        "host.speed": "ratio",
        "trace.overhead_ratio": "ratio", "trace.unattributed_frac": "ratio",
    })
    return names


#: name -> unit
PER_LAYER: Dict[str, str] = _per_layer()
