"""Name → workload builders for the full 34-benchmark catalogue (§5.1)."""

from __future__ import annotations

from typing import List

from repro.workloads.apps import Fio, Hackbench, Pbzip2
from repro.workloads.base import Workload
from repro.workloads.parsec import PARSEC_SPECS, build_parsec
from repro.workloads.synthetic import Matmul, SysbenchCpu
from repro.workloads.tailbench import TAILBENCH, LatencyWorkload

#: PARSEC names used in the overall-evaluation figures.
PARSEC_NAMES: List[str] = [
    "blackscholes", "bodytrack", "canneal", "dedup", "facesim",
    "fluidanimate", "freqmine", "streamcluster", "swaptions", "x264",
]

#: SPLASH-2x names used in the overall-evaluation figures.
SPLASH_NAMES: List[str] = [
    "barnes", "fft", "lu_cb", "lu_ncb", "ocean_cp", "ocean_ncp",
    "radiosity", "radix", "raytrace", "volrend", "water_spatial",
]

#: Tailbench names used in the overall-evaluation figures.
TAILBENCH_NAMES: List[str] = [
    "img-dnn", "moses", "masstree", "silo", "shore", "specjbb",
    "sphinx", "xapian",
]

#: The full Figure 18/19 row order.
OVERALL_THROUGHPUT = PARSEC_NAMES + SPLASH_NAMES + ["pbzip2", "nginx"]
OVERALL_LATENCY = TAILBENCH_NAMES


def build_workload(name: str, threads: int, scale: float = 1.0,
                   n_requests: int = 300) -> Workload:
    """Instantiate any catalogued benchmark by name.

    ``threads`` sizes parallel workloads; latency benchmarks use it as the
    worker-pool size.  ``scale`` shrinks throughput jobs for fast runs.
    """
    if name in PARSEC_SPECS:
        return build_parsec(name, threads=threads, scale=scale)
    if name in TAILBENCH:
        return LatencyWorkload(name, workers=threads, n_requests=n_requests)
    if name == "pbzip2":
        return Pbzip2(threads=threads, blocks=max(40, int(300 * scale)))
    if name == "nginx":
        # In the throughput figures Nginx is a fixed-size serving job:
        # an accept thread feeding workers (completion time = throughput).
        from repro.workloads.parsec import PipelineWorkload
        workers = max(2, threads - 1)
        return PipelineWorkload(
            "nginx", items=max(120, int(workers * 900 * scale)),
            stages=[("accept", 1, 30_000), ("worker", workers, 400_000)],
            queue_capacity=4 * workers, lines=32)
    if name == "hackbench":
        return Hackbench(groups=max(1, threads // 8),
                         messages=max(40, int(200 * scale)))
    if name == "fio":
        return Fio(threads=threads, iterations=max(50, int(400 * scale)))
    if name == "matmul":
        return Matmul(threads=threads, blocks=max(8, int(64 * scale)))
    if name == "sysbench":
        return SysbenchCpu(threads=threads)
    raise KeyError(f"unknown benchmark {name!r}")


