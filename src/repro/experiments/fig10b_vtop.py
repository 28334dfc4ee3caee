"""Figure 10b — accuracy of vtop's latency-matrix topology.

An 8-vCPU VM with every topology flavour (two SMT pairs in socket 0; an
SMT pair and a stacked pair in socket 1).  vtop's probed cache-line
transfer latency matrix must separate the four distance classes, with
infinity on the stacked pair.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.module import VSchedModule
from repro.experiments.common import Table
from repro.experiments.units import WorkUnit
from repro.guest.kernel import GuestKernel
from repro.hw.topology import HostTopology
from repro.hypervisor.machine import Machine
from repro.probers import VTop
from repro.sim.engine import Engine, MSEC, SEC
from repro.sim.rng import make_rng


def _build_env():
    engine = Engine()
    topo = HostTopology(2, 4, smt=2)  # 16 threads; socket 1 starts at 8
    machine = Machine(engine, topo)
    pins = [(0,), (1,), (2,), (3,), (8,), (9,), (10,), (10,)]
    vm = machine.new_vm("vm", 8, pinned_map=pins)
    kernel = GuestKernel(vm)
    return engine, machine, kernel


def _probe() -> Tuple[List[List[str]], int]:
    """Work-unit body: the 8x8 relation matrix vtop's full probe implies,
    and the probe's duration."""
    engine, machine, kernel = _build_env()
    module = VSchedModule(kernel)
    vtop = VTop(kernel, module, make_rng("fig10b"))
    done = {}
    vtop.probe_full(lambda view: done.update(view=view))
    engine.run_until(20 * SEC)
    view = done.get("view")
    if view is None:
        raise RuntimeError("vtop full probe did not complete")

    # Render the pairwise relation the probed view implies.
    def relation(a: int, b: int) -> str:
        if a == b:
            return "self"
        if b in view.stacked_partners(a):
            return "stack"
        if b in view.smt_siblings[a]:
            return "smt"
        if b in view.socket_siblings[a]:
            return "socket"
        return "cross"

    matrix = [[relation(a, b) for b in range(8)] for a in range(8)]
    return matrix, vtop.last_full_ns


def scenarios(fast: bool) -> List[WorkUnit]:
    return [WorkUnit(exp_id="fig10b", label="full-probe", func=_probe,
                     cost_hint=0.01, seed="fig10b")]


def assemble(fast: bool, results: List[Tuple]) -> Table:
    matrix, last_full_ns = results[0]
    table = Table(
        exp_id="fig10b",
        title="vtop probed topology relations (8-vCPU VM, Figure 10b layout)",
        columns=["vcpu"] + [str(i) for i in range(8)],
        paper_expectation="distinct latency classes: ~6ns SMT, ~48ns "
                          "intra-socket, ~112ns cross-socket, inf stacked",
    )
    for a, relations in enumerate(matrix):
        table.add(a, *relations)
    table.notes.append(f"full probe took {last_full_ns / MSEC:.0f} ms")
    return table


def check(table: Table) -> None:
    expect_smt = {(0, 1), (2, 3), (4, 5)}
    expect_stack = {(6, 7)}
    for a in range(8):
        for b in range(8):
            rel = table.rows[a][1 + b]
            if a == b:
                assert rel == "self"
                continue
            key = (min(a, b), max(a, b))
            if key in expect_smt:
                assert rel == "smt", (a, b, rel)
            elif key in expect_stack:
                assert rel == "stack", (a, b, rel)
            elif (a < 4) == (b < 4):
                assert rel in ("socket", "smt"), (a, b, rel)
            else:
                assert rel == "cross", (a, b, rel)
