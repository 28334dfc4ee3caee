"""vtop: the topology prober (§3.1).

vCPU distance is probed by timing atomic ping-pong on a shared cache line
between two prober threads.  The physics: transfers only complete while
*both* vCPUs are simultaneously host-active, at a rate set by the
round-trip cache-line latency of the two hosting hardware threads.  Two
stacked vCPUs never overlap, so the probe times out with ~no transfers
and reports infinite distance.

:class:`PairProbe` runs one measurement as real guest tasks (high priority,
pinned), accumulating transfer/attempt progress event-driven from the two
vCPUs' activity transitions.  :class:`VTop` composes probes into full
topology discovery and the lighter periodic validation, with the paper's
three optimizations: inference skipping, socket-first with intra-socket
parallelism, and validation periods with timeout extension to avoid
mislabelling non-stacked vCPUs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.abstraction import TopologyView
from repro.core.module import VSchedModule
from repro.guest.cgroup import TaskGroup
from repro.guest.kernel import GuestKernel
from repro.guest.task import Policy
from repro.core.weights import weight_for_nice
from repro.probers.robust import TopologyQuarantine
from repro.sim.engine import MSEC, SEC, USEC

#: Classification outcomes for a measured pair latency.
CLS_SMT = "smt"
CLS_SOCKET = "socket"
CLS_CROSS = "cross"
CLS_STACK = "stack"

#: Latency thresholds (ns) separating the distance classes.
SMT_MAX_NS = 20.0
SOCKET_MAX_NS = 80.0


def classify(latency_ns: float) -> str:
    if math.isinf(latency_ns):
        return CLS_STACK
    if latency_ns < SMT_MAX_NS:
        return CLS_SMT
    if latency_ns < SOCKET_MAX_NS:
        return CLS_SOCKET
    return CLS_CROSS


class PairProbe:
    """One cache-line ping-pong measurement between two vCPUs."""

    def __init__(
        self,
        kernel: GuestKernel,
        group: TaskGroup,
        cpu_a: int,
        cpu_b: int,
        rng,
        target_transfers: int = 500,
        timeout_attempts: int = 15000,
        attempt_ns: int = 3000,
        max_extensions: int = 4,
        stack_threshold: int = 1,
        weight: int = weight_for_nice(-10),
        setup_cost_ns: int = 3 * MSEC,
        on_done: Optional[Callable] = None,
    ):
        self.kernel = kernel
        self.group = group
        self.cpu_a = cpu_a
        self.cpu_b = cpu_b
        self.rng = rng
        self.target_transfers = target_transfers
        self.timeout_attempts = timeout_attempts
        self.attempt_ns = attempt_ns
        self.max_extensions = max_extensions
        self.stack_threshold = stack_threshold
        self.weight = weight
        #: Spawn/pin/synchronize cost before measurement begins — dominates
        #: short probes, as on real systems.
        self.setup_cost_ns = setup_cost_ns
        self.on_done = on_done

        self.transfers = 0.0
        self.attempts = 0.0
        self.extensions = 0
        self.started_at = 0
        self.elapsed_ns = 0
        self.result_latency_ns: Optional[float] = None
        self._finished = False
        self._stop_flag = [False]
        self._tasks = []
        self._listeners = []
        self._last_update = 0
        self._deadline_event = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.started_at = self.kernel.now()
        self._machine = self.kernel.machine
        for cpu in (self.cpu_a, self.cpu_b):
            task = self.kernel.spawn(
                self._spin_body(), name=f"vtop-{self.cpu_a}-{self.cpu_b}@{cpu}",
                policy=Policy.NORMAL, weight=self.weight, group=self.group,
                cpu=cpu, allowed=(cpu,))
            self._tasks.append(task)
        # Measurement begins once both prober threads are set up and have
        # rendezvoused on the shared cache line.
        self.kernel.engine.call_in(self.setup_cost_ns, self._begin)

    def _begin(self) -> None:
        self._last_update = self.kernel.now()
        listener = self._on_transition
        for cpu in (self.cpu_a, self.cpu_b):
            v = self.kernel.vm.vcpus[cpu]
            v.activity_listeners.append(listener)
            self._listeners.append((v, listener))
        self._reintegrate()

    def _spin_body(self):
        stop = self._stop_flag
        setup = self.setup_cost_ns

        def body(api):
            # Setup (spawn/pin/rendezvous) is mostly waiting, not CPU burn.
            yield api.sleep(setup)
            while not stop[0]:
                yield api.run(20 * USEC)

        return body

    # ------------------------------------------------------------------
    def _pair_latency_ns(self) -> float:
        """Current one-way transfer latency between the hosting threads."""
        from repro.hw.topology import Distance

        ta = self.kernel.vm.vcpus[self.cpu_a].last_thread
        tb = self.kernel.vm.vcpus[self.cpu_b].last_thread
        if ta is None or tb is None:
            # Neither vCPU has run yet; a conservative default (never used
            # for accumulation because no overlap has happened either).
            return self._machine.cache.base_latency(Distance.CROSS_SOCKET)
        d = self._machine.topology.distance(ta, tb)
        return self._machine.cache.base_latency(d)

    def _rates(self) -> Tuple[float, float]:
        """(transfers/ns, attempts/ns) for the current activity state."""
        a_active = self.kernel.vm.vcpus[self.cpu_a].active
        b_active = self.kernel.vm.vcpus[self.cpu_b].active
        if a_active and b_active:
            lat = self._pair_latency_ns()
            rate = 1.0 / (2.0 * lat)
            return rate, rate
        if a_active or b_active:
            return 0.0, 1.0 / self.attempt_ns
        return 0.0, 0.0

    def _on_transition(self, vcpu, active: bool, now: int) -> None:
        if self._finished:
            return
        self._reintegrate()

    def _reintegrate(self) -> None:
        now = self.kernel.now()
        delta = now - self._last_update
        t_rate, a_rate = self._rates()
        if delta > 0:
            self.transfers += delta * t_rate
            self.attempts += delta * a_rate
            self._last_update = now
        if self._check_done():
            return
        self._arm_deadline(t_rate, a_rate)

    def _arm_deadline(self, t_rate: float, a_rate: float) -> None:
        if self._deadline_event is not None:
            self._deadline_event.cancel()
            self._deadline_event = None
        budget_attempts = self.timeout_attempts * (1 + self.extensions)
        horizons = []
        if t_rate > 0:
            horizons.append((self.target_transfers - self.transfers) / t_rate)
        if a_rate > 0:
            horizons.append((budget_attempts - self.attempts) / a_rate)
        if not horizons:
            return  # both vCPUs inactive; wait for a transition
        delay = max(1, int(min(horizons)) + 1)
        self._deadline_event = self.kernel.engine.call_in(delay, self._reintegrate)

    def _check_done(self) -> bool:
        if self._finished:
            return True
        if self.transfers >= self.target_transfers:
            # Enough transfers: report the minimum sampled latency.
            lat = self._pair_latency_ns()
            samples = lat * (1.0 + self.rng.normal(0.0, 0.04, size=16))
            self._finish(float(max(0.5, samples.min())))
            return True
        if self.attempts >= self.timeout_attempts * (1 + self.extensions):
            if (self.transfers < self.target_transfers
                    and self.transfers >= self.stack_threshold):
                # Some transfers happened — extend rather than misjudge
                # limited active overlap as stacking (§3.1).
                if self.extensions < self.max_extensions:
                    self.extensions += 1
                    return False
                lat = self._pair_latency_ns()
                self._finish(float(lat * (1.0 + abs(self.rng.normal(0.0, 0.04)))))
                return True
            if self.extensions < self.max_extensions:
                self.extensions += 1
                return False
            self._finish(math.inf)
            return True
        return False

    def _finish(self, latency_ns: float) -> None:
        self._finished = True
        self.result_latency_ns = latency_ns
        self.elapsed_ns = self.kernel.now() - self.started_at
        self._stop_flag[0] = True
        if self._deadline_event is not None:
            self._deadline_event.cancel()
            self._deadline_event = None
        for v, listener in self._listeners:
            if listener in v.activity_listeners:
                v.activity_listeners.remove(listener)
        self._listeners.clear()
        if self.on_done is not None:
            self.on_done(self)


class VTop:
    """Topology discovery and periodic validation for one VM."""

    def __init__(
        self,
        kernel: GuestKernel,
        module: VSchedModule,
        rng,
        interval_ns: int = 2 * SEC,
        target_transfers: int = 500,
        timeout_attempts: int = 15000,
        attempt_ns: int = 600,
        robust: Optional[dict] = None,
    ):
        self.kernel = kernel
        self.module = module
        self.rng = rng
        self.interval_ns = interval_ns
        self.target_transfers = target_transfers
        self.timeout_attempts = timeout_attempts
        self.attempt_ns = attempt_ns
        #: Robust-estimation parameters (``VSchedConfig.robust_probers``);
        #: None publishes every probed view immediately, as stock vtop does.
        self.robust = robust
        self.quarantine = (
            TopologyQuarantine(confirmations=robust["topology_confirmations"])
            if robust is not None else None)
        #: vtop may probe every vCPU, including rwc-banned stacked ones
        #: (the one exception the paper allows, §3.4).
        self.group: TaskGroup = kernel.new_group("vtop")
        self.view: Optional[TopologyView] = None
        self.last_full_ns = 0
        self.last_validate_ns = 0
        self.full_probes = 0
        self.validations = 0
        self._running = False
        self._busy = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def start(self, initial_delay_ns: int = 50 * MSEC) -> None:
        if self._running:
            return
        self._running = True
        self.kernel.engine.call_in(initial_delay_ns, self._periodic)

    def stop(self) -> None:
        self._running = False

    def probe_full(self, on_done: Optional[Callable] = None) -> None:
        """Run full topology discovery; publish the result."""
        started = self.kernel.now()

        def finished(view: TopologyView) -> None:
            self.last_full_ns = self.kernel.now() - started
            self.full_probes += 1
            if self.quarantine is not None and not self.quarantine.admit(view):
                # A view that *changed* needs back-to-back confirmation: one
                # poisoned probe pass (a co-runner inflating pair latencies
                # into misclassification) then publishes nothing, and the
                # scheduler keeps running on the previous topology.
                self._busy = False
                if on_done is not None:
                    on_done(self.view)
                return
            self.view = view
            self.module.publish_topology(view)
            self._busy = False
            if on_done is not None:
                on_done(view)

        self._busy = True
        self._run_plan(self._full_plan(), finished)

    def validate(self, on_done: Optional[Callable] = None) -> None:
        """Cheap check that the current view still holds; else full probe."""
        if self.view is None:
            self.probe_full(on_done)
            return
        started = self.kernel.now()

        def finished(ok: bool) -> None:
            self.last_validate_ns = self.kernel.now() - started
            self.validations += 1
            self._busy = False
            if ok:
                if on_done is not None:
                    on_done(self.view)
            else:
                self.probe_full(on_done)

        self._busy = True
        self._run_plan(self._validate_plan(self.view), finished)

    # ------------------------------------------------------------------
    # Plan driver: plans are generators yielding waves of pairs
    # ------------------------------------------------------------------
    def _run_plan(self, plan, on_done: Callable) -> None:
        def step(results: Optional[Dict[Tuple[int, int], float]]) -> None:
            try:
                wave = plan.send(results)
            except StopIteration as stop:
                on_done(stop.value)
                return
            self._run_wave(wave, step)

        step(None)

    def _run_wave(self, wave: List[Tuple[int, int]], cont: Callable) -> None:
        results: Dict[Tuple[int, int], float] = {}
        remaining = [len(wave)]

        def one_done(probe: PairProbe) -> None:
            results[(probe.cpu_a, probe.cpu_b)] = probe.result_latency_ns
            remaining[0] -= 1
            if remaining[0] == 0:
                cont(results)

        for a, b in wave:
            PairProbe(
                self.kernel, self.group, a, b, self.rng,
                target_transfers=self.target_transfers,
                timeout_attempts=self.timeout_attempts,
                attempt_ns=self.attempt_ns,
                on_done=one_done,
            ).start()

    # ------------------------------------------------------------------
    # Full discovery plan
    # ------------------------------------------------------------------
    def _full_plan(self):
        n = len(self.kernel.cpus)
        # Phase 1: socket discovery.  Probe each CPU against one
        # representative per known socket; inference skipping means we never
        # probe two non-representatives across sockets.
        sockets: List[List[int]] = [[0]]
        pair_class: Dict[Tuple[int, int], str] = {}
        for c in range(1, n):
            placed = False
            for grp in sockets:
                rep = grp[0]
                res = yield [(rep, c)]
                cls = classify(res[(rep, c)])
                pair_class[(rep, c)] = cls
                if cls != CLS_CROSS:
                    grp.append(c)
                    placed = True
                    break
            if not placed:
                sockets.append([c])

        # Phase 2: intra-socket pairing, one probe per socket per wave
        # (sockets proceed in parallel, as in the paper).
        subplans = {i: self._socket_plan(grp, pair_class)
                    for i, grp in enumerate(sockets) if len(grp) > 1}
        partners: Dict[int, Tuple[int, str]] = {}
        pending: Dict[int, Tuple[int, int]] = {}
        for i, sub in subplans.items():
            try:
                pending[i] = sub.send(None)
            except StopIteration as stop:
                partners.update(stop.value)
        while pending:
            res = yield list(pending.values())
            next_pending: Dict[int, Tuple[int, int]] = {}
            for i, pair in pending.items():
                try:
                    next_pending[i] = subplans[i].send(res[pair])
                except StopIteration as stop:
                    partners.update(stop.value)
            pending = next_pending

        return self._build_view(n, sockets, partners)

    def _socket_plan(self, members: List[int],
                     seed_class: Dict[Tuple[int, int], str]):
        """Find each member's SMT sibling / stack partner within a socket."""
        partners: Dict[int, Tuple[int, str]] = {}
        unresolved = list(members)
        # Seed with classifications already learned during phase 1.
        for (a, b), cls in seed_class.items():
            if cls in (CLS_SMT, CLS_STACK) and a in unresolved and b in unresolved:
                partners[a] = (b, cls)
                partners[b] = (a, cls)
                unresolved.remove(a)
                unresolved.remove(b)
        while len(unresolved) > 1:
            a = unresolved[0]
            found = None
            for x in unresolved[1:]:
                lat = yield (a, x)
                cls = classify(lat)
                if cls in (CLS_SMT, CLS_STACK):
                    found = (x, cls)
                    break
            unresolved.remove(a)
            if found is not None:
                x, cls = found
                unresolved.remove(x)
                partners[a] = (x, cls)
                partners[x] = (a, cls)
        return partners

    def _build_view(self, n: int, sockets: List[List[int]],
                    partners: Dict[int, Tuple[int, str]]) -> TopologyView:
        view = TopologyView(n)
        for grp in sockets:
            g = frozenset(grp)
            for c in grp:
                view.socket_siblings[c] = g
        stacks = []
        for c in range(n):
            partner = partners.get(c)
            if partner is None:
                view.smt_siblings[c] = frozenset((c,))
                continue
            x, cls = partner
            if cls == CLS_SMT:
                view.smt_siblings[c] = frozenset((c, x))
            else:
                view.smt_siblings[c] = frozenset((c, x))
                pair = frozenset((c, x))
                if pair not in stacks:
                    stacks.append(pair)
        view.stack_groups = stacks
        return view

    # ------------------------------------------------------------------
    # Validation plan (lighter: fewer pairs, more parallelism)
    # ------------------------------------------------------------------
    def _validate_plan(self, view: TopologyView):
        ok = True
        # Wave 1: all sibling/stack pairs in parallel (disjoint by nature).
        pair_waves: List[Tuple[int, int]] = []
        expected: Dict[Tuple[int, int], str] = {}
        seen = set()
        for c in range(view.n_cpus):
            sibs = view.smt_siblings[c]
            if len(sibs) == 2:
                a, b = sorted(sibs)
                if (a, b) in seen:
                    continue
                seen.add((a, b))
                pair_waves.append((a, b))
                is_stack = any(frozenset((a, b)) == g for g in view.stack_groups)
                expected[(a, b)] = CLS_STACK if is_stack else CLS_SMT
        if pair_waves:
            res = yield pair_waves
            for pair, lat in res.items():
                if classify(lat) != expected[pair]:
                    ok = False
        if not ok:
            return False
        # Wave 2+: socket validation — one representative per core probes
        # the socket representative; one wave per rep index so the shared
        # socket representative is never in two concurrent probes, while
        # different sockets proceed in parallel.
        socket_groups: List[List[int]] = []
        seen_sock = set()
        for c in range(view.n_cpus):
            g = tuple(sorted(view.socket_siblings[c]))
            if g not in seen_sock:
                seen_sock.add(g)
                socket_groups.append(list(g))
        reps_per_socket: List[List[int]] = []
        for grp in socket_groups:
            reps = []
            covered = set()
            for c in grp:
                if c in covered:
                    continue
                covered |= set(view.smt_siblings[c])
                reps.append(c)
            reps_per_socket.append(reps)
        # Tournament rounds: disjoint pairs probed in parallel so a round
        # takes one probe's wall time — "validation can be done with higher
        # parallelism" (§3.1).  All pairs must classify as same-socket.
        def tournament(reps: List[int]) -> List[List[Tuple[int, int]]]:
            rounds: List[List[Tuple[int, int]]] = []
            layer = list(reps)
            while len(layer) > 1:
                wave = []
                nxt = []
                for i in range(0, len(layer) - 1, 2):
                    wave.append((layer[i], layer[i + 1]))
                    nxt.append(layer[i])
                if len(layer) % 2:
                    nxt.append(layer[-1])
                rounds.append(wave)
                layer = nxt
            return rounds

        per_socket_rounds = [tournament(reps) for reps in reps_per_socket]
        n_rounds = max((len(r) for r in per_socket_rounds), default=0)
        for k in range(n_rounds):
            wave = []
            for rounds in per_socket_rounds:
                if k < len(rounds):
                    wave.extend(rounds[k])
            if not wave:
                continue
            res = yield wave
            for pair, lat in res.items():
                if classify(lat) != CLS_SOCKET:
                    return False
        # Cross-socket spot check: socket representatives pairwise chain.
        if len(reps_per_socket) > 1:
            wave = []
            for i in range(len(reps_per_socket) - 1):
                wave.append((reps_per_socket[i][0], reps_per_socket[i + 1][0]))
            res = yield wave
            for pair, lat in res.items():
                if classify(lat) != CLS_CROSS:
                    return False
        return ok

    # ------------------------------------------------------------------
    def _periodic(self) -> None:
        if not self._running:
            return
        if not self._busy:
            self.validate()
        self.kernel.engine.call_in(self.interval_ns, self._periodic)
