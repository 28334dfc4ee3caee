"""Declarative configuration: the layer graph, the guest-visible ABI, the
per-tree rule policies and the blessing registries.

Everything the checker enforces is data in this module, so the contracts
stay reviewable in one place.  Changing a boundary is a one-line diff here
— and a deliberate one, because this file is what INTERNALS §12 documents.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Layer graph
# ---------------------------------------------------------------------------
# Rank order: a module may import only from layers of rank <= its own.
# (Equal rank = same layer; intra-layer imports are always fine.)
#
#   sim -> hw -> hypervisor -> [guest ABI] -> guest/core/probers
#       -> workloads -> metrics/cluster -> experiments
LAYER_RANK = {
    "sim": 0,
    "hw": 1,
    "hypervisor": 2,
    "guest": 3,
    "core": 3,
    "probers": 3,
    "workloads": 4,
    "metrics": 5,
    "cluster": 5,
    "experiments": 6,
}

#: Layers that are "the guest": they model code running inside the VM and
#: must not read host-side oracle state (see GUEST ABI below).
GUEST_SIDE_LAYERS = frozenset({"guest", "core", "probers", "workloads"})

#: The host-side package guest layers may not import from.
HOST_PACKAGE = "repro.hypervisor"

#: Modules importable from *any* layer, including lower-ranked ones.
#: ``repro.core.weights`` holds the CFS nice->weight table — pure arithmetic
#: shared by host entities and guest probers, with no scheduler state.
NEUTRAL_MODULES = frozenset({
    "repro.core.weights",
})

# ---------------------------------------------------------------------------
# Guest-visible runtime ABI (attribute allowlist)
# ---------------------------------------------------------------------------
# Guest-side code holds handles to hypervisor objects (its VCpuThread, the
# VM, transitively the Machine).  A real Linux guest on KVM sees exactly:
# steal time, the ability to halt and be kicked, activity transitions (the
# steal-jump observable), and the physics of measurements it performs
# itself (cache-line ping-pong latency).  Anything else is an oracle.

#: Attributes guest code may touch on a vCPU handle (``*.vcpu`` or
#: ``vm.vcpus[i]``).
VCPU_ABI = frozenset({
    "active",              # host-activity flag (observable via steal jumps)
    "steal_ns",            # paravirtual steal time (/proc/stat steal)
    "halt",                # guest idle -> host blocks the thread
    "kick",                # wake a halted vCPU (IPI)
    "guest_cpu",           # guest attach point (set by the guest kernel)
    "last_thread",         # hosting hw thread: physics input, below
    "activity_listeners",  # transition callbacks (vtop's event-driven probe)
    "index",
})

#: Attributes guest code may touch on the VM handle.
VM_ABI = frozenset({"vcpus", "machine", "kernel", "name"})

#: Attributes guest code may touch on the Machine handle, and — for the
#: physics channels — which sub-attributes.  ``topology.distance`` and the
#: cache model parameterize effects a guest *measures* (cache-line transfer
#: latency, IPI cost, coherence stalls); the guest never reads them for
#: answers, only to simulate the measurement a real guest performs.
MACHINE_ABI = frozenset({"engine", "tracer", "topology", "cache"})
MACHINE_TOPOLOGY_ABI = frozenset({"distance"})
MACHINE_CACHE_ABI = frozenset({"base_latency", "stall_cycles", "sample_latency"})

# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
#: The one module allowed to construct numpy generators: everything else
#: must route through repro.sim.rng.make_rng / split_rng.
RNG_FACTORY_MODULE = "repro.sim.rng"

#: Wall-clock calls that are never acceptable inside src/repro.
WALLCLOCK_FORBIDDEN = {
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Monotonic/process clocks: meaningless in simulated time, so forbidden in
#: simulation layers; the experiments layer legitimately measures host
#: elapsed time with them (supervisor deadlines, progress lines).
MONOTONIC_FORBIDDEN = {
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "process_time"),
}
MONOTONIC_EXEMPT_LAYERS = frozenset({"experiments"})

#: Ordering-sensitive sinks: a dict-view iteration in a function that also
#: schedules events or pushes heap entries gets flagged.
ORDERING_SINKS = frozenset({"call_at", "call_in", "heappush", "heapify"})

#: The dict-view+sink heuristic targets the *simulation* event heap.  The
#: experiments layer runs real subprocesses against real (monotonic)
#: deadlines; its heaps are host-time backoff queues, and CPython dict
#: views iterate in deterministic insertion order anyway.
ORDERING_SINK_EXEMPT_LAYERS = frozenset({"experiments"})

#: Builtins whose result does not depend on iteration order; set iteration
#: feeding only these is fine.
ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "set", "frozenset", "any", "all", "sum", "len", "min", "max",
})

# ---------------------------------------------------------------------------
# Trees and per-tree rule policy
# ---------------------------------------------------------------------------
# vschedlint lints three trees with different contracts.  ``src/repro`` is
# the simulator: every family applies.  ``tools/`` is host-side dev
# tooling: it reads no real clock and must stay deterministic, because its
# output feeds A/B comparisons and the regenerated EXPERIMENTS.md.
# ``tests/`` may read clocks and poke internals (white-box tests are the
# point), but unseeded randomness would make failures unreproducible.
#
# Families: "layering", "determinism", "snapshot", "cachekeys", "leakage".  Flags soften individual determinism rules per tree.
TREE_POLICIES = {
    "repro": {
        "families": frozenset({"layering", "determinism", "snapshot",
                               "cachekeys", "leakage"}),
        "allow_wallclock": False,
        "allow_identity": False,
    },
    "tools": {
        "families": frozenset({"determinism"}),
        "allow_wallclock": False,
        "allow_identity": True,
        # explicit-seed RNG constructors (random.Random(0)) are fine;
        # drawing from the process-global stream still is not
        "allow_seeded_rng": True,
        # the dict-view+sink heuristic targets the sim event heap
        "dict_view_sinks": False,
    },
    "tests": {
        "families": frozenset({"determinism"}),
        "allow_wallclock": True,
        "allow_identity": True,
        "allow_seeded_rng": True,
        "dict_view_sinks": False,
    },
}

#: Directory components whose subtrees are skipped when a *directory* is
#: expanded (explicit file arguments always lint).  The vschedlint test
#: fixtures are deliberate rule violations: linting them as part of
#: ``vschedlint tests`` would report their intentional findings.
EXCLUDED_DIR_COMPONENTS = frozenset({"__pycache__", "fixtures"})

# ---------------------------------------------------------------------------
# Cache-key soundness (VSL5xx)
# ---------------------------------------------------------------------------
#: Third-party packages whose code is *not* covered by the result cache's
#: code fingerprint but is version-pinned by the environment; importing
#: them does not constitute a fingerprint gap.  Everything else non-stdlib
#: does.
FINGERPRINTED_THIRD_PARTY = frozenset({"numpy", "np"})

#: The one function in ``src/repro`` that may touch the environment:
#: ``(modname, function qualname)``.  ``run_units`` reads
#: ``$VSCHED_REPRO_SNAPSHOT`` as its default snapshot mode, a mode knob
#: whose fork-vs-cold byte-identity is CI-enforced (tools/abdiff.py).
#: Every other setting arrives as an argument.
ENV_READ_SITE = ("repro.experiments.parallel", "run_units")

#: File-read blessings: ``modname -> {function qualname -> reason}``.
#: Every file read in ``src/repro`` is a hidden-file-input finding unless
#: its function is named here.  Every entry must say *why the read cannot
#: make two equal cache keys map to different results*, and must silence
#: a site (tests/test_vschedlint.py::TestBlessings).
HIDDEN_INPUT_BLESSED = {
    "repro.experiments.cache": {
        # The fingerprint is the cache key's code input itself; reading
        # the tree to compute it is the mechanism, not a hidden input.
        "_fingerprint_tree": "computes the code fingerprint that *is* "
                             "part of every unit key",
        # The cache's own entry files are keyed by the full unit key;
        # reading them returns a value previously stored under the same
        # key, so the read cannot alias two different inputs.
        "ResultCache.lookup": "reads its own content-addressed entries",
    },
    "repro.experiments.cli": {
        "main": "opens the --out report for writing; no campaign reads "
                "it, so no unit result can depend on it",
    },
}

# ---------------------------------------------------------------------------
# Cross-unit leakage (VSL6xx)
# ---------------------------------------------------------------------------
#: Mutation method names used to detect writes to module-level mutables.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "extend", "update", "insert", "remove",
    "discard", "pop", "popleft", "popitem", "clear", "setdefault", "sort",
})

#: Process-level state blessings: ``modname -> {state name -> reason}``.
#: A blessed module-level (or ``Class.attr``) name may be written at
#: simulation time.  Every entry must say why persistence across units in
#: a warm pooled worker cannot change any unit's *result*, and must
#: silence a site (tests/test_vschedlint.py::TestBlessings).
PROCESS_STATE_BLESSED = {
    "repro.experiments.snapstore": {
        "_process_store": "the intentional per-process snapshot store; "
                          "entries are keyed by prefix + mode, a "
                          "process's code cannot change while it runs, "
                          "and tools/abdiff.py proves fork==cold",
    },
    "repro.experiments.cache": {
        "_fingerprint_memo": "memo of a pure function of the source tree; "
                             "the tree cannot change mid-run",
    },
    "repro.experiments.parallel": {
        "_last_stats": "parent-process campaign telemetry, written "
                       "after units complete; never read inside a unit "
                       "body",
    },
    "repro.guest.pelt": {
        "_DECAY_CACHE": "memo table of y^p decay powers — a pure "
                        "function of its key, so warm entries are "
                        "byte-identical to cold recomputation",
    },
    "repro.guest.task": {
        "_RESTARTABLE_BODIES": "decorator registry, appended at function "
                               "definition time (import), deterministic "
                               "per code version",
    },
    "repro.sim.engine": {
        "_COUNTERS": "process-wide telemetry; units report deltas, "
                     "results never read it",
    },
}
