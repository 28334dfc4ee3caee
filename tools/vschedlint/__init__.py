"""vschedlint: static invariant checker for the vSched reproduction.

The simulator's correctness rests on contracts that ordinary tests cannot
see being *almost* violated:

* **Layering / guest isolation** — the paper's central claim is "no
  hypervisor changes": guest-side code (``guest``/``core``/``probers``/
  ``workloads``) may observe host state only through the interfaces a real
  KVM guest has (steal time, halt/kick, its own timestamps, and the
  physics of measurements it can perform, like cache-line latency).
  Reaching into ``repro.hypervisor`` for anything else is an oracle read
  that silently invalidates the reproduction.
* **Determinism** — the A/B harness (``tools/abdiff.py``), the result
  cache, and the supervisor's retries all assume byte-identical replays.
  A single wall-clock read, unseeded RNG draw, object-identity sort key,
  or unordered ``set`` iteration feeding the event heap breaks that
  quietly.
* **Snapshot safety** — a warm-start snapshot pickles the world, and
  the freeze itself fails on a closure or a live generator; a mutable
  default argument pickles by reference and stays shared by the original
  world and every fork, so none may exist in ``src/repro`` (VSL403).
* **Cache-key soundness** — every input to a unit's result must be in its
  cache key: imports inside the code fingerprint, no hidden environment
  or file reads (VSL5xx).
* **Cross-unit isolation** — no module- or class-level state written at
  simulation time may leak between units sharing a warm pooled worker
  (VSL6xx).

One pass parses every file and runs the per-file rules; the last two
families run over a project index of ``src/repro`` so they can reason
across modules.  See ``docs/INTERNALS.md`` §12 and §16 for the rule
catalogue, the suppression syntax (``# vschedlint: disable=<rule> --
<reason>``) and the blessing registries.
"""

from vschedlint.checker import lint_paths
from vschedlint.findings import Finding, RULES

__all__ = ["lint_paths", "Finding", "RULES"]
