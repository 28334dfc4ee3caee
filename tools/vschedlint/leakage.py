"""Cross-unit leakage (VSL6xx): state that outlives a work unit.

The campaign scheduler runs many units in one warm pooled worker process
(INTERNALS §9–10).  The determinism contract says each unit is a pure
function of ``(code, config, seed)`` — which dies quietly the moment
simulation code writes module-level or class-level state: the *next* unit
in that worker observes it, a cold single-unit rerun does not, and the
divergence surfaces (if ever) as an unexplainable A/B or cache mismatch.

* **VSL601 cross-unit-state** — a function rebinds a module-level name
  (``global``) or mutates a module-level mutable (``X.append``,
  ``X[k] = v``), in its own module or through an import.
* **VSL602 class-attr-state** — a function writes a class attribute
  (``cls.cache = ...``): class objects are process-wide, so this is
  module state wearing a class name.  It is also slow: on CPython 3.11+
  each write resets the class's type version, which de-specialises
  attribute access on every instance of the class.

Intentional process-level stores carry reasoned blessings in
``config.PROCESS_STATE_BLESSED`` — the snapshot store and fingerprint
memo (content-addressed: a stale entry cannot alias a different input),
decorator registries (written at import time, deterministic per code
version), and the engine's telemetry counters (units report deltas;
results never read them).  The registry is the paper trail: every entry
says why persistence cannot change a unit's result.
"""

from __future__ import annotations

from typing import List

from vschedlint import config
from vschedlint.findings import Finding
from vschedlint.index import FileRecord, ProjectIndex


def check_leakage(index: ProjectIndex, findings: List[Finding]) -> None:
    for rec in index.records:
        for write in rec.state_writes:
            _check_write(rec, write, findings)


def _check_write(rec: FileRecord, write: dict,
                 findings: List[Finding]) -> None:
    target_mod = write["target_mod"]
    name = write["name"]
    blessed = config.PROCESS_STATE_BLESSED.get(target_mod, ())
    if name in blessed:
        return
    how = write["how"]
    if how == "class-attr":
        findings.append(Finding(
            "class-attr-state", rec.path, write["line"], write["col"],
            f"write to class attribute {name} ({target_mod}): class "
            f"objects are process-wide, so this persists across units in "
            f"a warm pooled worker, and on CPython 3.11+ each write "
            f"resets the class's type version, de-specialising attribute "
            f"access on every instance — move it to instance state or "
            f"bless it in config.PROCESS_STATE_BLESSED with a reason",
            symbol=write["func"], modname=rec.modname))
    else:
        verb = ("rebinds module-level name" if how == "global-rebind"
                else "mutates module-level state")
        findings.append(Finding(
            "cross-unit-state", rec.path, write["line"], write["col"],
            f"{write['func'] or 'module code'} {verb} {name!r} of "
            f"{target_mod}: it persists across units in a warm pooled "
            f"worker, breaking result = f(code, config, seed) — use "
            f"instance/world state or bless it in "
            f"config.PROCESS_STATE_BLESSED with a reason",
            symbol=write["func"], modname=rec.modname))
