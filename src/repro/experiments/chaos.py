"""Deterministic fault injection for campaign workers.

The supervisor (:mod:`repro.experiments.supervisor`) is only trustworthy
if its recovery paths are exercised, so this module lets a campaign
probabilistically inject the three fault classes the supervisor must
survive, *inside* the worker processes, from a spec passed to
``run_units(..., chaos=ChaosPlan.parse(spec))`` or on the CLI::

    vsched-repro run all --fast --jobs 4 --keep-going --max-retries 2 \
        --chaos crash:0.2,hang:0.1,flaky:0.5

Modes (each ``mode:probability``, comma-separated):

``crash``
    the worker ``os._exit``\\ s mid-unit — emulates OOM-kill/SIGKILL; the
    supervisor must detect the dead worker, requeue its in-flight unit and
    respawn a replacement.
``hang``
    the worker sleeps ``hang_s`` seconds (default 3600, override with a
    ``hang_s=N`` token) — emulates a wedged simulation; the per-unit
    deadline must fire, kill the worker and requeue the unit.
``flaky``
    the unit raises :class:`~repro.experiments.units.TransientUnitError`
    on its **first** attempt only — emulates a fail-once transient; the
    retry path must recover it.

Every decision is a pure function of ``(unit tag, attempt)`` through
:func:`repro.sim.rng.make_rng` — never wall clock or pid — so a chaos run
is exactly reproducible: the same spec over the same campaign injects the
same faults every time, and a campaign whose retries all eventually
succeed renders byte-identical to a clean serial run.  Chaos applies only
inside pool workers; serial (``--jobs 1``) campaigns ignore it, because a
``crash`` would take the parent process down with it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.experiments.units import TransientUnitError

#: Exit code used by injected crashes, distinguishable from real faults.
CHAOS_CRASH_EXIT_CODE = 87

_MODES = ("crash", "hang", "flaky")


@dataclass(frozen=True)
class ChaosPlan:
    """Parsed chaos spec: per-mode probabilities plus the hang duration."""

    crash: float = 0.0
    hang: float = 0.0
    flaky: float = 0.0
    hang_s: float = 3600.0

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse ``"crash:0.2,hang:0.1,flaky:0.5,hang_s=30"``."""
        values = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            sep = ":" if ":" in token else "="
            name, _, raw = token.partition(sep)
            name = name.strip()
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(
                    f"malformed chaos spec token {token!r}: "
                    f"expected <mode>:<probability> or hang_s=<seconds>")
            if name == "hang_s":
                if value <= 0:
                    raise ValueError(f"chaos spec: hang_s must be > 0, "
                                     f"got {value}")
            elif name in _MODES:
                if not 0.0 <= value <= 1.0:
                    raise ValueError(
                        f"chaos spec: probability for {name!r} must be "
                        f"in [0, 1], got {value}")
            else:
                raise ValueError(
                    f"chaos spec: unknown mode {name!r} "
                    f"(known: {', '.join(_MODES)}, hang_s)")
            values[name] = value
        return cls(**values)

    # ------------------------------------------------------------------
    def decide(self, tag: str, attempt: int) -> Optional[str]:
        """Which fault (if any) to inject for ``(tag, attempt)``.

        Pure and reproducible: draws come from ``make_rng`` seeded on the
        unit tag and attempt number, in a fixed mode order.  ``flaky`` is
        decided per *tag* (not per attempt): a unit either is flaky —
        failing its first attempt, succeeding afterwards — or is not.
        """
        from repro.sim.rng import make_rng
        rng = make_rng(f"chaos|{tag}|attempt{attempt}")
        if self.crash and rng.random() < self.crash:
            return "crash"
        if self.hang and rng.random() < self.hang:
            return "hang"
        if self.flaky and attempt == 0:
            if make_rng(f"chaos-flaky|{tag}").random() < self.flaky:
                return "flaky"
        return None

    def maybe_inject(self, tag: str, attempt: int) -> None:
        """Inject the decided fault (called in the worker, mid-unit)."""
        fault = self.decide(tag, attempt)
        if fault == "crash":
            os._exit(CHAOS_CRASH_EXIT_CODE)
        elif fault == "hang":
            time.sleep(self.hang_s)
        elif fault == "flaky":
            raise TransientUnitError(
                f"chaos: injected flaky failure for {tag} "
                f"(attempt {attempt + 1})")
