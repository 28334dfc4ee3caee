"""vact: the activity prober (§3.1).

The kernel half of vact lives in :class:`repro.guest.kernel.GuestKernel`:
a heartbeat timestamp per scheduler tick, a preemption counter incremented
on qualified steal-time jumps, and the vCPU-state query function.  This
user-space half turns the per-window counters (collected during vcap's
sampling periods, as in the paper) into the new abstraction:

* **vCPU latency** — average inactive period = steal_delta / preemptions;
* **average active period** — (window − steal_delta) / preemptions.

A window with no qualified preemptions means the vCPU ran undisturbed, so
its latency estimate converges to zero (a dedicated vCPU).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.module import VSchedModule
from repro.guest.kernel import GuestKernel
from repro.probers.robust import HysteresisGate, RobustScalarEstimator


class VAct:
    """Activity estimation; fed by vcap's sampling windows."""

    def __init__(self, kernel: GuestKernel, module: VSchedModule,
                 robust: Optional[dict] = None):
        self.kernel = kernel
        self.module = module
        self.windows_processed = 0
        #: Robust-estimation parameters (``VSchedConfig.robust_probers``);
        #: None keeps the stock direct-publish path bit-for-bit.
        self.robust = robust
        self._gates: Dict[int, HysteresisGate] = {}
        self._lat_est: Dict[int, RobustScalarEstimator] = {}
        self._act_est: Dict[int, RobustScalarEstimator] = {}

    def on_window(self, samples: Iterable[Tuple]) -> None:
        """Consume one sampling window.

        ``samples`` holds ``(cpu, steal_delta, preemptions, grazes,
        window_ns, grid_ok)`` per probed vCPU: ``grazes`` counts the ticks
        whose steal jump fell below the preemption threshold but above the
        noise floor, and ``grid_ok`` is vcap's tick-grid cross-check
        verdict for the same window.  Only the hardened path reads either.
        """
        for cpu, steal_delta, preempts, grazes, window, grid_ok in samples:
            if self.robust is not None:
                self._robust_window(cpu, steal_delta, preempts, grazes,
                                    window, grid_ok)
                continue
            if preempts > 0:
                latency = steal_delta / preempts
                active = max(0, window - steal_delta) / preempts
            else:
                # No preemption observed: vCPU behaved like a dedicated
                # core for the whole window.
                latency = 0.0
                active = float(window)
            self.module.publish_activity(cpu, latency, active)
        self.windows_processed += 1

    # ------------------------------------------------------------------
    # Hardened path (robust_probers)
    # ------------------------------------------------------------------
    def _robust_window(self, cpu: int, steal_delta: int, preempts: int,
                       grazes: int, window: int, grid_ok: bool) -> None:
        """Graze-aware, hysteresis-gated, median-filtered activity.

        A tick-evading co-runner shaves sub-threshold slices every tick:
        ``preempts`` stays 0 (naive vact concludes "dedicated", latency 0)
        while steal accumulates.  When grazes dominate the window's ticks
        they are re-qualified as the preemption count.  Regime flips
        (dedicated <-> contended) need two consecutive agreeing windows,
        and the contended latency/active estimates run through the
        median/MAD estimator with quarantine.  A window whose capacity
        half failed vcap's tick-grid cross-check (``grid_ok`` False) was
        probe-poisoned — its activity half is distrusted the same way.
        """
        ticks = max(1, window // self.kernel.config.tick_ns)
        effective = preempts
        if grazes >= max(2, ticks // 2):
            effective = preempts + grazes
        contended = effective > 0 and steal_delta > 0
        gate = self._gates.get(cpu)
        if gate is None:
            gate = self._gates[cpu] = HysteresisGate(
                initial=False, n=self.robust["hysteresis_windows"])
        if not gate.update(contended):
            self.module.publish_activity(cpu, 0.0, float(window))
            return
        if not contended:
            return  # regime held by hysteresis; freeze rather than flap
        latency = steal_delta / effective
        active = max(0, window - steal_delta) / effective
        lat_est = self._lat_est.get(cpu)
        if lat_est is None:
            lat_est = self._lat_est[cpu] = self._new_estimator()
            self._act_est[cpu] = self._new_estimator()
        lat = lat_est.ingest(latency, consistent=grid_ok)
        act = self._act_est[cpu].ingest(active, consistent=grid_ok)
        if lat is not None and act is not None:
            self.module.publish_activity(cpu, lat, act)

    def _new_estimator(self) -> RobustScalarEstimator:
        return RobustScalarEstimator(
            window=self.robust["window"],
            mad_k=self.robust["mad_k"],
            min_confidence=self.robust["min_confidence"],
            recovery_windows=self.robust["recovery_windows"])

    # ------------------------------------------------------------------
    # Convenience passthroughs for the optimizing techniques
    # ------------------------------------------------------------------
    def state(self, cpu_index: int):
        """(state, since) from the kernel's heartbeat query."""
        return self.kernel.vcpu_state(cpu_index)
