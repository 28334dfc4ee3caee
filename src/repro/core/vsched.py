"""The vSched orchestrator: wires probers, module, and techniques together.

Mirrors the paper's three evaluation configurations (§5.6):

* ``VSchedConfig.baseline()`` — stock CFS: no probing, no hooks (the
  orchestrator still provides the task groups so experiment code is
  uniform);
* ``VSchedConfig.enhanced()`` — vProbers + rwc: accurate vCPU abstraction
  feeds the existing capacity/topology-aware heuristics and problematic
  vCPUs are hidden, but no activity-aware techniques;
* ``VSchedConfig.full()`` — everything: probers, rwc, bvs, ivh.

Tunables default to Table 1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.bvs import BiasedVCpuSelection
from repro.core.ivh import IntraVmHarvesting
from repro.core.module import VSchedModule
from repro.core.rwc import RelaxedWorkConservation
from repro.guest.kernel import GuestKernel
from repro.probers.vact import VAct
from repro.probers.vcap import VCap
from repro.probers.vtop import VTop
from repro.sim.engine import MSEC, SEC
from repro.sim.rng import make_rng


@dataclass
class VSchedConfig:
    """Feature switches and tunables (Table 1 defaults)."""

    enable_vcap: bool = True
    enable_vact: bool = True
    enable_vtop: bool = True
    enable_bvs: bool = True
    enable_ivh: bool = True
    enable_rwc: bool = True

    #: vcap sampling period.
    vcap_period_ns: int = 100 * MSEC
    #: vcap light sampling frequency.
    vcap_light_interval_ns: int = 1 * SEC
    #: Heavy sampling every N light samplings.
    vcap_heavy_every: int = 5
    #: EMA decay: 50% per this many periods.
    ema_halflife_periods: float = 2.0
    #: vtop sampling frequency.
    vtop_interval_ns: int = 2 * SEC
    #: vtop targeted cache transfers.
    vtop_transfers: int = 500
    #: vtop cache transfer timeout (attempts).
    vtop_timeout_attempts: int = 15000
    #: ivh migration threshold (Table 1: "after 2 ms") — applied as the
    #: re-migration interval; the on-CPU minimum is one tick so the
    #: decision lands "within 2 ticks after vCPU rescheduling" (§6).
    ivh_min_run_ns: int = 1 * MSEC
    #: ivh protocol variant (Table 4 compares False).
    ivh_activity_aware: bool = True
    #: Seed label for prober measurement noise.
    seed: str = "vsched"

    # --- prober hardening (robustness against adversarial co-tenants) ---
    #: Route prober samples through the robust estimator layer
    #: (:mod:`repro.probers.robust`).  Off by default: the stock publish
    #: paths stay byte-identical.
    robust_probers: bool = False
    #: Median/MAD window size (accepted samples).
    robust_window: int = 5
    #: Outlier cut in robust standard deviations.
    robust_mad_k: float = 3.5
    #: Quarantine when the accepted fraction drops below this.
    robust_min_confidence: float = 0.5
    #: Consecutive clean samples needed to leave quarantine.
    robust_recovery_windows: int = 3
    #: vcap cross-check gate: window share may diverge from the tick-grid
    #: steal baseline by at most this much before the sample is distrusted.
    robust_grid_gate: float = 0.3
    #: vact regime hysteresis (consecutive agreeing windows to flip).
    robust_hysteresis_windows: int = 2
    #: vtop: consecutive identical probes before a *changed* topology view
    #: is believed.
    robust_topology_confirmations: int = 2

    def robust_params(self) -> Optional[dict]:
        """The parameter dict handed to the probers; None when off."""
        if not self.robust_probers:
            return None
        return {
            "window": self.robust_window,
            "mad_k": self.robust_mad_k,
            "min_confidence": self.robust_min_confidence,
            "recovery_windows": self.robust_recovery_windows,
            "grid_gate": self.robust_grid_gate,
            "hysteresis_windows": self.robust_hysteresis_windows,
            "topology_confirmations": self.robust_topology_confirmations,
        }

    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls) -> "VSchedConfig":
        return cls(enable_vcap=False, enable_vact=False, enable_vtop=False,
                   enable_bvs=False, enable_ivh=False, enable_rwc=False)

    @classmethod
    def enhanced(cls) -> "VSchedConfig":
        return cls(enable_bvs=False, enable_ivh=False)

    @classmethod
    def full(cls) -> "VSchedConfig":
        return cls()

    def with_(self, **kwargs) -> "VSchedConfig":
        return replace(self, **kwargs)


class VSched:
    """Per-VM vSched instance."""

    def __init__(self, kernel: GuestKernel, config: Optional[VSchedConfig] = None):
        self.kernel = kernel
        self.config = config or VSchedConfig.full()
        #: cgroups for user workloads; rwc manages their cpusets.
        self.workload_group = kernel.new_group("workload")
        self.besteffort_group = kernel.new_group("besteffort")

        cfg = self.config
        self.module: Optional[VSchedModule] = None
        self.vcap: Optional[VCap] = None
        self.vact: Optional[VAct] = None
        self.vtop: Optional[VTop] = None
        self.bvs: Optional[BiasedVCpuSelection] = None
        self.ivh: Optional[IntraVmHarvesting] = None
        self.rwc: Optional[RelaxedWorkConservation] = None

        probing = cfg.enable_vcap or cfg.enable_vact or cfg.enable_vtop
        robust = cfg.robust_params()
        if probing:
            self.module = VSchedModule(kernel, cfg.ema_halflife_periods)
        if cfg.enable_vact:
            self.vact = VAct(kernel, self.module, robust=robust)
        if cfg.enable_vcap:
            self.vcap = VCap(
                kernel, self.module,
                sampling_period_ns=cfg.vcap_period_ns,
                light_interval_ns=cfg.vcap_light_interval_ns,
                heavy_every=cfg.vcap_heavy_every,
                vact=self.vact,
                robust=robust)
        if cfg.enable_vtop:
            self.vtop = VTop(
                kernel, self.module, make_rng(cfg.seed),
                interval_ns=cfg.vtop_interval_ns,
                target_transfers=cfg.vtop_transfers,
                timeout_attempts=cfg.vtop_timeout_attempts,
                robust=robust)
        if cfg.enable_bvs:
            self._require_probing("bvs")
            self.bvs = BiasedVCpuSelection(kernel, self.module)
        if cfg.enable_ivh:
            self._require_probing("ivh")
            self.ivh = IntraVmHarvesting(
                kernel, self.module,
                min_run_ns=cfg.ivh_min_run_ns,
                activity_aware=cfg.ivh_activity_aware)
        if cfg.enable_rwc:
            self._require_probing("rwc")
            self.rwc = RelaxedWorkConservation(
                kernel, self.module,
                workload_group=self.workload_group,
                besteffort_group=self.besteffort_group,
                vcap_group=self.vcap.group if self.vcap else None)

    def _require_probing(self, feature: str) -> None:
        if self.module is None:
            raise ValueError(f"{feature} requires the vProbers to be enabled")

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install hooks and start the probing daemons."""
        if self.vcap is not None:
            self.module.install_capacity_provider()
            self.vcap.start()
        if self.vtop is not None:
            self.vtop.start()
        if self.bvs is not None:
            self.kernel.select_rq_hook = self.bvs
        if self.ivh is not None:
            self.kernel.tick_hook = self.ivh

    def stop(self) -> None:
        if self.vcap is not None:
            self.vcap.stop()
        if self.vtop is not None:
            self.vtop.stop()
        self.kernel.select_rq_hook = None
        self.kernel.tick_hook = None
