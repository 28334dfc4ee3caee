"""Finding model and the rule catalogue."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: rule slug -> (id, family, one-line description).  Slugs are what
#: ``# vschedlint: disable=<slug>`` comments name.
RULES: Dict[str, tuple] = {
    # layering / isolation
    "layer-order": ("VSL101", "layering",
                    "import from a higher-ranked layer"),
    "guest-isolation": ("VSL102", "layering",
                        "guest-side import of host-side (hypervisor) code"),
    "guest-abi": ("VSL103", "layering",
                  "guest-side attribute access outside the guest-visible ABI"),
    "layer-unknown": ("VSL104", "layering",
                      "module outside the declared layer graph"),
    # determinism
    "wall-clock": ("VSL201", "determinism",
                   "wall-clock read in deterministic code"),
    "unseeded-rng": ("VSL202", "determinism",
                     "randomness not routed through repro.sim.rng.make_rng"),
    "identity-key": ("VSL203", "determinism",
                     "object identity (id()) used where ordering matters"),
    "unordered-iter": ("VSL204", "determinism",
                       "iteration over an unordered collection without an "
                       "explicit ordering"),
    # snapshot safety
    "snapshot-mutable-default": ("VSL403", "snapshot",
                                 "mutable default argument (shared by a "
                                 "world, its forks and later units)"),
    # cache-key soundness (whole-program)
    "fingerprint-gap": ("VSL501", "cachekeys",
                        "import outside the result cache's code "
                        "fingerprint"),
    "hidden-env-input": ("VSL502", "cachekeys",
                         "environment read or write outside the one "
                         "allowed site (parallel.run_units)"),
    "hidden-file-input": ("VSL503", "cachekeys",
                          "file read in result-producing code not folded "
                          "into unit keys"),
    # cross-unit leakage (whole-program)
    "cross-unit-state": ("VSL601", "leakage",
                         "module-level state written at simulation time "
                         "(persists across units in a warm worker)"),
    "class-attr-state": ("VSL602", "leakage",
                         "class attribute, or a container it holds, "
                         "written at simulation time (persists across "
                         "units in a warm worker)"),
    # meta
    "bad-suppression": ("VSL001", "meta",
                        "malformed suppression (unknown rule or no reason)"),
    "unused-suppression": ("VSL002", "meta",
                           "suppression that matches no finding"),
}

#: Meta rules cannot themselves be suppressed (that way lies recursion).
UNSUPPRESSABLE = frozenset({"bad-suppression", "unused-suppression"})


@dataclass
class Finding:
    """One violation of one rule at one source position."""

    rule: str                  # slug, key into RULES
    path: str                  # path as given on the command line
    line: int
    col: int
    message: str
    symbol: str = ""           # enclosing Class.func qualname, if any
    modname: str = ""          # dotted module name, e.g. repro.guest.cpu

    @property
    def rule_id(self) -> str:
        return RULES[self.rule][0]

    @property
    def family(self) -> str:
        return RULES[self.rule][1]

    @property
    def doc_anchor(self) -> str:
        """Stable per-rule documentation link (INTERNALS rule catalogue)."""
        return f"docs/INTERNALS.md#{self.rule_id.lower()}"

    def render(self) -> str:
        where = f" [{self.symbol}]" if self.symbol else ""
        return (f"{self.path}:{self.line}:{self.col}: {self.rule_id} "
                f"({self.rule}) {self.message}{where} -> {self.doc_anchor}")

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "rule_id": self.rule_id,
            "family": self.family,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "module": self.modname,
            "message": self.message,
            "doc": self.doc_anchor,
        }
