"""Layering and guest/host isolation rules (VSL10x).

Three checks:

* ``layer-order`` — a module may import only from layers of equal or lower
  rank in the declared graph (config.LAYER_RANK), modulo the neutral
  modules.
* ``guest-isolation`` — guest-side layers may not import from
  ``repro.hypervisor`` at all (the paper's "no hypervisor changes"
  boundary).
* ``guest-abi`` — in guest-side code, attribute access on hypervisor
  handles (``*.vcpu``, ``*.vm``, ``*.machine``) must stay inside the
  guest-visible ABI: steal time, halt/kick, activity transitions, and the
  measurement-physics channels.  Handle tracking is a deliberately simple
  local dataflow (attribute chains, ``vcpus[i]`` subscripts, direct
  assignments, ``for``-over-``vcpus`` targets) — precise enough for this
  tree, conservative enough to stay quiet elsewhere.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from vschedlint import config
from vschedlint.findings import Finding

# Handle kinds for the local dataflow.
VCPU, VCPU_LIST, VM, MACHINE, MACH_TOPO, MACH_CACHE = (
    "vcpu", "vcpu_list", "vm", "machine", "mach_topo", "mach_cache")


def _layer_of(modname: str) -> Optional[str]:
    parts = modname.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return parts[1]


def check_imports(module, findings: List[Finding]) -> None:
    """layer-order + guest-isolation on import statements."""
    layer = module.layer
    if layer is None:
        return
    my_rank = config.LAYER_RANK.get(layer)
    if my_rank is None:
        findings.append(Finding(
            "layer-unknown", module.path, 1, 0,
            f"subpackage {layer!r} is not in the declared layer graph "
            f"(tools/vschedlint/config.py LAYER_RANK)", modname=module.modname))
        return
    guest_side = layer in config.GUEST_SIDE_LAYERS

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            targets = [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # resolve relative imports against this module
                parts = module.modname.split(".")[: -node.level]
                base = ".".join(parts + ([base] if base else []))
            targets = [(base, a.name) for a in node.names]
        else:
            continue
        for target_mod, name in targets:
            if not target_mod.startswith("repro"):
                continue
            # `from repro.x import y` may pull a submodule: check both.
            full = f"{target_mod}.{name}" if name else target_mod
            if (target_mod in config.NEUTRAL_MODULES
                    or full in config.NEUTRAL_MODULES):
                continue
            tgt_layer = _layer_of(target_mod)
            if tgt_layer is None:
                continue  # the repro package root
            tgt_rank = config.LAYER_RANK.get(tgt_layer)
            if tgt_rank is None:
                continue  # reported once when that module itself is scanned
            if tgt_rank > my_rank:
                findings.append(Finding(
                    "layer-order", module.path, node.lineno, node.col_offset,
                    f"{layer} (rank {my_rank}) imports {target_mod} "
                    f"({tgt_layer}, rank {tgt_rank})",
                    symbol=module.symbol_at(node.lineno),
                    modname=module.modname))
            if guest_side and (target_mod == config.HOST_PACKAGE
                               or target_mod.startswith(
                                   config.HOST_PACKAGE + ".")):
                findings.append(Finding(
                    "guest-isolation", module.path, node.lineno,
                    node.col_offset,
                    f"guest-side layer {layer!r} imports host-side "
                    f"{full}; the guest may only see the ABI allowlist "
                    f"(steal time, halt/kick, activity, measurement "
                    f"physics)",
                    symbol=module.symbol_at(node.lineno),
                    modname=module.modname))


class _AbiVisitor(ast.NodeVisitor):
    """Track hypervisor handles through local names and check accesses."""

    def __init__(self, module, findings: List[Finding]):
        self.module = module
        self.findings = findings
        self.scopes: List[Dict[str, str]] = [{}]

    # -- scope management ------------------------------------------------
    def visit_FunctionDef(self, node):
        self.scopes.append({})
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _bind(self, target, kind: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            if kind is None:
                self.scopes[-1].pop(target.id, None)
            else:
                self.scopes[-1][target.id] = kind

    def _lookup(self, name: str) -> Optional[str]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # -- handle-kind inference -------------------------------------------
    def kind_of(self, node) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.Subscript):
            if self.kind_of(node.value) == VCPU_LIST:
                return VCPU
            return None
        if isinstance(node, ast.Attribute):
            base = self.kind_of(node.value)
            if base == MACHINE:
                return {"topology": MACH_TOPO, "cache": MACH_CACHE}.get(
                    node.attr)
            if base in (VCPU, VM, MACH_TOPO, MACH_CACHE):
                if base == VM and node.attr == "vcpus":
                    return VCPU_LIST
                if base == VM and node.attr == "machine":
                    return MACHINE
                if base == VCPU and node.attr == "vm":
                    return VM
                return None
            # Naming conventions root the chains: anything called .vcpu /
            # .vm / .machine in guest-side code is a hypervisor handle.
            if node.attr == "vcpu":
                return VCPU
            if node.attr == "vcpus":
                return VCPU_LIST
            if node.attr == "vm":
                return VM
            if node.attr in ("machine", "_machine"):
                return MACHINE
        return None

    # -- bindings ---------------------------------------------------------
    def visit_Assign(self, node):
        kind = self.kind_of(node.value)
        for tgt in node.targets:
            self._bind(tgt, kind)
        self.generic_visit(node)

    def visit_For(self, node):
        it = node.iter
        kind = None
        if self.kind_of(it) == VCPU_LIST:
            kind = VCPU
        elif (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
              and it.func.id == "enumerate" and it.args
              and self.kind_of(it.args[0]) == VCPU_LIST):
            # for i, v in enumerate(vm.vcpus): the second target is a vCPU
            if isinstance(node.target, ast.Tuple) and len(
                    node.target.elts) == 2:
                self._bind(node.target.elts[1], VCPU)
            kind = None
        if kind is not None:
            self._bind(node.target, kind)
        self.generic_visit(node)

    # -- the actual check --------------------------------------------------
    _ABI = {
        VCPU: (config.VCPU_ABI, "vCPU"),
        VM: (config.VM_ABI, "VM"),
        MACHINE: (config.MACHINE_ABI, "Machine"),
        MACH_TOPO: (config.MACHINE_TOPOLOGY_ABI, "Machine.topology"),
        MACH_CACHE: (config.MACHINE_CACHE_ABI, "Machine.cache"),
    }

    def visit_Attribute(self, node):
        base = self.kind_of(node.value)
        entry = self._ABI.get(base)
        if entry is not None:
            allowed, label = entry
            if node.attr not in allowed:
                self.findings.append(Finding(
                    "guest-abi", self.module.path, node.lineno,
                    node.col_offset,
                    f"guest-side access to {label}.{node.attr} is outside "
                    f"the guest-visible ABI "
                    f"(allowed: {', '.join(sorted(allowed))})",
                    symbol=self.module.symbol_at(node.lineno),
                    modname=self.module.modname))
        self.generic_visit(node)


def check_guest_abi(module, findings: List[Finding]) -> None:
    if module.layer not in config.GUEST_SIDE_LAYERS:
        return
    _AbiVisitor(module, findings).visit(module.tree)
