"""Determinism rules (VSL20x).

The repo's A/B byte-identity harness, content-addressed result cache, and
supervisor retries all assume a run is a pure function of (code, config,
seed).
These rules flag the four ways that quietly stops being true:

* ``wall-clock`` — ``time.time()``/``datetime.now()`` anywhere in
  ``src/repro``; monotonic/CPU clocks too, except in the experiments layer
  (host-side deadlines and progress lines legitimately measure real time).
* ``unseeded-rng`` — any ``random.*`` use, and any ``np.random.*`` module
  call outside ``repro.sim.rng`` (the one sanctioned factory; everything
  else takes an explicit ``Generator``).
* ``identity-key`` — ``id()`` in simulation layers: object identity varies
  per process, so it must never order or key anything.
* ``unordered-iter`` — iterating a value that is statically a set (or a
  dict view, when the function also schedules events) without an explicit
  ordering.  Set iteration order depends on PYTHONHASHSEED for strings and
  on allocation history in general; feeding it into the event heap or a
  rendered table is a cross-run divergence waiting to happen.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from vschedlint import config
from vschedlint.findings import Finding


#: RNG constructors that are deterministic when given an explicit seed —
#: tools/tests may build these directly (the ``allow_seeded_rng`` policy);
#: ``src/repro`` still routes everything through ``repro.sim.rng``.
_SEEDED_RNG_CTORS = frozenset({"Random", "default_rng", "Generator",
                               "SeedSequence", "PCG64", "Philox"})


def _call_target(node: ast.Call):
    """(root, attr) for ``root.attr(...)`` calls, (None, name) for bare."""
    fn = node.func
    if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
        return fn.value.id, fn.attr
    if isinstance(fn, ast.Name):
        return None, fn.id
    return None, None


def check_clocks_and_rng(module, findings: List[Finding]) -> None:
    layer = module.layer
    in_rng_factory = module.modname == config.RNG_FACTORY_MODULE
    # Tree policy: tools/ and tests/ run on the host's clock and may
    # key on object identity (pytest fixtures, progress timers).
    allow_wallclock = getattr(module, "allow_wallclock", False)
    allow_identity = (getattr(module, "allow_identity", False)
                      or layer == "experiments")
    allow_seeded = getattr(module, "allow_seeded_rng", False)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        root, attr = _call_target(node)
        sym = module.symbol_at(node.lineno)

        # --- wall clocks -------------------------------------------------
        if allow_wallclock:
            pass
        elif (root, attr) in config.WALLCLOCK_FORBIDDEN:
            findings.append(Finding(
                "wall-clock", module.path, node.lineno, node.col_offset,
                f"{root}.{attr}() reads the wall clock; simulated time is "
                f"engine.now, and the experiments layer measures host "
                f"elapsed time with time.perf_counter()",
                symbol=sym, modname=module.modname))
        elif ((root, attr) in config.MONOTONIC_FORBIDDEN
              and layer not in config.MONOTONIC_EXEMPT_LAYERS):
            findings.append(Finding(
                "wall-clock", module.path, node.lineno, node.col_offset,
                f"{root}.{attr}() is host time; only the experiments layer "
                f"may measure real elapsed time",
                symbol=sym, modname=module.modname))

        # --- RNG ----------------------------------------------------------
        if root == "random":
            if not (allow_seeded and attr in _SEEDED_RNG_CTORS
                    and node.args):
                findings.append(Finding(
                    "unseeded-rng", module.path, node.lineno,
                    node.col_offset,
                    f"random.{attr}() draws from the process-global "
                    f"stream; route randomness through "
                    f"repro.sim.rng.make_rng",
                    symbol=sym, modname=module.modname))
        # np.random.<fn>(...) — the module-level legacy stream, or
        # default_rng outside the sanctioned factory.
        fn = node.func
        if (isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Attribute)
                and fn.value.attr == "random"
                and isinstance(fn.value.value, ast.Name)
                and fn.value.value.id in ("np", "numpy")):
            if not in_rng_factory and not (
                    allow_seeded and fn.attr in _SEEDED_RNG_CTORS
                    and node.args):
                findings.append(Finding(
                    "unseeded-rng", module.path, node.lineno,
                    node.col_offset,
                    f"np.random.{fn.attr}() outside repro.sim.rng; use "
                    f"make_rng/split_rng and pass the Generator",
                    symbol=sym, modname=module.modname))

        # --- identity -----------------------------------------------------
        if (root, attr) == (None, "id") and not allow_identity:
            findings.append(Finding(
                "identity-key", module.path, node.lineno, node.col_offset,
                "id() is per-process object identity; it must never key, "
                "order, or fingerprint simulation state",
                symbol=sym, modname=module.modname))


# ---------------------------------------------------------------------------
# unordered-iter
# ---------------------------------------------------------------------------
def _is_set_expr(node, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def _is_dict_view(node) -> bool:
    return (isinstance(node, ast.Call) and not node.args
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "values", "items"))


_SET_TYPE_NAMES = ("Set", "FrozenSet", "set", "frozenset", "AbstractSet",
                   "MutableSet")


def _annotation_is_set(ann) -> bool:
    """True only when the annotation *head* is a set type.

    Only the outermost constructor counts: ``List[FrozenSet[int]]`` is a
    list, however set-flavoured its elements.
    """
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        head = ann.value.split("[", 1)[0].strip()
        return head in _SET_TYPE_NAMES
    if isinstance(ann, ast.Subscript):
        ann = ann.value
    if isinstance(ann, ast.Name):
        return ann.id in _SET_TYPE_NAMES
    if isinstance(ann, ast.Attribute):
        return ann.attr in _SET_TYPE_NAMES
    return False


class _UnorderedVisitor(ast.NodeVisitor):
    def __init__(self, module, findings: List[Finding]):
        self.module = module
        self.findings = findings
        self.set_names_stack: List[Set[str]] = [set()]
        self.has_sink_stack: List[bool] = [False]
        #: iteration nodes feeding only order-insensitive consumers
        self.blessed: Set[int] = set()

    # -- function scopes ---------------------------------------------------
    def visit_FunctionDef(self, node):
        names: Set[str] = set()
        args = node.args
        for a in (args.posonlyargs + args.args + args.kwonlyargs):
            if a.annotation is not None and _annotation_is_set(a.annotation):
                names.add(a.arg)
        has_sink = False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                _, attr = _call_target(sub)
                if attr in config.ORDERING_SINKS:
                    has_sink = True
                    break
        self.set_names_stack.append(names)
        self.has_sink_stack.append(has_sink)
        self.generic_visit(node)
        self.set_names_stack.pop()
        self.has_sink_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- set-name inference -------------------------------------------------
    def visit_Assign(self, node):
        is_set = _is_set_expr(node.value, self.set_names_stack[-1])
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                if is_set:
                    self.set_names_stack[-1].add(tgt.id)
                else:
                    self.set_names_stack[-1].discard(tgt.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if isinstance(node.target, ast.Name) and _annotation_is_set(
                node.annotation):
            self.set_names_stack[-1].add(node.target.id)
        self.generic_visit(node)

    # -- blessing: order-insensitive consumers ------------------------------
    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and (
                node.func.id in config.ORDER_INSENSITIVE_CONSUMERS):
            for arg in node.args:
                self.blessed.add(id(arg))
                if isinstance(arg, (ast.GeneratorExp, ast.SetComp)):
                    for comp in arg.generators:
                        self.blessed.add(id(comp.iter))
        self.generic_visit(node)

    # -- iteration sites -----------------------------------------------------
    def _flag(self, iter_node, what: str) -> None:
        self.findings.append(Finding(
            "unordered-iter", self.module.path, iter_node.lineno,
            iter_node.col_offset,
            f"iteration over {what} has no defined order; wrap in sorted() "
            f"or keep an explicitly ordered structure",
            symbol=self.module.symbol_at(iter_node.lineno),
            modname=self.module.modname))

    def _check_iter(self, iter_node) -> None:
        if id(iter_node) in self.blessed:
            return
        if _is_set_expr(iter_node, self.set_names_stack[-1]):
            self._flag(iter_node, "a set")
        elif (_is_dict_view(iter_node) and self.has_sink_stack[-1]
              and getattr(self.module, "dict_view_sinks", True)
              and self.module.layer not in config.ORDERING_SINK_EXEMPT_LAYERS):
            self._flag(
                iter_node,
                f"dict .{iter_node.func.attr}() in a function that "
                f"schedules events (insertion order is load-bearing here; "
                f"make the order explicit)")

    def visit_For(self, node):
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node):
        for comp in node.generators:
            self._check_iter(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    # SetComp / DictComp results are unordered anyway; iterating a set into
    # another set is order-insensitive by construction.


def check_unordered_iteration(module, findings: List[Finding]) -> None:
    _UnorderedVisitor(module, findings).visit(module.tree)
