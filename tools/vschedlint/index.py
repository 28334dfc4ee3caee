"""The project index: one whole-program view built once per run.

Per-file rules (VSL1xx–2xx) see one AST at a time; the snapshot-safety,
cache-key, and leakage families (VSL4xx–6xx) need to know what the *rest*
of ``src/repro`` does — where a callable handed to ``Engine.call_at`` is
defined, which ``repro`` modules exist, which names are module state.
This module distills every ``src/repro`` file into a :class:`FileRecord`:
a summary of exactly the facts the whole-program rules consume (imports,
the function/class registry with closure and default information,
registration sites, hidden-input sites, module-state writes).  A
:class:`ProjectIndex` is the collection of records plus the cross-module
resolution helpers.  Files of the ``tools`` and ``tests`` trees get no
record: their policies enable no whole-program family, and a helper
defined there must not make a ``repro`` name ambiguous.

Free-variable analysis uses :mod:`symtable` (the compiler's own symbol
pass), so "closure" here means exactly what it means at runtime: a
function whose code object carries cells into an enclosing scope.  A
nested function that only reads module globals is *not* a closure and is
not flagged.
"""

from __future__ import annotations

import ast
import symtable
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from vschedlint import config


# ---------------------------------------------------------------------------
# Expression summaries
# ---------------------------------------------------------------------------
# A tiny description of the expressions that matter to the
# snapshot-safety rules: what was passed as a callback / argument at a
# registration site.  ``form`` is one of:
#
#   lambda   {free: [names]}          — a lambda, with its free variables
#   name     {id: str}                — a bare name
#   attr     {attr: str, dotted: str} — an attribute access (x.y.z)
#   call     {callee: summary, args: [summaries]} — a call expression
#   genexp   {}                       — a generator expression
#   other    {}                       — anything else (conservatively mute)

def _dotted(node: ast.AST) -> Optional[str]:
    """x.y.z for pure attribute chains rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def summarize_expr(node: ast.AST, frees_of, depth: int = 0) -> dict:
    if depth > 4:
        return {"form": "other"}
    if isinstance(node, ast.Lambda):
        return {"form": "lambda", "free": frees_of(node),
                "line": node.lineno, "col": node.col_offset}
    if isinstance(node, ast.Name):
        return {"form": "name", "id": node.id}
    if isinstance(node, ast.Attribute):
        return {"form": "attr", "attr": node.attr,
                "dotted": _dotted(node) or node.attr}
    if isinstance(node, ast.Call):
        return {"form": "call",
                "callee": summarize_expr(node.func, frees_of, depth + 1),
                "args": [summarize_expr(a, frees_of, depth + 1)
                         for a in node.args]}
    if isinstance(node, ast.GeneratorExp):
        return {"form": "genexp"}
    return {"form": "other"}


# ---------------------------------------------------------------------------
# Record dataclasses
# ---------------------------------------------------------------------------
@dataclass
class FunctionInfo:
    """One function or method, as the whole-program rules see it."""

    qual: str                      # e.g. "VTop._begin" or "run_one"
    free: List[str]                # closure cells
    mutable_defaults: bool
    has_yield: bool
    decorators: List[str]
    returns: List[dict]            # expr summaries


@dataclass
class FileRecord:
    """Everything the whole-program pass needs to know about one file."""

    path: str
    modname: str
    layer: Optional[str]
    imports: List[Tuple[str, Optional[str], int, int, str]] = field(
        default_factory=list)
    # (target_module, imported_name_or_None, lineno, col, enclosing symbol)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Set[str] = field(default_factory=set)   # top-level class names
    module_mutables: Dict[str, int] = field(default_factory=dict)
    # module-level name bound to a mutable value -> lineno
    state_writes: List[dict] = field(default_factory=list)
    # {"func", "name", "target_mod", "how", "line", "col"}
    env_reads: List[dict] = field(default_factory=list)
    file_reads: List[dict] = field(default_factory=list)
    # {"func", "what", "line", "col"}
    reg_sites: List[dict] = field(default_factory=list)
    # {"kind", "func", "line", "col", "callback": summary,
    #  "args": [summaries]}


# ---------------------------------------------------------------------------
# Free variables via symtable
# ---------------------------------------------------------------------------
def _collect_frees(source: str, path: str) -> Dict[Tuple[str, int], List[str]]:
    """(block name, first line) -> free variable names, for every function
    block (including lambdas, which symtable names ``lambda``).  Two
    blocks on one line with the same name merge their frees — a
    conservative union."""
    out: Dict[Tuple[str, int], List[str]] = {}

    def walk(tbl):
        for child in tbl.get_children():
            if child.get_type() == "function":
                key = (child.get_name(), child.get_lineno())
                frees = sorted(set(child.get_frees())
                               | set(out.get(key, ())))
                out[key] = frees
            walk(child)

    walk(symtable.symtable(source, path, "exec"))
    return out


# ---------------------------------------------------------------------------
# The extraction visitor
# ---------------------------------------------------------------------------
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_CTORS = frozenset({"list", "dict", "set", "defaultdict", "deque",
                            "Counter", "OrderedDict", "bytearray"})


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        return name in _MUTABLE_CTORS
    return False


def _decorator_names(fn) -> List[str]:
    out = []
    for dec in fn.decorator_list:
        node = dec.func if isinstance(dec, ast.Call) else dec
        name = _dotted(node) or (node.id if isinstance(node, ast.Name) else
                                 getattr(node, "attr", None))
        if name:
            out.append(name.split(".")[-1])
    return out


class _Extractor(ast.NodeVisitor):
    """One pass over a module AST filling a FileRecord."""

    def __init__(self, module, record: FileRecord):
        self.m = module
        self.rec = record
        self.frees = _collect_frees(module.source, module.path)
        self.func_stack: List[str] = []   # qualnames
        self.class_stack: List[str] = []
        self.local_names_stack: List[set] = []
        self.global_decls_stack: List[set] = []
        self._module_level_pass()

    # -- helpers -----------------------------------------------------------
    def _qual(self) -> str:
        return self.func_stack[-1] if self.func_stack else ""

    def _frees_of(self, node) -> List[str]:
        name = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else "lambda"
        return self.frees.get((name, node.lineno), [])

    def _summarize(self, node) -> dict:
        return summarize_expr(node, self._frees_of)

    def _module_level_pass(self) -> None:
        for node in self.m.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for tgt in targets:
                if isinstance(tgt, ast.Name) and _is_mutable_value(value):
                    self.rec.module_mutables[tgt.id] = tgt.lineno

    def _resolve_imported(self, name: str) -> Optional[str]:
        """Module that ``name`` was imported from, if any."""
        for target_mod, imported, *_ in self.rec.imports:
            if imported == name:
                return target_mod
        return None

    # -- scopes ------------------------------------------------------------
    def visit_ClassDef(self, node):
        self.class_stack.append(node.name)
        if len(self.class_stack) == 1 and not self.func_stack:
            self.rec.classes.add(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_FunctionDef(self, node):
        prefix = (self.func_stack[-1] + "." if self.func_stack
                  else ".".join(self.class_stack + [""])
                  if self.class_stack else "")
        qual = prefix + node.name
        args = node.args
        local = {a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs)}
        if args.vararg:
            local.add(args.vararg.arg)
        if args.kwarg:
            local.add(args.kwarg.arg)
        glob: set = set()
        has_yield = False
        returns: List[dict] = []
        for sub in _walk_own(node):
            if isinstance(sub, ast.Global):
                glob.update(sub.names)
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
                has_yield = True
            elif isinstance(sub, ast.Return) and sub.value is not None:
                returns.append(self._summarize(sub.value))
            elif isinstance(sub, ast.Assign):
                for tgt in sub.targets:
                    if isinstance(tgt, ast.Name):
                        local.add(tgt.id)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(sub.target, ast.Name):
                    local.add(sub.target.id)

        defaults = list(args.defaults) + [d for d in args.kw_defaults
                                          if d is not None]
        self.rec.functions[qual] = FunctionInfo(
            qual=qual, free=self._frees_of(node),
            mutable_defaults=any(_is_mutable_value(d) for d in defaults),
            has_yield=has_yield, decorators=_decorator_names(node),
            returns=returns)

        self.func_stack.append(qual)
        self.local_names_stack.append(local - glob)
        self.global_decls_stack.append(glob)
        self.generic_visit(node)
        self.func_stack.pop()
        self.local_names_stack.pop()
        self.global_decls_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- imports -----------------------------------------------------------
    def visit_Import(self, node):
        self._note_imports([(a.name, None) for a in node.names], node)

    def visit_ImportFrom(self, node):
        base = node.module or ""
        if node.level:
            parts = self.m.modname.split(".")[: -node.level]
            base = ".".join(parts + ([base] if base else []))
        self._note_imports([(base, a.name) for a in node.names], node)

    def _note_imports(self, targets, node) -> None:
        symbol = self.m.symbol_at(node.lineno)
        for target, name in targets:
            self.rec.imports.append((target, name, node.lineno,
                                     node.col_offset, symbol))
        self.generic_visit(node)

    # -- state writes ------------------------------------------------------
    def _is_local(self, name: str) -> bool:
        return any(name in names for names in self.local_names_stack)

    def _note_write(self, name: str, target_mod: Optional[str], how: str,
                    node) -> None:
        self.rec.state_writes.append({
            "func": self._qual(), "name": name,
            "target_mod": target_mod or self.rec.modname, "how": how,
            "line": node.lineno, "col": node.col_offset})

    def _check_target_write(self, target, node) -> None:
        """Assign/AugAssign targets that hit module or class state."""
        if not self.func_stack:
            return
        if isinstance(target, ast.Name):
            if target.id in (self.global_decls_stack[-1] if
                             self.global_decls_stack else ()):
                self._note_write(target.id, None, "global-rebind", node)
        elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name):
            base = target.value.id
            if self._is_local(base):
                return
            if base in self.rec.module_mutables:
                self._note_write(base, None, "mutate", node)
            else:
                src = self._resolve_imported(base)
                if src and src.startswith("repro"):
                    self._note_write(base, src, "mutate", node)
        elif isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name):
            base = target.value.id
            if base == "cls" or base in self.rec.classes:
                cls = (self.class_stack[-1] if base == "cls"
                       and self.class_stack else base)
                self._note_write(f"{cls}.{target.attr}", None,
                                 "class-attr", node)
            elif base[:1].isupper():
                src = self._resolve_imported(base)
                if src and src.startswith("repro"):
                    self._note_write(f"{base}.{target.attr}", src,
                                     "class-attr", node)

    def visit_Assign(self, node):
        for tgt in node.targets:
            self._check_target_write(tgt, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_target_write(node.target, node)
        self.generic_visit(node)

    # -- calls: mutations, registrations, env/file reads -------------------
    def visit_Call(self, node):
        fn = node.func
        qual = self._qual()

        # mutation of module-level mutables via method call
        if (self.func_stack and isinstance(fn, ast.Attribute)
                and fn.attr in config.MUTATOR_METHODS
                and isinstance(fn.value, ast.Name)
                and not self._is_local(fn.value.id)):
            base = fn.value.id
            if base in self.rec.module_mutables:
                self._note_write(base, None, "mutate", node)
            else:
                src = self._resolve_imported(base)
                if src and src.startswith("repro"):
                    self._note_write(base, src, "mutate", node)

        # engine / listener registration sites
        reg_idx = None
        kind = None
        if isinstance(fn, ast.Attribute):
            if fn.attr in config.REGISTRATION_CALLS:
                kind, reg_idx = fn.attr, config.REGISTRATION_CALLS[fn.attr]
            elif (fn.attr == "append"
                  and isinstance(fn.value, ast.Attribute)
                  and fn.value.attr in config.LISTENER_ATTRS):
                kind, reg_idx = f"{fn.value.attr}.append", 0
        if kind is not None and len(node.args) > reg_idx:
            self.rec.reg_sites.append({
                "kind": kind, "func": qual, "line": node.lineno,
                "col": node.col_offset,
                "callback": self._summarize(node.args[reg_idx]),
                "args": [self._summarize(a)
                         for a in node.args[reg_idx + 1:]]})

        # hidden inputs: environment (uses of os.environ itself are
        # noted by visit_Attribute)
        dotted = _dotted(fn) or ""
        if dotted in ("os.getenv", "getenv", "environ.get"):
            self._note_env(dotted, node)

        # hidden inputs: file content
        if isinstance(fn, ast.Name) and fn.id == "open":
            self.rec.file_reads.append({"func": qual, "what": "open()",
                                        "line": node.lineno,
                                        "col": node.col_offset})
        elif isinstance(fn, ast.Attribute) and fn.attr in (
                "read_text", "read_bytes"):
            self.rec.file_reads.append({
                "func": qual, "what": f".{fn.attr}()",
                "line": node.lineno, "col": node.col_offset})
        elif dotted in ("np.load", "numpy.load", "np.loadtxt",
                        "numpy.loadtxt"):
            self.rec.file_reads.append({"func": qual, "what": dotted,
                                        "line": node.lineno,
                                        "col": node.col_offset})
        self.generic_visit(node)

    def visit_Attribute(self, node):
        # Every use of os.environ is an environment input or mutation:
        # reads, writes, pop(), membership tests, copies.
        if _dotted(node) == "os.environ":
            self._note_env("os.environ", node)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        # ``from os import environ``: environ["X"] reads and writes.
        if _dotted(node.value) == "environ":
            self._note_env("environ[...]", node)
        self.generic_visit(node)

    def _note_env(self, what: str, node) -> None:
        self.rec.env_reads.append({"func": self._qual(), "what": what,
                                   "line": node.lineno,
                                   "col": node.col_offset})


def _walk_own(fn: ast.AST):
    """Walk a function's body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            yield node  # the def itself is visible; its body is not
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# Record construction and the project index
# ---------------------------------------------------------------------------
def extract(module) -> FileRecord:
    """Distill a parsed :class:`vschedlint.checker.Module` into a record."""
    rec = FileRecord(module.path, module.modname, module.layer)
    _Extractor(module, rec).visit(module.tree)
    return rec


class ProjectIndex:
    """All records of one run, with cross-module resolution helpers."""

    def __init__(self, records: List[FileRecord]):
        self.records = records
        self.by_mod: Dict[str, FileRecord] = {
            rec.modname: rec for rec in records}
        # last-qual-component -> [(record, FunctionInfo)] across the tree
        self._by_short: Dict[str, List[Tuple[FileRecord, FunctionInfo]]] = {}
        for rec in records:
            for qual, info in rec.functions.items():
                short = qual.rsplit(".", 1)[-1]
                self._by_short.setdefault(short, []).append((rec, info))

    def resolve_function(self, rec: FileRecord, name: str,
                         context_qual: str = "") -> Optional[
                             Tuple[FileRecord, FunctionInfo]]:
        """Resolve a bare callable name seen in ``rec``.

        Resolution order: a nested def of the referencing function, a
        module-level function of ``rec``, then a function imported by
        name from another indexed module.  Returns None when the name is
        unknown (a parameter, a local variable, a third-party import) —
        callers must treat that as "cannot prove unsafe".
        """
        if context_qual:
            nested = rec.functions.get(f"{context_qual}.{name}")
            if nested is not None:
                return rec, nested
        direct = rec.functions.get(name)
        if direct is not None:
            return rec, direct
        src_mod = {imported: target for target, imported, *_ in rec.imports
                   if imported is not None}.get(name)
        src = self.by_mod.get(src_mod)
        if src is not None:
            info = src.functions.get(name)
            if info is not None:
                return src, info
        # ``from pkg import module`` — nothing to resolve further.
        return None

    def resolve_method(self, rec: FileRecord, attr: str,
                       context_qual: str = "") -> Optional[
                           Tuple[FileRecord, FunctionInfo]]:
        """Resolve ``something.attr`` conservatively.

        Preference: a method of the class enclosing ``context_qual`` in
        this module; then a uniquely-named method anywhere in this
        module; then a uniquely-named function across the whole index.
        Ambiguity (several unrelated definitions share the name) resolves
        to None — the rules stay quiet rather than guess.
        """
        ctx_cls = context_qual.split(".")[0] if "." in context_qual else None
        if ctx_cls and ctx_cls in rec.classes:
            info = rec.functions.get(f"{ctx_cls}.{attr}")
            if info is not None:
                return rec, info
        local = [(rec, info) for q, info in rec.functions.items()
                 if q.rsplit(".", 1)[-1] == attr]
        if len(local) == 1:
            return local[0]
        everywhere = self._by_short.get(attr, [])
        if len(everywhere) == 1:
            return everywhere[0]
        return None
