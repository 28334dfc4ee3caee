"""The project index: one whole-program view built once per run.

Per-file rules (VSL1xx–4xx) see one AST at a time; the cache-key and
leakage families (VSL5xx–6xx) need to know what the *rest* of
``src/repro`` does — which ``repro`` modules exist, which names are
module state.  This module distills every ``src/repro`` file into a
:class:`FileRecord`: a summary of exactly the facts the whole-program
rules consume (imports, top-level classes, hidden-input sites,
module-state writes).  A :class:`ProjectIndex` is the collection of
records, by module name.  Files of the ``tools`` and ``tests`` trees get
no record: their policies enable no whole-program family.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from vschedlint import config


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


# ---------------------------------------------------------------------------
# Record dataclasses
# ---------------------------------------------------------------------------
@dataclass
class FileRecord:
    """Everything the whole-program pass needs to know about one file."""

    path: str
    modname: str
    layer: Optional[str]
    imports: List[Tuple[str, Optional[str], int, int, str]] = field(
        default_factory=list)
    # (target_module, imported_name_or_None, lineno, col, enclosing symbol)
    classes: Set[str] = field(default_factory=set)   # top-level class names
    module_mutables: Dict[str, int] = field(default_factory=dict)
    # module-level name bound to a mutable value -> lineno
    state_writes: List[dict] = field(default_factory=list)
    # {"func", "name", "target_mod", "how", "line", "col"}
    env_reads: List[dict] = field(default_factory=list)
    file_reads: List[dict] = field(default_factory=list)
    # {"func", "what", "line", "col"}


# ---------------------------------------------------------------------------
# The extraction visitor
# ---------------------------------------------------------------------------
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_CTORS = frozenset({"list", "dict", "set", "defaultdict", "deque",
                            "Counter", "OrderedDict", "bytearray"})


def is_mutable_value(node: ast.AST) -> bool:
    """A list, dict or set display or comprehension, or a call of a
    mutable container type."""
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


class _Extractor(ast.NodeVisitor):
    """One pass over a module AST filling a FileRecord."""

    def __init__(self, module, record: FileRecord):
        self.m = module
        self.rec = record
        self.func_stack: List[str] = []   # qualnames
        self.class_stack: List[str] = []
        self.local_names_stack: List[set] = []
        self.global_decls_stack: List[set] = []
        self._module_level_pass()

    # -- helpers -----------------------------------------------------------
    def _qual(self) -> str:
        return self.func_stack[-1] if self.func_stack else ""

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
                if isinstance(tgt, ast.Name) and is_mutable_value(value):
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
        for sub in _walk_own(node):
            if isinstance(sub, ast.Global):
                glob.update(sub.names)
            elif isinstance(sub, ast.Assign):
                for tgt in sub.targets:
                    if isinstance(tgt, ast.Name):
                        local.add(tgt.id)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(sub.target, ast.Name):
                    local.add(sub.target.id)

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

    def _check_module_mutation(self, base: str, node) -> None:
        """A mutation of the object bound to the name ``base``."""
        if self._is_local(base):
            return
        if base in self.rec.module_mutables:
            self._note_write(base, None, "mutate", node)
        else:
            src = self._resolve_imported(base)
            if src and src.startswith("repro"):
                self._note_write(base, src, "mutate", node)

    def _check_class_attr(self, attr, how: str, node) -> None:
        """A write to ``attr`` (``X.a``, how "class-attr") or into the
        container it holds ("class-attr-mutate") when ``X`` is a class:
        one defined in this module, ``cls``, or an uppercase name
        imported from ``repro``."""
        if not isinstance(attr.value, ast.Name):
            return
        base = attr.value.id
        if base == "cls" or base in self.rec.classes:
            cls = (self.class_stack[-1] if base == "cls"
                   and self.class_stack else base)
            self._note_write(f"{cls}.{attr.attr}", None, how, node)
        elif base[:1].isupper():
            src = self._resolve_imported(base)
            if src and src.startswith("repro"):
                self._note_write(f"{base}.{attr.attr}", src, how, node)

    def _check_target_write(self, target, node) -> None:
        """Assign/AugAssign targets that hit module or class state."""
        if not self.func_stack:
            return
        if isinstance(target, ast.Name):
            if target.id in (self.global_decls_stack[-1] if
                             self.global_decls_stack else ()):
                self._note_write(target.id, None, "global-rebind", node)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Name):
                self._check_module_mutation(target.value.id, node)
            elif isinstance(target.value, ast.Attribute):
                self._check_class_attr(target.value, "class-attr-mutate",
                                       node)
        elif isinstance(target, ast.Attribute):
            self._check_class_attr(target, "class-attr", node)

    def visit_Assign(self, node):
        for tgt in node.targets:
            self._check_target_write(tgt, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_target_write(node.target, node)
        self.generic_visit(node)

    # -- calls: mutations, env/file reads ----------------------------------
    def visit_Call(self, node):
        fn = node.func
        qual = self._qual()

        # mutation of module-level or class-held mutables via method call
        if (self.func_stack and isinstance(fn, ast.Attribute)
                and fn.attr in config.MUTATOR_METHODS):
            if isinstance(fn.value, ast.Name):
                self._check_module_mutation(fn.value.id, node)
            elif isinstance(fn.value, ast.Attribute):
                self._check_class_attr(fn.value, "class-attr-mutate", node)

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
    """All records of one run, by module name."""

    def __init__(self, records: List[FileRecord]):
        self.records = records
        self.by_mod: Dict[str, FileRecord] = {
            rec.modname: rec for rec in records}
