"""Module discovery and the one lint pass.

The pass parses every file and runs the per-file AST rules (VSL1xx–4xx,
policy-gated per tree) and the suppression scan.  Each ``src/repro`` file
is also distilled into a :class:`~vschedlint.index.FileRecord`, and a
:class:`~vschedlint.index.ProjectIndex` over those records feeds the
cache-key and leakage families (VSL5xx–6xx).  Suppressions apply last, so
one ``# vschedlint: disable`` comment can silence either kind — and an
unused suppression is only reported once the whole-program rules have
had their chance to use it.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from vschedlint import (cachekeys, config, determinism, index, layering,
                        leakage, snapshot_safety)
from vschedlint.findings import Finding
from vschedlint.suppressions import apply_suppressions, scan_suppressions


class Module:
    """One parsed source file plus the indexes the rules share."""

    def __init__(self, path: Path, display_path: str, modname: str,
                 tree_kind: str):
        self.path = display_path
        self.modname = modname
        self.tree_kind = tree_kind       # "repro" | "tools" | "tests"
        self.source = path.read_text()
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=display_path)
        parts = modname.split(".")
        self.layer: Optional[str] = (parts[1] if tree_kind == "repro"
                                     and len(parts) > 1 else None)
        policy = config.TREE_POLICIES[tree_kind]
        self.allow_wallclock = policy.get("allow_wallclock", False)
        self.allow_identity = policy.get("allow_identity", False)
        self.allow_seeded_rng = policy.get("allow_seeded_rng", False)
        self.dict_view_sinks = policy.get("dict_view_sinks", True)
        self._index_functions()

    def _index_functions(self) -> None:
        """Build the sorted (start, end, def line, qualname) spans."""
        spans: List[Tuple[int, int, int, str]] = []

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{child.name}"
                    spans.append((child.lineno, child.end_lineno or
                                  child.lineno, child.lineno, qual))
                    walk(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(self.tree, "")
        self.spans = sorted(spans)

    def symbol_at(self, line: int) -> str:
        """Qualname of the innermost function containing ``line``."""
        best = ""
        for start, end, _, qual in self.spans:
            if start <= line <= end:
                best = qual  # spans are sorted; later matches are inner
        return best

    def def_lines_of(self, line: int) -> List[int]:
        """Def lines of all functions enclosing ``line``, innermost first."""
        hits = [(start, dl) for start, end, dl, _ in self.spans
                if start <= line <= end]
        return [dl for _, dl in sorted(hits, reverse=True)]


def classify(path: Path) -> Optional[Tuple[str, str]]:
    """(dotted module name, tree kind) for a source file, else None.

    The ``repro`` tree anchors at the last ``repro`` path component (the
    layer is the next component); ``tools`` and ``tests`` trees anchor at
    their directory names.  Files belonging to none of the three are not
    linted.
    """
    parts = list(path.with_suffix("").parts)
    for anchor, tree in (("repro", "repro"), ("tools", "tools"),
                         ("tests", "tests")):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            mod = parts[idx:]
            if mod[-1] == "__init__":
                mod = mod[:-1]
            return ".".join(mod), tree
    return None


def discover(paths: Iterable[str]) -> List[Tuple[Path, str]]:
    """Expand CLI paths into (file, display_path) pairs, sorted.

    Directory expansion skips ``__pycache__`` and ``fixtures`` subtrees
    (the vschedlint test fixtures are deliberate violations); explicitly
    named files always lint.
    """
    out = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if config.EXCLUDED_DIR_COMPONENTS.intersection(f.parts):
                    continue
                out.append((f, str(f)))
        elif p.suffix == ".py":
            out.append((p, str(p)))
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")
    return out


def _per_file_rules(module: Module) -> List[Finding]:
    """The policy-gated single-file rules (VSL1xx–4xx)."""
    policy = config.TREE_POLICIES[module.tree_kind]
    families = policy["families"]
    findings: List[Finding] = []
    if "layering" in families:
        layering.check_imports(module, findings)
        layering.check_guest_abi(module, findings)
    if "determinism" in families:
        determinism.check_clocks_and_rng(module, findings)
        determinism.check_unordered_iteration(module, findings)
    if "snapshot" in families:
        snapshot_safety.check_mutable_defaults(module, findings)
    return findings


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Lint files and directories; returns the findings, sorted."""
    files: List[Tuple[Module, List[Finding], Dict]] = []
    records: List[index.FileRecord] = []
    findings: List[Finding] = []
    for path, display in discover(paths):
        classified = classify(path)
        if classified is None:
            continue
        modname, tree = classified
        try:
            module = Module(path, display, modname, tree)
        except SyntaxError as exc:
            findings.append(Finding(
                "layer-unknown", display, exc.lineno or 1, 0,
                f"cannot parse: {exc.msg}", modname=modname))
            if tree == "repro":   # still a module the fingerprint covers
                records.append(index.FileRecord(display, modname, None))
            continue
        file_findings = _per_file_rules(module)
        suppressions = scan_suppressions(module.lines, display,
                                         file_findings)
        files.append((module, file_findings, suppressions))
        if tree == "repro":
            records.append(index.extract(module))

    whole_program: Dict[str, List[Finding]] = defaultdict(list)
    if records:
        project = index.ProjectIndex(records)
        found: List[Finding] = []
        cachekeys.check_cachekeys(project, found)
        leakage.check_leakage(project, found)
        for f in found:
            whole_program[f.path].append(f)

    for module, file_findings, suppressions in files:
        findings.extend(apply_suppressions(
            file_findings + whole_program[module.path], suppressions,
            module.def_lines_of, module.path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
