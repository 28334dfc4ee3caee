"""Module discovery, the per-file rule pipeline, and the whole-program pass.

The run has two stages.  Stage one is per-file: parse, run the AST rules
(VSL1xx–2xx, policy-gated per tree), scan suppressions, and distill the
file into a cacheable :class:`~vschedlint.index.FileRecord`; a file whose
SHA-256 matches the on-disk index cache skips all of that.  Stage two is
whole-program: a :class:`~vschedlint.index.ProjectIndex` over all records
feeds the snapshot-safety, cache-key, and leakage families (VSL4xx–6xx).
Suppressions apply *after* both stages, so one ``# vschedlint: disable``
comment can silence either kind — and an unused suppression is only
reported once the whole-program rules have had their chance to use it.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from vschedlint import (cachekeys, config, determinism, index, layering,
                        leakage, snapshot_safety)
from vschedlint.callgraph import CallGraph
from vschedlint.findings import Finding, finalize_fingerprints
from vschedlint.index import FileRecord, IndexCache, ProjectIndex
from vschedlint.suppressions import (Suppression, apply_suppressions,
                                     scan_suppressions)


class Module:
    """One parsed source file plus the indexes the rules share."""

    def __init__(self, path: Path, display_path: str, modname: str,
                 tree_kind: str, source: Optional[str] = None):
        self.path = display_path
        self.modname = modname
        self.tree_kind = tree_kind       # "repro" | "tools" | "tests"
        self.source = path.read_text() if source is None else source
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
        """Build (def node, qualname) pairs and a line -> def-lines map."""
        self._functions: List[Tuple[ast.AST, str]] = []
        spans: List[Tuple[int, int, int, str]] = []

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{child.name}"
                    self._functions.append((child, qual))
                    spans.append((child.lineno, child.end_lineno or
                                  child.lineno, child.lineno, qual))
                    walk(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(self.tree, "")
        self.spans = sorted(spans)

    def functions(self):
        return list(self._functions)

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
            if anchor == "repro":
                return ".".join(mod), tree
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
    """The policy-gated single-file rules (VSL1xx–2xx)."""
    policy = config.TREE_POLICIES[module.tree_kind]
    families = policy["families"]
    findings: List[Finding] = []
    if "layering" in families:
        layering.check_imports(module, findings)
        layering.check_guest_abi(module, findings)
    if "determinism" in families:
        determinism.check_clocks_and_rng(module, findings)
        determinism.check_unordered_iteration(module, findings)
    return findings


def build_record(path: Path, display_path: str,
                 source: str) -> Optional[FileRecord]:
    """Parse one file, run per-file rules, distill to a record."""
    classified = classify(path)
    if classified is None:
        return None
    modname, tree = classified
    try:
        module = Module(path, display_path, modname, tree, source=source)
    except SyntaxError as exc:
        rec = FileRecord(path=display_path, modname=modname, tree=tree,
                         layer=None, sha=index.sha256_text(source))
        rec.findings = [index._finding_to_json(Finding(
            "layer-unknown", display_path, exc.lineno or 1, 0,
            f"cannot parse: {exc.msg}", modname=modname))]
        return rec

    findings = _per_file_rules(module)
    suppressions = scan_suppressions(module.lines, display_path, findings)
    return index.extract(module, findings, suppressions)


def collect_records(paths: Iterable[str],
                    cache: Optional[IndexCache] = None) -> List[FileRecord]:
    cache = cache or IndexCache(None)
    records: List[FileRecord] = []
    for path, display in discover(paths):
        source = path.read_text()
        sha = index.sha256_text(source)
        rec = cache.get(display, sha)
        if rec is None:
            rec = build_record(path, display, source)
            if rec is not None:
                cache.put(rec)
        if rec is not None:
            records.append(rec)
    cache.prune(p for p in list(cache._entries)
                if Path(p).exists())
    cache.save()
    return records


def lint_records(records: List[FileRecord],
                 changed: Optional[Set[str]] = None) -> List[Finding]:
    """Whole-program pass + suppression application over records."""
    project = ProjectIndex(records)
    whole_program: List[Finding] = []
    repro_records = project.repro_records()
    if repro_records:
        graph = CallGraph(project)
        snapshot_safety.check_snapshot_safety(project, graph,
                                              whole_program)
        cachekeys.check_cachekeys(project, graph, whole_program)
        leakage.check_leakage(project, whole_program)

    by_path: Dict[str, List[Finding]] = defaultdict(list)
    for rec in records:
        by_path[rec.path].extend(index.finding_from_json(d)
                                 for d in rec.findings)
    for f in whole_program:
        by_path[f.path].append(f)

    findings: List[Finding] = []
    for rec in records:
        file_findings = by_path[rec.path]
        sups = {int(ln): Suppression(int(ln), d["rules"], d["reason"])
                for ln, d in rec.suppressions.items()}
        def_line_map = {f.line: rec.def_lines_of(f.line)
                        for f in file_findings}
        findings.extend(apply_suppressions(file_findings, sups,
                                           def_line_map, rec.path))

    if changed is not None:
        # ``changed`` holds resolved absolute paths (git speaks
        # repo-root-relative; the CLI may be pointed anywhere).
        findings = [f for f in findings
                    if str(Path(f.path).resolve()) in changed]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    finalize_fingerprints(findings)
    return findings


def lint_paths(paths: Iterable[str],
               cache: Optional[IndexCache] = None,
               changed: Optional[Set[str]] = None) -> List[Finding]:
    """Lint files/directories; returns findings with fingerprints set."""
    return lint_records(collect_records(paths, cache), changed=changed)
