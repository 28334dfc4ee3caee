"""Every module-level import in src/repro is used.

An imported name that nothing references costs an import-time lookup and
misleads a reader about what the module depends on.  A deliberate
re-export says so with ``# noqa: F401`` on the import's first line
(``hypervisor/entity.py`` keeps ``NICE_TO_WEIGHT`` and
``weight_for_nice`` that way), and a package ``__init__`` names its
re-exports in ``__all__``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def unused_imports(path: Path):
    """Names bound by the module's top-level imports that the module never
    references, as ``(line, name)``.  Annotations count as references,
    quoted ones included."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name != "*":
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            used.update(e.value for e in getattr(node.value, "elts", ()))
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None)
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(n.id for n in ast.walk(ast.parse(sub.value))
                            if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_module_level_imports():
    offenders = {str(p.relative_to(SRC)): names
                 for p in sorted(SRC.rglob("*.py"))
                 if (names := unused_imports(p))}
    assert offenders == {}


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Dict, List, Optional\n"
        "from x import kept  # noqa: F401\n"
        "def f(a: List[int]) -> 'Optional[int]':\n"
        "    return None\n")
    assert unused_imports(module) == [(2, "os"), (3, "Dict")]
