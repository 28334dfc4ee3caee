"""Cache-key soundness (VSL5xx): every result input must be in the key.

The content-addressed result cache (INTERNALS §9) keys on
``SHA-256(code fingerprint | exp_id | config | seed | fast [| prefix])``.
That key is sound only while two facts hold:

* **the fingerprint covers all the code that can run** — the fingerprint
  hashes every ``*.py`` under the installed ``repro`` package, so any
  import that resolves *outside* it (an unindexed ``repro.*`` submodule,
  a non-pinned third-party package) is code the key cannot see —
  **VSL501**;
* **nothing else feeds the result** — an ``os.environ`` read or a file
  read inside result-producing code is an input that two identical keys
  can disagree on — **VSL502** (environment) and **VSL503** (files).

Neither rule has a scope.  Settings are arguments, so any
``os.environ`` / ``os.getenv`` read or write in ``src/repro`` outside
``config.ENV_READ_SITE`` (``parallel.run_units``, which no unit body can
reach) fires.  Every file read in ``src/repro`` fires unless
``config.HIDDEN_INPUT_BLESSED`` names its function with a reason (the
cache's own fingerprint and entry reads, the CLI's report file).
"""

from __future__ import annotations

import sys
from typing import List

from vschedlint import config
from vschedlint.findings import Finding
from vschedlint.index import FileRecord, ProjectIndex

_STDLIB = set(getattr(sys, "stdlib_module_names", ())) | {
    "__future__", "typing", "dataclasses", "collections", "functools",
    "itertools", "math", "os", "sys", "json", "time", "hashlib",
}


def check_cachekeys(index: ProjectIndex, findings: List[Finding]) -> None:
    # Closure coverage is only meaningful when the whole package was
    # scanned; on partial scans (one file, one subpackage) every sibling
    # import would be a false gap.
    full_scan = "repro" in index.by_mod
    for rec in index.records:
        _check_fingerprint_coverage(index, rec, full_scan, findings)
        _check_hidden_inputs(rec, findings)


def _check_fingerprint_coverage(index: ProjectIndex, rec: FileRecord,
                                full_scan: bool,
                                findings: List[Finding]) -> None:
    for target, name, line, col, symbol in rec.imports:
        root = target.split(".")[0]
        if root == "repro":
            if not full_scan:
                continue
            # ``from repro.x import y`` is covered when repro.x (y is a
            # symbol of it) or repro.x.y (y is a submodule) is indexed.
            full = f"{target}.{name}" if name else target
            if target in index.by_mod or full in index.by_mod:
                continue
            findings.append(Finding(
                "fingerprint-gap", rec.path, line, col,
                f"import of {target!r} resolves outside the scanned "
                f"package tree — the result cache's code fingerprint "
                f"cannot cover it",
                symbol=symbol, modname=rec.modname))
        elif (root not in _STDLIB
              and root not in config.FINGERPRINTED_THIRD_PARTY
              and root != "vschedlint"):
            findings.append(Finding(
                "fingerprint-gap", rec.path, line, col,
                f"third-party import {root!r} is not covered by the "
                f"result cache's code fingerprint nor pinned in "
                f"config.FINGERPRINTED_THIRD_PARTY — a version change "
                f"would silently serve stale cached results",
                symbol=symbol, modname=rec.modname))


def _check_hidden_inputs(rec: FileRecord, findings: List[Finding]) -> None:
    for read in rec.env_reads:
        func = read["func"]
        if (rec.modname, func) == config.ENV_READ_SITE:
            continue
        findings.append(Finding(
            "hidden-env-input", rec.path, read["line"], read["col"],
            f"{read['what']} outside {'.'.join(config.ENV_READ_SITE)}: "
            f"the environment is an input the unit cache key never sees "
            f"— pass the setting as an argument instead",
            symbol=func, modname=rec.modname))
    blessed = config.HIDDEN_INPUT_BLESSED.get(rec.modname, {})
    for read in rec.file_reads:
        func = read["func"]
        if func in blessed:
            continue
        findings.append(Finding(
            "hidden-file-input", rec.path, read["line"], read["col"],
            f"{read['what']} in result-producing code: file contents are "
            f"an input the unit cache key never sees — load via config "
            f"plumbing that feeds the key, or bless it in "
            f"config.HIDDEN_INPUT_BLESSED with a reason",
            symbol=func, modname=rec.modname))
