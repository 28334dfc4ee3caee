"""Command-line entry point.

Exit codes: 0 clean (modulo baseline), 1 findings, 2 usage/config error
(including a ``--write-baseline`` that would grow the baseline).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Optional, Set

from vschedlint import baseline as baseline_mod
from vschedlint import report
from vschedlint.checker import lint_paths
from vschedlint.findings import RULES
from vschedlint.index import IndexCache

DEFAULT_PATHS = ["src/repro"]
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
DEFAULT_CACHE = Path(".vschedlint-cache.json")


def _list_rules() -> str:
    lines = []
    for slug, (rule_id, family, desc) in sorted(
            RULES.items(), key=lambda kv: kv[1][0]):
        lines.append(f"{rule_id}  {slug:<20} [{family}] {desc}")
    return "\n".join(lines)


def _changed_files(base: str) -> Set[str]:
    """Resolved paths of .py files changed vs ``base``, plus untracked.

    The whole-program index is still built over everything the run was
    pointed at — cross-module findings need the full picture — only the
    *reported* findings are filtered to changed files.
    """
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True, text=True, check=True).stdout.strip()
    out: Set[str] = set()
    for cmd in (["git", "diff", "--name-only", base, "--"],
                ["git", "ls-files", "--others", "--exclude-standard"]):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=True)
        for name in proc.stdout.splitlines():
            if name.endswith(".py"):
                out.add(str((Path(top) / name).resolve()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vschedlint",
        description="Static invariant checker for the vSched reproduction: "
                    "layering/guest isolation, determinism, snapshot "
                    "safety, cache-key soundness, and cross-unit state "
                    "leakage.")
    parser.add_argument("paths", nargs="*", default=DEFAULT_PATHS,
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format",
                        choices=("text", "json", "sarif", "jsonl"),
                        default="text")
    parser.add_argument("--changed", nargs="?", const="HEAD", default=None,
                        metavar="BASE",
                        help="report only findings in files changed vs "
                             "BASE (default HEAD) or untracked; the "
                             "project index still covers all paths")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline file (default: the checked-in one)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline entirely")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite --baseline from current findings; "
                             "refuses to add entries (shrink-only)")
    parser.add_argument("--show-baselined", action="store_true",
                        help="list baselined findings in text output")
    parser.add_argument("--index-cache", type=Path, default=DEFAULT_CACHE,
                        metavar="FILE",
                        help="on-disk per-file record cache "
                             "(default: .vschedlint-cache.json)")
    parser.add_argument("--no-index-cache", action="store_true",
                        help="re-parse everything; do not read or write "
                             "the record cache")
    parser.add_argument("--stats", action="store_true",
                        help="print cache hit/miss counts to stderr")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    changed: Optional[Set[str]] = None
    if args.changed is not None:
        try:
            changed = _changed_files(args.changed)
        except (subprocess.CalledProcessError, OSError) as exc:
            print(f"vschedlint: --changed needs a git checkout: {exc}",
                  file=sys.stderr)
            return 2

    cache = IndexCache(None if args.no_index_cache else args.index_cache)
    try:
        findings = lint_paths(args.paths, cache=cache, changed=changed)
    except (FileNotFoundError, OSError) as exc:
        print(f"vschedlint: {exc}", file=sys.stderr)
        return 2
    if args.stats:
        print(f"vschedlint: index cache {cache.hits} hit(s), "
              f"{cache.misses} miss(es)", file=sys.stderr)

    if args.write_baseline:
        try:
            n = baseline_mod.write_baseline(findings, args.baseline)
        except baseline_mod.BaselineGrowthError as exc:
            print(f"vschedlint: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {n} entr{'y' if n == 1 else 'ies'} to {args.baseline}")
        return 0

    if not args.no_baseline:
        try:
            entries = baseline_mod.load_baseline(args.baseline)
        except (ValueError, OSError) as exc:
            print(f"vschedlint: {exc}", file=sys.stderr)
            return 2
        baseline_mod.apply_baseline(findings, entries, str(args.baseline),
                                    report_stale=changed is None)

    if args.format == "json":
        print(report.render_json(findings))
    elif args.format == "sarif":
        print(report.render_sarif(findings))
    elif args.format == "jsonl":
        out = report.render_jsonl(findings)
        if out:
            print(out)
    elif args.show_baselined:
        print(report.render_text_full(findings))
    else:
        print(report.render_text(findings))

    return 1 if any(not f.baselined for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
