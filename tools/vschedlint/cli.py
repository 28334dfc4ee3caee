"""Command-line entry point.

Exit codes: 0 no findings, 1 findings, 2 usage error (an unknown flag, or
a path that is neither a python file nor a directory).
"""

from __future__ import annotations

import argparse
import sys

from vschedlint import report
from vschedlint.checker import lint_paths
from vschedlint.findings import RULES

DEFAULT_PATHS = ["src/repro"]


def _list_rules() -> str:
    lines = []
    for slug, (rule_id, family, desc) in sorted(
            RULES.items(), key=lambda kv: kv[1][0]):
        lines.append(f"{rule_id}  {slug:<20} [{family}] {desc}")
    return "\n".join(lines)


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
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        findings = lint_paths(args.paths)
    except (FileNotFoundError, OSError) as exc:
        print(f"vschedlint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(report.render_json(findings))
    else:
        print(report.render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
