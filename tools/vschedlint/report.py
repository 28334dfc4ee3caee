"""Text and JSON reporters."""

from __future__ import annotations

import json
from collections import Counter
from typing import List

from vschedlint.findings import Finding


def render_text(findings: List[Finding]) -> str:
    lines = [f.render() for f in findings]
    if findings:
        by_family = Counter(f.family for f in findings)
        summary = ", ".join(f"{n} {fam}" for fam, n in sorted(
            by_family.items()))
        lines.append(f"{len(findings)} finding(s): {summary}")
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def render_json(findings: List[Finding]) -> str:
    payload = {
        "version": 2,
        "counts": {
            "active": len(findings),
            "by_family": dict(sorted(
                Counter(f.family for f in findings).items())),
        },
        "findings": [f.to_json() for f in findings],
    }
    return json.dumps(payload, indent=2)
