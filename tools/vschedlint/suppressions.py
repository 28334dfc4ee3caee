"""Inline suppressions: ``# vschedlint: disable=<rule>[,<rule>] -- reason``.

A suppression comment on a line silences matching findings on that line; a
suppression on a ``def`` line silences matching findings anywhere in that
function.  The reason (after ``--``) is mandatory: a silenced invariant
with no recorded justification is itself a finding (``bad-suppression``),
and so is a suppression that no longer silences anything
(``unused-suppression``) — suppressions must pull their weight or go.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from vschedlint.findings import RULES, UNSUPPRESSABLE, Finding

_PATTERN = re.compile(
    r"#\s*vschedlint:\s*disable=(?P<rules>[a-z0-9_,\s-]+?)"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$")


def _comment_tokens(source_lines: List[str]) -> Iterator[
        Tuple[int, int, str]]:
    """(lineno, col, text) for every real comment token.

    Tokenizing (rather than grepping lines) keeps string literals that
    merely *mention* the suppression syntax — the linter's own docstrings,
    test fixtures built from source strings — from parsing as comments.
    """
    buf = io.StringIO("\n".join(source_lines) + "\n")
    try:
        for tok in tokenize.generate_tokens(buf.readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.start[1], tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return  # unparseable tail; the checker reports the syntax error


@dataclass
class Suppression:
    line: int
    rules: List[str]
    reason: str
    used: bool = False


def scan_suppressions(source_lines: List[str], path: str,
                      findings: List[Finding]) -> Dict[int, Suppression]:
    """Parse all suppression comments; emit bad-suppression findings."""
    out: Dict[int, Suppression] = {}
    for lineno, col, text in _comment_tokens(source_lines):
        # A suppression is its own comment ("# vschedlint: ..."); doc
        # comments quoting the syntax mid-sentence are not directives.
        if re.match(r"#\s*vschedlint:", text) is None:
            continue
        m = _PATTERN.search(text)
        if m is None:
            findings.append(Finding(
                "bad-suppression", path, lineno, col,
                "unparseable vschedlint comment (expected "
                "'# vschedlint: disable=<rule> -- <reason>')"))
            continue
        rules = [r.strip() for r in m.group("rules").split(",") if r.strip()]
        reason = (m.group("reason") or "").strip()
        bad = False
        for rule in rules:
            if rule not in RULES or rule in UNSUPPRESSABLE:
                findings.append(Finding(
                    "bad-suppression", path, lineno, m.start(),
                    f"unknown or unsuppressable rule {rule!r}"))
                bad = True
        if not reason:
            findings.append(Finding(
                "bad-suppression", path, lineno, m.start(),
                "suppression without a reason (append ' -- <why this is "
                "sound>')"))
            bad = True
        if not bad:
            out[lineno] = Suppression(lineno, rules, reason)
    return out


def apply_suppressions(findings: List[Finding],
                       suppressions: Dict[int, Suppression],
                       def_lines_of: Callable[[int], List[int]],
                       path: str) -> List[Finding]:
    """Drop suppressed findings; report suppressions that did nothing.

    ``def_lines_of`` maps a source line to the ``def`` lines of its
    enclosing functions, innermost first.
    """
    kept: List[Finding] = []
    for f in findings:
        if f.rule in UNSUPPRESSABLE:
            kept.append(f)
            continue
        candidates = [f.line] + def_lines_of(f.line)
        hit = None
        for ln in candidates:
            sup = suppressions.get(ln)
            if sup is not None and f.rule in sup.rules:
                hit = sup
                break
        if hit is not None:
            hit.used = True
        else:
            kept.append(f)
    for sup in suppressions.values():
        if not sup.used:
            kept.append(Finding(
                "unused-suppression", path, sup.line, 0,
                f"suppression of {','.join(sup.rules)} matches no finding; "
                f"remove it"))
    return kept
