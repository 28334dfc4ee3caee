"""Snapshot safety (VSL4xx): fork-unsafe callables at registration sites.

Warm-start snapshots (INTERNALS §15) freeze a world by pickling it into
one image and fork it with ``pickle.loads``.  The callables these rules
look for either fail that freeze or survive it shared between the
original world and every fork — the classes
``repro.sim.snapshot.guard_world`` rejects at runtime:

* closures (lambdas or nested defs with free variables): pickle cannot
  name them, so a world holding one fails its freeze; this rule finds
  them before any run, at every registration site, where the freeze
  would only find the first, in the first world that holds it —
  **VSL401**;
* bound builtin methods (``some_list.append``): pickle would rebind the
  receiver, but the runtime guard still rejects them, and this rule is
  its twin — **VSL402**;
* functions with mutable defaults: module-level functions pickle by
  reference, so their default objects stay shared between original and
  fork — **VSL403**;
* live generators in event arguments: they cannot be pickled, so the
  freeze fails; found here before any run — **VSL404**.

The messages keep the deep-copy wording of the snapshot layer's first
version; ``tests/test_vschedlint.py::TestGuardParity`` matches them
phrase for phrase against ``guard_world``'s.

The runtime guard only fires when a world is actually frozen, i.e. after
a scenario has been migrated to a snapshot prefix; these rules fire at
*every* registration site in ``src/repro`` (``Engine.call_at/call_in``,
``activity_listeners.append``), because any scenario
is a candidate for migration and a violation discovered then is a
mid-campaign crash.  Cross-module resolution goes through the project
index; callables the index cannot resolve (parameters, values out of
containers) are conservatively trusted — the runtime guard and the
freeze itself remain the backstop for those, which is the documented
under-approximation.

``@snapshot_safe`` and ``@restartable_body`` vouch for a callable and
silence the rules, mirroring the runtime escape hatches.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from vschedlint import config
from vschedlint.findings import Finding
from vschedlint.index import FileRecord, FunctionInfo, ProjectIndex


def check_snapshot_safety(index: ProjectIndex,
                          findings: List[Finding]) -> None:
    for rec in index.records:
        for site in rec.reg_sites:
            _check_callback(index, rec, site, site.get("callback") or {},
                            findings, depth=0)
            for arg in site.get("args", ()):
                _check_arg(index, rec, site, arg, findings)


def _flag(findings: List[Finding], rec: FileRecord, site: dict, rule: str,
          detail: str) -> None:
    findings.append(Finding(
        rule, rec.path, site["line"], site["col"],
        f"{detail} registered via {site['kind']} — deepcopy would alias "
        "the original world (see guard_world, INTERNALS §15)",
        symbol=site["func"], modname=rec.modname))


def _is_vouched(info: FunctionInfo) -> bool:
    return any(d in config.SNAPSHOT_SAFE_DECORATORS
               for d in info.decorators)


def _resolve_callable(index: ProjectIndex, rec: FileRecord, summary: dict,
                      context: str) -> Optional[Tuple[FileRecord,
                                                      FunctionInfo]]:
    if summary.get("form") == "name":
        return index.resolve_function(rec, summary["id"],
                                      context_qual=context)
    if summary.get("form") == "attr":
        return index.resolve_method(rec, summary["attr"],
                                    context_qual=context)
    return None


def _check_callback(index: ProjectIndex, rec: FileRecord, site: dict,
                    cb: dict, findings: List[Finding], depth: int) -> None:
    if depth > 3:
        return
    form = cb.get("form")

    if form == "lambda":
        if cb.get("free"):
            _flag(findings, rec, site, "snapshot-closure",
                  f"lambda closing over {sorted(cb['free'])}")
        return

    if form == "attr":
        # ``partial`` objects and bound methods of in-world objects are
        # safe (the receiver copies through the memo); builtin-container
        # methods are not.
        if cb.get("attr") in config.BOUND_BUILTIN_METHODS:
            _flag(findings, rec, site, "snapshot-bound-builtin",
                  f"bound builtin candidate {cb.get('dotted', cb['attr'])!r}")
            return
        hit = index.resolve_method(rec, cb["attr"],
                                   context_qual=site["func"])
        if hit is not None and not _is_vouched(hit[1]):
            if hit[1].mutable_defaults:
                _flag(findings, rec, site, "snapshot-mutable-default",
                      f"method {hit[1].qual!r} has mutable default "
                      f"arguments (shared between original and fork)")
        return

    if form == "name":
        hit = index.resolve_function(rec, cb["id"],
                                     context_qual=site["func"])
        if hit is None or _is_vouched(hit[1]):
            return
        src, info = hit
        if info.free:
            _flag(findings, rec, site, "snapshot-closure",
                  f"function {info.qual!r} ({src.modname}) closes over "
                  f"{sorted(info.free)}")
        if info.mutable_defaults:
            _flag(findings, rec, site, "snapshot-mutable-default",
                  f"function {info.qual!r} ({src.modname}) has mutable "
                  f"default arguments")
        return

    if form == "call":
        callee = cb.get("callee") or {}
        # functools.partial(f, ...): the partial copies through the memo,
        # f is what must be safe — recurse into the first argument.
        callee_name = callee.get("id") or callee.get("attr")
        if callee_name == "partial":
            args = cb.get("args") or []
            if args:
                _check_callback(index, rec, site, args[0], findings,
                                depth + 1)
            return
        # factory call: whatever the factory returns is the callback.
        hit = _resolve_callable(index, rec, callee, site["func"])
        if hit is None or _is_vouched(hit[1]):
            return
        src, info = hit
        for ret in info.returns:
            if ret.get("form") == "lambda" and ret.get("free"):
                _flag(findings, rec, site, "snapshot-closure",
                      f"factory {info.qual!r} ({src.modname}) returns a "
                      f"lambda closing over {sorted(ret['free'])}")
            elif ret.get("form") == "name":
                inner = src.functions.get(f"{info.qual}.{ret['id']}")
                if inner is not None and inner.free and not _is_vouched(
                        inner):
                    _flag(findings, rec, site, "snapshot-closure",
                          f"factory {info.qual!r} ({src.modname}) returns "
                          f"nested function {ret['id']!r} closing over "
                          f"{sorted(inner.free)}")


def _check_arg(index: ProjectIndex, rec: FileRecord, site: dict, arg: dict,
               findings: List[Finding]) -> None:
    form = arg.get("form")
    if form == "genexp":
        _flag(findings, rec, site, "snapshot-generator",
              "generator expression passed as event argument (generators "
              "cannot be deep-copied)")
        return
    if form == "call":
        callee = arg.get("callee") or {}
        hit = _resolve_callable(index, rec, callee, site["func"])
        if hit is not None and hit[1].has_yield and not _is_vouched(
                hit[1]):
            _flag(findings, rec, site, "snapshot-generator",
                  f"argument is a live generator from {hit[1].qual!r} "
                  f"({hit[0].modname}) (generators cannot be deep-copied)")
