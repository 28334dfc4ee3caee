"""Snapshot safety (VSL403): mutable default arguments.

Warm-start snapshots (INTERNALS §15) freeze a world by pickling it into
one image and fork it with ``pickle.loads``.  The freeze itself fails,
naming the object, on whatever pickle cannot restore: a closure, lambda
or nested function, or a live generator, anywhere in the world.  What
it cannot see is a mutable default argument.  Functions pickle by
reference, so a default such as ``acc=[]`` is one object shared by the
original world, every fork, and every later unit in a warm pooled
worker — whether or not the function is ever a callback.

So **VSL403** fires on every mutable default (a list, dict or set
display or comprehension, or a call of a mutable container type) of
every ``def`` and ``lambda`` in ``src/repro``, one finding per
default.  It is a per-file rule, gated by the ``snapshot`` family of the
tree's policy.
"""

from __future__ import annotations

import ast
from typing import List

from vschedlint.findings import Finding
from vschedlint.index import is_mutable_value

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def check_mutable_defaults(module, findings: List[Finding]) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, _FUNCTIONS):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = list(zip(positional[len(positional)
                                        - len(args.defaults):],
                             args.defaults))
        defaulted += [(arg, default) for arg, default
                      in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        name = getattr(node, "name", "<lambda>")
        for arg, default in defaulted:
            if not is_mutable_value(default):
                continue
            findings.append(Finding(
                "snapshot-mutable-default", module.path, default.lineno,
                default.col_offset,
                f"{name!r} has a mutable default for {arg.arg!r}: a "
                f"function pickles by reference, so its world, every fork "
                f"and every later unit in a warm worker share the default "
                f"(INTERNALS §15)",
                symbol=module.symbol_at(default.lineno),
                modname=module.modname))
