"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    vsched-repro list
    vsched-repro run fig2 [--fast]
    vsched-repro run fig2,fig14 [--fast]
    vsched-repro run all [--fast] [--jobs N] [--cache] [--out results.txt]

``all`` and ``list`` cover :data:`repro.experiments.common.EXPERIMENTS`,
in its (paper) order.  Every run goes through the flat work-unit
scheduler (:func:`repro.experiments.parallel.run_units`): every
experiment decomposes into independent scenario units and tables stream
back in presentation order.  Without ``--jobs`` the units run in-process;
``--jobs N`` runs them over N worker processes, longest-first, so ``run
all --jobs N`` parallelizes *inside* the heavy experiments, not just
across them.  ``--cache`` layers the content-addressed result cache
underneath: a rerun on an unchanged tree recomputes nothing.  Parallel
and warm-cache runs render byte-identically to serial ones — see
``docs/INTERNALS.md`` §8–§9.

Failure handling is the same at any worker count (``docs/INTERNALS.md``
§10): a failed unit aborts the campaign with a report of the experiments
that completed, and ``--keep-going`` instead streams every healthy table
past failed units, prints a structured end-of-run failure report, and
exits non-zero.  In pooled campaigns ``--max-retries`` bounds retries
after a worker death or deadline expiry, and ``--unit-timeout``
overrides a unit's derived deadline.  Ctrl-C tears the pool down and
reports how far the campaign got; cached results survive either way.

Every setting is a flag handed to ``run_units`` as an argument; the CLI
reads no environment variable and writes none.  An unknown experiment
id, a ``--unit-timeout`` that is not positive and a negative
``--max-retries`` exit 2 before any unit runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import parallel
from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.experiments.common import EXPERIMENTS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vsched-repro",
        description="Regenerate the vSched paper's tables and figures on "
                    "the simulated substrate.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run experiments ('all', one id, or "
                                      "a comma-separated list)")
    runp.add_argument("experiment",
                      help="experiment id (e.g. fig2), a comma-separated "
                           "list (fig2,fig14), or 'all'")
    runp.add_argument("--fast", action="store_true",
                      help="shrunken workloads (seconds instead of minutes)")
    runp.add_argument("--no-check", action="store_true",
                      help="skip the qualitative shape assertions")
    runp.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes (default 1: in-process)")
    runp.add_argument("--keep-going", action="store_true",
                      help="do not abort the campaign on a failed unit: "
                           "stream every healthy table, report failures at "
                           "the end, exit non-zero")
    runp.add_argument("--max-retries", type=int, default=1, metavar="N",
                      help="retries per pooled unit after its worker dies "
                           "or its deadline expires (default 1)")
    runp.add_argument("--unit-timeout", type=float, default=None,
                      metavar="S",
                      help="per-unit deadline in seconds, overriding the "
                           "cost-derived one (default: cost_hint-based)")
    runp.add_argument("--cache", action="store_true",
                      help="reuse cached work-unit results and store new "
                           "ones (default off)")
    runp.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
                      help="result cache directory (default %(default)r)")
    runp.add_argument("--no-snapshot", dest="snapshot", action="store_false",
                      help="rebuild every scenario prefix cold instead of "
                           "forking a frozen one (the A/B baseline for the "
                           "byte-identity contract)")
    runp.add_argument("--out", default=None,
                      help="also write rendered tables to this file "
                           "(truncated unless --append)")
    runp.add_argument("--append", action="store_true",
                      help="append to --out instead of truncating it")
    args = parser.parse_args(argv)

    if args.command == "list":
        for exp_id, module in EXPERIMENTS.items():
            print(f"{exp_id:8s} -> {module}")
        return 0

    if args.experiment == "all":
        ids = list(EXPERIMENTS)
    else:
        ids = [i.strip() for i in args.experiment.split(",") if i.strip()]
    for exp_id in ids:
        if exp_id not in EXPERIMENTS:
            runp.error(f"unknown experiment {exp_id!r}; "
                       f"known: {', '.join(sorted(EXPERIMENTS))}")
    if args.unit_timeout is not None and not args.unit_timeout > 0:
        runp.error(f"--unit-timeout must be > 0, got {args.unit_timeout}")
    if args.max_retries < 0:
        runp.error(f"--max-retries must be >= 0, got {args.max_retries}")

    cache = ResultCache(args.cache_dir) if args.cache else None

    out_fh = open(args.out, "a" if args.append else "w") if args.out else None
    failures: List[str] = []
    completed: List[str] = []
    failed_units: List[parallel.UnitFailure] = []
    interrupted: Optional[parallel.CampaignInterrupted] = None
    aborted: Optional[BaseException] = None
    try:
        failures = _run_flat(ids, args, out_fh, cache, completed,
                             failed_units)
    except parallel.CampaignInterrupted as exc:
        interrupted = exc
    except KeyboardInterrupt:
        interrupted = parallel.CampaignInterrupted(0, 0)
    except RuntimeError as exc:
        # A unit failed without --keep-going: report what *did* finish
        # (and the cache summary below) before exiting non-zero.
        aborted = exc
    finally:
        if out_fh:
            out_fh.close()
    if cache is not None:
        print(cache.summary(), flush=True)
    if interrupted is not None:
        if interrupted.total:
            print(f"interrupted after {interrupted.done}/"
                  f"{interrupted.total} units (cached results preserved)",
                  flush=True)
        else:
            print("interrupted (cached results preserved)", flush=True)
        return 130
    if aborted is not None:
        print(f"campaign aborted: {aborted}", flush=True)
        done = ", ".join(completed) if completed else "none"
        print(f"experiments completed before abort: {done}", flush=True)
        return 1
    if failed_units:
        _print_failure_report(failed_units)
        return 1
    if failures:
        print(f"shape-check failures: {failures}")
        return 1
    return 0


def _print_failure_report(failed_units: List[parallel.UnitFailure]) -> None:
    """Structured end-of-run report for --keep-going campaigns."""
    print("=== campaign failure report ===", flush=True)
    for fu in failed_units:
        print(f"{fu.exp_id}/{fu.label}: {fu.error}")
        print(f"    attempts={fu.attempts} fate={fu.fate or 'n/a'}")
    print(f"{len(failed_units)} unit(s) failed permanently; healthy "
          f"experiments above are complete (and cached with --cache).",
          flush=True)


def _run_flat(ids: List[str], args, out_fh, cache,
              completed: List[str],
              failed_units: List[parallel.UnitFailure]) -> List[str]:
    """Stream the flat work-unit scheduler's tables in paper order.

    Appends to ``completed``/``failed_units`` as results land so the
    caller can report progress even when the campaign aborts mid-stream.
    """
    failures = []
    for res in parallel.run_units(ids, fast=args.fast,
                                  check=not args.no_check, jobs=args.jobs,
                                  cache=cache, keep_going=args.keep_going,
                                  max_retries=args.max_retries,
                                  unit_timeout=args.unit_timeout,
                                  snapshot=args.snapshot):
        print(f"--- running {res.exp_id} "
              f"({'fast' if args.fast else 'full'}) ---", flush=True)
        print(res.rendered, flush=True)
        if out_fh:
            out_fh.write(res.rendered + "\n\n")
            out_fh.flush()
        if res.failed_units:
            failed_units.extend(res.failed_units)
            print(f"[FAILED: {len(res.failed_units)}/{res.n_units} units; "
                  f"continuing (--keep-going)]\n")
            continue
        completed.append(res.exp_id)
        detail = f"{res.n_units} units, {res.cache_hits} cached, " \
            if (cache is not None or res.n_units > 1) else ""
        retry_note = f"{res.retries} retried, " if res.retries else ""
        if not args.no_check:
            if res.ok:
                print(f"[shape check OK, {detail}{retry_note}"
                      f"{res.wall_s:.0f}s compute]\n")
            else:
                failures.append(res.exp_id)
                print(f"[SHAPE CHECK FAILED: {res.check_error}]\n")
    return failures


if __name__ == "__main__":
    sys.exit(main())
