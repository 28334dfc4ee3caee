"""Fault-tolerant supervision of the flat work-unit pool.

PR 2's scheduler fed one shared task queue and trusted every worker to
live forever: a worker killed mid-unit (OOM, SIGKILL) hung the campaign, a
wedged simulation stalled it with no deadline, and any failure aborted the
whole run.  This module replaces that fire-and-forget feed with a
**supervision loop** (docs/INTERNALS.md §10):

* **ownership** — the parent assigns exactly one unit at a time to each
  worker through a *per-worker* task pipe, so it always knows which unit
  a worker owns (no announce race, and a killed worker can never corrupt
  a pipe another worker reads);
* **per-worker result pipes** — workers report results on private pipes
  multiplexed with ``multiprocessing.connection.wait``, never a shared
  queue.  A shared queue serializes writers through one inter-process
  lock, and a worker SIGKILLed between finishing its pipe write and
  releasing that lock would wedge every sibling writer forever; with one
  pipe per worker a dying writer can only corrupt its own pipe, which the
  parent discards when it reaps the corpse;
* **crash recovery** — `Process.is_alive()` + exitcode sweeps detect dead
  workers; the in-flight unit is requeued and a replacement worker
  spawned, up to a respawn budget of ``max(16, 8 × jobs)``;
* **per-unit deadlines** — :func:`deadline_s`: ``clamp(cost_hint ×
  DEADLINE_MULTIPLIER, DEADLINE_FLOOR_S, DEADLINE_CEIL_S)``, or the
  campaign's ``unit_timeout``; on expiry the owning worker is SIGKILLed
  and the unit requeued or failed;
* **bounded retry with deterministic backoff** — transient failures
  (worker death, deadline expiry) retry up to ``max_retries``; backoff
  jitter derives from the unit's identity via `make_rng`, never wall
  clock, so retried units recompute identical results and the
  determinism contract survives faults.  An exception raised by the unit
  body is deterministic under that contract and fails the unit at once;
* **unit fates** — every outcome carries its attempt count and a fate
  trail ("attempt 1: worker died (exitcode -9); …") for the end-of-run
  failure report;
* **one build per snapshot prefix** — the first unit of a prefix in
  dispatch order builds it, and later units of that prefix are *held* in
  the ready queue, in order, while idle workers take the next unit they
  can run.  The builder's worker returns the frozen image with the
  unit's outcome; the parent keeps it for the campaign and sends it, at
  most once per worker, with the next unit of that prefix it hands to a
  worker that lacks it.  A builder whose worker dies or is killed, or
  whose unit raises, releases its claim, and the next unit of the prefix
  builds it.  So pooled hit, miss and event counts equal serial ones.

Supervision state machine per unit::

    dispatched -> running -> done
                        \\-> retrying -> dispatched   (transient, budget left)
                        \\-> failed                   (deterministic / budget spent)

Wall clock appears only in *scheduling* decisions (deadlines, backoff
sleeps); results remain pure functions of ``(code, config, seed)``.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.experiments.units import WorkUnit

#: A unit's derived deadline is ``cost_hint`` times this, clamped to
#: [DEADLINE_FLOOR_S, DEADLINE_CEIL_S].  ``cost_hint`` is in seconds of
#: the unit's own mode, so one scale serves fast and full campaigns.
DEADLINE_MULTIPLIER = 30.0
DEADLINE_FLOOR_S = 30.0
DEADLINE_CEIL_S = 1800.0

#: Retry ``n`` (1-based) waits ``BACKOFF_BASE_S × 2^(n-1)`` times a
#: jitter in [0.5, 1.5), at most ``BACKOFF_CAP_S``.
BACKOFF_BASE_S = 0.1
BACKOFF_CAP_S = 5.0


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C during a supervised campaign, after worker cleanup.

    Carries how far the campaign got so the CLI can print
    ``interrupted after N/M units (cached results preserved)``.
    """

    def __init__(self, done: int, total: int):
        super().__init__(f"interrupted after {done}/{total} units")
        self.done = done
        self.total = total


def deadline_s(unit: WorkUnit, override_s: Optional[float] = None) -> float:
    """Wall-clock budget of one attempt of ``unit``.

    ``override_s`` (``run_units(..., unit_timeout=)``, CLI
    ``--unit-timeout``) wins; otherwise ``clamp(cost_hint ×
    DEADLINE_MULTIPLIER, DEADLINE_FLOOR_S, DEADLINE_CEIL_S)``.
    """
    if override_s is not None:
        return override_s
    derived = unit.cost_hint * DEADLINE_MULTIPLIER
    return min(max(derived, DEADLINE_FLOOR_S), DEADLINE_CEIL_S)


def backoff_s(tag: str, attempt: int) -> float:
    """Backoff before re-dispatching attempt ``attempt`` (1-based).

    Exponential in the attempt number with jitter in [0.5, 1.5) drawn
    from ``make_rng`` on the unit tag — deterministic, never wall clock.
    """
    from repro.sim.rng import make_rng
    raw = BACKOFF_BASE_S * (2.0 ** max(0, attempt - 1))
    jitter = 0.5 + make_rng(f"backoff|{tag}|attempt{attempt}").random()
    return min(BACKOFF_CAP_S, raw * jitter)


@dataclass
class SupervisorStats:
    """Counters for one campaign (:func:`parallel.last_campaign_stats`)."""

    retries: int = 0    # re-dispatches after any transient failure
    requeues: int = 0   # in-flight units reclaimed from dead/killed workers
    timeouts: int = 0   # per-unit deadlines that expired
    kills: int = 0      # workers SIGKILLed by the supervisor (deadlines)
    crashes: int = 0    # workers that died on their own (crash/OOM/SIGKILL)
    respawns: int = 0   # replacement workers spawned


@dataclass
class UnitOutcome:
    """Terminal state of one unit after supervision."""

    result: Any = None
    error: Optional[str] = None
    tb: Optional[str] = None
    wall_s: float = 0.0
    events: int = 0
    #: Engine counter deltas over the unit (pushes/cancels/dead_drops —
    #: see Engine.counters); None for units that never ran.
    counters: Optional[Dict[str, int]] = None
    attempts: int = 1
    fate: str = "ok"


def unit_tag(unit: WorkUnit) -> str:
    """Stable identity string seeding the backoff jitter of one unit."""
    return f"{unit.exp_id}/{unit.label}|{unit.seed}"


def _pool_context():
    """Prefer fork (cheap, POSIX) and fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, task_r, result_w, fast: bool = False,
                 snapshot: bool = True) -> None:
    """Worker loop: serve one unit per parent assignment until None/EOF.

    Both pipes are private to this worker: the parent is the only writer
    of ``task_r`` and the only reader of ``result_w``, so neither needs a
    lock.

    Units carrying a snapshot prefix fork it from this worker's
    :class:`~repro.experiments.snapstore.SnapshotStore`, which starts
    empty: a store inherited from the parent by ``fork`` is dropped, so
    a worker holds only the images it built or received.  An assignment
    may carry the prefix's image, frozen in another worker; it is
    installed before the unit runs, so the unit's fork is a hit.  A unit
    that built its prefix (a store miss) sends the image back with its
    outcome, for the parent to relay.  With ``snapshot`` off every unit
    rebuilds its prefix cold.  The store's counter deltas ride back
    inside the engine-counter dict so the parent can aggregate
    hit/miss/fork counts per experiment.
    """
    from repro.experiments.snapstore import (execute_unit, process_store,
                                             reset_process_store,
                                             snapshot_counters)
    from repro.sim.engine import Engine
    reset_process_store()
    while True:
        try:
            item = task_r.recv()
        except (EOFError, OSError):
            break  # parent closed its end (teardown) or died
        if item is None:
            break
        idx, func, config, prefix, image = item
        if image is not None:
            process_store().install(prefix, fast, image)
        counters0 = Engine.counters()
        snap0 = snapshot_counters()
        started = time.perf_counter()
        result: Any = None
        error = tb = None
        try:
            result = execute_unit(func, config, prefix, fast, snapshot)
            pickle.dumps(result)  # unpicklable? fail with a real traceback
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            result = None
            error = f"{type(exc).__name__}: {exc}"
            tb = traceback.format_exc()
        counters = {k: v - counters0[k]
                    for k, v in Engine.counters().items()}
        events = counters.pop("fired")
        counters.update({k: v - snap0[k]
                         for k, v in snapshot_counters().items()})
        built = (process_store().image(prefix, fast)
                 if counters["snap_misses"] else None)
        try:
            result_w.send((worker_id, idx, result, error, tb,
                           time.perf_counter() - started, events,
                           counters, built))
        except (BrokenPipeError, OSError):
            break  # parent is gone; nothing left to report to


@dataclass
class _Worker:
    """Parent-side record of one worker process and its assignment."""

    proc: mp.Process
    task_w: Any    # parent's write end of the worker's private task pipe
    result_r: Any  # parent's read end of the worker's private result pipe
    current: Optional[Tuple[int, float, float]] = None  # idx, deadline_ts,
    #                                                      timeout_s
    #: Prefixes (``prefix_parts`` tuples) whose image the worker holds.
    prefixes: Set[Tuple[str, ...]] = field(default_factory=set)

    def close_pipes(self) -> None:
        for conn in (self.task_w, self.result_r):
            try:
                conn.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Parent side: the supervision loop
# ----------------------------------------------------------------------
def supervise(units: Sequence[WorkUnit], jobs: int, *, fast: bool = False,
              max_retries: int = 1,
              unit_timeout: Optional[float] = None,
              stats: Optional[SupervisorStats] = None,
              snapshot: bool = True,
              ) -> Iterator[Tuple[int, UnitOutcome]]:
    """Run ``units`` on ``jobs`` supervised workers; yield ``(idx, outcome)``.

    Units are dispatched in sequence order (callers pre-sort longest
    first), except that a unit whose snapshot prefix another unit is
    still building is held back (module docstring).  Outcomes stream in
    completion order; every unit gets exactly
    one terminal outcome, even under worker crashes and hangs — the loop
    converges because each unit's attempts are bounded and the respawn
    budget is finite.  Worker death and deadline expiry retry up to
    ``max_retries`` times; ``unit_timeout`` overrides every derived
    deadline (:func:`deadline_s`).  On Ctrl-C the pool is torn down and
    :class:`CampaignInterrupted` raised.  ``fast`` and the ``snapshot``
    mode are handed to every worker as arguments.
    """
    # Imported here, as in _worker_main: at module level this import made
    # a fresh interpreter's imports about 15 ms slower (2-vCPU KVM guest,
    # CPython 3.11), though it loads no module a campaign does not load.
    from repro.experiments.snapstore import prefix_parts
    stats = stats if stats is not None else SupervisorStats()
    respawn_limit = max(16, 8 * jobs)

    n = len(units)
    ctx = _pool_context()
    ready = deque(range(n))
    delayed: List[Tuple[float, int, int]] = []  # (ready_ts, seq, idx)
    done = [False] * n
    attempts_made = [0] * n   # completed (failed or successful) attempts
    history: List[List[str]] = [[] for _ in range(n)]
    resolved = 0
    respawns_left = respawn_limit
    seq = 0  # tiebreaker for the delayed heap
    prefix_of = [tuple(prefix_parts(u.prefix))
                 if snapshot and u.prefix is not None else None
                 for u in units]
    images: Dict[Tuple[str, ...], bytes] = {}  # kept for the campaign
    builders: Dict[Tuple[str, ...], int] = {}  # prefix -> building unit

    def spawn(wid: int) -> _Worker:
        task_r, task_w = ctx.Pipe(duplex=False)
        result_r, result_w = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_worker_main,
                           args=(wid, task_r, result_w, fast, snapshot),
                           daemon=False, name=f"vsched-unit-{wid}")
        proc.start()
        # Close the child's ends in the parent so a dead child shows as
        # EOF on result_r instead of a silent forever-block.
        task_r.close()
        result_w.close()
        return _Worker(proc=proc, task_w=task_w, result_r=result_r)

    workers: Dict[int, _Worker] = {i: spawn(i) for i in range(jobs)}
    next_wid = jobs

    def take() -> Optional[int]:
        """Remove and return the first ready unit that can run now: one
        whose prefix is absent, built or not claimed by another unit."""
        for pos, idx in enumerate(ready):
            prefix = prefix_of[idx]
            if not done[idx] and (prefix is None or prefix in images
                                  or prefix not in builders):
                del ready[pos]
                return idx
        return None

    def release(idx: int) -> None:
        """Drop ``idx``'s claim on building its prefix, if it holds one."""
        prefix = prefix_of[idx]
        if prefix is not None and builders.get(prefix) == idx:
            del builders[prefix]

    def settle(idx: int, reason: str) -> Optional[UnitOutcome]:
        """A transient failure of ``idx``: schedule a retry or fail it."""
        nonlocal seq
        release(idx)
        if done[idx]:
            return None
        attempts_made[idx] += 1
        history[idx].append(f"attempt {attempts_made[idx]}: {reason}")
        if attempts_made[idx] <= max_retries:
            stats.retries += 1
            backoff = backoff_s(unit_tag(units[idx]), attempts_made[idx])
            heapq.heappush(delayed, (time.monotonic() + backoff, seq, idx))
            seq += 1
            return None
        done[idx] = True
        return UnitOutcome(error=reason, attempts=attempts_made[idx],
                           fate="; ".join(history[idx]) + "; gave up")

    try:
        while resolved < n:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _ts, _seq, idx = heapq.heappop(delayed)
                if not done[idx]:
                    ready.append(idx)

            # Assign ready units to idle live workers (one unit at a time,
            # so ownership is known parent-side at dispatch).
            for wid, w in workers.items():
                if w.current is not None or not w.proc.is_alive():
                    continue
                idx = take()
                if idx is None:
                    break
                unit = units[idx]
                prefix, image = prefix_of[idx], None
                if prefix is not None and prefix not in images:
                    builders[prefix] = idx  # this unit builds it
                elif prefix is not None and prefix not in w.prefixes:
                    image = images[prefix]
                    w.prefixes.add(prefix)
                timeout_s = deadline_s(unit, unit_timeout)
                try:
                    w.task_w.send((idx, unit.func, unit.config,
                                   unit.prefix, image))
                except (BrokenPipeError, OSError):
                    # Worker died between is_alive() and send(); the
                    # liveness sweep below reclaims the unit.
                    pass
                w.current = (idx, now + timeout_s, timeout_s)

            # Wait for results, but wake for the nearest deadline/backoff.
            wake = [0.25]
            wake += [w.current[1] - now for w in workers.values()
                     if w.current is not None]
            if delayed:
                wake.append(delayed[0][0] - now)
            emit: List[Tuple[int, UnitOutcome]] = []
            readers = {w.result_r: wid for wid, w in workers.items()}
            msgs = []
            for conn in mp_connection.wait(list(readers),
                                           timeout=max(0.01, min(wake))):
                try:
                    msgs.append(conn.recv())
                except (EOFError, OSError, pickle.UnpicklingError):
                    # Worker died (possibly mid-write, leaving a partial
                    # message on its private pipe).  Only this worker's
                    # pipe is affected; the liveness sweep reclaims its
                    # unit and the pipe is closed with the corpse.
                    pass
            for msg in msgs:
                (wid, idx, result, error, tb, wall, events, counters,
                 image) = msg
                w = workers.get(wid)
                if image is not None:
                    images.setdefault(prefix_of[idx], image)
                    if w is not None:
                        w.prefixes.add(prefix_of[idx])
                if w is not None and w.current is not None \
                        and w.current[0] == idx:
                    w.current = None
                    release(idx)
                if done[idx]:
                    continue
                done[idx] = True
                resolved += 1
                attempts_made[idx] += 1
                if error is None:
                    fate = "ok" if not history[idx] else (
                        "; ".join(history[idx])
                        + f"; ok on attempt {attempts_made[idx]}")
                else:
                    # A unit body raised: deterministic under the
                    # determinism contract, so a retry would fail alike.
                    history[idx].append(
                        f"attempt {attempts_made[idx]}: {error}")
                    fate = "; ".join(history[idx]) + " (not retryable)"
                yield idx, UnitOutcome(
                    result=result, error=error, tb=tb, wall_s=wall,
                    events=events, counters=counters,
                    attempts=attempts_made[idx], fate=fate)

            now = time.monotonic()
            # Deadline sweep: kill workers whose unit overran its budget.
            for wid, w in list(workers.items()):
                if w.current is None or now <= w.current[1]:
                    continue
                idx, _ts, timeout_s = w.current
                stats.timeouts += 1
                stats.kills += 1
                w.proc.kill()
                w.proc.join()
                w.close_pipes()
                del workers[wid]
                if not done[idx]:
                    stats.requeues += 1
                out = settle(
                    idx, f"deadline {timeout_s:.1f}s exceeded "
                         f"(worker killed)")
                if out is not None:
                    resolved += 1
                    emit.append((idx, out))

            # Liveness sweep: reclaim units from workers that died alone.
            for wid, w in list(workers.items()):
                if w.proc.is_alive():
                    continue
                stats.crashes += 1
                w.close_pipes()
                del workers[wid]
                if w.current is not None:
                    idx = w.current[0]
                    if not done[idx]:
                        stats.requeues += 1
                    out = settle(
                        idx, f"worker died (exitcode {w.proc.exitcode})")
                    if out is not None:
                        resolved += 1
                        emit.append((idx, out))

            for idx, out in emit:
                yield idx, out

            # Respawn replacements while work remains and budget allows.
            while (len(workers) < jobs and respawns_left > 0
                   and resolved < n):
                respawns_left -= 1
                stats.respawns += 1
                workers[next_wid] = spawn(next_wid)
                next_wid += 1

            # Budget spent and nobody left alive: fail everything pending
            # rather than spinning forever.
            if resolved < n and not workers:
                for idx in range(n):
                    if done[idx]:
                        continue
                    done[idx] = True
                    resolved += 1
                    attempts_made[idx] += 1
                    history[idx].append(
                        "worker pool exhausted "
                        f"(respawn budget {respawn_limit} spent)")
                    yield idx, UnitOutcome(
                        error="worker pool exhausted",
                        attempts=attempts_made[idx],
                        fate="; ".join(history[idx]))
    except KeyboardInterrupt:
        raise CampaignInterrupted(resolved, n)
    finally:
        for w in workers.values():
            if w.proc.is_alive():
                w.proc.terminate()
        for w in workers.values():
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=1.0)
            # Plain fd closes — pipes have no feeder threads, so teardown
            # cannot hang on a queue flushing to a dead reader.
            w.close_pipes()
