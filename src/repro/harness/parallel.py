"""Fault-tolerant multiprocessing execution of sweep cells.

The simulator is pure Python and CPU-bound, so a sweep's cells —
independent ``(spec, mode, config, engine)`` simulations — are the
natural unit of process-level parallelism.  :func:`run_cells` shards
cells across a worker pool and merges the results so that the outcome
is *independent of scheduling*:

* **Deterministic per-cell seeds.**  Every cell derives its seed from
  its own structural fingerprint (not from a shared RNG stream or the
  submission index), so a cell is seeded identically whether it runs
  first or last, in one process or eight, alone or inside a bigger
  sweep.
* **Submission-independent results.**  The parent installs each result
  the moment it arrives; cache entries and store records are keyed by
  content fingerprint, so the *final state* is bit-identical for
  ``--jobs 1`` and ``--jobs 8`` regardless of completion order.
* **Failure is an outcome, not a crash.**  Workers never raise across
  the process boundary: every attempt returns a structured ``ok |
  error`` outcome (exception type, traceback, duration), and the
  parent turns permanent failures into JSON-safe
  :class:`~repro.harness.failures.CellFailure` records while the rest
  of the sweep keeps going.  Per-cell deadlines kill and respawn hung
  workers; a worker that dies outright (OOM kill, segfault) is detected
  through its process sentinel and replaced.  Transient failures retry
  with exponential backoff; persistent ones are quarantined in the
  store so resume skips them.  All of it is governed by an
  :class:`~repro.harness.failures.ExecutionPolicy` and exercised by the
  deterministic fault-injection harness in :mod:`repro.testing.faults`.

On Linux, workers start by ``fork`` (``multiprocessing``'s default
there through Python 3.13), so each inherits the parent's run cache,
campaign memo and store handle as they stood when the pool started.
A worker computes every cell through
:func:`~repro.harness.runner.compute_cell`, which reads neither the
run cache nor the store; it may serve a campaign from its inherited
campaign memo, which is transparent (a memo hit equals a fresh
profile).  Workers return plain outcome dicts, and the parent owns all
cache, store, and quarantine writes, so the store sees exactly one
writer per record.  A worker zeroes :data:`repro.obs.COUNTS` before
each payload and sends its counts back with the outcome, and the
parent adds them in, so ``--cache-stats`` includes the workers' work.
The serial in-process path is used only when no deadline or fault plan
requires a killable host, and is then byte-equivalent to the pooled
path.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import random
import time
import traceback as tb
from collections import deque
from typing import Callable, Iterable

from repro.arch.executor import InstructionLimitError
from repro.harness.failures import (
    FAILURE_EXCEPTION,
    FAILURE_FUEL,
    FAILURE_TIMEOUT,
    FAILURE_WORKER_DIED,
    RETRYABLE_FAILURES,
    CellFailure,
    ExecutionPolicy,
    RunOutcome,
    SweepInterrupted,
)
from repro.harness.runner import (
    CELL_KINDS,
    compute_cell,
    get_store,
    install_result,
)
from repro.harness.store import fingerprint
from repro.obs import COUNTS

# progress(done, total, name, ok): one call per *resolved* cell —
# ``ok`` distinguishes an installed report from a permanent failure.
ProgressFn = Callable[[int, int, str, bool], None]

_DEFAULT_POLICY = ExecutionPolicy()


def cell_seed(fp: str) -> int:
    """Deterministic seed for the cell with fingerprint *fp*.

    The leading 64 bits of the content address: stable across
    processes, machines, and shard assignments.
    """
    return int(fp[:16], 16)


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

def _execute_payload(payload: tuple) -> tuple[str, str, str, dict]:
    """Worker body: one attempt at one cell, returned as an outcome.

    ``payload`` is ``(fingerprint, kind, spec, mode, config, engine,
    attempt, max_instructions, fault_plan)``.  Returns ``(fingerprint,
    name, mode, outcome)`` where ``outcome`` is a picklable ``status:
    ok`` dict carrying the report, or a ``status: error`` dict carrying
    the structured failure — this function never raises on cell
    misbehavior, so one bad cell cannot poison the result channel.
    """
    (fp, kind, spec, mode, config, engine, attempt,
     max_instructions, plan) = payload
    random.seed(cell_seed(fp))
    start = time.perf_counter()
    try:
        if plan is not None:
            plan.apply(fp, attempt)
        report = compute_cell(kind, spec, mode, config, engine,
                              max_instructions)
    except Exception as error:
        failure = (FAILURE_FUEL
                   if isinstance(error, InstructionLimitError)
                   else FAILURE_EXCEPTION)
        return fp, spec.name, mode, {
            "status": "error",
            "failure": failure,
            "error_type": type(error).__name__,
            "message": str(error),
            "traceback": tb.format_exc(),
            "duration": time.perf_counter() - start,
        }
    return fp, spec.name, mode, {
        "status": "ok",
        "report": report.to_dict(),
        "duration": time.perf_counter() - start,
    }


def _worker_main(conn) -> None:
    """Long-lived worker loop: one payload in, one outcome out, with
    the counts the payload added to :data:`repro.obs.COUNTS`."""
    try:
        while True:
            try:
                payload = conn.recv()
            except EOFError:
                return
            if payload is None:
                return
            COUNTS.clear()
            outcome = _execute_payload(payload)
            try:
                conn.send((*outcome, dict(COUNTS)))
            except (BrokenPipeError, OSError):
                return
    except KeyboardInterrupt:
        return


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------

class _Task:
    """One cell's dispatch state: payload template + attempt counter."""

    __slots__ = ("fp", "kind", "base", "attempt", "not_before")

    def __init__(self, fp: str, kind: str, base: tuple) -> None:
        # base = (spec, mode, config, engine)
        self.fp = fp
        self.kind = kind
        self.base = base
        self.attempt = 1
        self.not_before = 0.0          # monotonic time gating retries

    def payload(self, policy: ExecutionPolicy) -> tuple:
        return (self.fp, self.kind, *self.base, self.attempt,
                policy.max_instructions, policy.fault_plan)


class _Collector:
    """Parent-side outcome handling: install / retry / quarantine.

    All decisions are keyed by cell fingerprint and attempt number —
    never by arrival order — so the resolved state is identical for any
    job count.
    """

    def __init__(self, descriptors: dict[str, dict],
                 policy: ExecutionPolicy,
                 progress: ProgressFn | None,
                 outcome: RunOutcome) -> None:
        self.descriptors = descriptors
        self.policy = policy
        self.progress = progress
        self.outcome = outcome
        self.aborted = False

    # -- outcome entry points ---------------------------------------------

    def on_result(self, task: _Task, fp: str, name: str, mode: str,
                  result: dict) -> _Task | None:
        """Handle a worker-returned outcome; returns the task to retry,
        or ``None`` if the cell is resolved."""
        if result["status"] == "ok":
            self._install(fp, name, mode, result["report"])
            return None
        return self._failed(task, result["failure"], result)

    def on_timeout(self, task: _Task) -> _Task | None:
        deadline = self.policy.timeout or 0.0
        return self._failed(task, FAILURE_TIMEOUT, {
            "error_type": "",
            "message": f"cell exceeded the {deadline:g}s deadline "
                       "and was killed",
            "traceback": "",
            "duration": deadline,
        })

    def on_worker_death(self, task: _Task, exitcode) -> _Task | None:
        return self._failed(task, FAILURE_WORKER_DIED, {
            "error_type": "",
            "message": f"worker process died (exit code {exitcode}) "
                       "before returning a result",
            "traceback": "",
            "duration": 0.0,
        })

    # -- resolution --------------------------------------------------------

    def _install(self, fp: str, name: str, mode: str,
                 report: dict) -> None:
        descriptor = self.descriptors[fp]
        report_type = CELL_KINDS[descriptor["kind"]].report_type
        install_result(descriptor, name, mode, report_type.from_dict(report))
        store = get_store()
        if store is not None:
            # A success supersedes any earlier poison marker.
            store.clear_failure(fp)
        self.outcome.computed += 1
        self._report_progress(name, ok=True)

    def _failed(self, task: _Task, failure_kind: str,
                detail: dict) -> _Task | None:
        policy = self.policy
        descriptor = self.descriptors[task.fp]
        name = self._cell_name(task)
        if (failure_kind in RETRYABLE_FAILURES
                and task.attempt <= policy.retries):
            task.attempt += 1
            task.not_before = (time.monotonic()
                               + policy.backoff * 2 ** (task.attempt - 2))
            return task
        failure = CellFailure(
            fingerprint=task.fp,
            name=name,
            mode=descriptor["mode"],
            kind=task.kind,
            failure=failure_kind,
            error_type=detail.get("error_type", ""),
            message=detail.get("message", ""),
            traceback=detail.get("traceback", ""),
            attempts=task.attempt,
            duration=detail.get("duration", 0.0),
            engine=descriptor["engine"],
        )
        store = get_store()
        if store is not None:
            # Quarantine records are part of the deterministic final
            # store state; wall-clock durations are zeroed so --jobs 1
            # and --jobs 8 leave byte-identical records.
            record = failure.to_dict()
            record["duration"] = 0.0
            record["quarantined"] = True
            store.put_failure(task.fp, descriptor, record)
            failure.quarantined = True
        self.outcome.failures.append(failure)
        if (policy.max_failures is not None
                and len(self.outcome.failures) > policy.max_failures):
            self.aborted = True
            self.outcome.aborted = True
        self._report_progress(name, ok=False)
        return None

    def _cell_name(self, task: _Task) -> str:
        return task.base[0].name

    def _report_progress(self, name: str, ok: bool) -> None:
        if self.progress is not None:
            self.progress(self.outcome.resolved, self.outcome.total,
                          name, ok)


# -- serial path -----------------------------------------------------------

def _run_serial(tasks: list[_Task], collector: _Collector) -> None:
    # Per-cell seeding must not leak into the caller's RNG stream: the
    # parent's random state is identical whether cells ran here or in
    # worker processes.
    policy = collector.policy
    rng_state = random.getstate()
    queue = deque(tasks)
    try:
        while queue and not collector.aborted:
            task = queue.popleft()
            delay = task.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            fp, name, mode, result = _execute_payload(
                task.payload(policy))
            follow = collector.on_result(task, fp, name, mode, result)
            if follow is not None:
                queue.append(follow)
    except KeyboardInterrupt:
        raise SweepInterrupted(collector.outcome) from None
    finally:
        random.setstate(rng_state)


# -- pooled path -----------------------------------------------------------

class _Worker:
    """One worker process plus its dispatch bookkeeping."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main,
                                   args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.task: _Task | None = None
        self.deadline: float | None = None

    def assign(self, task: _Task, policy: ExecutionPolicy) -> None:
        self.task = task
        self.deadline = (None if policy.timeout is None
                         else time.monotonic() + policy.timeout)
        self.conn.send(task.payload(policy))

    def overdue(self, now: float) -> bool:
        return (self.task is not None and self.deadline is not None
                and now >= self.deadline)

    def stop(self) -> None:
        """Graceful shutdown of an idle worker."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()

    def kill(self) -> None:
        """Hard kill (hung or obsolete worker)."""
        self.process.kill()
        self.process.join()
        self.conn.close()


def _next_ready(pending: deque, now: float) -> _Task | None:
    """Pop the first task whose backoff gate has opened."""
    for _ in range(len(pending)):
        task = pending.popleft()
        if task.not_before <= now:
            return task
        pending.append(task)
    return None


def _poll_timeout(workers: list[_Worker], pending: deque,
                  now: float) -> float:
    """How long the dispatch loop may sleep in ``connection.wait``."""
    horizon = 0.5
    for worker in workers:
        if worker.task is not None and worker.deadline is not None:
            horizon = min(horizon, worker.deadline - now)
    for task in pending:
        if task.not_before > now:
            horizon = min(horizon, task.not_before - now)
    return max(horizon, 0.0)


def _run_pooled(tasks: list[_Task], jobs: int,
                collector: _Collector) -> None:
    policy = collector.policy
    ctx = multiprocessing.get_context()
    pending = deque(tasks)
    workers = [_Worker(ctx) for _ in range(jobs)]

    def _resolve(worker: _Worker, follow: _Task | None) -> None:
        worker.task = None
        worker.deadline = None
        if follow is not None:
            pending.append(follow)

    def _replace(index: int) -> None:
        workers[index].kill()
        workers[index] = _Worker(ctx)

    try:
        while not collector.aborted:
            now = time.monotonic()
            for worker in workers:
                if worker.task is None:
                    task = _next_ready(pending, now)
                    if task is None:
                        break
                    worker.assign(task, policy)
            busy = [w for w in workers if w.task is not None]
            if not busy:
                if not pending:
                    break
                # Every outstanding task is backing off; sleep until
                # the earliest gate opens.
                gate = min(task.not_before for task in pending)
                time.sleep(max(gate - time.monotonic(), 0.0))
                continue

            sources: dict[object, _Worker] = {}
            for worker in busy:
                sources[worker.conn] = worker
                sources[worker.process.sentinel] = worker
            ready = multiprocessing.connection.wait(
                list(sources), timeout=_poll_timeout(workers, pending,
                                                     now))
            touched = []
            for source in ready:
                worker = sources[source]
                if worker not in touched:
                    touched.append(worker)
            for worker in touched:
                if worker.task is None:
                    continue
                if worker.conn.poll():
                    try:
                        result = worker.conn.recv()
                    except (EOFError, OSError):
                        result = None
                    if result is not None:
                        task = worker.task
                        fp, name, mode, outcome, counts = result
                        COUNTS.update(counts)
                        _resolve(worker, collector.on_result(
                            task, fp, name, mode, outcome))
                        continue
                if not worker.process.is_alive():
                    # Died without a result: OOM kill, segfault, or an
                    # injected "kill" fault.  Record, respawn, move on.
                    task = worker.task
                    exitcode = worker.process.exitcode
                    follow = collector.on_worker_death(task, exitcode)
                    index = workers.index(worker)
                    _replace(index)
                    workers[index].task = None
                    if follow is not None:
                        pending.append(follow)

            now = time.monotonic()
            for index, worker in enumerate(workers):
                if worker.overdue(now):
                    task = worker.task
                    follow = collector.on_timeout(task)
                    _replace(index)
                    if follow is not None:
                        pending.append(follow)
    except KeyboardInterrupt:
        for worker in workers:
            worker.kill()
        workers = []
        raise SweepInterrupted(collector.outcome) from None
    finally:
        for worker in workers:
            if worker.task is None:
                worker.stop()
            else:
                worker.kill()


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _payload_base(cell) -> tuple:
    descriptor = cell.descriptor()
    return (fingerprint(descriptor),
            (cell.spec, cell.mode, cell.config, descriptor["engine"]))


def run_cells(cells: Iterable, jobs: int = 1,
              progress: ProgressFn | None = None,
              policy: ExecutionPolicy | None = None) -> RunOutcome:
    """Simulate *cells* with *jobs* worker processes under *policy*.

    Each successful result is installed into the run cache (and the
    configured store) as soon as it resolves; each permanent failure
    becomes a :class:`~repro.harness.failures.CellFailure` (quarantined
    in the store when one is configured).  The final state is
    independent of completion order because installs, retries, and
    quarantine decisions are all keyed by content fingerprint.  Cells
    already resident in the cache or store should be filtered out by
    the caller (see :func:`repro.harness.sweep.run_sweep`); any
    duplicates passed here are collapsed by fingerprint.

    Raises :class:`~repro.harness.failures.SweepInterrupted` (a
    ``KeyboardInterrupt`` subclass carrying the partial outcome) on
    Ctrl-C; everything resolved before the interrupt is already
    installed.
    """
    policy = policy or _DEFAULT_POLICY
    by_fp: dict[str, tuple] = {}
    for cell in cells:
        fp, base = _payload_base(cell)
        by_fp.setdefault(fp, (cell, base))
    outcome = RunOutcome(total=len(by_fp))
    if not by_fp:
        return outcome
    tasks = [_Task(fp, entry[0].kind, entry[1])
             for fp, entry in sorted(by_fp.items())]
    descriptors = {
        fp: entry[0].descriptor() for fp, entry in by_fp.items()}

    collector = _Collector(descriptors, policy, progress, outcome)
    if jobs <= 1 and not policy.needs_isolation():
        _run_serial(tasks, collector)
    else:
        _run_pooled(tasks, min(max(jobs, 1), len(tasks)), collector)
    return outcome
