"""Supervised worker pool: crash detection, re-queue, bounded respawn.

``multiprocessing.Pool`` assumes workers are immortal: a worker killed
mid-task (OOM killer, segfault, operator ``kill -9``) either hangs
``pool.map`` forever or loses the task silently.  Campaign shards are
too expensive to lose and too deterministic to need loose semantics, so
:class:`SupervisedPool` trades generality for supervision:

* every worker owns a **private task pipe and result pipe** and holds
  at most **one task in flight** — when a worker dies the parent knows
  *exactly* which task died with it and re-queues that one task,
  nothing else.  Per-worker pipes (instead of one shared result queue)
  mean a worker killed mid-write corrupts only its own channel, which
  the parent reads to EOF and discards — there is no shared lock or
  feeder thread a dying worker can poison for its siblings;
* liveness is tracked from both sides: ``Process.is_alive``/exit codes
  catch crashes, message timestamps act as heartbeats, and a parent-side
  backstop ``SIGKILL``s workers stuck past twice the task deadline
  (covering hangs in C extensions that ``SIGALRM`` cannot interrupt);
* dead workers are **respawned** against a bounded budget with
  exponential backoff; when the budget runs out the pool degrades to
  in-process sequential execution with a one-line warning — the run
  completes either way;
* a task overrunning its wall-clock deadline (worker-side
  :func:`~repro.exec.deadline.time_limit`) is retried on a fresh worker
  up to *max_retries* times, then **quarantined** — reported as a
  failure, never silently dropped;
* teardown is deliberate: ``KeyboardInterrupt`` (or any error) tears
  workers down with terminate → join → kill → join, so no zombies
  outlive the pool.

Tasks must be independent and deterministic — the pool may execute a
task twice when a worker dies between completing it and the parent
reading the result, and it deduplicates by task index on the assumption
both executions agree.  That is exactly the campaign contract.

Chaos hook: setting ``REPRO_CHAOS_KILL`` to a probability makes every
worker ``os._exit(42)`` with that probability on each task receipt —
the supervision path is then exercised for real by the test suite and
the CI resilience-smoke job.

Two driving modes share the same supervision machinery:

* :meth:`SupervisedPool.run` — the original batch mode: a fixed task
  list in, results out, used by fault campaigns;
* the **stream mode** (:meth:`start_stream` / :meth:`submit_stream` /
  :meth:`pump` / :meth:`cancel_stream` / :meth:`stop_stream`) — tasks
  arrive one at a time over the pool's lifetime and completions are
  delivered through callbacks, which is what a long-lived job server
  (``repro serve``) needs.  Stream tasks may additionally emit
  progress **events**: a session exposing ``bind_emitter(emit)`` gets
  a callable that ships any JSON-able payload back to the parent's
  ``on_event`` callback while the task is still running.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import random
import signal
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.exec.deadline import DeadlineExceeded, time_limit

#: Environment variable enabling the chaos-kill hook (a probability).
CHAOS_ENV = "REPRO_CHAOS_KILL"

#: Exit code of a chaos-killed worker (distinguishable in reap logs).
_CHAOS_EXIT = 42

_POLL_S = 0.02
_JOIN_GRACE_S = 2.0


class PoolError(RuntimeError):
    """The pool cannot make progress (broken factory, failed task)."""


class TaskPickleError(PoolError):
    """The session factory does not survive the start method's pickling."""


class MetaMismatchError(PoolError):
    """Two workers disagree on session metadata (non-deterministic setup)."""


def _fresh_stats(jobs: int) -> dict[str, int]:
    return {
        "jobs": jobs,
        "respawns": 0,
        "crashes": 0,
        "crash_requeues": 0,
        "timeouts": 0,
        "timeout_retries": 0,
        "quarantined": 0,
        "hung_kills": 0,
        "init_errors": 0,
        "fallback": 0,
        "inline_tasks": 0,
        "cancel_kills": 0,
    }


def _task_label(session: Any, idx: int, task: Any) -> str:
    """How deadline messages name *task*: the session's ``label(task)``
    when it defines one, else the task's index."""
    label = getattr(session, "label", None)
    return label(task) if callable(label) else f"task[{idx}]"


def _worker_main(worker_id: int, session_factory: Callable[[], Any],
                 task_conn, result_conn, task_timeout: float | None,
                 chaos_p: float) -> None:
    """Worker loop: build the session once, then run tasks until sentinel.

    The parent owns interrupt handling; workers ignore ``SIGINT`` so a
    Ctrl-C reaches only the supervisor, which tears them down in order.
    Every message leads with ``(kind, worker_id, ...)``; all traffic
    rides this worker's private pipes, so nothing this worker does —
    including dying mid-send — can stall another worker.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    rng = random.Random(os.getpid())

    def send(msg: tuple) -> None:
        try:
            result_conn.send(msg)
        except (BrokenPipeError, OSError):  # pragma: no cover
            os._exit(1)  # parent is gone: die quietly, not noisily

    t0 = time.perf_counter()
    try:
        session = session_factory()
    except BaseException as exc:
        send(("init_error", worker_id, f"{type(exc).__name__}: {exc}"))
        return
    # Stream-mode progress feed: a session exposing ``bind_emitter``
    # gets a callable shipping JSON-able payloads to the parent's
    # ``on_event`` callback, tagged with the task index in flight.
    current_idx: list[Any] = [None]
    bind = getattr(session, "bind_emitter", None)
    if callable(bind):
        bind(lambda payload: send(("event", worker_id, current_idx[0],
                                   payload)))
    send(("ready", worker_id, getattr(session, "meta", None),
          time.perf_counter() - t0))
    tasks = 0
    busy_s = 0.0
    while True:
        try:
            item = task_conn.recv()
        except (EOFError, OSError):
            return  # parent is gone: nothing useful left to do
        if item is None:
            break
        idx, payload = item
        current_idx[0] = idx
        if chaos_p and rng.random() < chaos_p:
            os._exit(_CHAOS_EXIT)  # simulated hard crash: no cleanup at all
        start = time.perf_counter()
        try:
            with time_limit(task_timeout,
                            label=_task_label(session, idx, payload)):
                value = session.run(payload)
        except DeadlineExceeded as exc:
            send(("timeout", worker_id, idx, str(exc)))
        except BaseException as exc:
            send(("task_error", worker_id, idx,
                  f"{type(exc).__name__}: {exc}"))
        else:
            tasks += 1
            busy_s += time.perf_counter() - start
            send(("ok", worker_id, idx, value))
    stats = getattr(session, "stats", None)
    send(("bye", worker_id, {
        "tasks": tasks,
        "busy_s": busy_s,
        "sim_stats": stats() if callable(stats) else None,
    }))


@dataclass
class _Worker:
    """Parent-side view of one worker process."""

    id: int
    process: Any
    task_conn: Any
    result_conn: Any
    started: float
    ready: bool = False
    retiring: bool = False
    broken: bool = False
    eof: bool = False
    inflight: int | None = None
    dispatched_at: float = 0.0
    last_beat: float = 0.0
    golden_s: float | None = None
    tasks: int = 0
    summary: dict[str, Any] | None = None
    recorded: bool = False


@dataclass
class PoolOutcome:
    """Everything one :meth:`SupervisedPool.run` produced."""

    results: dict[int, Any]
    failures: dict[int, dict[str, str]]
    meta: Any
    stats: dict[str, int] = field(default_factory=dict)


class SupervisedPool:
    """Run independent tasks on supervised worker processes.

    Parameters
    ----------
    session_factory:
        Zero-argument callable building the per-worker session: an
        object with a ``run(task)`` method, an optional ``meta``
        attribute (checked for cross-worker consistency) and an
        optional ``stats()`` method (rolled into worker trace spans).
        Must be picklable under non-fork start methods.
    jobs:
        Worker process count; ``jobs <= 1`` runs everything in-process.
    task_timeout:
        Per-task wall-clock deadline in seconds (``None`` disables).
    max_retries:
        How many times a timed-out task is retried on a fresh worker
        before quarantine.
    max_respawns:
        Total respawn budget; default ``8 + 4 * jobs``.  When spent,
        remaining work degrades to in-process execution.
    start_method:
        Explicit multiprocessing start method; default fork-preferred.
    tracer:
        Optional :class:`repro.obs.Tracer`; each worker's lifetime is
        recorded as a ``worker[n]`` span under the caller's open span.
    """

    def __init__(self, session_factory: Callable[[], Any], jobs: int, *,
                 task_timeout: float | None = None, max_retries: int = 1,
                 max_respawns: int | None = None,
                 start_method: str | None = None,
                 backoff_s: float = 0.02, tracer=None) -> None:
        from repro.obs.profiler import NULL_TRACER

        self.session_factory = session_factory
        self.jobs = max(1, int(jobs))
        self.task_timeout = task_timeout
        self.max_retries = max(0, int(max_retries))
        self.max_respawns = (8 + 4 * self.jobs if max_respawns is None
                             else max(0, int(max_respawns)))
        self.start_method = start_method
        self.backoff_s = backoff_s
        self.tracer = tracer or NULL_TRACER
        self.chaos_p = float(os.environ.get(CHAOS_ENV) or 0.0)
        self.stats = _fresh_stats(self.jobs)
        self._workers: dict[int, _Worker] = {}
        self._next_id = 0
        self._respawns = 0
        self._meta: Any = None
        self._meta_seen = False
        self._ctx = None
        self._stream: dict[str, Any] | None = None
        self._on_event: Callable[[int, Any], None] | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Any], *,
            on_result: Callable[[int, Any], None] | None = None,
            on_meta: Callable[[Any], None] | None = None) -> PoolOutcome:
        """Run every task; returns results/failures keyed by task index.

        *on_result* fires exactly once per task index as its result
        becomes durable in the parent (the campaign journals there);
        *on_meta* fires once with the first session's metadata and may
        raise to abort the run (e.g. resume-consistency checks).  With
        at most one task, or ``jobs <= 1``, the tasks run in-process on
        one session — built even for an empty task list, so *on_meta*
        always fires.
        """
        self.stats = _fresh_stats(self.jobs)
        self._meta = None
        self._meta_seen = False
        self._respawns = 0
        results: dict[int, Any] = {}
        failures: dict[int, dict[str, str]] = {}
        retries: dict[int, int] = {}
        tasks = list(tasks)
        if self.jobs <= 1 or len(tasks) <= 1:
            self._run_inline(tasks, range(len(tasks)), results, failures,
                             retries, on_result, on_meta)
            return PoolOutcome(results, failures, self._meta, self.stats)
        try:
            self._supervise(tasks, results, failures, retries,
                            on_result, on_meta)
        except BaseException:
            self._shutdown(force=True)
            raise
        self._shutdown(force=False)
        return PoolOutcome(results, failures, self._meta, self.stats)

    # ------------------------------------------------------------------
    # stream mode (long-lived servers)
    # ------------------------------------------------------------------
    def start_stream(self, *,
                     on_result: Callable[[int, Any], None],
                     on_failure: Callable[[int, Mapping[str, str]], None],
                     on_event: Callable[[int, Any], None] | None = None,
                     on_meta: Callable[[Any], None] | None = None) -> bool:
        """Spawn workers for open-ended task submission.

        Returns ``False`` when process workers are unavailable
        (``jobs <= 1``, no start method, unpicklable factory, spawn
        failure) — the caller then runs tasks itself.  On ``True``,
        feed tasks via :meth:`submit_stream`, drive delivery with
        :meth:`pump`, and finish with :meth:`stop_stream`.  Exactly one
        of *on_result* / *on_failure* fires per submitted index (unless
        the index is cancelled first); *on_event* relays worker-side
        progress payloads as ``(idx, payload)`` while tasks run.
        """
        self.stats = _fresh_stats(self.jobs)
        self._meta = None
        self._meta_seen = False
        self._respawns = 0
        if self.jobs <= 1:
            return False
        try:
            self._ctx = self._context()
        except ValueError:
            return False
        if self._ctx.get_start_method() != "fork":
            try:
                pickle.dumps(self.session_factory)
            except Exception:
                return False
        self._on_event = on_event
        self._stream = {
            "tasks": {},        # idx -> payload (pruned once resolved)
            "pending": deque(),
            "results": {},      # idx -> None tombstone after delivery
            "failures": {},
            "retries": {},
            "reported": set(),
            "on_result": on_result,
            "on_failure": on_failure,
            "on_meta": on_meta,
        }
        for _ in range(self.jobs):
            self._spawn()
        if not self._workers:
            self._stream = None
            self._on_event = None
            return False
        return True

    def submit_stream(self, idx: int, task: Any) -> None:
        """Queue one task under a caller-chosen unique index."""
        stream = self._stream
        if stream is None:
            raise PoolError("submit_stream outside an active stream")
        stream["tasks"][idx] = task
        stream["pending"].append(idx)

    def pump(self, block: bool = False) -> int:
        """Dispatch, collect and deliver; returns unresolved task count.

        Call in a loop (``block=True`` waits one poll interval for
        worker traffic).  All callbacks fire on the pumping thread.
        """
        stream = self._stream
        if stream is None:
            return 0
        results, failures = stream["results"], stream["failures"]
        pending, retries = stream["pending"], stream["retries"]
        unresolved = any(idx not in results and idx not in failures
                         for idx in pending)
        if unresolved and not self._workers:
            if self._spawn(respawn=True) is None:
                self._degrade_stream()
        self._dispatch(stream["tasks"], pending, results, failures)
        msg = self._poll(block=block)
        while msg is not None:
            self._handle(msg, results, failures, pending, retries,
                         self._deliver_result, stream["on_meta"])
            msg = self._poll(block=False)
        self._reap(pending, results, failures, retries,
                   self._deliver_result, stream["on_meta"])
        self._deliver_failures()
        return len(stream["tasks"])

    def cancel_stream(self, idx: int) -> bool:
        """Abandon one task: drop it if queued, kill its worker if not.

        Returns ``False`` when the index is unknown or already
        resolved.  A killed worker is replaced outside the respawn
        budget — cancellation is an orderly operation, not a crash.
        """
        stream = self._stream
        if stream is None:
            return False
        if idx not in stream["tasks"]:
            return False
        if idx in stream["results"] or idx in stream["failures"]:
            return False
        stream["failures"][idx] = {"error": "cancelled",
                                   "detail": "cancelled by caller"}
        stream["reported"].add(idx)
        stream["tasks"].pop(idx, None)
        for worker in list(self._workers.values()):
            if worker.inflight != idx:
                continue
            worker.process.kill()
            worker.process.join()
            self._record_worker(worker)
            self._close_conns(worker)
            del self._workers[worker.id]
            self.stats["cancel_kills"] += 1
            self._spawn()
            break
        return True

    def stop_stream(self) -> None:
        """Tear the stream's workers down (graceful, then forceful)."""
        if self._stream is None:
            return
        try:
            self._shutdown(force=False)
        finally:
            self._stream = None
            self._on_event = None

    def _deliver_result(self, idx: int, value: Any) -> None:
        stream = self._stream
        if idx in stream["reported"]:
            return
        stream["reported"].add(idx)
        stream["tasks"].pop(idx, None)
        stream["on_result"](idx, value)
        # Keep a tombstone so duplicate/late messages stay resolved,
        # but drop the payload — the stream may live for days.
        stream["results"][idx] = None

    def _deliver_failures(self) -> None:
        stream = self._stream
        for idx, info in list(stream["failures"].items()):
            if idx in stream["reported"]:
                continue
            stream["reported"].add(idx)
            stream["tasks"].pop(idx, None)
            stream["on_failure"](idx, info)

    def _degrade_stream(self) -> None:
        """Workers are gone for good: fail whatever is still queued."""
        stream = self._stream
        self.stats["fallback"] = 1
        sys.stderr.write(
            "repro: supervised pool stream degraded: respawn budget "
            "spent; failing queued tasks back to the caller\n"
        )
        for idx in stream["pending"]:
            if idx in stream["results"] or idx in stream["failures"]:
                continue
            stream["failures"][idx] = {
                "error": "degraded",
                "detail": "worker pool exhausted its respawn budget",
            }
        stream["pending"].clear()

    # ------------------------------------------------------------------
    # supervised execution
    # ------------------------------------------------------------------
    def _supervise(self, tasks, results, failures, retries,
                   on_result, on_meta) -> None:
        total = len(tasks)
        try:
            self._ctx = self._context()
        except ValueError as exc:
            self._degrade(f"no usable start method ({exc})", tasks,
                          range(total), results, failures, retries,
                          on_result, on_meta)
            return
        if self._ctx.get_start_method() != "fork":
            try:
                pickle.dumps(self.session_factory)
            except Exception as exc:
                raise TaskPickleError(
                    "session factory does not pickle under the "
                    f"{self._ctx.get_start_method()!r} start method: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        for _ in range(min(self.jobs, total)):
            self._spawn()
        pending: deque[int] = deque(range(total))
        while len(results) + len(failures) < total:
            if not self._workers:
                if self._spawn(respawn=True) is None:
                    self._degrade(
                        "no workers left and the respawn budget is spent",
                        tasks, range(total), results, failures, retries,
                        on_result, on_meta,
                    )
                    return
            self._dispatch(tasks, pending, results, failures)
            msg = self._poll(block=True)
            while msg is not None:
                self._handle(msg, results, failures, pending, retries,
                             on_result, on_meta)
                msg = self._poll(block=False)
            self._reap(pending, results, failures, retries,
                       on_result, on_meta)

    def _context(self):
        if self.start_method:
            return multiprocessing.get_context(self.start_method)
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context("spawn")

    def _spawn(self, respawn: bool = False) -> _Worker | None:
        if respawn:
            if self._respawns >= self.max_respawns:
                return None
            self._respawns += 1
            self.stats["respawns"] += 1
            # Exponential backoff: a crashing environment (OOM, chaos
            # storms) gets breathing room instead of a fork bomb.
            time.sleep(min(1.0, self.backoff_s * 2 ** min(self._respawns, 6)))
        wid = self._next_id
        self._next_id += 1
        task_recv, task_send = self._ctx.Pipe(duplex=False)
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(wid, self.session_factory, task_recv, result_send,
                  self.task_timeout, self.chaos_p),
            daemon=True,
        )
        try:
            process.start()
        except OSError:
            return None
        # Close the child's pipe ends in the parent so a dead child
        # shows up as EOF on result_recv instead of an eternal block.
        task_recv.close()
        result_send.close()
        worker = _Worker(wid, process, task_send, result_recv,
                         started=time.monotonic())
        self._workers[wid] = worker
        return worker

    def _dispatch(self, tasks, pending, results, failures) -> None:
        for worker in self._workers.values():
            if (not worker.ready or worker.retiring or worker.broken
                    or worker.inflight is not None
                    or not worker.process.is_alive()):
                continue
            idx = None
            while pending:
                candidate = pending.popleft()
                if candidate in results or candidate in failures:
                    continue  # resolved while re-queued
                idx = candidate
                break
            if idx is None:
                return
            worker.inflight = idx
            worker.dispatched_at = time.monotonic()
            try:
                worker.task_conn.send((idx, tasks[idx]))
            except (BrokenPipeError, OSError, ValueError):
                worker.inflight = None
                pending.appendleft(idx)

    def _poll(self, block: bool) -> tuple | None:
        """Read one message from whichever worker pipe is ready.

        A connection at EOF (its worker died) is flagged and skipped on
        later polls; :meth:`_reap` handles the corpse.  Per-worker pipes
        mean one worker's death can never stall another's channel.
        """
        conns = {worker.result_conn: worker
                 for worker in self._workers.values() if not worker.eof}
        if not conns:
            if block:
                time.sleep(_POLL_S)
            return None
        timeout = _POLL_S if block else 0
        for conn in multiprocessing.connection.wait(list(conns), timeout):
            try:
                return conn.recv()
            except (EOFError, OSError):
                conns[conn].eof = True
        return None

    def _handle(self, msg, results, failures, pending, retries,
                on_result, on_meta) -> None:
        kind, wid = msg[0], msg[1]
        worker = self._workers.get(wid)
        if worker is not None:
            worker.last_beat = time.monotonic()
        if kind == "ready":
            if worker is not None:
                worker.ready = True
                worker.golden_s = msg[3]
            self._check_meta(msg[2], on_meta)
        elif kind == "ok":
            idx, value = msg[2], msg[3]
            if worker is not None and worker.inflight == idx:
                worker.inflight = None
                worker.tasks += 1
            if idx in results or idx in failures:
                return  # duplicate: crashed worker's task already redone
            results[idx] = value
            if on_result is not None:
                on_result(idx, value)
        elif kind == "timeout":
            idx = msg[2]
            if worker is not None and worker.inflight == idx:
                worker.inflight = None
            self.stats["timeouts"] += 1
            self._after_timeout(idx, msg[3], results, failures, pending,
                                retries)
            if worker is not None:
                self._retire(worker)
        elif kind == "event":
            if self._on_event is not None and msg[2] is not None:
                self._on_event(msg[2], msg[3])
        elif kind == "task_error":
            if self._stream is not None:
                # A long-lived server must outlive one bad job: record
                # the failure against the task and keep the worker.
                idx = msg[2]
                if worker is not None and worker.inflight == idx:
                    worker.inflight = None
                if idx not in results and idx not in failures:
                    failures[idx] = {"error": "task_error",
                                     "detail": str(msg[3])}
                return
            raise PoolError(f"worker task {msg[2]} failed: {msg[3]}")
        elif kind == "init_error":
            # The factory raised in the child.  Don't respawn a doomed
            # worker; if every worker breaks this way the main loop
            # degrades to in-process, where the real traceback surfaces.
            self.stats["init_errors"] += 1
            if worker is not None:
                worker.broken = True
                worker.retiring = True
        elif kind == "bye":
            if worker is not None:
                worker.summary = msg[2]
                worker.inflight = None

    def _check_meta(self, meta, on_meta) -> None:
        if not self._meta_seen:
            self._meta = meta
            self._meta_seen = True
            if on_meta is not None:
                on_meta(meta)
        elif meta != self._meta:
            raise MetaMismatchError(
                f"workers disagree on session metadata ({meta!r} != "
                f"{self._meta!r}); the session factory is not "
                "deterministic across processes"
            )

    def _after_timeout(self, idx, detail, results, failures, pending,
                       retries) -> None:
        if idx in results or idx in failures:
            return
        attempts = retries.get(idx, 0)
        if attempts < self.max_retries:
            retries[idx] = attempts + 1
            self.stats["timeout_retries"] += 1
            pending.appendleft(idx)
        else:
            failures[idx] = {"error": "timed_out", "detail": str(detail)}
            self.stats["quarantined"] += 1

    def _retire(self, worker: _Worker) -> None:
        """Stop giving a worker tasks and replace it with a fresh one."""
        if worker.retiring:
            return
        worker.retiring = True
        try:
            worker.task_conn.send(None)
        except (BrokenPipeError, OSError, ValueError):  # pragma: no cover
            pass
        self._spawn(respawn=True)

    def _drain_conn(self, worker, results, failures, pending, retries,
                    on_result, on_meta) -> None:
        """Read out everything a (dead) worker managed to send."""
        while not worker.eof:
            try:
                if not worker.result_conn.poll(0):
                    return
                msg = worker.result_conn.recv()
            except (EOFError, OSError):
                worker.eof = True
                return
            self._handle(msg, results, failures, pending, retries,
                         on_result, on_meta)

    def _close_conns(self, worker: _Worker) -> None:
        for conn in (worker.task_conn, worker.result_conn):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _reap(self, pending, results, failures, retries,
              on_result, on_meta) -> None:
        now = time.monotonic()
        for wid, worker in list(self._workers.items()):
            process = worker.process
            if not process.is_alive():
                process.join()
                # A worker may die (or exit) with results still in its
                # pipe; those are real, durable work — read them before
                # judging the corpse, or a crash just after an "ok"
                # send would re-run (harmless) or miscount the task.
                self._drain_conn(worker, results, failures, pending,
                                 retries, on_result, on_meta)
                self._record_worker(worker)
                self._close_conns(worker)
                del self._workers[wid]
                clean = (process.exitcode == 0 and worker.inflight is None
                         and (worker.retiring or worker.summary is not None))
                if clean or worker.broken:
                    continue
                self.stats["crashes"] += 1
                idx = worker.inflight
                if (idx is not None and idx not in results
                        and idx not in failures):
                    pending.appendleft(idx)
                    self.stats["crash_requeues"] += 1
                self._spawn(respawn=True)
            elif (self.task_timeout is not None
                    and worker.inflight is not None
                    and now - worker.dispatched_at
                    > self.task_timeout * 2 + _JOIN_GRACE_S):
                # Backstop for hangs SIGALRM can't interrupt (C loops).
                process.kill()
                process.join()
                self._record_worker(worker)
                self._close_conns(worker)
                del self._workers[wid]
                self.stats["hung_kills"] += 1
                self.stats["timeouts"] += 1
                self._after_timeout(
                    worker.inflight,
                    f"worker hung past {self.task_timeout * 2:.1f}s "
                    "backstop and was killed",
                    results, failures, pending, retries,
                )
                self._spawn(respawn=True)

    # ------------------------------------------------------------------
    # inline (degraded / jobs=1) execution
    # ------------------------------------------------------------------
    def _run_inline(self, tasks, indices, results, failures, retries,
                    on_result, on_meta) -> Any:
        """Run the unresolved *indices* on one in-process session.

        Returns the session; a ``jobs <= 1`` caller owns it and reads
        its ``stats()`` itself, so no rollup span is recorded here.
        """
        session = self.session_factory()
        self._check_meta(getattr(session, "meta", None), on_meta)
        for idx in indices:
            if idx in results or idx in failures:
                continue
            while True:
                try:
                    with time_limit(self.task_timeout,
                                    label=_task_label(session, idx,
                                                      tasks[idx])):
                        value = session.run(tasks[idx])
                except DeadlineExceeded as exc:
                    self.stats["timeouts"] += 1
                    attempts = retries.get(idx, 0)
                    if attempts < self.max_retries:
                        retries[idx] = attempts + 1
                        self.stats["timeout_retries"] += 1
                        continue
                    failures[idx] = {"error": "timed_out",
                                     "detail": str(exc)}
                    self.stats["quarantined"] += 1
                    break
                else:
                    self.stats["inline_tasks"] += 1
                    results[idx] = value
                    if on_result is not None:
                        on_result(idx, value)
                    break
        return session

    def _degrade(self, reason: str, tasks, indices, results, failures,
                 retries, on_result, on_meta) -> None:
        """Workers are gone for good: finish *indices* in-process.

        The in-process session's counters stand in for the worker
        rollups as one ``inline`` span.
        """
        self.stats["fallback"] = 1
        sys.stderr.write(
            f"repro: supervised pool degraded to in-process execution: "
            f"{reason}\n"
        )
        self._shutdown(force=True)
        session = self._run_inline(tasks, indices, results, failures,
                                   retries, on_result, on_meta)
        stats = getattr(session, "stats", None)
        summary = stats() if callable(stats) else None
        if summary is not None:
            self.tracer.record("inline", 0.0, sim_stats=summary)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _record_worker(self, worker: _Worker) -> None:
        if worker.recorded:
            return
        worker.recorded = True
        summary = worker.summary or {}
        self.tracer.record(
            f"worker[{worker.id}]",
            time.monotonic() - worker.started,
            tasks=summary.get("tasks", worker.tasks),
            busy_s=round(summary.get("busy_s", 0.0), 6),
            golden_s=(round(worker.golden_s, 6)
                      if worker.golden_s is not None else None),
            exitcode=worker.process.exitcode,
            sim_stats=summary.get("sim_stats"),
        )

    def _shutdown(self, force: bool) -> None:
        """Tear every worker down; guarantee no process outlives us.

        Graceful path: sentinel each worker, drain their ``bye``
        summaries briefly, join.  Either path ends in terminate → join
        → kill → join for whatever is still alive, so an interrupted
        campaign (the KeyboardInterrupt regression) leaves no zombies.
        """
        workers = list(self._workers.values())
        if not force and workers:
            for worker in workers:
                try:
                    worker.task_conn.send(None)
                except (BrokenPipeError, OSError, ValueError):
                    pass
            deadline = time.monotonic() + _JOIN_GRACE_S
            while (time.monotonic() < deadline
                   and any(w.summary is None and w.process.is_alive()
                           for w in workers)):
                msg = self._poll(block=True)
                if msg and msg[0] == "bye":
                    for worker in workers:
                        if worker.id == msg[1]:
                            worker.summary = msg[2]
            for worker in workers:
                worker.process.join(max(0.0, deadline - time.monotonic()))
        self._workers.clear()
        for worker in workers:
            process = worker.process
            if process.is_alive():
                process.terminate()
                process.join(_JOIN_GRACE_S)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join()
            self._record_worker(worker)
            self._close_conns(worker)
