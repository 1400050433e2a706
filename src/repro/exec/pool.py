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
  outlive the pool; a parent killed outright (``SIGKILL``) leaves no
  idle worker behind either.

Tasks must be independent and deterministic — the pool may execute a
task twice when a worker dies between completing it and the parent
reading the result, and it deduplicates by task index on the assumption
both executions agree.  That is exactly the campaign contract.

Chaos hook: setting ``REPRO_CHAOS_KILL`` to a probability makes every
worker ``os._exit(42)`` with that probability on each task receipt —
the supervision path is then exercised for real by the test suite and
the CI resilience-smoke job.

One loop, :meth:`SupervisedPool.pump`, supervises everything.  The
stream calls (:meth:`start_stream` / :meth:`submit_stream` /
:meth:`pump` / :meth:`cancel_stream` / :meth:`stop_stream`) expose it
to callers whose tasks arrive one at a time over the pool's lifetime,
such as the ``repro serve`` job server; :meth:`SupervisedPool.run`,
the fault campaigns' batch entry point, is a stream drained to
completion.  Completions arrive through callbacks on the pumping
thread.  A session exposing ``bind_emitter(emit)`` gets a callable
that ships JSON-able progress payloads to the ``on_event`` callback
while its task is still running.

With ``jobs <= 1``, or once the pool degrades, the same loop runs
tasks in-process on the pumping thread, one per :meth:`pump` call.
``SIGALRM`` deadlines work only on the main thread, so a session
exposing ``bind_guard(check)`` gets a check to call at its own stage
boundaries: it raises :class:`DeadlineExceeded` past the task
deadline and :class:`TaskCancelled` once :meth:`cancel_stream` hits the
running task.  The pool's lock guards its state, so the stream calls
are safe from any thread; :meth:`pump` releases it while an in-process
task runs and while it waits for worker traffic.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import random
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.exec.deadline import DeadlineExceeded, time_limit

#: Environment variable enabling the chaos-kill hook (a probability).
CHAOS_ENV = "REPRO_CHAOS_KILL"

#: Exit code of a chaos-killed worker (distinguishable in reap logs).
_CHAOS_EXIT = 42

#: One supervision interval: how long a blocking :meth:`SupervisedPool
#: .pump` waits for worker traffic.
POLL_S = 0.02
_JOIN_GRACE_S = 2.0


class PoolError(RuntimeError):
    """The pool cannot make progress (broken factory, failed task)."""


class TaskPickleError(PoolError):
    """The session factory does not survive the start method's pickling."""


class MetaMismatchError(PoolError):
    """Two workers disagree on session metadata (non-deterministic setup)."""


class TaskCancelled(RuntimeError):
    """Raised by an in-process task's guard once the task is cancelled.

    Like :class:`DeadlineExceeded`, deliberately outside every flow's
    recoverable-error tuple (e.g. :data:`repro.dse.evaluate.POINT_ERRORS`)
    and not a :class:`PoolError`, so a cancelled job unwinds instead of
    being recorded as a failed design point.
    """


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


def _wait(conns: list) -> None:
    """Wait up to one poll interval for traffic on *conns*."""
    if not conns:
        time.sleep(POLL_S)
        return
    try:
        multiprocessing.connection.wait(conns, POLL_S)
    except (OSError, ValueError):
        pass  # another thread's cancel closed one; the next poll sees why


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
    # Progress feed: a session exposing ``bind_emitter`` gets a callable
    # shipping JSON-able payloads to the parent's ``on_event`` callback,
    # tagged with the task index in flight.
    current_idx: list[Any] = [None]
    bind = getattr(session, "bind_emitter", None)
    if callable(bind):
        bind(lambda payload: send(("event", worker_id, current_idx[0],
                                   payload)))
    send(("ready", worker_id, getattr(session, "meta", None),
          time.perf_counter() - t0))
    # The parent's death never shows as EOF on the task pipe: under fork
    # this worker and every later sibling hold copies of its write end.
    # So an idle worker also watches the parent's sentinel.
    watched = [task_conn, multiprocessing.parent_process().sentinel]
    tasks = 0
    busy_s = 0.0
    while True:
        try:
            if task_conn not in multiprocessing.connection.wait(watched):
                return  # only the parent's sentinel fired
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
        # Lock order: this lock, then whatever the callbacks take.
        self._lock = threading.Lock()
        self._streaming = False
        self._workers: dict[int, _Worker] = {}
        self._next_id = 0
        self._respawns = 0
        self._meta: Any = None
        self._meta_seen = False
        self._ctx = None
        self._tasks: dict[int, Any] = {}  # unresolved: idx -> payload
        self._pending: deque[int] = deque()
        self._retries: dict[int, int] = {}
        self._session: Any = None  # set while running in-process
        # The in-process task running now: (idx, label, deadline).
        self._current: tuple[int, str, float | None] | None = None
        # Stream callbacks, set by start_stream / run.
        self._on_result = self._on_failure = None
        self._on_event = self._on_meta = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Any], *,
            on_result: Callable[[int, Any], None] | None = None,
            on_meta: Callable[[Any], None] | None = None) -> PoolOutcome:
        """Run every task; returns results/failures keyed by task index.

        A stream drained to completion.  *on_result* fires exactly once
        per task index as its result becomes durable in the parent (the
        campaign journals there); *on_meta* fires once with the first
        session's metadata and may raise to abort the run (e.g.
        resume-consistency checks).  With at most one task, or
        ``jobs <= 1``, the tasks run in-process on one session — built
        even for an empty task list, so *on_meta* always fires.  A task
        raising in a worker fails the run with :class:`PoolError`; one
        raising in-process propagates unchanged.
        """
        tasks = list(tasks)
        results: dict[int, Any] = {}
        failures: dict[int, dict[str, str]] = {}

        def keep(idx: int, value: Any) -> None:
            results[idx] = value
            if on_result is not None:
                on_result(idx, value)

        def fail(idx: int, info: Mapping[str, Any]) -> None:
            if info["error"] != "task_error":
                failures[idx] = dict(info)
            elif "exception" in info:
                raise info["exception"]
            else:
                raise PoolError(f"worker task {idx} failed: "
                                f"{info['detail']}")

        try:
            self._start(min(self.jobs, len(tasks)), keep, fail, None,
                        on_meta)
            for idx, task in enumerate(tasks):
                self.submit_stream(idx, task)
            while self._tasks:
                self.pump(block=True)
        except BaseException:
            self._stop(force=True)
            raise
        self.stop_stream()
        return PoolOutcome(results, failures, self._meta, self.stats)

    def start_stream(self, *,
                     on_result: Callable[[int, Any], None],
                     on_failure: Callable[[int, Mapping[str, Any]], None],
                     on_event: Callable[[int, Any], None] | None = None,
                     on_meta: Callable[[Any], None] | None = None) -> None:
        """Open the pool for open-ended task submission.

        Spawns the workers (or, with ``jobs <= 1``, builds the
        in-process session).  Feed tasks via :meth:`submit_stream`,
        drive delivery with :meth:`pump`, and finish with
        :meth:`stop_stream`.  Exactly one of *on_result* / *on_failure*
        fires per submitted index, unless the index is cancelled first;
        a failure is ``{"error": kind, "detail": text}`` with kind
        ``task_error`` or ``timed_out``.  *on_event* relays session
        progress payloads as ``(idx, payload)`` while tasks run.
        Raises :class:`TaskPickleError` when the session factory does
        not pickle under a non-fork start method.
        """
        self._start(self.jobs, on_result, on_failure, on_event, on_meta)

    def submit_stream(self, idx: int, task: Any) -> None:
        """Queue one task under a caller-chosen unique index."""
        with self._lock:
            if not self._streaming:
                raise PoolError("submit_stream outside an active stream")
            self._tasks[idx] = task
            self._pending.append(idx)

    def pump(self, block: bool = False) -> int:
        """Dispatch, collect and deliver; returns the unresolved count.

        The pool's only supervision loop; call it until it returns 0.
        In-process, each call runs one queued task; with workers,
        ``block=True`` waits one poll interval for their traffic.  All
        callbacks fire on the pumping thread.
        """
        with self._lock:
            if not self._streaming:
                return 0
            if (self._session is None and self._tasks and not self._workers
                    and self._spawn(respawn=True) is None):
                self._fall_back("no workers left and the respawn budget is "
                                "spent")
            session = self._session
            if session is not None:
                task = self._pick(session)
            else:
                self._dispatch()
                conns = [worker.result_conn
                         for worker in self._workers.values()
                         if not worker.eof]
        if session is not None:
            if self._current is not None:
                self._run_current(session, task)
            elif block:
                time.sleep(POLL_S)
            return len(self._tasks)
        if block:
            _wait(conns)
        with self._lock:
            msg = self._poll(block=False)
            while msg is not None:
                self._handle(msg)
                msg = self._poll(block=False)
            self._reap()
            return len(self._tasks)

    def cancel_stream(self, idx: int) -> bool:
        """Abandon one task: drop it if queued, stop it if running.

        Returns ``False`` when the index is unknown or already
        resolved; no callback fires for a cancelled index.  A worker
        running the task is killed and replaced outside the respawn
        budget — cancellation is an orderly operation, not a crash.  An
        in-process task stops at its guard's next check.
        """
        with self._lock:
            if idx not in self._tasks:
                return False
            del self._tasks[idx]
            for worker in list(self._workers.values()):
                if worker.inflight == idx:
                    self._kill(worker)
                    self.stats["cancel_kills"] += 1
                    self._spawn()
            return True

    def stop_stream(self) -> None:
        """Tear the stream down (workers graceful, then forceful)."""
        self._stop(force=False)

    # ------------------------------------------------------------------
    # stream lifecycle
    # ------------------------------------------------------------------
    def _start(self, workers: int, on_result, on_failure, on_event,
               on_meta) -> None:
        """Open the stream on *workers* processes (in-process if <= 1)."""
        ctx = reason = None
        if workers > 1:
            try:
                ctx = self._context()
            except ValueError as exc:
                reason = f"no usable start method ({exc})"
            else:
                if ctx.get_start_method() != "fork":
                    try:
                        pickle.dumps(self.session_factory)
                    except Exception as exc:
                        raise TaskPickleError(
                            "session factory does not pickle under the "
                            f"{ctx.get_start_method()!r} start method: "
                            f"{type(exc).__name__}: {exc}"
                        ) from exc
        with self._lock:
            self.stats = _fresh_stats(self.jobs)
            self._meta = None
            self._meta_seen = False
            self._respawns = 0
            self._tasks, self._pending, self._retries = {}, deque(), {}
            self._on_result, self._on_failure = on_result, on_failure
            self._on_event, self._on_meta = on_event, on_meta
            self._ctx = ctx
            self._streaming = True
            if reason is not None:
                self._fall_back(reason)
            elif ctx is None:
                self._open_session()
            else:
                for _ in range(workers):
                    self._spawn()

    def _stop(self, force: bool) -> None:
        with self._lock:
            if not self._streaming:
                return
            self._streaming = False
            self._tasks.clear()  # an in-process task still running stops
            session, self._session = self._session, None
            self._shutdown(force=force)
            stats = getattr(session, "stats", None)
            summary = (stats() if self.stats["fallback"] and callable(stats)
                       else None)
            if summary is not None:
                # The in-process session's counters stand in for the
                # worker rollups it replaced.
                self.tracer.record("inline", 0.0, sim_stats=summary)

    def _fall_back(self, reason: str) -> None:
        """Workers are gone for good: finish everything in-process."""
        self.stats["fallback"] = 1
        sys.stderr.write(
            f"repro: supervised pool degraded to in-process execution: "
            f"{reason}\n"
        )
        self._open_session()

    # ------------------------------------------------------------------
    # in-process execution (jobs <= 1, or degraded)
    # ------------------------------------------------------------------
    def _open_session(self) -> None:
        """Build the in-process session; :meth:`pump` runs tasks on it.

        With ``jobs <= 1`` the caller owns the session and reads its
        ``stats()`` itself, so only a degraded pool records a rollup.
        """
        session = self.session_factory()
        bind = getattr(session, "bind_emitter", None)
        if callable(bind):
            bind(self._emit)
        bind = getattr(session, "bind_guard", None)
        if callable(bind):
            bind(self._guard)
        self._session = session
        self._check_meta(getattr(session, "meta", None))

    def _pick(self, session: Any) -> Any:
        """Make the next queued task current; returns its payload."""
        idx = self._next_pending()
        if idx is None:
            return None
        task = self._tasks[idx]
        self._current = (idx, _task_label(session, idx, task),
                         time.monotonic() + self.task_timeout
                         if self.task_timeout else None)
        return task

    def _run_current(self, session: Any, task: Any) -> None:
        """Run the task :meth:`pump` picked, with the lock released."""
        idx, label, _ = self._current
        try:
            with time_limit(self.task_timeout, label=label):
                value = session.run(task)
        except DeadlineExceeded as exc:
            if self.task_timeout is None:
                raise  # an enclosing deadline, not this pool's
            with self._lock:
                self.stats["timeouts"] += 1
                self._after_timeout(idx, str(exc))
        except TaskCancelled:
            pass  # cancel_stream already resolved the index
        except Exception as exc:
            with self._lock:
                self._resolve(idx, self._on_failure, {
                    "error": "task_error",
                    "detail": f"{type(exc).__name__}: {exc}",
                    "exception": exc,
                })
        else:
            with self._lock:
                self.stats["inline_tasks"] += 1
                self._resolve(idx, self._on_result, value)
        finally:
            self._current = None

    def _emit(self, payload: Any) -> None:
        """``bind_emitter`` callable of the in-process session."""
        current = self._current
        if self._on_event is not None and current is not None:
            self._on_event(current[0], payload)

    def _guard(self, stage: str) -> None:
        """``bind_guard`` check: stop a cancelled or overdue task."""
        idx, label, deadline = self._current
        if idx not in self._tasks:
            raise TaskCancelled(f"{label} cancelled before stage {stage!r}")
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded(
                f"{label} exceeded its {self.task_timeout}s deadline")

    # ------------------------------------------------------------------
    # resolution (lock held)
    # ------------------------------------------------------------------
    def _next_pending(self) -> int | None:
        while self._pending:
            idx = self._pending.popleft()
            if idx in self._tasks:
                return idx
        return None  # skipped indices were resolved while queued

    def _resolve(self, idx: int, callback, outcome: Any) -> None:
        """Fire *callback* once for *idx*; drop a late duplicate (a
        crashed worker's task redone) or a cancelled index."""
        if idx in self._tasks:
            del self._tasks[idx]
            callback(idx, outcome)

    def _after_timeout(self, idx: int, detail: str) -> None:
        if idx not in self._tasks:
            return
        attempts = self._retries.get(idx, 0)
        if attempts < self.max_retries:
            self._retries[idx] = attempts + 1
            self.stats["timeout_retries"] += 1
            self._pending.appendleft(idx)
        else:
            self.stats["quarantined"] += 1
            self._resolve(idx, self._on_failure,
                          {"error": "timed_out", "detail": detail})

    def _check_meta(self, meta) -> None:
        if not self._meta_seen:
            self._meta = meta
            self._meta_seen = True
            if self._on_meta is not None:
                self._on_meta(meta)
        elif meta != self._meta:
            raise MetaMismatchError(
                f"workers disagree on session metadata ({meta!r} != "
                f"{self._meta!r}); the session factory is not "
                "deterministic across processes"
            )

    # ------------------------------------------------------------------
    # worker supervision (lock held)
    # ------------------------------------------------------------------
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

    def _dispatch(self) -> None:
        for worker in self._workers.values():
            if (not worker.ready or worker.retiring or worker.broken
                    or worker.inflight is not None
                    or not worker.process.is_alive()):
                continue
            idx = self._next_pending()
            if idx is None:
                return
            worker.inflight = idx
            worker.dispatched_at = time.monotonic()
            try:
                worker.task_conn.send((idx, self._tasks[idx]))
            except (BrokenPipeError, OSError, ValueError):
                worker.inflight = None
                self._pending.appendleft(idx)

    def _poll(self, block: bool) -> tuple | None:
        """Read one message from whichever worker pipe is ready.

        A connection at EOF (its worker died) is flagged and skipped on
        later polls; :meth:`_reap` handles the corpse.  Per-worker pipes
        mean one worker's death can never stall another's channel.
        """
        conns = {worker.result_conn: worker
                 for worker in self._workers.values() if not worker.eof}
        if block:
            _wait(list(conns))
        for conn in multiprocessing.connection.wait(list(conns), 0):
            try:
                return conn.recv()
            except (EOFError, OSError):
                conns[conn].eof = True
        return None

    def _handle(self, msg) -> None:
        kind, wid = msg[0], msg[1]
        worker = self._workers.get(wid)
        if worker is not None:
            worker.last_beat = time.monotonic()
        if kind == "ready":
            if worker is not None:
                worker.ready = True
                worker.golden_s = msg[3]
            self._check_meta(msg[2])
        elif kind == "ok":
            idx = msg[2]
            if worker is not None and worker.inflight == idx:
                worker.inflight = None
                worker.tasks += 1
            self._resolve(idx, self._on_result, msg[3])
        elif kind == "timeout":
            idx = msg[2]
            if worker is not None and worker.inflight == idx:
                worker.inflight = None
            self.stats["timeouts"] += 1
            self._after_timeout(idx, str(msg[3]))
            if worker is not None:
                self._retire(worker)
        elif kind == "event":
            if self._on_event is not None and msg[2] is not None:
                self._on_event(msg[2], msg[3])
        elif kind == "task_error":
            # Record the failure against the task and keep the worker: a
            # long-lived server must outlive one bad job.
            idx = msg[2]
            if worker is not None and worker.inflight == idx:
                worker.inflight = None
            self._resolve(idx, self._on_failure,
                          {"error": "task_error", "detail": str(msg[3])})
        elif kind == "init_error":
            # The factory raised in the child.  Don't respawn a doomed
            # worker; if every worker breaks this way the pool degrades
            # to in-process, where the real traceback surfaces.
            self.stats["init_errors"] += 1
            if worker is not None:
                worker.broken = True
                worker.retiring = True
        elif kind == "bye":
            if worker is not None:
                worker.summary = msg[2]
                worker.inflight = None

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

    def _drain_conn(self, worker: _Worker) -> None:
        """Read out everything a (dead) worker managed to send."""
        while not worker.eof:
            try:
                if not worker.result_conn.poll(0):
                    return
                msg = worker.result_conn.recv()
            except (EOFError, OSError):
                worker.eof = True
                return
            self._handle(msg)

    def _kill(self, worker: _Worker) -> None:
        """SIGKILL a worker and forget it; the caller decides what next."""
        worker.process.kill()
        worker.process.join()
        self._record_worker(worker)
        self._close_conns(worker)
        del self._workers[worker.id]

    def _close_conns(self, worker: _Worker) -> None:
        for conn in (worker.task_conn, worker.result_conn):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _reap(self) -> None:
        now = time.monotonic()
        for wid, worker in list(self._workers.items()):
            process = worker.process
            if not process.is_alive():
                process.join()
                # A worker may die (or exit) with results still in its
                # pipe; those are real, durable work — read them before
                # judging the corpse, or a crash just after an "ok"
                # send would re-run (harmless) or miscount the task.
                self._drain_conn(worker)
                self._record_worker(worker)
                self._close_conns(worker)
                del self._workers[wid]
                clean = (process.exitcode == 0 and worker.inflight is None
                         and (worker.retiring or worker.summary is not None))
                if clean or worker.broken:
                    continue
                self.stats["crashes"] += 1
                idx = worker.inflight
                if idx is not None and idx in self._tasks:
                    self._pending.appendleft(idx)
                    self.stats["crash_requeues"] += 1
                self._spawn(respawn=True)
            elif (self.task_timeout is not None
                    and worker.inflight is not None
                    and now - worker.dispatched_at
                    > self.task_timeout * 2 + _JOIN_GRACE_S):
                # Backstop for hangs SIGALRM can't interrupt (C loops).
                self._kill(worker)
                self.stats["hung_kills"] += 1
                self.stats["timeouts"] += 1
                self._after_timeout(
                    worker.inflight,
                    f"worker hung past {self.task_timeout * 2:.1f}s "
                    "backstop and was killed",
                )
                self._spawn(respawn=True)

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
