"""Job scheduling for ``repro serve``: queue, coalescing, one executor.

The :class:`Scheduler` owns every job the server has seen.  Its three
responsibilities:

**Lifecycle.**  Jobs move ``queued → running → done | failed |
cancelled``; every transition appends a sequenced event to the job's
event log, which the ``/jobs/<id>/events`` long-poll endpoint streams.
While a job runs, its profiler spans close into the same log (via
:class:`repro.obs.Tracer`'s ``on_close`` hook, relayed through the
pool's event feed), so clients watch stages finish live.

**Coalescing.**  Submissions are keyed by
:meth:`~repro.serve.jobs.JobSpec.fingerprint`.  While a job for a
fingerprint is queued or running, an identical submission attaches to
it instead of enqueuing a duplicate — both clients poll the same job id
and read the same bytes, and the underlying stages compute once (the
dedup tests assert this through the store's stage counters).
``force=True`` opts a submission out of coalescing in both directions:
it neither joins an active job nor becomes a target for later ones.

**Execution.**  Every job runs on one
:class:`repro.exec.SupervisedPool` stream, driven by one pump thread.
With ``workers >= 2`` the pool runs jobs on supervised worker
processes: crash supervision, ``SIGALRM`` deadlines and cancel-by-kill
come from the same machinery fault campaigns use.  With fewer workers,
or once the pool degrades (no usable start method, spent respawn
budget), the same loop runs jobs in-process on the pump thread through
the same :class:`JobSession`; cancel and ``--job-timeout`` then take
effect at the next stage boundary, through the guard the pool binds.
On either executor a job that overruns its deadline ends ``cancelled``
with an error naming the deadline.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from typing import Any, Callable, Mapping

from repro.exec.deadline import DeadlineExceeded
from repro.exec.pool import POLL_S, SupervisedPool, TaskCancelled
from repro.obs.profiler import Tracer
from repro.store import ArtifactStore

from repro.serve.jobs import (
    JobSpec,
    make_spec,
    run_job,
    span_event,
)

#: States a job can rest in (no further transitions).
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Per-job event log cap; beyond it events are counted, not stored.
MAX_EVENTS = 1000


class SchedulerClosed(RuntimeError):
    """Submission refused: the scheduler is draining or stopped."""


class Job:
    """One submission's full lifecycle record (scheduler-internal)."""

    __slots__ = ("id", "spec", "fingerprint", "force", "state",
                 "submitted_at", "started_at", "finished_at", "payload",
                 "error", "events", "event_seq", "events_dropped",
                 "dedup_count", "use_journal", "idx")

    def __init__(self, job_id: str, spec: JobSpec, force: bool,
                 use_journal: bool) -> None:
        self.id = job_id
        self.spec = spec
        self.fingerprint = spec.fingerprint()
        self.force = force
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.payload: dict[str, Any] | None = None
        self.error: str | None = None
        self.events: list[dict[str, Any]] = []
        self.event_seq = 0
        self.events_dropped = 0
        self.dedup_count = 0
        self.use_journal = use_journal
        self.idx: int | None = None  # stream index while on the pool

    def as_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "id": self.id,
            "kind": self.spec.kind,
            "params": dict(self.spec.params),
            "fingerprint": self.fingerprint,
            "state": self.state,
            "submitted_at": round(self.submitted_at, 3),
            "dedup_count": self.dedup_count,
        }
        if self.started_at is not None:
            doc["started_at"] = round(self.started_at, 3)
        if self.finished_at is not None:
            doc["finished_at"] = round(self.finished_at, 3)
        if self.error is not None:
            doc["error"] = self.error
        return doc


class JobSession:
    """The pool session every served job runs on (picklable).

    Worker processes build it from the store root and open their own
    :class:`ArtifactStore` handle on first use (flock arbitration keeps
    handles coherent); the in-process executor presets :attr:`store`
    to the server's own.  Jobs run through
    :func:`repro.serve.jobs.run_job`.  Their exceptions become
    ``{"ok": False}`` results — a bad job must never look like a worker
    crash to the supervisor — except the pool's deadline and cancel
    exceptions, which the pool turns into the job's outcome.
    ``bind_emitter`` wires a per-job tracer whose closing spans stream
    back as progress events; ``bind_guard`` (in-process only) threads
    the pool's cancel and deadline check into every stage.
    """

    def __init__(self, store_root: str | None) -> None:
        self.store_root = store_root
        self.meta = {"session": "repro-serve", "store": store_root}
        self.store: ArtifactStore | None = None
        self._emit: Callable[[Any], None] | None = None
        self._guard: Callable[[str], None] | None = None

    def bind_emitter(self, emit: Callable[[Any], None]) -> None:
        self._emit = emit

    def bind_guard(self, check: Callable[[str], None]) -> None:
        self._guard = check

    @staticmethod
    def label(task: tuple[str, dict[str, Any], bool]) -> str:
        """How deadline messages name a job: ``build job``."""
        return f"{task[0]} job"

    def run(self, task: tuple[str, dict[str, Any], bool]) -> dict[str, Any]:
        kind, params, use_journal = task
        if self.store_root is not None and self.store is None:
            self.store = ArtifactStore(self.store_root)
        tracer = None
        emit = self._emit
        if emit is not None:
            tracer = Tracer(f"job:{kind}",
                            on_close=lambda span: emit(span_event(span)))
        try:
            payload = run_job(make_spec(kind, params), store=self.store,
                              tracer=tracer, guard=self._guard,
                              use_journal=use_journal)
        except (DeadlineExceeded, TaskCancelled):
            raise
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            return {"ok": False,
                    "error": f"{type(exc).__name__}: {exc}"}
        return {"ok": True, "payload": payload}


class Scheduler:
    """Queue + coalescing + executor behind the serve endpoints.

    Parameters
    ----------
    store:
        The shared design library, or ``None`` to run uncached.
    workers:
        ``>= 2`` runs jobs on supervised worker processes; ``0``/``1``
        runs them in-process on the pump thread, sharing *store*.
    job_timeout:
        Per-job wall-clock deadline in seconds.  Enforced exactly on
        worker processes (``SIGALRM``); at stage boundaries in-process
        (the pool's guard, ``SIGALRM`` being main-thread-only).  An
        overrun job ends ``cancelled``.
    """

    def __init__(self, store: ArtifactStore | None, workers: int = 2,
                 job_timeout: float | None = None) -> None:
        self.store = store
        self.workers = max(0, int(workers))
        self.job_timeout = job_timeout
        self.mode = "stopped"
        self.started_at = time.time()
        self.counters = {"submitted": 0, "deduped": 0, "completed": 0,
                         "failed": 0, "cancelled": 0}
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._by_fp: dict[str, str] = {}
        self._queue: deque[str] = deque()
        self._idx_jobs: dict[int, str] = {}
        self._next_id = 1
        self._next_idx = 0
        self._draining = False
        self._stopped = False
        # Lock order: the pool's lock (held while its callbacks fire),
        # then _cond; never the other way round.
        self._pool: SupervisedPool | None = None
        self._pump_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # startup
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring the pool and its pump thread up.  Call before serving
        HTTP traffic — process workers fork here, while the process is
        still single-threaded."""
        root = str(self.store.root) if self.store is not None else None
        session = None
        if self.workers < 2:
            # In-process jobs share the server's store object, counters
            # included.  Workers (and a degraded pool) open their own.
            session = JobSession(root)
            session.store = self.store
        pool = SupervisedPool(
            functools.partial(JobSession, root) if session is None
            else (lambda: session),
            jobs=self.workers,
            task_timeout=self.job_timeout,
            max_retries=0,  # jobs are too big to silently re-run
        )
        pool.start_stream(on_result=self._on_pool_result,
                          on_failure=self._on_pool_failure,
                          on_event=self._on_pool_event)
        self._pool = pool
        self.mode = "process" if self.workers >= 2 else "thread"
        self._pump_thread = threading.Thread(
            target=self._pump_loop, name="serve-pump", daemon=True)
        self._pump_thread.start()

    # ------------------------------------------------------------------
    # submission / queries
    # ------------------------------------------------------------------
    def submit(self, kind: str, params: Mapping[str, Any] | None = None,
               force: bool = False) -> tuple[Job, bool]:
        """Validate, coalesce or enqueue; returns ``(job, deduped)``."""
        spec = make_spec(kind, params)
        fingerprint = spec.fingerprint()
        with self._cond:
            if self._draining or self._stopped:
                raise SchedulerClosed(
                    "the server is shutting down and accepts no new jobs")
            if not force:
                active = self._by_fp.get(fingerprint)
                if active is not None:
                    job = self._jobs[active]
                    job.dedup_count += 1
                    self.counters["deduped"] += 1
                    self._append_event(job, {"kind": "coalesced"})
                    return job, True
            job = Job(f"j{self._next_id:06d}", spec, force,
                      use_journal=(self.store is not None and not force
                                   and kind == "inject"))
            self._next_id += 1
            self._jobs[job.id] = job
            self._order.append(job.id)
            if not force:
                self._by_fp[fingerprint] = job.id
            self._queue.append(job.id)
            self.counters["submitted"] += 1
            self._append_event(job, {"kind": "queued"})
            self._cond.notify_all()
            return job, False

    def get(self, job_id: str) -> Job:
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            return job

    def list_jobs(self) -> list[dict[str, Any]]:
        with self._cond:
            return [self._jobs[job_id].as_dict() for job_id in self._order]

    def wait_result(self, job_id: str, wait_s: float = 0.0) -> Job:
        """Block until the job is terminal or *wait_s* elapses."""
        deadline = time.monotonic() + max(0.0, wait_s)
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            while job.state not in TERMINAL_STATES:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(0.2, remaining))
            return job

    def events_since(self, job_id: str, since: int = 0,
                     wait_s: float = 0.0) -> dict[str, Any]:
        """Long-poll the job's event log from sequence *since*."""
        deadline = time.monotonic() + max(0.0, wait_s)
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            while True:
                events = [event for event in job.events
                          if event["seq"] >= since]
                if events or job.state in TERMINAL_STATES:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(0.2, remaining))
            return {"state": job.state, "events": events,
                    "next": job.event_seq, "dropped": job.events_dropped}

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns ``False`` when it is already terminal.

        The job ends ``cancelled`` at once.  A queued job never starts.
        A running one is cancelled on the pool: its worker process is
        killed (and replaced outside the respawn budget), or its
        in-process run stops at the next stage boundary.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.state in TERMINAL_STATES:
                return False
            pool, idx = self._pool, job.idx
            if idx is not None:
                self._idx_jobs.pop(idx, None)
            self._finish(job, "cancelled", error="cancelled")
        if pool is not None and idx is not None:
            pool.cancel_stream(idx)
        return True

    def stats(self) -> dict[str, Any]:
        with self._cond:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            doc: dict[str, Any] = {
                "mode": self.mode,
                "workers": self.workers,
                "draining": self._draining,
                "counters": dict(self.counters),
                "jobs": states,
            }
            pool = self._pool
        if pool is not None:
            doc["pool"] = dict(pool.stats)
        if self.store is not None:
            doc["store"] = self.store.counter_totals()
        return doc

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse new submissions from now on."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def drain(self, grace_s: float) -> int:
        """Wait up to *grace_s* for in-flight jobs, then cancel the rest.

        Returns how many jobs had to be cancelled.  Inject jobs keep
        their campaign journal either way, so a resubmission after
        restart resumes from the checkpoint instead of starting over.
        """
        self.begin_drain()
        deadline = time.monotonic() + max(0.0, grace_s)
        with self._cond:
            while any(job.state not in TERMINAL_STATES
                      for job in self._jobs.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(0.2, remaining))
            leftover = [job.id for job in self._jobs.values()
                        if job.state not in TERMINAL_STATES]
        for job_id in leftover:
            self.cancel(job_id)
        return len(leftover)

    def stop(self) -> None:
        """Tear the executor down (pump thread, then the pool)."""
        with self._cond:
            self._stopped = True
            self._draining = True
            self._cond.notify_all()
        pump = self._pump_thread
        if pump is not None:
            pump.join(timeout=5.0)
        with self._cond:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.stop_stream()
        self.mode = "stopped"

    # ------------------------------------------------------------------
    # the executor (one supervised pool stream)
    # ------------------------------------------------------------------
    def _pump_loop(self) -> None:
        pool = self._pool
        slots = max(1, self.workers)
        while True:
            batch: list[tuple[int, tuple]] = []
            with self._cond:
                # Idle, wait on _cond (submit, cancel and stop notify
                # it) rather than in the pool, so a new job starts at
                # once; the pool is still pumped every interval.
                idle = not self._queue and not self._idx_jobs
                if idle:
                    self._cond.wait(POLL_S)
                if self._stopped:
                    return
                # Hand the pool only what it can start, so "running"
                # means running and queued jobs stay cancellable here.
                while self._queue and len(self._idx_jobs) < slots:
                    job = self._jobs[self._queue.popleft()]
                    if job.state != "queued":
                        continue
                    job.idx = self._next_idx
                    self._next_idx += 1
                    self._idx_jobs[job.idx] = job.id
                    self._mark_running(job)
                    batch.append((job.idx, (job.spec.kind,
                                            dict(job.spec.params),
                                            job.use_journal)))
            for idx, task in batch:
                pool.submit_stream(idx, task)
            if batch:
                # A cancel that landed before its submission found no
                # task to stop; stop it now.
                with self._cond:
                    gone = [idx for idx, _ in batch
                            if idx not in self._idx_jobs]
                for idx in gone:
                    pool.cancel_stream(idx)
            pool.pump(block=not idle)

    def _pool_job(self, idx: int) -> Job | None:
        job_id = self._idx_jobs.pop(idx, None)
        return self._jobs.get(job_id) if job_id is not None else None

    def _on_pool_result(self, idx: int, value: dict[str, Any]) -> None:
        with self._cond:
            job = self._pool_job(idx)
            if job is None or job.state != "running":
                return
            if value.get("ok"):
                self._finish(job, "done", payload=value["payload"])
            else:
                self._finish(job, "failed",
                             error=str(value.get("error", "job failed")))

    def _on_pool_failure(self, idx: int, info: Mapping[str, Any]) -> None:
        kind = info.get("error", "failed")
        detail = info.get("detail", "")
        with self._cond:
            job = self._pool_job(idx)
            if job is None or job.state in TERMINAL_STATES:
                return
            # An overrun deadline is the server cancelling the job.
            self._finish(job, "cancelled" if kind == "timed_out"
                         else "failed",
                         error=f"{kind}: {detail}" if detail else kind)

    def _on_pool_event(self, idx: int, payload: Any) -> None:
        with self._cond:
            job_id = self._idx_jobs.get(idx)
            job = self._jobs.get(job_id) if job_id is not None else None
            if job is None or not isinstance(payload, dict):
                return
            self._append_event(job, dict(payload))

    # ------------------------------------------------------------------
    # shared internals (always called with _cond held)
    # ------------------------------------------------------------------
    def _mark_running(self, job: Job) -> None:
        job.state = "running"
        job.started_at = time.time()
        self._append_event(job, {"kind": "running"})

    def _finish(self, job: Job, state: str, payload: Any = None,
                error: str | None = None) -> None:
        if job.state in TERMINAL_STATES:
            return
        job.state = state
        job.finished_at = time.time()
        job.payload = payload
        job.error = error
        if self._by_fp.get(job.fingerprint) == job.id:
            del self._by_fp[job.fingerprint]
        key = {"done": "completed", "failed": "failed",
               "cancelled": "cancelled"}[state]
        self.counters[key] += 1
        event: dict[str, Any] = {"kind": state}
        if error:
            event["error"] = error
        self._append_event(job, event)
        self._cond.notify_all()

    def _append_event(self, job: Job, event: dict[str, Any]) -> None:
        if len(job.events) >= MAX_EVENTS:
            job.events_dropped += 1
        else:
            event["seq"] = job.event_seq
            job.events.append(event)
        job.event_seq += 1
        self._cond.notify_all()
