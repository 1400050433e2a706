"""The scheduler behaves the same on both executors.

Each case runs with ``workers=1`` (jobs run in-process on the pool's
pump thread) and ``workers=2`` (jobs run on supervised worker
processes).  The ``run_job`` stubs are patched in before
``Scheduler.start``, so forked workers inherit them; they call
``guard`` only when given one, because worker processes get none.
"""

import statistics
import time

import pytest

from repro.exec import CHAOS_ENV, SupervisedPool
from repro.serve.jobs import make_spec, render_result, run_job
from repro.serve.scheduler import Scheduler
from repro.store import ArtifactStore


def wait_for(predicate, timeout_s=30.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    pytest.fail("condition not reached in time")


def traced(spec, store=None, tracer=None, guard=None, use_journal=False):
    """A quick job with one stage span."""
    with tracer.span("synthesize"):
        pass
    return {"flows": [spec.params["flow"]]}


def explode(spec, **kwargs):
    raise ValueError("synthetic failure")


def crawl(spec, store=None, tracer=None, guard=None, use_journal=False):
    """~30 s of stage boundaries, unless cancelled or out of time."""
    with tracer.span("started"):
        pass
    for _ in range(600):
        if guard is not None:
            guard("synthesize")
        time.sleep(0.05)
    return {"flows": []}


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


@pytest.fixture(params=[1, 2])
def workers(request):
    return request.param


def started(store, workers, **kwargs):
    scheduler = Scheduler(store, workers=workers, **kwargs)
    scheduler.start()
    assert scheduler.mode == ("process" if workers >= 2 else "thread")
    return scheduler


def has_span(job):
    return any(event["kind"] == "span" for event in list(job.events))


class TestBothExecutors:
    def test_job_done_with_span_events(self, store, workers, monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.run_job", traced)
        scheduler = started(store, workers)
        try:
            job, _ = scheduler.submit("build", {"flow": "osss"})
            done = scheduler.wait_result(job.id, wait_s=30.0)
            assert done.state == "done"
            assert done.payload == {"flows": ["osss"]}
            assert has_span(done)
            assert [event["kind"] for event in done.events
                    if event["kind"] != "span"] == [
                        "queued", "running", "done"]
        finally:
            scheduler.stop()

    def test_failed_job_reports_its_exception(self, store, workers,
                                              monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.run_job", explode)
        scheduler = started(store, workers)
        try:
            job, _ = scheduler.submit("build", {"flow": "osss"})
            done = scheduler.wait_result(job.id, wait_s=30.0)
            assert done.state == "failed"
            assert done.error == "ValueError: synthetic failure"
        finally:
            scheduler.stop()

    def test_cancel_of_a_running_job_returns_at_once(self, store, workers,
                                                     monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.run_job", crawl)
        scheduler = started(store, workers)
        try:
            job, _ = scheduler.submit("build", {"flow": "osss"})
            wait_for(lambda: has_span(job))  # the job is really running
            t0 = time.monotonic()
            assert scheduler.cancel(job.id)
            assert time.monotonic() - t0 < 0.25
            assert job.state == "cancelled"
            if workers >= 2:
                assert scheduler.stats()["pool"]["cancel_kills"] == 1
            # The executor is free for the next job.
            nxt, _ = scheduler.submit("build", {"flow": "vhdl"})
            wait_for(lambda: has_span(nxt))
            assert scheduler.cancel(nxt.id)
        finally:
            scheduler.stop()

    def test_job_timeout_ends_cancelled(self, store, workers, monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.run_job", crawl)
        scheduler = started(store, workers, job_timeout=0.3)
        try:
            job, _ = scheduler.submit("build", {"flow": "osss"})
            done = scheduler.wait_result(job.id, wait_s=30.0)
            assert done.state == "cancelled"
            assert done.error == ("timed_out: build job exceeded its 0.3s "
                                  "deadline")
            pool = scheduler.stats()["pool"]
            assert pool["timeouts"] == 1
            assert pool["quarantined"] == 1
        finally:
            scheduler.stop()

    def test_job_submitted_while_idle_starts_at_once(self, store, workers,
                                                     monkeypatch):
        # An idle pump thread must not sit out a pool poll interval
        # (20 ms) before it starts a new job.
        monkeypatch.setattr("repro.serve.scheduler.run_job", traced)
        scheduler = started(store, workers)
        try:
            waits = []
            for _ in range(8):
                job, _ = scheduler.submit("build", {"flow": "osss"},
                                          force=True)
                done = scheduler.wait_result(job.id, wait_s=30.0)
                assert done.state == "done"
                waits.append(done.started_at - done.submitted_at)
            assert statistics.median(waits) < 0.005, waits
        finally:
            scheduler.stop()


class TestDegrade:
    def test_mid_stream_degrade_finishes_the_job_in_process(
            self, store, monkeypatch):
        # Every worker dies on its first task and none is replaced, so
        # the pool degrades while the job is queued on it.
        monkeypatch.setenv(CHAOS_ENV, "1.0")
        spawn = SupervisedPool._spawn
        monkeypatch.setattr(
            SupervisedPool, "_spawn",
            lambda self, respawn=False: None if respawn else spawn(self))
        scheduler = started(store, 2)
        try:
            job, _ = scheduler.submit("build", {"flow": "osss"})
            done = scheduler.wait_result(job.id, wait_s=300.0)
            assert done.state == "done"
            assert has_span(done)
            pool = scheduler.stats()["pool"]
            assert pool["fallback"] == 1
            assert pool["crashes"] == 2
            assert pool["inline_tasks"] == 1
        finally:
            scheduler.stop()
        direct = run_job(make_spec("build", {"flow": "osss"}), store=store)
        assert render_result("build", done.payload) == \
            render_result("build", direct)
