"""Stream mode of the supervised pool (the ``repro serve`` executor).

Batch mode is covered by ``test_pool.py``; here the open-ended API:
tasks trickle in over the pool's lifetime, completions arrive through
callbacks, tasks can be cancelled (queued or in flight), a failing
task becomes a reported failure instead of killing the pool, and
worker-side sessions stream progress events while a task runs.
"""

import collections
import multiprocessing
import sys
import threading
import time

import pytest

from repro.exec.pool import SupervisedPool


class EchoSession:
    """Doubles integers; optionally emits progress events."""

    meta = {"session": "echo"}

    def __init__(self):
        self._emit = None

    def bind_emitter(self, emit):
        self._emit = emit

    def run(self, task):
        kind, value = task
        if kind == "boom":
            raise ValueError(f"bad task {value}")
        if kind == "sleep":
            time.sleep(value)
            return value
        if kind == "event":
            self._emit({"progress": value})
            return value * 2
        return value * 2


class Collector:
    """Callback sink for one stream run."""

    def __init__(self):
        self.results = {}
        self.failures = {}
        self.events = []

    def on_result(self, idx, value):
        self.results[idx] = value

    def on_failure(self, idx, info):
        self.failures[idx] = info

    def on_event(self, idx, payload):
        self.events.append((idx, payload))


def pump_until(pool, predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        pool.pump(block=True)
        if predicate():
            return
    pytest.fail("stream did not reach the expected state in time")


@pytest.fixture
def stream():
    pool = SupervisedPool(EchoSession, jobs=2)
    sink = Collector()
    pool.start_stream(on_result=sink.on_result,
                      on_failure=sink.on_failure,
                      on_event=sink.on_event)
    yield pool, sink
    pool.stop_stream()


class TestStreamBasics:
    def test_results_delivered_incrementally(self, stream):
        pool, sink = stream
        for idx in range(5):
            pool.submit_stream(idx, ("echo", idx))
        pump_until(pool, lambda: len(sink.results) == 5)
        assert sink.results == {idx: idx * 2 for idx in range(5)}
        assert not sink.failures

    def test_late_submissions_after_earlier_completions(self, stream):
        pool, sink = stream
        pool.submit_stream(0, ("echo", 10))
        pump_until(pool, lambda: 0 in sink.results)
        pool.submit_stream(1, ("echo", 20))
        pump_until(pool, lambda: 1 in sink.results)
        assert sink.results == {0: 20, 1: 40}

    def test_task_error_is_failure_not_pool_error(self, stream):
        pool, sink = stream
        pool.submit_stream(0, ("boom", 7))
        pool.submit_stream(1, ("echo", 1))
        pump_until(pool, lambda: 0 in sink.failures and 1 in sink.results)
        assert sink.failures[0]["error"] == "task_error"
        assert "bad task 7" in sink.failures[0]["detail"]
        # The worker survived the bad task and served the good one.
        assert sink.results[1] == 2

    def test_events_relayed_with_task_index(self, stream):
        pool, sink = stream
        pool.submit_stream(3, ("event", 5))
        pump_until(pool, lambda: 3 in sink.results)
        assert (3, {"progress": 5}) in sink.events
        assert sink.results[3] == 10


class TestStreamCancel:
    def test_cancel_queued_task(self, stream):
        pool, sink = stream
        # Two sleepers occupy both workers; the third waits in queue.
        pool.submit_stream(0, ("sleep", 0.3))
        pool.submit_stream(1, ("sleep", 0.3))
        pool.submit_stream(2, ("echo", 9))
        assert pool.cancel_stream(2)
        pump_until(pool, lambda: {0, 1} <= set(sink.results))
        assert 2 not in sink.results
        assert 2 not in sink.failures  # cancelled silently, as requested

    def test_cancel_inflight_kills_and_replaces_worker(self, stream):
        pool, sink = stream
        pool.submit_stream(0, ("sleep", 30.0))
        # Wait until the sleeper is actually dispatched.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            pool.pump(block=True)
            if any(w.inflight == 0 for w in pool._workers.values()):
                break
        assert pool.cancel_stream(0)
        assert pool.stats["cancel_kills"] == 1
        # The replacement worker still serves new tasks.
        pool.submit_stream(1, ("echo", 4))
        pump_until(pool, lambda: 1 in sink.results)
        assert sink.results[1] == 8
        assert 0 not in sink.results

    def test_cancel_unknown_or_finished_returns_false(self, stream):
        pool, sink = stream
        assert not pool.cancel_stream(99)
        pool.submit_stream(0, ("echo", 1))
        pump_until(pool, lambda: 0 in sink.results)
        assert not pool.cancel_stream(0)


class TestStreamSetup:
    def test_single_job_stream_runs_in_process(self):
        pool = SupervisedPool(EchoSession, jobs=1)
        sink = Collector()
        pool.start_stream(on_result=sink.on_result,
                          on_failure=sink.on_failure,
                          on_event=sink.on_event)
        try:
            pool.submit_stream(0, ("event", 5))
            pool.submit_stream(1, ("boom", 7))
            pool.submit_stream(2, ("echo", 1))
            pump_until(pool, lambda: len(sink.results) == 2
                       and 1 in sink.failures)
            assert sink.results == {0: 10, 2: 2}
            assert sink.events == [(0, {"progress": 5})]
            assert sink.failures[1]["error"] == "task_error"
            assert "bad task 7" in sink.failures[1]["detail"]
            assert pool.stats["inline_tasks"] == 2
            assert multiprocessing.active_children() == []
        finally:
            pool.stop_stream()

    def test_submit_outside_stream_raises(self):
        from repro.exec.pool import PoolError

        pool = SupervisedPool(EchoSession, jobs=2)
        with pytest.raises(PoolError):
            pool.submit_stream(0, ("echo", 1))

    def test_stop_stream_idempotent(self):
        pool = SupervisedPool(EchoSession, jobs=2)
        sink = Collector()
        pool.start_stream(on_result=sink.on_result,
                          on_failure=sink.on_failure)
        pool.stop_stream()
        pool.stop_stream()  # second stop is a no-op
        assert pool._workers == {}


class TestStreamThreads:
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_concurrent_submit_and_cancel_resolve_each_index_once(
            self, jobs):
        # Four client threads (more than the cores) submit and cancel
        # while this thread pumps: every index must end exactly once,
        # as a callback or as a successful cancel, never both.
        pool = SupervisedPool(EchoSession, jobs=jobs)
        delivered = collections.Counter()
        cancelled = []

        def record(idx, _value):
            delivered[idx] += 1  # callbacks fire on the pumping thread

        def client(base):
            for k in range(base, base + 30, 3):
                pool.submit_stream(k, ("sleep", 0.03))
                pool.submit_stream(k + 1, ("echo", k))
                pool.submit_stream(k + 2, ("sleep", 0.001))
                time.sleep(0.01)  # long enough for k to be running
                if pool.cancel_stream(k):
                    cancelled.append(k)

        pool.start_stream(on_result=record, on_failure=record)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client, args=(100 * n,))
                       for n in range(4)]
            for thread in clients:
                thread.start()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                busy = any(thread.is_alive() for thread in clients)
                if not pool.pump(block=True) and not busy:
                    break
            for thread in clients:
                thread.join(5.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            pool.stop_stream()
        submitted = {100 * n + k for n in range(4) for k in range(30)}
        assert set(delivered) | set(cancelled) == submitted
        assert not set(delivered) & set(cancelled)
        assert set(delivered.values()) == {1}
        assert multiprocessing.active_children() == []
