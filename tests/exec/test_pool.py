"""Supervised pool: correctness, chaos kills, deadlines, teardown."""

import multiprocessing
import time

import pytest

from repro.exec import (
    CHAOS_ENV,
    SupervisedPool,
    TaskPickleError,
)
from repro.obs import Tracer


class _SquareSession:
    """Minimal deterministic session (module-level: picklable)."""

    meta = {"kind": "square", "version": 1}

    def __init__(self):
        self._count = 0

    def run(self, payload):
        self._count += 1
        return payload * payload

    def stats(self):
        return {"tasks": self._count}


class _SleepSession:
    """Session whose task payload is how long to sleep."""

    meta = {"kind": "sleep"}

    def run(self, payload):
        time.sleep(payload)
        return payload


class _LabelledSleepSession(_SleepSession):
    """Names its tasks, so deadline messages can name them too."""

    def label(self, payload):
        return f"sleep({payload})"


def _no_children():
    # active_children() joins finished processes as a side effect.
    return multiprocessing.active_children() == []


class TestSupervisedPool:
    def test_parallel_results_match_task_order(self):
        pool = SupervisedPool(_SquareSession, jobs=3)
        outcome = pool.run(list(range(20)))
        assert outcome.results == {i: i * i for i in range(20)}
        assert outcome.failures == {}
        assert outcome.meta == _SquareSession.meta
        assert outcome.stats["crashes"] == 0
        assert outcome.stats["respawns"] == 0
        assert _no_children()

    def test_on_result_fires_once_per_index(self):
        seen = []
        pool = SupervisedPool(_SquareSession, jobs=2)
        pool.run(list(range(8)), on_result=lambda i, v: seen.append((i, v)))
        assert sorted(seen) == [(i, i * i) for i in range(8)]

    def test_on_meta_fires_with_session_meta(self):
        captured = []
        pool = SupervisedPool(_SquareSession, jobs=2)
        pool.run([1, 2, 3], on_meta=captured.append)
        assert captured == [_SquareSession.meta]

    def test_jobs_one_runs_inline(self):
        pool = SupervisedPool(_SquareSession, jobs=1)
        outcome = pool.run([2, 3])
        assert outcome.results == {0: 4, 1: 9}
        assert outcome.stats["inline_tasks"] == 2

    def test_single_task_runs_inline(self):
        pool = SupervisedPool(_SquareSession, jobs=4)
        outcome = pool.run([7])
        assert outcome.results == {0: 49}
        assert outcome.stats["inline_tasks"] == 1
        assert _no_children()

    def test_empty_run_still_reports_meta(self):
        captured = []
        pool = SupervisedPool(_SquareSession, jobs=3)
        outcome = pool.run([], on_meta=captured.append)
        assert outcome.results == {}
        assert captured == [_SquareSession.meta] == [outcome.meta]
        assert _no_children()

    def test_inline_run_records_no_rollup(self):
        # An in-process caller owns its session and reads its stats.
        tracer = Tracer("pool")
        SupervisedPool(_SquareSession, jobs=1, tracer=tracer).run([1, 2])
        assert tracer.roots == []

    def test_degraded_run_records_inline_rollup(self, monkeypatch):
        def no_start_method(self):
            raise ValueError("no start method here")

        monkeypatch.setattr(SupervisedPool, "_context", no_start_method)
        tracer = Tracer("pool")
        pool = SupervisedPool(_SquareSession, jobs=2, tracer=tracer)
        outcome = pool.run([1, 2, 3])
        assert outcome.results == {0: 1, 1: 4, 2: 9}
        assert outcome.stats["fallback"] == 1
        assert [(span.name, span.meta) for span in tracer.roots] == [
            ("inline", {"sim_stats": {"tasks": 3}})]


class TestChaos:
    def test_chaos_kills_do_not_lose_tasks(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "0.4")
        pool = SupervisedPool(_SquareSession, jobs=3, backoff_s=0.001)
        outcome = pool.run(list(range(12)))
        # Every task completes with the right answer no matter how many
        # workers died (even degradation-to-inline preserves the result).
        assert outcome.results == {i: i * i for i in range(12)}
        assert outcome.failures == {}
        assert _no_children()

    def test_chaos_env_off_means_no_crashes(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        pool = SupervisedPool(_SquareSession, jobs=2)
        outcome = pool.run(list(range(6)))
        assert outcome.stats["crashes"] == 0


class TestDeadlines:
    def test_timeout_retries_then_quarantines(self):
        pool = SupervisedPool(_SleepSession, jobs=2, task_timeout=0.2,
                              max_retries=1, backoff_s=0.001)
        outcome = pool.run([0.0, 30.0, 0.0])
        assert outcome.results == {0: 0.0, 2: 0.0}
        assert set(outcome.failures) == {1}
        assert outcome.failures[1]["error"] == "timed_out"
        assert outcome.stats["timeouts"] == 2
        assert outcome.stats["timeout_retries"] == 1
        assert outcome.stats["quarantined"] == 1
        assert _no_children()

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_timeout_detail_uses_session_label(self, jobs):
        pool = SupervisedPool(_LabelledSleepSession, jobs=jobs,
                              task_timeout=0.1, max_retries=0,
                              backoff_s=0.001)
        outcome = pool.run([30.0, 0.0])
        assert outcome.failures[0]["detail"] == (
            "sleep(30.0) exceeded its 0.1s deadline")
        assert _no_children()

    def test_inline_timeout_quarantines_too(self):
        pool = SupervisedPool(_SleepSession, jobs=1, task_timeout=0.1,
                              max_retries=0)
        outcome = pool.run([30.0, 0.0])
        assert outcome.results == {1: 0.0}
        assert outcome.failures[0]["error"] == "timed_out"
        assert outcome.stats["quarantined"] == 1


class TestFailureModes:
    def test_unpicklable_factory_under_spawn(self):
        pool = SupervisedPool(lambda: _SquareSession(), jobs=2,
                              start_method="spawn")
        with pytest.raises(TaskPickleError, match="spawn"):
            pool.run([1, 2, 3])
        assert _no_children()

    def test_keyboard_interrupt_leaves_no_children(self, monkeypatch):
        pool = SupervisedPool(_SquareSession, jobs=2)
        spawned = []
        original_spawn = SupervisedPool._spawn

        def tracking_spawn(self, respawn=False):
            worker = original_spawn(self, respawn)
            spawned.append(worker)
            return worker

        def interrupting_poll(self, block):
            raise KeyboardInterrupt

        monkeypatch.setattr(SupervisedPool, "_spawn", tracking_spawn)
        monkeypatch.setattr(SupervisedPool, "_poll", interrupting_poll)
        with pytest.raises(KeyboardInterrupt):
            pool.run(list(range(6)))
        assert spawned  # the interrupt arrived after workers existed
        for worker in spawned:
            worker.process.join(5.0)
            assert not worker.process.is_alive()
        assert _no_children()
