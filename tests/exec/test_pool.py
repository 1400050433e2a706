"""Supervised pool: correctness, chaos kills, deadlines, teardown."""

import multiprocessing
import os
import queue
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.exec import (
    CHAOS_ENV,
    PoolError,
    SupervisedPool,
    TaskPickleError,
)
from repro.obs import Tracer

SRC = str(Path(__file__).resolve().parents[2] / "src")


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


class _RaisingSession:
    """Session whose task ``3`` raises."""

    meta = {"kind": "raising"}

    def run(self, payload):
        if payload == 3:
            raise ValueError(f"bad payload {payload}")
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
    @pytest.mark.parametrize("jobs, error", [(1, ValueError), (2, PoolError)])
    def test_raising_task_fails_the_run(self, jobs, error):
        # In-process the task's own exception (and traceback) escapes;
        # from a worker only its text can, wrapped in PoolError.
        pool = SupervisedPool(_RaisingSession, jobs=jobs)
        with pytest.raises(error, match="bad payload 3") as excinfo:
            pool.run([1, 2, 3, 4])
        assert excinfo.type is error
        assert _no_children()

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


# A parent that runs a 2-worker pool of short tasks, then blocks in its
# last result callback with both workers idle, waiting to be killed.
_ORPHANING_PARENT = textwrap.dedent("""\
    import os
    import time

    from repro.exec import SupervisedPool

    # One write(2) per line: print() may split a line into several
    # writes, and the three processes share the pipe.
    class PidSession:
        def __init__(self):
            os.write(1, f"worker {os.getpid()}\\n".encode())

        def run(self, payload):
            return payload

    done = []

    def on_result(idx, value):
        done.append(idx)
        if len(done) == 4:
            os.write(1, b"idle\\n")
            time.sleep(300)

    SupervisedPool(PidSession, jobs=2).run(range(4), on_result=on_result)
""")


def _forward(stream, lines):
    for line in stream:
        lines.put(line)


def _ended(pid):
    """True once *pid* has exited; a zombie nobody reaps counts."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] in ("Z", "X")


class TestOrphanedWorkers:
    def test_idle_workers_exit_when_the_parent_is_killed(self, tmp_path):
        script = tmp_path / "parent.py"
        script.write_text(_ORPHANING_PARENT)
        parent = subprocess.Popen(
            [sys.executable, str(script)],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE, text=True,
        )
        lines = queue.Queue()
        reader = threading.Thread(target=_forward,
                                  args=(parent.stdout, lines), daemon=True)
        reader.start()
        workers = []
        try:
            idle = False
            deadline = time.monotonic() + 60
            while not idle or len(workers) < 2:
                line = lines.get(timeout=max(0.0,
                                             deadline - time.monotonic()))
                if line.startswith("worker "):
                    workers.append(int(line.split()[1]))
                idle = idle or line.strip() == "idle"
            parent.send_signal(signal.SIGKILL)
            parent.wait(10)
            deadline = time.monotonic() + 5
            while (time.monotonic() < deadline
                   and not all(_ended(pid) for pid in workers)):
                time.sleep(0.05)
            assert [pid for pid in workers if not _ended(pid)] == []
        finally:
            parent.kill()
            parent.wait(10)
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            # The pipe ends once no worker holds it.
            reader.join(10)
            if not reader.is_alive():
                parent.stdout.close()
