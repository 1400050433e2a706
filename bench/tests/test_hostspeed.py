"""Timings scale by the host speed sampled around and during them."""

import os
import time

import pytest

from bench import hostspeed


def test_clock_scales_by_the_loops_around_each_call(monkeypatch):
    # Loop times: reference, then twice as slow, then twice as slow.
    samples = iter([[hostspeed.REF_S] * 3, [2 * hostspeed.REF_S] * 3,
                    [2 * hostspeed.REF_S] * 3])
    monkeypatch.setattr(hostspeed, "sample", lambda: next(samples))
    clock = hostspeed.Clock("inline")
    result, wall, speed = clock.time(lambda: "done")
    assert result == "done" and wall >= 0
    # Mean of three reference and three slow loops: 1.5 * REF_S.
    assert speed == pytest.approx(1 / 1.5)
    # The loops after the first call are the loops before the second.
    _, _, speed = clock.time(lambda: None)
    assert speed == pytest.approx(0.5)


def test_loops_run_during_a_call_and_leave_its_wall_time(monkeypatch):
    monkeypatch.setattr(hostspeed, "INTERVAL_S", 0.01)
    monkeypatch.setattr(hostspeed, "sample", lambda: [hostspeed.REF_S] * 3)
    during = []

    def slow_loop():
        during.append(1)
        # Wall time only: sleeping does not advance the CPU-time timer.
        time.sleep(4 * hostspeed.REF_S)
        return 4 * hostspeed.REF_S

    monkeypatch.setattr(hostspeed, "_loop", slow_loop)

    def burn():
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass

    began = time.perf_counter()
    _, wall, speed = hostspeed.Clock("inline").time(burn)
    outside = time.perf_counter() - began
    # About 0.2 s of CPU at one loop per 0.01 s: several slow loops
    # beside the six around the call.
    assert len(during) > 6
    loops = [hostspeed.REF_S] * 6 + [4 * hostspeed.REF_S] * len(during)
    assert speed == pytest.approx(
        hostspeed.REF_S / hostspeed.trimmed_mean(loops))
    assert outside - wall >= len(during) * 4 * hostspeed.REF_S


def test_child_clock_samples_each_core_and_restores_the_cores(monkeypatch):
    cores = os.sched_getaffinity(0)
    times = hostspeed.sample()
    assert len(times) == hostspeed.LOOPS and all(t > 0 for t in times)
    pinned = []

    def sample():
        pinned.append(os.sched_getaffinity(0))
        return [hostspeed.REF_S]

    monkeypatch.setattr(hostspeed, "sample", sample)
    _, _, speed = hostspeed.Clock("child").time(lambda: None)
    # Before and after the call, one sample pinned to each core.
    assert [next(iter(p)) for p in pinned] == sorted(cores) * 2
    assert speed == pytest.approx(1.0)
    assert os.sched_getaffinity(0) == cores


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="mode"):
        hostspeed.Clock("remote")


def test_trimmed_mean_drops_each_end():
    assert hostspeed.trimmed_mean([1.0, 2.0, 3.0]) == 2.0
    # Ten values: one cut from each end.
    assert hostspeed.trimmed_mean([100.0] + [2.0] * 8 + [0.0]) == 2.0
