"""X — design library: a warm rebuild must be at least 5x faster.

Not a paper experiment: it bounds the payoff of the content-addressed
artifact store.  Both flows (OSSS behavioral synthesis and the VHDL
baseline) run end to end twice against one cache directory — first cold
(cleared store, every stage computed and serialized) then warm (every
stage replayed from disk) — and again with caching disabled as the
reference.  Runs are interleaved (cold, warm, cold, warm) so slow drift
in host load hits both sides equally; each side scores its best
repetition.

Beyond the speedup floor, the benchmark asserts the library's central
correctness property: the flow summaries of cold, warm and cache-off
runs are byte-identical.
"""

import json
import time

from conftest import record_report

from repro.baseline import expocu_rtl
from repro.eval import format_table, run_osss_flow, run_vhdl_flow
from repro.serve.jobs import default_design
from repro.store import ArtifactStore

MIN_SPEEDUP = 5.0
REPS = 2


def _build(store):
    results = [
        run_osss_flow(default_design(), "osss", store=store),
        run_vhdl_flow(expocu_rtl(), "vhdl", store=store),
    ]
    return json.dumps([r.summary() for r in results], sort_keys=True)


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def test_warm_rebuild_speedup(tmp_path):
    store = ArtifactStore(tmp_path / "cache")

    t_off, summary_off = _timed(lambda: _build(None))

    cold_times, warm_times = [], []
    for _ in range(REPS):
        store.clear()
        t_cold, summary_cold = _timed(lambda: _build(store))
        t_warm, summary_warm = _timed(lambda: _build(store))
        cold_times.append(t_cold)
        warm_times.append(t_warm)
        assert summary_warm == summary_cold == summary_off, \
            "cached runs must reproduce the uncached summaries exactly"
    t_cold, t_warm = min(cold_times), min(warm_times)

    # The warm run really was warm: every stage of both flows hit.
    assert sum(store.counters["miss"].values()) == \
        sum(store.counters["store"].values())
    assert sum(store.counters["hit"].values()) > 0
    assert sum(store.counters["corrupt"].values()) == 0

    speedup = t_cold / t_warm
    assert speedup >= MIN_SPEEDUP, (
        f"warm rebuild only {speedup:.1f}x faster than cold "
        f"(cold {t_cold:.2f}s, warm {t_warm:.2f}s); floor is "
        f"{MIN_SPEEDUP:.0f}x"
    )

    rows = [
        {"configuration": "no cache", "both_flows_s": f"{t_off:.2f}",
         "speedup": "-"},
        {"configuration": "cold (compute + store)",
         "both_flows_s": f"{t_cold:.2f}",
         "speedup": f"{t_off / t_cold:.1f}x vs no cache"},
        {"configuration": "warm (replay)", "both_flows_s": f"{t_warm:.2f}",
         "speedup": f"{speedup:.1f}x vs cold"},
    ]
    record_report("X_store_warm", format_table(rows))
