"""Smoke runs of each workload function at tiny sizes, and the error count."""

import json
from pathlib import Path

import pytest

from repro.obs import Tracer

from bench import workloads
from bench.layers import LayerTracer, layer_totals

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [entry["name"] for entry in SPEC["end_to_end"]]
PER_LAYER = [entry["name"] for entry in SPEC["per_layer"]]


def assert_clean(result, traced):
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["error_rate"] == 0.0
    assert result["attempted"] >= 1
    expected = END_TO_END + (PER_LAYER if traced else [])
    missing = [name for name in expected if name not in result["metrics"]]
    assert not missing
    if traced:
        assert result["trace"]["schema"] == "repro-trace/v1"
        assert result["trace"]["spans"]


def values(result):
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def test_build_cold_traced(tmp_path):
    result = workloads.run_build(True, 1, 0, True, tmp_path, setups=1,
                                 min_ops=1, max_ops=2)
    assert_clean(result, traced=True)
    # An untraced and a traced op, plus the lockstep equivalence check.
    assert result["attempted"] == 3
    metrics = values(result)
    # The cold build misses and stores every stage.
    assert metrics["store.miss"] == metrics["store.store"] > 0
    assert metrics["store.hit"] == 0 and metrics["store.hit_ratio"] == 0
    assert metrics["store.bytes_written"] > 0
    assert metrics["netlist.opt.calls"] == 2  # one per flow
    assert metrics["obs.unattributed_pct"] < 10


def test_build_warm_traced(tmp_path):
    result = workloads.run_build(False, 1, 0, True, tmp_path, setups=1,
                                 min_ops=1, max_ops=2)
    assert_clean(result, traced=True)
    assert result["attempted"] == 2
    metrics = values(result)
    assert metrics["store.hit"] > 0 and metrics["store.miss"] == 0
    assert metrics["store.hit_ratio"] == 100.0
    assert metrics["baseline.ip_library.calls"] == 1
    assert metrics["obs.unattributed_pct"] < 10


@pytest.mark.parametrize("flow", ["netlist", "rtl"])
def test_campaign_traced(tmp_path, flow):
    result = workloads.run_campaign(flow, 1, 0, True, tmp_path, faults=4,
                                    setups=1, min_ops=1, max_ops=2)
    assert_clean(result, traced=True)
    assert result["metrics"]["obs.unattributed_pct"]["value"] < 10
    metrics = result["metrics"]
    assert metrics["fault.simulated"]["value"] == 4
    assert metrics["fault.campaign.calls"]["value"] == 1
    if flow == "rtl":
        assert metrics["netlist.opt.calls"]["value"] == 0
        assert metrics["rtl.sim.steps"]["value"] > 0
    else:
        assert metrics["netlist.opt.cells_out"]["value"] \
            < metrics["netlist.opt.cells_in"]["value"]


def test_serve_traced(tmp_path):
    result = workloads.run_serve(1, 0, True, tmp_path, setups=1, min_ops=1,
                                 max_ops=2)
    assert_clean(result, traced=True)
    metrics = result["metrics"]
    assert metrics["op_p50_s"]["n"] == 1  # an untraced and a traced round
    # A round submits each kind of the mix once.
    assert metrics["serve.submit.calls"]["value"] == len(workloads.SERVE_MIX)
    assert metrics["job_latency_s"]["n"] == len(workloads.SERVE_MIX)
    assert metrics["serve.failed"]["value"] == 0


def test_corrupted_output_counts_in_error_rate(tmp_path, monkeypatch):
    real = workloads.render_result
    calls = []

    def corrupt_second(kind, payload):
        calls.append(kind)
        text = real(kind, payload)
        return text if len(calls) == 1 else text.replace("masked", "sdc", 1)

    monkeypatch.setattr(workloads, "render_result", corrupt_second)
    result = workloads.run_campaign("rtl", 1, 0, False, tmp_path, faults=2,
                                    setups=1, min_ops=2, max_ops=2)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["error_rate"] == 0.5 and not result["correct"]


def test_unfired_layer_fails_the_run():
    with pytest.raises(RuntimeError, match="never fired"):
        workloads.check_fired("campaign-rtl", LayerTracer("empty"))


def test_layer_totals_attribution():
    """Non-layer spans and same-layer nesting fold into the outer layer."""
    # The clock ticks one second per span open and per span close.
    ticks = iter(range(100))
    tracer = Tracer("t", clock=lambda: float(next(ticks)))
    with tracer.span("op") as op:                     # 9 s
        with tracer.span("flow:osss"):                # not a layer
            with tracer.span("opt"):                  # netlist.opt, 5 s
                with tracer.span("netlist.opt"):      # the same layer
                    with tracer.span("store.put"):    # 1 s
                        pass
                op.annotate(**{"store.store": 1})
    layers, counters, unattributed = layer_totals([op])
    assert layers["netlist.opt"] == {"calls": 1, "total_s": 5.0,
                                     "self_s": 4.0}
    assert layers["store.put"] == {"calls": 1, "total_s": 1.0,
                                   "self_s": 1.0}
    assert counters == {"store.store": 1}
    assert unattributed == [4.0]


def test_wrappers_are_removed_after_tracing():
    import repro.netlist.opt as opt
    from repro.store import ArtifactStore

    optimize, probe = opt.optimize, ArtifactStore.probe
    with LayerTracer("t").installed():
        assert opt.optimize is not optimize
        assert ArtifactStore.probe is not probe
    assert opt.optimize is optimize and ArtifactStore.probe is probe
