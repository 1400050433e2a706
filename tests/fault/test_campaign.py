"""Campaign engine: fault lists, classification, determinism, reports."""

import json
import re

import pytest

from repro.fault import (
    CampaignConfig,
    Fault,
    FaultableGateSimulator,
    GateFaultInjector,
    OUTCOMES,
    RtlFaultInjector,
    generate_fault_list,
    run_campaign,
)
from repro.netlist import map_module, optimize
from repro.obs import Tracer
from repro.rtl import Read, RtlBuilder, RtlSimulator, mux
from repro.types.spec import bit, unsigned


def latching_module():
    """4-bit accumulator with a busy flag: rich enough for all outcomes.

    ``acc`` accumulates ``x`` while ``go`` is high; ``busy`` is a
    set-dominant latch cleared only by ``clear`` — an SEU setting it
    with no clear in the stimulus tail is a *hang*.
    """
    b = RtlBuilder("latcher")
    x = b.input("x", unsigned(4))
    go = b.input("go", bit())
    clear = b.input("clear", bit())
    acc = b.register("acc", unsigned(4))
    busy = b.register("busy", bit())
    b.next(acc, mux(go, (Read(acc) + x).resized(4), Read(acc)))
    b.next(busy, mux(clear, 0, Read(busy) | go))
    b.output("y", Read(acc))
    b.output("busy", Read(busy))
    return b.build()


def make_injector():
    return RtlFaultInjector(RtlSimulator(latching_module()))


def stimulus():
    stim = [dict(x=1, go=1, clear=0)] * 8    # accumulate, busy latches
    stim += [dict(x=0, go=0, clear=1)]       # clear pulse
    stim += [dict(x=0, go=0, clear=0)] * 3   # quiet tail (no clear!)
    return stim


def config():
    return CampaignConfig(
        reset_name="reset",
        done_signal="busy",
        done_value=0,
        drain_budget=4,
        idle_input=dict(x=0, go=0, clear=0),
    )


class TestFaultListGeneration:
    def test_deterministic_per_seed(self):
        injector = make_injector()
        a = generate_fault_list(injector, 20, 10, seed=5)
        b = generate_fault_list(injector, 20, 10, seed=5)
        assert a == b
        assert generate_fault_list(injector, 20, 10, seed=6) != a

    def test_targets_and_cycles_in_range(self):
        injector = make_injector()
        names = {name for name, _ in injector.seu_targets()}
        for fault in generate_fault_list(injector, 50, 10, seed=1):
            assert fault.target in names
            assert 1 <= fault.cycle < 10
            assert fault.kind == "seu"

    def test_no_targets_errors(self):
        class Hollow:
            flow = "rtl"

            def seu_targets(self):
                return []

            def net_targets(self):
                return []

        with pytest.raises(ValueError):
            generate_fault_list(Hollow(), 3, 10, seed=1)


class TestClassification:
    def test_zero_faults_golden_only(self):
        result = run_campaign(make_injector(), stimulus(), [], config(),
                              design="latcher", seed=0)
        assert result.golden_selfcheck == "masked"
        assert result.golden_done
        assert result.outcomes == {k: 0 for k in OUTCOMES}

    def test_acc_seu_is_sdc(self):
        # Corrupting the accumulator mid-run changes y forever: sdc.
        fault = Fault("seu", "acc", 3, 4)
        result = run_campaign(make_injector(), stimulus(), [fault],
                              config(), seed=0)
        record = result.records[0]
        assert record.outcome == "sdc"
        assert record.first_divergence == 4

    def test_busy_seu_during_tail_is_hang(self):
        # Setting busy after the clear pulse leaves it latched: hang.
        fault = Fault("seu", "busy", 0, 10)
        result = run_campaign(make_injector(), stimulus(), [fault],
                              config(), seed=0)
        assert result.records[0].outcome == "hang"

    def test_busy_seu_before_clear_is_masked_for_busy(self):
        # busy flips at cycle 2 but the stimulus clears it at the end and
        # y never depends on busy — the upset is wiped: masked... except
        # busy itself is observed, so the divergence classifies as sdc.
        fault = Fault("seu", "busy", 0, 2)
        result = run_campaign(make_injector(), stimulus(), [fault],
                              config(), seed=0)
        assert result.records[0].outcome == "sdc"

    def test_every_fault_gets_exactly_one_outcome(self):
        injector = make_injector()
        faults = generate_fault_list(injector, 30, 12, seed=9)
        result = run_campaign(injector, stimulus(), faults, config(), seed=9)
        assert len(result.records) == 30
        assert all(r.outcome in OUTCOMES for r in result.records)
        assert sum(result.outcomes.values()) == 30

    def test_fault_cycle_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(make_injector(), stimulus(),
                         [Fault("seu", "acc", 0, 99)], config())


class TestDetection:
    def test_parity_detects_gate_state_upset(self):
        from repro.fault.harden import add_parity_guards

        b = RtlBuilder("reg4")
        x = b.input("x", unsigned(4))
        r = b.register("r", unsigned(4))
        b.next(r, x)
        b.output("y", Read(r))
        circuit = optimize(map_module(b.build()))
        add_parity_guards(circuit)
        injector = GateFaultInjector(FaultableGateSimulator(circuit))
        seu = [name for name, _ in injector.seu_targets()
               if "__par" not in name]
        faults = [Fault("seu", seu[0], 0, 3)]
        cfg = CampaignConfig(observed=("y",),
                             detect_signals=("parity_err",))
        stim = [dict(x=5) for _ in range(8)]
        result = run_campaign(injector, stim, faults, cfg, seed=0)
        assert result.records[0].outcome == "detected"


def guarded_module():
    """A design whose error detector can only fire *after* the stimulus.

    ``r`` and its shadow ``s`` load the same input; the comparator is
    registered, so ``err`` rises one full cycle after the registers
    disagree.  The observed output ``y`` reads the shadow only — an SEU
    on ``r`` at the last stimulus cycle never perturbs ``y`` and its
    detection is visible exclusively during the drain phase.
    """
    b = RtlBuilder("guard")
    x = b.input("x", unsigned(4))
    r = b.register("r", unsigned(4))
    s = b.register("s", unsigned(4))
    err = b.register("err", bit())
    b.next(r, x)
    b.next(s, x)
    b.next(err, Read(r).ne(Read(s)))
    b.output("y", Read(s))
    b.output("err", Read(err))
    return b.build()


class TestDrainPhaseDetection:
    """Regression: detect signals must stay monitored while draining."""

    CFG = dict(observed=("y",), detect_signals=("err",),
               done_signal="err", done_value=0, drain_budget=4,
               idle_input=dict(x=0))

    def _run(self, fault_cycle):
        injector = RtlFaultInjector(RtlSimulator(guarded_module()))
        stim = [dict(x=v) for v in (3, 5, 9, 6)]
        fault = Fault("seu", "r", 1, fault_cycle)
        return run_campaign(injector, stim, [fault],
                            CampaignConfig(**self.CFG), seed=0)

    def test_late_firing_detector_caught_during_drain(self):
        # SEU at the last stimulus cycle: err first rises on drain
        # cycle 1.  Before the fix this classified as masked.
        result = self._run(fault_cycle=3)
        record = result.records[0]
        assert record.outcome == "detected"
        assert record.first_divergence is None  # y never diverged
        assert result.golden_done

    def test_mid_stimulus_detection_still_works(self):
        # Injected early, the registered comparator fires within the
        # stimulus window — the pre-existing path must keep working.
        result = self._run(fault_cycle=1)
        assert result.records[0].outcome == "detected"


def _latcher_injector():
    """Module-level factory: picklable for worker processes."""
    return RtlFaultInjector(RtlSimulator(latching_module()))


class TestParallelCampaign:
    def test_jobs_report_byte_identical(self):
        faults = generate_fault_list(make_injector(), 12, 12, seed=4)
        sequential = run_campaign(make_injector(), stimulus(), faults,
                                  config(), design="latcher", seed=4)
        for jobs in (2, 3, 64):  # 64 > unique faults: clamps to the list
            parallel = run_campaign(
                None, stimulus(), faults, config(), design="latcher",
                seed=4, jobs=jobs, injector_factory=_latcher_injector,
            )
            assert parallel.to_json() == sequential.to_json()

    def test_traced_jobs_two_replay_holds_worker_rollups(self):
        faults = generate_fault_list(make_injector(), 6, 12, seed=4)
        tracer = Tracer("campaign")
        result = run_campaign(None, stimulus(), faults, config(),
                              design="latcher", seed=4, jobs=2,
                              injector_factory=_latcher_injector,
                              tracer=tracer)
        assert result.exec_stats["jobs"] == 2
        [campaign] = tracer.roots
        # The golden runs happen in the workers: the parent holds only
        # the pool run, with one rollup span per worker under it.
        assert [span.name for span in campaign.children] == ["replay"]
        replay = campaign.children[0]
        workers = replay.children
        assert workers
        assert all(re.fullmatch(r"worker\[\d+\]", span.name)
                   for span in workers)
        simulated = result.exec_stats["simulated"]
        assert sum(span.meta["tasks"] for span in workers) == simulated
        assert replay.meta["faults"] == simulated
        assert sum(replay.meta["outcomes"].values()) == simulated
        assert "shards" not in {span.name for _, span in tracer.walk()}

    def test_jobs_without_factory_rejected(self):
        with pytest.raises(ValueError, match="injector_factory"):
            run_campaign(make_injector(), stimulus(), [], config(), jobs=2)

    def test_duplicate_faults_share_one_record(self):
        fault = Fault("seu", "acc", 3, 4)
        other = Fault("seu", "busy", 0, 10)
        result = run_campaign(make_injector(), stimulus(),
                              [fault, other, fault, fault], config(), seed=0)
        assert len(result.records) == 4
        assert result.records[0] is result.records[2] is result.records[3]
        assert result.records[0].outcome == "sdc"
        assert result.records[1].outcome == "hang"


class TestReport:
    def test_json_schema_and_determinism(self):
        injector = make_injector()
        faults = generate_fault_list(injector, 10, 12, seed=3)
        result = run_campaign(injector, stimulus(), faults, config(),
                              design="latcher", seed=3)
        payload = json.loads(result.to_json())
        assert payload["schema"] == "repro-fault-campaign/v1"
        assert set(payload["outcomes"]) == set(OUTCOMES)
        assert payload["golden"]["selfcheck"] == "masked"
        assert len(payload["faults"]) == 10
        for record in payload["faults"]:
            assert {"kind", "target", "bit", "cycle",
                    "outcome"} <= set(record)
        # end-to-end determinism: fresh injector, same seed, same bytes
        injector2 = make_injector()
        faults2 = generate_fault_list(injector2, 10, 12, seed=3)
        result2 = run_campaign(injector2, stimulus(), faults2, config(),
                               design="latcher", seed=3)
        assert result.to_json() == result2.to_json()
