"""Bit-parallel (PPSFP) campaign correctness: byte-identical reports.

The lane-packed ``backend="bitparallel"`` evaluator classifies up to 64
faults of any kind per replay: stuck-ats, SEUs and one-cycle flips.
These tests pin its end-to-end guarantee on seeded random circuits:
however the campaign is run — sequentially, collapsed, sharded over
worker processes, or resumed from a journal — the serialized report
must be byte-for-byte the one the scalar compiled oracle produces, and
only faults whose target does not resolve replay on their own.
Alongside ride the boundary-condition regressions the bit-parallel work
flushed out: transients injected on the final stimulus cycle, one-cycle
fault lists, and a drain whose hang lane cycles far faster than the
lanes that already finished.
"""

import functools
import random
import re

import pytest

import repro.fault.campaign as campaign
from repro.fault import (
    CampaignConfig,
    Fault,
    FaultableGateSimulator,
    GateFaultInjector,
    generate_fault_list,
    run_campaign,
    stuck_at_universe,
)
from repro.fault.campaign import GATE_KINDS
from repro.netlist import map_module, optimize
from repro.obs import Tracer
from repro.rtl import Read, RtlBuilder, mux
from repro.types.spec import bit, unsigned
from tests.fault.test_campaign import latching_module
from tests.fault.test_collapse_property import (
    CYCLES,
    _collapse_circuit,
    _config,
    _stimulus,
)

BACKENDS = ("event", "compiled", "bitparallel")


def _make_injector(seed: int, backend: str = "bitparallel"):
    """Module-level (hence picklable) factory for worker processes."""
    return GateFaultInjector(
        FaultableGateSimulator(_collapse_circuit(seed), backend=backend)
    )


def _stuck_list(injector, seed: int) -> list[Fault]:
    # Stuck-at heavy so batches actually fill: the full single-cycle
    # universe plus seeded multi-cycle sa0/sa1 spread over the stimulus.
    return (stuck_at_universe(injector, cycle=1)
            + generate_fault_list(injector, 30, CYCLES, seed,
                                  kinds=("sa0", "sa1")))


def _mixed_list(injector, seed: int) -> list[Fault]:
    # All four gate kinds, packed side by side into the same lanes.
    return (stuck_at_universe(injector, cycle=1)
            + generate_fault_list(injector, 30, CYCLES, seed))


def _spy(monkeypatch, name: str) -> list:
    """Record the fault argument of every call to ``campaign.<name>``.

    ``_classify`` gets one fault (a scalar replay), ``_classify_batch``
    a list (one lane-parallel replay).
    """
    calls: list = []
    real = getattr(campaign, name)

    def spy(injector, faults, *args, **kwargs):
        calls.append(faults)
        return real(injector, faults, *args, **kwargs)

    monkeypatch.setattr(campaign, name, spy)
    return calls


def _against_oracle(monkeypatch, seed: int, faults: list[Fault]):
    """Run *faults* on the compiled oracle and in lanes; bytes must agree.

    Returns the lane-packed result plus the faults that went through
    the scalar classifier and the batches the lanes classified.
    """
    oracle = run_campaign(_make_injector(seed, "compiled"),
                          _stimulus(seed), faults, _config(), seed=seed)
    scalar = _spy(monkeypatch, "_classify")
    batches = _spy(monkeypatch, "_classify_batch")
    wide = run_campaign(_make_injector(seed), _stimulus(seed), faults,
                        _config(), seed=seed)
    assert wide.to_json() == oracle.to_json()
    return wide, scalar, batches


class TestBitparallelByteIdentity:
    @pytest.mark.parametrize("seed", (0, 3, 11))
    def test_matches_compiled_oracle(self, seed):
        faults = _stuck_list(_make_injector(seed), seed)
        oracle = run_campaign(_make_injector(seed, "compiled"),
                              _stimulus(seed), faults, _config(),
                              seed=seed)
        wide = run_campaign(_make_injector(seed), _stimulus(seed), faults,
                            _config(), seed=seed)
        assert wide.to_json() == oracle.to_json()
        assert wide.exec_stats["lane_batches"] > 0

    @pytest.mark.parametrize("seed", (0, 11))
    def test_mixed_kinds_pack_into_lanes(self, seed, monkeypatch):
        faults = _mixed_list(_make_injector(seed), seed)
        assert {fault.kind for fault in faults} == set(GATE_KINDS)
        wide, scalar, _ = _against_oracle(monkeypatch, seed, faults)
        assert wide.exec_stats["lane_batches"] > 0
        assert scalar == []  # every target resolves: nothing replays alone

    def test_collapse_and_jobs_compose(self):
        seed = 3
        factory = functools.partial(_make_injector, seed)
        faults = _stuck_list(factory(), seed)
        oracle = run_campaign(_make_injector(seed, "compiled"),
                              _stimulus(seed), faults, _config(),
                              seed=seed)
        collapsed = run_campaign(factory(), _stimulus(seed), faults,
                                 _config(), seed=seed, collapse=True)
        sharded = run_campaign(None, _stimulus(seed), faults, _config(),
                               seed=seed, jobs=2, injector_factory=factory)
        both = run_campaign(None, _stimulus(seed), faults, _config(),
                            seed=seed, jobs=2, collapse=True,
                            injector_factory=factory)
        assert collapsed.to_json() == oracle.to_json()
        assert sharded.to_json() == oracle.to_json()
        assert both.to_json() == oracle.to_json()
        assert collapsed.collapse["simulated"] < collapsed.collapse["unique"]
        # A factory-only sharded run plans lanes in the parent too.
        assert sharded.exec_stats["lane_batches"] > 0

    def test_one_task_campaign_runs_on_the_callers_injector(self):
        """``jobs`` clamps to the task count, not the fault count.

        Twenty resolvable faults are one lane batch, hence one task: it
        runs in-process on the caller's injector, with no worker and no
        rebuild through the factory.
        """
        seed = 3
        calls = []

        def factory():
            calls.append(1)
            return _make_injector(seed)

        faults = _stuck_list(_make_injector(seed), seed)[:20]
        oracle = run_campaign(_make_injector(seed, "compiled"),
                              _stimulus(seed), faults, _config(), seed=seed)
        result = run_campaign(_make_injector(seed), _stimulus(seed), faults,
                              _config(), seed=seed, jobs=2,
                              injector_factory=factory)
        assert calls == []
        assert result.exec_stats["jobs"] == 1
        assert result.exec_stats["lane_batches"] == 1
        assert result.to_json() == oracle.to_json()

    def test_journal_resume_byte_identical(self, tmp_path):
        seed = 0
        faults = _stuck_list(_make_injector(seed), seed)
        oracle = run_campaign(_make_injector(seed, "compiled"),
                              _stimulus(seed), faults, _config(),
                              seed=seed)
        journal = tmp_path / "campaign.jsonl"
        first = run_campaign(_make_injector(seed), _stimulus(seed), faults,
                             _config(), seed=seed, journal=str(journal))
        resumed = run_campaign(_make_injector(seed), _stimulus(seed),
                               faults, _config(), seed=seed,
                               journal=str(journal), resume=True)
        assert first.to_json() == oracle.to_json()
        assert resumed.to_json() == oracle.to_json()
        assert resumed.exec_stats["simulated"] == 0
        assert (resumed.exec_stats["journal_hits"]
                == first.exec_stats["simulated"])


class TestLaneTransients:
    """SEUs and flips in lanes: each lane matches its scalar replay."""

    def _names(self, seed: int):
        injector = _make_injector(seed)
        inputs = {net.uid for net in injector.sim.circuit.input_buses["x"]}
        nets = injector.addressable_nets()
        states = [name for name, _ in injector.seu_targets()]
        primary = [name for name, net in nets.items() if net.uid in inputs]
        combs = [name for name in injector.net_targets()
                 if name not in primary and name != "reset"]
        return primary, states, combs

    @pytest.mark.parametrize("seed", (0, 3))
    def test_flip_on_primary_input(self, seed, monkeypatch):
        primary, _, _ = self._names(seed)
        assert len(primary) == 4
        faults = [Fault("flip", name, 0, cycle)
                  for name in primary for cycle in (1, 6, 13, CYCLES - 1)]
        wide, scalar, batches = _against_oracle(monkeypatch, seed, faults)
        assert scalar == [] and len(batches) == 1
        assert wide.outcomes["sdc"] > 0  # the glitches do reach outputs

    @pytest.mark.parametrize("seed", (0, 11))
    def test_flip_on_flop_output(self, seed, monkeypatch):
        _, states, _ = self._names(seed)
        faults = [Fault(kind, name, 0, cycle)
                  for name in states for kind in ("seu", "flip")
                  for cycle in (2, 9, CYCLES - 1)]
        wide, scalar, batches = _against_oracle(monkeypatch, seed, faults)
        assert scalar == [] and len(batches) == 1
        assert wide.outcomes["sdc"] > 0

    def test_stuck_at_and_flip_on_one_net_share_a_batch(self, monkeypatch):
        seed = 3
        primary, states, combs = self._names(seed)
        rng = random.Random(seed)
        faults = []
        for name in primary[:2] + states[:2] + combs[:4]:
            stuck = rng.choice(("sa0", "sa1"))
            faults.append(Fault(stuck, name, 0, rng.randrange(1, CYCLES)))
            faults.append(Fault("flip", name, 0, rng.randrange(1, CYCLES)))
        wide, scalar, batches = _against_oracle(monkeypatch, seed, faults)
        assert scalar == []
        assert len(batches) == 1 and set(batches[0]) == set(faults)
        assert wide.outcomes["sdc"] > 0

    def test_unresolvable_target_keeps_scalar_detected_record(
            self, monkeypatch):
        seed = 0
        _, _, combs = self._names(seed)
        unresolvable = [
            Fault("flip", "no/such/net", 0, 4),
            Fault("seu", combs[0], 0, 2),  # not a flop output
            Fault("sa0", "no/such/net", 0, 1),
        ]
        faults = _mixed_list(_make_injector(seed), seed) + unresolvable
        wide, scalar, batches = _against_oracle(monkeypatch, seed, faults)
        assert scalar == unresolvable
        assert batches and not set(unresolvable) & {
            fault for batch in batches for fault in batch}
        records = {record.fault: record for record in wide.records}
        for fault in unresolvable:
            assert records[fault].outcome == "detected"
            assert records[fault].detail.startswith("FaultInjectionError")


def _gate_latcher(backend: str) -> GateFaultInjector:
    circuit = map_module(latching_module())
    optimize(circuit)
    return GateFaultInjector(FaultableGateSimulator(circuit,
                                                    backend=backend))


class TestFinalCycleTransient:
    """Regression: a flip on the last stimulus cycle is one glitch.

    The glitch is clamped through exactly one step — the final stimulus
    step — and healed before the drain, under every backend.  The event
    engine used to let it persist into the drain (a transient acting
    stuck), while a compiled settle healed it before anything sampled
    it (the fault silently dropped), so the same fault classified
    differently per backend.
    """

    CFG = dict(reset_name="reset", done_signal="busy", done_value=0,
               drain_budget=4, idle_input=dict(x=0, go=0, clear=0))

    def _stim(self):
        stim = [dict(x=1, go=1, clear=0)] * 6
        stim += [dict(x=0, go=0, clear=1)]
        stim += [dict(x=0, go=0, clear=0)] * 2
        return stim

    def _run(self, monkeypatch, backend, stim, faults):
        """One campaign; bitparallel flips must all replay in lanes."""
        scalar = _spy(monkeypatch, "_classify")
        result = run_campaign(_gate_latcher(backend), stim, faults,
                              CampaignConfig(**self.CFG), seed=0)
        if backend == "bitparallel":
            assert scalar == []
            assert result.exec_stats["lane_batches"] > 0
        else:
            assert len(scalar) == len(set(faults))
        monkeypatch.undo()
        return result

    def test_backends_agree_and_glitch_is_sampled(self, monkeypatch):
        stim = self._stim()
        last = len(stim) - 1
        targets = _gate_latcher("event").net_targets()
        faults = [Fault("flip", target, 0, last) for target in targets]
        reports = {}
        for backend in BACKENDS:
            result = self._run(monkeypatch, backend, stim, faults)
            reports[backend] = result.to_json()
            # The glitch lands on the very cycle the flops sample, so
            # at least one flip must perturb state or outputs — a
            # backend that heals it pre-sample reports all-masked.
            # (A flip feeding busy's next-state CAN legitimately hang:
            # the corrupted latch outlives the one-cycle glitch.)
            assert any(r.outcome != "masked" for r in result.records)
        assert reports["event"] == reports["compiled"]
        assert reports["compiled"] == reports["bitparallel"]

    def test_mid_run_transients_also_agree(self, monkeypatch):
        stim = self._stim()
        targets = _gate_latcher("event").net_targets()
        rng = random.Random(7)
        faults = [Fault("flip", target, 0, rng.randrange(1, len(stim)))
                  for target in targets]
        reports = [self._run(monkeypatch, backend, stim, faults).to_json()
                   for backend in BACKENDS]
        assert reports[0] == reports[1] == reports[2]


def periodic_module():
    """A countdown beside a free-running LFSR: hang lanes cycle fast.

    ``go`` loads a 3-bit countdown and ``busy`` is high while it runs.
    A 2-bit ``phase`` counts only while busy and a 7-bit maximal-length
    LFSR (period 127) steps only while idle.  With ``busy`` stuck at 1
    a lane repeats every 4 cycles, while every lane that finished keeps
    stepping its LFSR, so the packed state of all lanes together
    repeats only every lcm(4, 127) = 508 cycles.
    """
    b = RtlBuilder("periodic")
    go = b.input("go", bit())
    cnt = b.register("cnt", unsigned(3))
    busy = b.register("busy", bit())
    phase = b.register("phase", unsigned(2))
    lfsr = b.register("lfsr", unsigned(7), reset=1)
    counting = Read(cnt).ne(0)
    b.next(cnt, mux(go, 5, mux(counting, (Read(cnt) - 1).resized(3),
                               Read(cnt))))
    b.next(busy, go | Read(cnt).gt(1))
    b.next(phase, mux(Read(busy), (Read(phase) + 1).resized(2),
                      Read(phase)))
    feedback = Read(lfsr).bit(6) ^ Read(lfsr).bit(5)
    shifted = (Read(lfsr) << 1).resized(7) | feedback.resized(7)
    b.next(lfsr, mux(Read(busy), Read(lfsr), shifted))
    b.output("busy", Read(busy))
    b.output("phase", Read(phase))
    b.output("y", Read(lfsr))
    return b.build()


class TestDrainPeriodicity:
    """The drain stops once the *active* lanes' flop bits repeat.

    Budget 400 lies below the 508-cycle period of the whole packed
    state, so a check over every lane never fires and the hang lane
    would cost the full budget; over the active lane alone it fires
    after a few 4-cycle periods.
    """

    CFG = dict(reset_name="reset", done_signal="busy", done_value=0,
               drain_budget=400, idle_input=dict(go=0))

    @staticmethod
    def _injector(backend: str) -> GateFaultInjector:
        circuit = map_module(periodic_module())
        optimize(circuit)
        return GateFaultInjector(FaultableGateSimulator(circuit,
                                                        backend=backend))

    def test_hang_lane_period_ends_the_drain(self):
        stim = [dict(go=0)] * 3 + [dict(go=1)] + [dict(go=0)] * 12
        states = [name for name, _ in self._injector("event").seu_targets()]
        busy = [name for name in states if "busy" in name]
        lfsr = [name for name in states if "lfsr" in name]
        assert len(busy) == 1 and len(lfsr) == 7
        faults = [Fault("sa1", busy[0], 0, 5)]
        faults += [Fault("seu", name, 0, cycle)
                   for cycle, name in enumerate(lfsr, start=2)]
        faults += [Fault("flip", "go[0]", 0, 3), Fault("sa0", "go[0]", 0, 1)]
        reports = {}
        for backend in ("compiled", "bitparallel"):
            injector = self._injector(backend)
            result = run_campaign(injector, stim, faults,
                                  CampaignConfig(**self.CFG), seed=0)
            reports[backend] = result.to_json()
        assert reports["bitparallel"] == reports["compiled"]
        assert result.outcomes["hang"] == 1
        assert result.outcomes["sdc"] > 0  # finished lanes, LFSRs astray
        assert result.exec_stats["lane_batches"] == 1
        assert injector.sim.stats()["steps"] < self.CFG["drain_budget"] // 4


class TestTraceShape:
    def test_jobs_one_spans_one_per_task(self):
        """``replay`` holds one span per lane batch and per lone fault."""
        seed = 0
        injector = _make_injector(seed)
        lone = Fault("sa0", "no_such_net", 0, 1)  # does not resolve
        faults = _mixed_list(injector, seed) + [lone]
        tracer = Tracer("campaign")
        result = run_campaign(injector, _stimulus(seed), faults, _config(),
                              seed=seed, tracer=tracer)
        [campaign_span] = tracer.roots
        assert campaign_span.name == "campaign"
        assert [span.name for span in campaign_span.children] == [
            "golden", "replay"]
        assert campaign_span.meta["sim_stats"]["backend"] == "bitparallel"
        replay = campaign_span.children[1]
        batches = replay.children[:-1]
        assert len(batches) == result.exec_stats["lane_batches"] > 1
        for span in batches:
            lanes, _ = re.fullmatch(r"lanes\[(\d+)\]@(\d+)",
                                    span.name).groups()
            assert span.meta["faults"] == int(lanes)
            assert sum(span.meta["outcomes"].values()) == int(lanes)
        assert replay.children[-1].name == "sa0:no_such_net[0]@1"
        assert replay.children[-1].meta == {"outcome": "detected"}
        assert replay.meta["faults"] == result.exec_stats["simulated"]
        assert (sum(span.meta["faults"] for span in batches) + 1
                == result.exec_stats["simulated"])


class TestOneCycleStimulus:
    """Regression: ``generate_fault_list`` with ``cycles=1``.

    ``randrange(1, 1)`` used to raise; the boundary now injects at
    cycle 0, which a one-entry stimulus can actually replay.
    """

    def test_cycles_one_injects_at_zero(self):
        injector = _make_injector(0)
        faults = generate_fault_list(injector, 8, 1, seed=2)
        assert faults and all(fault.cycle == 0 for fault in faults)

    def test_one_cycle_campaign_runs(self):
        seed = 0
        faults = generate_fault_list(_make_injector(seed), 6, 1, seed=2,
                                     kinds=("sa0", "sa1"))
        stim = _stimulus(seed)[:1]
        oracle = run_campaign(_make_injector(seed, "compiled"), stim,
                              faults, _config(), seed=seed)
        wide = run_campaign(_make_injector(seed), stim, faults, _config(),
                            seed=seed)
        assert wide.to_json() == oracle.to_json()
        assert len(oracle.records) == 6


class TestOneGuardedSettle:
    """A campaign guards its fault sites once, before the golden run."""

    @pytest.mark.parametrize("backend, n_faults",
                             (("bitparallel", 32), ("compiled", 8)))
    def test_no_settle_regenerates_after_the_golden_run_starts(
            self, backend, n_faults, monkeypatch):
        import repro.netlist.sim as sim_module
        from repro.fault import expocu_campaign

        started: list[bool] = []
        compiles: list[bool] = []
        real_golden = campaign._golden_run

        def golden_run(*args, **kwargs):
            started.append(True)
            return real_golden(*args, **kwargs)

        def spy_compile(*args, **kwargs):
            compiles.append(bool(started))
            return compile(*args, **kwargs)

        monkeypatch.setattr(campaign, "_golden_run", golden_run)
        monkeypatch.setattr(sim_module, "compile", spy_compile,
                            raising=False)
        result = expocu_campaign(flow="netlist", faults=n_faults, seed=1,
                                 backend=backend)
        assert len(result.records) == n_faults
        assert started == [True]
        assert compiles and True not in compiles

    def test_fault_timeout_replays_alone_on_the_wide_engine(
            self, monkeypatch):
        """With a deadline every fault replays by itself at ``M == 1``."""
        seed = 11
        faults = _mixed_list(_make_injector(seed), seed)
        oracle = run_campaign(_make_injector(seed, "compiled"),
                              _stimulus(seed), faults, _config(), seed=seed)
        batches = _spy(monkeypatch, "_classify_batch")
        wide = run_campaign(_make_injector(seed), _stimulus(seed), faults,
                            _config(), seed=seed, fault_timeout=60)
        assert wide.to_json() == oracle.to_json()
        assert batches == []
        assert wide.exec_stats["lane_batches"] == 0
        assert wide.exec_stats["simulated"] == len(set(faults))
