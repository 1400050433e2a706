"""Concurrent RTL fault replay against a full-replay oracle.

The campaign replays every RTL fault as a delta over the recorded
golden run and stops once the faulty machine rejoins it; a scalar drain
also stops once its state provably repeats.  The oracle below replays
with full simulator steps only and never stops early, which is how
every replay ran before.  Every report must be byte-identical to it.
"""

import random

import pytest

from repro.fault import (
    CampaignConfig,
    Fault,
    RtlFaultInjector,
    expocu_injector,
    expocu_stimulus,
    generate_fault_list,
    run_campaign,
)
from repro.fault.scenarios import expocu_config
from repro.rtl import (
    InputCarrier,
    Read,
    Register,
    RtlBuilder,
    RtlSimulator,
    WireCarrier,
    mux,
)
from repro.types.spec import bit, unsigned
from tests.fault.test_campaign import latching_module, stimulus


class FullReplayInjector(RtlFaultInjector):
    """Oracle: full steps, no trajectory, drains to the budget."""

    def step(self, entry):
        return self.sim.step(**dict(entry))

    def state_key(self):
        return object()  # never repeats, so no hang stop either


# ----------------------------------------------------------------------
# seeded random designs
# ----------------------------------------------------------------------
def _fit(expr, width):
    """*expr* at *width*; narrowing XOR-folds the high bits in.

    Folding rather than truncating lets an upset in any bit reach the
    result, so a fan-out entry the replay misses shows in the report.
    """
    while expr.width > width:
        high = expr.range(expr.width - 1, width)
        expr = expr.range(width - 1, 0) ^ _fit(high, width)
    return expr if expr.width == width else expr.resized(width)


def random_design(seed):
    """A small design drawn from *seed*.

    Mixed-width registers with random next-value logic (muxes,
    arithmetic, comparisons, shifts, slices) over registers, inputs,
    shared wires and a child instance whose input is a parent
    expression; every other register holds while ``go`` is low.  The child has no reset and holds ``keep``, which
    nothing rewrites.  ``busy`` is a set-dominant latch cleared only
    by ``clear``, and ``timer`` counts down after a clear, so the done
    output ``active`` makes the drain last a few cycles and an SEU on
    ``busy`` after the clear hangs the design.
    """
    rng = random.Random(seed)
    child = RtlBuilder(f"child{seed}", reset_port=None)
    cin = child.input("cin", unsigned(4))
    keep = child.register("keep", unsigned(3), reset=rng.randrange(8))
    cacc = child.register("cacc", unsigned(4))
    child.next(cacc, (Read(cacc) ^ cin).resized(4))
    child.output("cout", _fit(Read(cacc) + Read(keep), 4))
    child_module = child.build()

    b = RtlBuilder(f"rand{seed}")
    x = b.input("x", unsigned(4))
    y = b.input("y", unsigned(6))
    go = b.input("go", bit())
    clear = b.input("clear", bit())
    busy = b.register("busy", bit())
    timer = b.register("timer", unsigned(3))
    regs = [b.register(f"r{k}", bit() if w == 1 else unsigned(w),
                       reset=rng.randrange(1 << w))
            for k, w in enumerate(rng.choice((1, 3, 4, 6, 8))
                                  for _ in range(rng.randint(4, 7)))]
    pool = [x, y, *(Read(reg) for reg in regs)]
    shared = b.wire("shared", _fit(pool[2] + pool[3], 5))
    pool.append(shared)
    inst = b.instance("u", child_module,
                      cin=_fit(pool[rng.randrange(len(pool))] ^ x, 4))
    pool.append(inst.output("cout"))

    def operand():
        return pool[rng.randrange(len(pool))]

    def cond():
        a, c = operand(), operand()
        pick = rng.randrange(3)
        if pick == 0:
            return a.bit(0)
        if pick == 1:
            return _fit(a, 6).lt(_fit(c, 6))
        return _fit(a, 4).eq(_fit(c, 4))

    def expression(width, depth=2):
        a = operand()
        if depth == 0:
            return _fit(a, width)
        pick = rng.randrange(6)
        if pick == 0:
            return mux(cond(), expression(width, depth - 1),
                       expression(width, depth - 1))
        if pick == 1:
            return _fit(a + expression(width, depth - 1), width)
        if pick == 2:
            return _fit(_fit(a, width) - expression(width, depth - 1),
                        width)
        if pick == 3:
            return _fit(a ^ expression(width, depth - 1), width)
        if pick == 4:
            return _fit(_fit(a, 8) << rng.randrange(3), width)
        return _fit(a.range(a.width - 1, a.width // 2), width)

    for k, reg in enumerate(regs):
        value = expression(reg.width)
        b.next(reg, mux(go, value, Read(reg)) if k % 2 else value)
    b.next(busy, mux(clear, 0, Read(busy) | go))
    b.next(timer, mux(clear, 5, mux(Read(timer).eq(0), Read(timer),
                                    _fit(Read(timer) - 1, 3))))
    b.output("active", Read(busy) | Read(timer).ne(0))
    b.output("o0", _fit(shared ^ operand(), 5))
    b.output("o1", expression(4))
    b.output("o2", Read(regs[-1]))
    return b.build()


def random_stimulus(rng, cycles=14):
    stim = [dict(x=rng.randrange(16), y=rng.randrange(64), go=1, clear=0)
            for _ in range(cycles)]
    stim += [dict(x=0, y=0, go=0, clear=1)]
    stim += [dict(x=rng.randrange(16), y=0, go=0, clear=0)] * 2
    return stim


FAULTS = 64
RANDOM_CONFIG = dict(observed=("o0", "o1", "o2", "active"),
                     done_signal="active", done_value=0, drain_budget=60,
                     idle_input=dict(x=0, y=0, go=0, clear=0))


def _campaign(injector, stim, faults, config, seed):
    return run_campaign(injector, stim, faults, config,
                        design="oracle", seed=seed)


class TestRandomDesigns:
    @pytest.mark.parametrize("seed", range(24))
    def test_reports_match_full_replay(self, seed):
        rng = random.Random(1000 + seed)
        stim = random_stimulus(rng)
        config = CampaignConfig(**RANDOM_CONFIG)
        fast = RtlFaultInjector(RtlSimulator(random_design(seed)))
        faults = generate_fault_list(fast, FAULTS, len(stim), seed)
        oracle = FullReplayInjector(RtlSimulator(random_design(seed)))
        expected = _campaign(oracle, stim, faults, config, seed)
        assert _campaign(fast, stim, faults, config, seed).to_json() \
            == expected.to_json()

    def test_designs_exercise_every_stop(self):
        """The designs mask, corrupt and hang, and replays stop early."""
        outcomes = set()
        steps = {RtlFaultInjector: 0, FullReplayInjector: 0}
        for seed in range(8):
            rng = random.Random(1000 + seed)
            stim = random_stimulus(rng)
            for cls in steps:
                injector = cls(RtlSimulator(random_design(seed)))
                faults = generate_fault_list(injector, FAULTS, len(stim), seed)
                result = _campaign(injector, stim, faults,
                                   CampaignConfig(**RANDOM_CONFIG), seed)
                outcomes |= {r.outcome for r in result.records}
                steps[cls] += injector.sim.stats()["steps"]
        assert outcomes >= {"masked", "sdc", "hang"}
        assert steps[RtlFaultInjector] < steps[FullReplayInjector] * 3 // 4


# ----------------------------------------------------------------------
# the ExpoCU
# ----------------------------------------------------------------------
class TestExpoCU:
    def test_thirty_faults_match_full_replay(self):
        stim = expocu_stimulus(3, frames=1, side=4)
        fast = expocu_injector("rtl", side=4)
        faults = generate_fault_list(fast, 30, len(stim), 3)
        oracle = FullReplayInjector(expocu_injector("rtl", side=4).sim)
        config = expocu_config()
        assert _campaign(fast, stim, faults, config, 3).to_json() \
            == _campaign(oracle, stim, faults, config, 3).to_json()

    def test_reused_injector_follows_each_campaigns_golden_run(self):
        fast = expocu_injector("rtl", side=4)
        oracle = FullReplayInjector(expocu_injector("rtl", side=4).sim)
        config = expocu_config()
        for seed in (5, 6):
            stim = expocu_stimulus(seed, frames=1, side=4)
            faults = generate_fault_list(fast, 6, len(stim), seed)
            assert _campaign(fast, stim, faults, config, seed).to_json() \
                == _campaign(oracle, stim, faults, config, seed).to_json()

    def test_bench_list_work_counters(self):
        """The fixed ``campaign-rtl`` fault list of ``bench/``."""
        injector = expocu_injector("rtl", side=8)
        stim = expocu_stimulus(7, frames=1, side=8)
        faults = generate_fault_list(injector, 6, len(stim), 2004)
        result = _campaign(injector, stim, faults, expocu_config(), 2004)
        stats = injector.sim.stats()
        assert stats["steps"] <= 2350
        assert stats["carrier_evals"] <= 45000
        assert stats["register_changes"] <= stats["register_commits"]
        # A cost formula over the records, not the cycles simulated.
        assert result.objectives()["sim_cycles"] == 2803


# ----------------------------------------------------------------------
# stop rules
# ----------------------------------------------------------------------
class TestStopRules:
    CONFIG = dict(reset_name="reset", done_signal="busy", done_value=0,
                  drain_budget=2000, idle_input=dict(x=0, go=0, clear=0))

    def _steps(self, injector, faults):
        result = run_campaign(injector, stimulus(), faults,
                              CampaignConfig(**self.CONFIG), seed=0)
        return result, injector.sim.stats()["steps"]

    def test_hang_keeps_its_record_and_stops_early(self):
        hang = Fault("seu", "busy", 0, 10)
        oracle, _ = self._steps(
            FullReplayInjector(RtlSimulator(latching_module())), [hang])
        _, golden_steps = self._steps(
            RtlFaultInjector(RtlSimulator(latching_module())), [])
        result, steps = self._steps(
            RtlFaultInjector(RtlSimulator(latching_module())), [hang])
        assert result.records[0].outcome == "hang"
        assert result.to_json() == oracle.to_json()
        assert steps - golden_steps < self.CONFIG["drain_budget"] // 100

    def test_converged_replay_stops_at_once(self):
        # busy is set by go at cycle 2 anyway: the flipped bit is
        # rewritten by the first step, which rejoins the golden run.
        fault = Fault("seu", "busy", 0, 2)
        oracle, _ = self._steps(
            FullReplayInjector(RtlSimulator(latching_module())), [fault])
        _, golden_steps = self._steps(
            RtlFaultInjector(RtlSimulator(latching_module())), [])
        result, steps = self._steps(
            RtlFaultInjector(RtlSimulator(latching_module())), [fault])
        assert result.to_json() == oracle.to_json()
        assert steps - golden_steps == 1


class TestTrajectory:
    def test_selfcheck_holds_registers_to_the_recording(self):
        """A restore that corrupts unobserved state fails the self-check.

        Only ``busy`` is observed, so the outputs cannot tell; the
        recorded register states can.
        """
        class Drifting(RtlFaultInjector):
            def restore(self, snap):
                super().restore(snap)
                acc = self.sim.find_register("acc")
                self.sim.poke_register(acc, self.sim.register_value(acc) ^ 1)

        config = CampaignConfig(observed=("busy",), **TestStopRules.CONFIG)
        sim = RtlSimulator(latching_module())
        clean = run_campaign(RtlFaultInjector(sim), stimulus(), [], config)
        drifting = run_campaign(Drifting(RtlSimulator(latching_module())),
                                stimulus(), [], config)
        assert clean.golden_selfcheck == "masked"
        assert drifting.golden_selfcheck == "sdc"


class TestFanout:
    def test_every_read_is_in_the_map(self):
        """Every register read in a cone shows up in the fan-out map."""
        sim = RtlSimulator(random_design(3))
        fanout = sim.fanout()
        registers = sim.registers()
        index = {reg.uid: k for k, reg in enumerate(registers)}
        for k, reg in enumerate(registers):
            for uid in _reads(sim, reg.next):
                assert k in fanout[index[uid]][0]
        for o, expr in enumerate(sim.module.outputs.values()):
            for uid in _reads(sim, expr):
                assert o in fanout[index[uid]][1]

    def test_guarded_loop_replays_like_a_full_step(self):
        """A loop in a cone makes the map total, so errors match.

        ``w`` reads itself behind a mux that ``g`` only opens after an
        SEU; the full step then raises, recorded as ``detected``.
        """
        b = RtlBuilder("guarded_loop")
        a = b.input("a", bit())
        g = b.register("g", bit())
        r = b.register("r", bit())
        w = b.module.add_wire("w", a)
        w.expr = mux(Read(g), ~Read(w), a)
        b.next(r, Read(w))
        b.output("q", Read(r))
        module = b.build()
        stim = [dict(a=k & 1) for k in range(8)]
        faults = [Fault("seu", "g", 0, 3), Fault("seu", "r", 0, 4)]
        config = CampaignConfig(observed=("q",))
        fast = _campaign(RtlFaultInjector(RtlSimulator(module)), stim,
                         faults, config, 0)
        oracle = _campaign(FullReplayInjector(RtlSimulator(module)), stim,
                           faults, config, 0)
        assert fast.to_json() == oracle.to_json()
        assert fast.records[0].outcome == "detected"
        assert "CombinationalLoopError" in fast.records[0].detail


def _reads(sim, expr, seen=None):
    """Register uids an expression's cone reads, by plain recursion."""
    seen = set() if seen is None else seen
    if isinstance(expr, Read):
        carrier = expr.carrier
        if isinstance(carrier, Register):
            seen.add(carrier.uid)
        elif isinstance(carrier, WireCarrier):
            _reads(sim, carrier.expr, seen)
        elif isinstance(carrier, InputCarrier):
            parent = sim._input_parent.get(carrier.uid)
            if parent is not None:
                _reads(sim, parent[0].connections[carrier.name], seen)
        else:
            _reads(sim, carrier.instance.module.outputs[carrier.port_name],
                   seen)
    for child in expr.children():
        _reads(sim, child, seen)
    return seen
