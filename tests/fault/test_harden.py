"""Hardening primitives: voters, TMR, parity — and their payoff."""

import pytest

from repro.fault import (
    FaultableGateSimulator,
    add_parity_guards,
    harden_circuit,
    majority_voter,
    tmr_harden,
)
from repro.netlist import Circuit, GateSimulator, map_module, optimize
from repro.netlist.circuit import NetlistError
from repro.rtl import Read, RtlBuilder
from repro.types.spec import unsigned


def register_circuit(width=4):
    """A ``width``-bit register loading ``x`` every cycle."""
    b = RtlBuilder("reg")
    x = b.input("x", unsigned(width))
    r = b.register("r", unsigned(width))
    b.next(r, x)
    b.output("y", Read(r))
    return optimize(map_module(b.build()))


class TestMajorityVoter:
    @pytest.mark.parametrize("a,b,c", [(a, b, c) for a in (0, 1)
                                       for b in (0, 1) for c in (0, 1)])
    def test_truth_table(self, a, b, c):
        circuit = Circuit("vote")
        ins = [circuit.new_net(n) for n in "abc"]
        out = circuit.new_net("maj")
        majority_voter(circuit, *ins, out, "v")
        for k, net in enumerate(ins):
            circuit.mark_input("abc"[k], [net])
        circuit.mark_output("maj", [out])
        sim = GateSimulator(circuit)
        sim.step(a=a, b=b, c=c)
        assert sim.peek_outputs()["maj"] == (a + b + c >= 2)

    def test_rejects_driven_output(self):
        circuit = register_circuit()
        driven = circuit.output_buses["y"][0]
        nets = [circuit.new_net(f"n{k}") for k in range(3)]
        with pytest.raises(NetlistError):
            majority_voter(circuit, *nets, driven, "v")


class TestTmr:
    def test_triplicates_flops(self):
        circuit = register_circuit(4)
        before = len(circuit.flops())
        hardened = tmr_harden(circuit)
        assert hardened == before
        assert len(circuit.flops()) == 3 * before
        circuit.validate()

    def test_fault_free_behaviour_preserved(self):
        plain = GateSimulator(register_circuit(4))
        tmr = GateSimulator(harden_circuit(register_circuit(4), "tmr"))
        plain.step(reset=1)
        tmr.step(reset=1)
        for value in (5, 9, 0, 15, 3):
            plain.step(reset=0, x=value)
            tmr.step(reset=0, x=value)
            assert plain.peek_outputs()["y"] == tmr.peek_outputs()["y"]

    def test_single_copy_seu_is_voted_out(self):
        circuit = harden_circuit(register_circuit(4), "tmr")
        sim = FaultableGateSimulator(circuit)
        sim.step(reset=1)
        sim.step(reset=0, x=5)
        copy_q = next(f.pins["q"] for f in circuit.flops()
                      if "__tmr_qb" in f.pins["q"].name)
        sim.flip_net(copy_q)
        assert sim.peek_outputs()["y"] == 5  # voter masks the upset

    def test_rejects_non_dff(self):
        circuit = register_circuit()
        comb = circuit.comb_cells()[0]
        with pytest.raises(NetlistError):
            tmr_harden(circuit, [comb])


class TestParity:
    def test_adds_error_output_and_flop_per_group(self):
        circuit = register_circuit(4)
        flops = len(circuit.flops())
        groups = add_parity_guards(circuit)
        assert groups == 1  # one register stem: reg/r[k]
        assert len(circuit.flops()) == flops + groups
        assert "parity_err" in circuit.output_buses
        circuit.validate()

    def test_quiet_without_faults(self):
        circuit = register_circuit(4)
        add_parity_guards(circuit)
        sim = GateSimulator(circuit)
        sim.step(reset=1)
        for value in (5, 9, 0, 15):
            sim.step(reset=0, x=value)
            assert sim.peek_outputs()["parity_err"] == 0

    def test_state_upset_raises_error_flag(self):
        circuit = register_circuit(4)
        add_parity_guards(circuit)
        sim = FaultableGateSimulator(circuit)
        sim.step(reset=1)
        sim.step(reset=0, x=5)
        state_q = next(f.pins["q"] for f in circuit.flops()
                       if "__par" not in f.name)
        sim.flip_net(state_q)
        assert sim.peek_outputs()["parity_err"] == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(NetlistError):
            harden_circuit(register_circuit(), "ecc")


@pytest.mark.slow
class TestExpoCuHardeningPayoff:
    """Acceptance: hardened ExpoCU has strictly fewer sdc+hang outcomes."""

    def test_tmr_strictly_reduces_sdc_and_hang(self):
        from repro.fault import expocu_campaign

        plain = expocu_campaign(flow="netlist", faults=12, seed=1,
                                hardening="none")
        tmr = expocu_campaign(flow="netlist", faults=12, seed=1,
                              hardening="tmr")
        assert plain.golden_selfcheck == tmr.golden_selfcheck == "masked"
        assert plain.golden_done and tmr.golden_done
        plain_bad = plain.outcomes["sdc"] + plain.outcomes["hang"]
        tmr_bad = tmr.outcomes["sdc"] + tmr.outcomes["hang"]
        assert plain_bad > 0, plain.outcomes
        assert tmr_bad < plain_bad, (plain.outcomes, tmr.outcomes)
