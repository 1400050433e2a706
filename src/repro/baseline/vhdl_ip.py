"""Pre-synthesized "VHDL IP" blocks (paper Fig. 6, §2).

The paper integrates existing VHDL IP — *"some components like multipliers
and specific constructs are to be integrated as existing VHDL IP"* — by
synthesizing it separately and linking at the netlist level.  This module
plays the IP vendor: it provides combinational multiplier IP as

* a *black-box* RTL module (ports only, ``blackbox_ip`` attribute) that
  designs instantiate, and
* the separately mapped gate-level :class:`~repro.netlist.circuit.Circuit`
  that the netlist linker splices in.
"""

from __future__ import annotations

from repro.netlist.circuit import Circuit
from repro.netlist.opt import optimize
from repro.netlist.techmap import TechMapper
from repro.rtl.ir import Read, RtlModule
from repro.types.spec import unsigned


def multiplier_blackbox(a_width: int = 16, b_width: int = 8) -> RtlModule:
    """A black-box instance shell for the ``mulAxB`` IP.

    The module carries no logic; the technology mapper leaves a black box
    in the netlist and :func:`ip_library` supplies the implementation.
    """
    name = f"ip_mul{a_width}x{b_width}"
    shell = RtlModule(name)
    shell.add_input("a", unsigned(a_width))
    shell.add_input("b", unsigned(b_width))
    # Outputs must exist for instance wiring; the expression is never
    # mapped (the blackbox_ip marker short-circuits the mapper).
    a = shell.inputs["a"]
    b = shell.inputs["b"]
    shell.add_output("p", (Read(a) * Read(b)))
    shell.attributes["blackbox_ip"] = name
    return shell


def multiplier_ip_circuit(a_width: int = 16, b_width: int = 8) -> Circuit:
    """The 'vendor netlist': a separately synthesized array multiplier."""
    name = f"ip_mul{a_width}x{b_width}"
    rtl = RtlModule(name)
    a = rtl.add_input("a", unsigned(a_width))
    b = rtl.add_input("b", unsigned(b_width))
    rtl.add_output("p", Read(a) * Read(b))
    return optimize(TechMapper(rtl).map())


def ip_library(a_width: int = 16, b_width: int = 8) -> dict[str, Circuit]:
    """The IP library handed to :func:`repro.netlist.linker.link`."""
    name = f"ip_mul{a_width}x{b_width}"
    return {name: multiplier_ip_circuit(a_width, b_width)}
