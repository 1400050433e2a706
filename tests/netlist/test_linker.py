"""Direct unit tests for the netlist-level IP linker (paper Fig. 6).

Hosts are gate arenas, as the mapper leaves them; each IP is a
:class:`Circuit`.
"""

import pytest

from repro.netlist.arena import GateArena
from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.linker import link
from repro.netlist.sim import GateSimulator


def inv_ip_arena(name="inv_ip", width=2):
    """IP: bitwise inverter, ``y = ~a``, on a gate arena."""
    ip = GateArena(name)
    a = ip.new_bus("a", width)
    y = ip.new_bus("y", width)
    ip.mark_input("a", a)
    ip.mark_output("y", y)
    for k in range(width):
        ip.add_cell(f"inv{k}", "INV", a=a[k], y=y[k])
    return ip


def make_inv_ip(name="inv_ip", width=2):
    """IP: bitwise inverter, ``y = ~a``."""
    return inv_ip_arena(name, width).to_circuit()


def make_host(ip_name="inv_ip", width=2):
    """Host: primary input x → black box → primary output z."""
    host = GateArena("host")
    x = host.new_bus("x", width)
    z = host.new_bus("z", width)
    host.mark_input("x", x)
    host.mark_output("z", z)
    host.add_blackbox("u_ip", ip_name, input_buses={"a": x},
                      output_buses={"y": z})
    return host


class TestLinkSuccess:
    def test_blackbox_resolved(self):
        host = make_host()
        result = link(host, {"inv_ip": make_inv_ip()})
        assert result is host  # linked in place
        assert host.blackboxes == []
        assert host.to_circuit().cell_count("INV") == 2

    def test_linked_netlist_simulates(self):
        host = link(make_host(), {"inv_ip": make_inv_ip()})
        sim = GateSimulator(host.to_circuit())
        outputs = sim.step(x=0b01)
        assert outputs["z"] == 0b10

    def test_cloned_cells_carry_instance_prefix(self):
        host = link(make_host(), {"inv_ip": make_inv_ip()})
        names = [c.name for c in host.to_circuit().cells]
        assert all(name.startswith("u_ip/") for name in names)

    def test_two_instances_of_one_ip(self):
        host = GateArena("host")
        x = host.new_bus("x", 1)
        mid = host.new_bus("mid", 1)
        z = host.new_bus("z", 1)
        host.mark_input("x", x)
        host.mark_output("z", z)
        host.add_blackbox("u0", "inv_ip", {"a": x}, {"y": mid})
        host.add_blackbox("u1", "inv_ip", {"a": mid}, {"y": z})
        link(host, {"inv_ip": make_inv_ip(width=1)})
        sim = GateSimulator(host.to_circuit())
        assert sim.step(x=1)["z"] == 1  # double inversion


class TestLinkErrors:
    def test_missing_ip(self):
        with pytest.raises(NetlistError, match="not in the library"):
            link(make_host(), {"other": make_inv_ip("other")})

    def test_unlinked_ip_rejected(self):
        nested = inv_ip_arena()
        inner = nested.new_bus("q", 1)
        nested.add_blackbox("deep", "missing", {}, {"q": inner})
        with pytest.raises(NetlistError, match="itself unlinked"):
            link(make_host(), {"inv_ip": nested.to_circuit()})

    def test_input_bus_width_mismatch(self):
        with pytest.raises(NetlistError, match="input bus 'a' mismatch"):
            link(make_host(width=2), {"inv_ip": make_inv_ip(width=3)})

    def test_output_bus_name_mismatch(self):
        ip = Circuit("inv_ip")
        a = ip.new_bus("a", 2)
        out = ip.new_bus("out", 2)
        ip.mark_input("a", a)
        ip.mark_output("out", out)  # host expects "y"
        for k in range(2):
            ip.add_cell(f"inv{k}", "INV", a=a[k], y=out[k])
        with pytest.raises(NetlistError, match="output bus 'y' mismatch"):
            link(make_host(), {"inv_ip": ip})


class TestTieReuse:
    def test_ip_constants_use_host_const_nets(self):
        ip = Circuit("const_ip")
        a = ip.new_bus("a", 1)
        y = ip.new_bus("y", 1)
        ip.mark_input("a", a)
        ip.mark_output("y", y)
        one = ip.const_net(1)
        ip.add_cell("or0", "OR2", i0=a[0], i1=one, y=y[0])

        host = make_host("const_ip", width=1)
        linked = link(host, {"const_ip": ip}).to_circuit()
        # The IP's TIE1 cell is replaced by a BUF off the host's shared
        # constant net; no TIE cells are cloned.
        assert linked.cell_count("TIE1") == 1  # the host's own shared tie
        assert linked.cell_count("BUF") == 1
        sim = GateSimulator(linked)
        assert sim.step(x=0)["z"] == 1
        assert sim.step(x=1)["z"] == 1


class TestWireThrough:
    def test_output_equal_to_input_gets_buffered(self):
        ip = Circuit("thru_ip")
        a = ip.new_bus("a", 1)
        ip.mark_input("a", a)
        ip.mark_output("y", a)  # output IS the input net
        host = make_host("thru_ip", width=1)
        linked = link(host, {"thru_ip": ip}).to_circuit()
        assert linked.cell_count("BUF") == 1
        buf = next(c for c in linked.cells if c.ctype.name == "BUF")
        assert buf.name == "u_ip/thru_y"
        sim = GateSimulator(linked)
        assert sim.step(x=1)["z"] == 1
        assert sim.step(x=0)["z"] == 0
