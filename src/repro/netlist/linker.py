"""Netlist-level IP linking (paper Fig. 6).

The paper integrates existing VHDL IP by synthesizing it separately and
letting the tools *"connect the whole design automatically"* on the netlist
level.  :func:`link` reproduces that: black-box instances left by the
technology mapper are replaced by clones of separately mapped IP circuits,
with the IP's primary input/output nets spliced onto the host's nets.

The host is the mapper's :class:`~repro.netlist.arena.GateArena`, where
the black boxes wait (integer nets); each IP is a finished
:class:`~repro.netlist.circuit.Circuit`, cloned cell by cell through the
arena's ``new_net``, ``const_net`` and ``add_cell``.
"""

from __future__ import annotations

from repro.netlist.arena import GateArena
from repro.netlist.cells import BUF
from repro.netlist.circuit import Circuit, Net, NetlistError


def _clone_ip(host: GateArena, ip: Circuit, prefix: str,
              net_map: dict[int, int]) -> None:
    """Copy every cell of *ip* into *host*, translating nets."""

    def translate(net: Net) -> int:
        mapped = net_map.get(net.uid)
        if mapped is None:
            mapped = host.new_net(f"{prefix}/{net.name}")
            net_map[net.uid] = mapped
        return mapped

    for cell in ip.cells:
        pins = {pin: translate(net) for pin, net in cell.pins.items()}
        if cell.ctype.name in ("TIE0", "TIE1"):
            # Reuse the host's shared constant nets instead of new ties.
            value = 1 if cell.ctype.name == "TIE1" else 0
            const = host.const_net(value)
            out = pins[cell.ctype.outputs[0]]
            host.add_cell(f"{prefix}/{cell.name}", BUF, a=const, y=out)
            continue
        host.add_cell(f"{prefix}/{cell.name}", cell.ctype, **pins)


def link(host: GateArena, ip_library: dict[str, Circuit]) -> GateArena:
    """Resolve every black box in *host* using *ip_library* (in place)."""
    for box in list(host.blackboxes):
        ip = ip_library.get(box.ip_name)
        if ip is None:
            raise NetlistError(
                f"black box {box.name!r} needs IP {box.ip_name!r}, "
                f"which is not in the library {sorted(ip_library)}"
            )
        if ip.blackboxes:
            raise NetlistError(f"IP {ip.name!r} is itself unlinked")
        net_map: dict[int, int] = {}
        for bus_name, host_nets in box.input_buses.items():
            ip_nets = ip.input_buses.get(bus_name)
            if ip_nets is None or len(ip_nets) != len(host_nets):
                raise NetlistError(
                    f"{box.name}: input bus {bus_name!r} mismatch with IP "
                    f"{ip.name!r}"
                )
            for ip_net, host_net in zip(ip_nets, host_nets):
                net_map[ip_net.uid] = host_net
        for bus_name, host_nets in box.output_buses.items():
            ip_nets = ip.output_buses.get(bus_name)
            if ip_nets is None or len(ip_nets) != len(host_nets):
                raise NetlistError(
                    f"{box.name}: output bus {bus_name!r} mismatch with IP "
                    f"{ip.name!r}"
                )
            for ip_net, host_net in zip(ip_nets, host_nets):
                if ip_net.uid in net_map:
                    # Wire-through: the IP output is directly one of its
                    # inputs; keep the input mapping and buffer across.
                    host.add_cell(
                        f"{box.name}/thru_{bus_name}",
                        BUF,
                        a=net_map[ip_net.uid],
                        y=host_net,
                    )
                else:
                    net_map[ip_net.uid] = host_net
        _clone_ip(host, ip, box.name, net_map)
        host.blackboxes.remove(box)
    return host
