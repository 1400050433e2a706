"""Technology mapping: RTL → standard cells.

Both design flows (OSSS behavioral synthesis and the hand-written "VHDL"
baseline) pass through this one mapper, so gate counts and timing compare
the *descriptions*, not the backends — the property the paper's area and
frequency comparisons (§12) depend on.

Mapping rules (all buses LSB-first):

=================  =====================================================
IR node            implementation
=================  =====================================================
``and or xor``     per-bit gates, operands zero-extended to result width
``invert, not``    inverters
``add, sub, neg``  ripple-carry adder (sub/neg via inverted operand + cin)
``mul``            array multiplier modulo the result width
``eq, ne``         XNOR column + AND tree
``lt le gt ge``    width+1 subtraction, sign bit of the difference
``Mux``            per-bit MUX2
``ShiftConst``     pure rewiring with zero/sign fill
``ShiftDyn``       logarithmic barrel shifter (MUX2 stages)
``reduce_*``       balanced gate tree
``Slice/Concat/    pure rewiring
Resize``
``Register``       one DFF per bit (reset already folded into ``next``)
=================  =====================================================

Hierarchy is flattened during mapping; every generated cell name carries
its instance path (``top/child/...``) so the Fig. 12 per-module report can
re-aggregate areas afterwards.  Instances of black-box IP modules (RTL
modules with an ``attributes["blackbox_ip"]`` marker) become netlist-level
:class:`~repro.netlist.circuit.BlackBox` entries for the linker.

The mapper emits into a :class:`~repro.netlist.arena.GateArena`: nets are
ints and a gate is a few list appends, its name kept as parts.
:func:`map_module` returns that arena; the linker and the optimizer take
it from there, and objects are built only for the cells that survive
(``optimize(map_module(rtl))``).  ``map_module(rtl).to_circuit()`` is
the raw, unoptimized :class:`~repro.netlist.circuit.Circuit`.
"""

from __future__ import annotations

from repro.netlist.arena import GateArena
from repro.netlist.cells import (
    AND2,
    DFF,
    INV,
    MUX2,
    OR2,
    XNOR2,
    XOR2,
    CellType,
)
from repro.netlist.circuit import NetlistError
from repro.rtl.ir import (
    BinOp,
    Carrier,
    Concat,
    Const,
    Expr,
    InputCarrier,
    InstanceOutputCarrier,
    Instance,
    Mux,
    Read,
    Register,
    Resize,
    RtlModule,
    ShiftConst,
    ShiftDyn,
    Slice,
    UnaryOp,
    WireCarrier,
)

#: A bus of arena nets, LSB first.
Bits = list[int]


def _is_signed_kind(kind: str) -> bool:
    return kind in ("signed", "fixed")


class TechMapper:
    """Maps one :class:`RtlModule` tree into a :class:`GateArena`."""

    def __init__(self, module: RtlModule) -> None:
        module.validate()
        self.module = module
        self.arena = GateArena(module.name)
        self._expr_nets: dict[int, Bits] = {}
        self._carrier_nets: dict[int, Bits] = {}
        self._carrier_prefix: dict[int, str] = {}
        self._dff_q: dict[int, Bits] = {}
        self._registers: list[tuple[Register, str]] = []
        self._instances: list[tuple[Instance, str]] = []
        self._cell_seq = 0
        self._in_progress: set[int] = set()
        self._child_input_instance: dict[int, Instance] = {}
        self._blackboxes: list[tuple[Instance, str, str]] = []

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def map(self) -> GateArena:
        """Run the mapping and return the finished arena."""
        self._walk(self.module, self.module.name)
        # Primary inputs.
        for name, carrier in self.module.inputs.items():
            nets = self.arena.new_bus(name, carrier.width)
            self.arena.mark_input(name, nets)
            self._carrier_nets[carrier.uid] = nets
        # Black-box IP instances (deferred from the walk).
        for instance, prefix, child_prefix in self._blackboxes:
            self._map_blackbox(instance, prefix, child_prefix)
        # Map every register's next expression, then create the flops.
        for reg, prefix in self._registers:
            d_nets = self._map(reg.next, prefix)
            q_nets = self._q_nets(reg, prefix)
            for k in range(reg.width):
                self._cell_seq += 1
                self.arena.new_cell(DFF, (d_nets[k],), q_nets[k], prefix,
                                    f"{reg.name}[{k}]", self._cell_seq)
        # Primary outputs.
        for name, expr in self.module.outputs.items():
            nets = self._map(expr, self.module.name)
            self.arena.mark_output(name, nets)
        return self.arena

    # ------------------------------------------------------------------
    # hierarchy walk
    # ------------------------------------------------------------------
    def _walk(self, module: RtlModule, prefix: str) -> None:
        for reg in module.registers:
            self._registers.append((reg, prefix))
            self._carrier_prefix[reg.uid] = prefix
        for wire in module.wires:
            self._carrier_prefix[wire.uid] = prefix
        for instance in module.instances:
            child_prefix = f"{prefix}/{instance.name}"
            if instance.module.attributes.get("blackbox_ip"):
                # Defer: connection expressions may read primary inputs
                # that are only created after the walk.
                self._blackboxes.append((instance, prefix, child_prefix))
                continue
            self._instances.append((instance, prefix))
            for carrier in instance.module.inputs.values():
                # Child inputs are driven by parent-context expressions.
                self._carrier_prefix[carrier.uid] = prefix
                self._child_input_instance[carrier.uid] = instance
            for carrier in instance.output_carriers.values():
                self._carrier_prefix[carrier.uid] = child_prefix
            self._walk(instance.module, child_prefix)

    def _map_blackbox(self, instance: Instance, parent_prefix: str,
                      child_prefix: str) -> None:
        inputs: dict[str, Bits] = {}
        for port_name, expr in instance.connections.items():
            inputs[port_name] = self._map(expr, parent_prefix)
        outputs: dict[str, Bits] = {}
        for port_name, carrier in instance.output_carriers.items():
            nets = self.arena.new_bus(
                f"{child_prefix}/{port_name}", carrier.width
            )
            outputs[port_name] = nets
            self._carrier_nets[carrier.uid] = nets
        ip_name = instance.module.attributes["blackbox_ip"]
        self.arena.add_blackbox(child_prefix, ip_name, inputs, outputs)

    # ------------------------------------------------------------------
    # low-level helpers
    # ------------------------------------------------------------------
    def _gate(self, prefix: str, ctype: CellType, hint: str,
              *ins: int) -> int:
        seq = self._cell_seq
        self._cell_seq = seq + 1
        return self.arena.gate(ctype, ins, prefix, hint, seq)

    def _mux_net(self, prefix: str, hint: str, sel: int, d1: int,
                 d0: int) -> int:
        return self._gate(prefix, MUX2, hint, d0, d1, sel)

    def _const_bits(self, raw: int, width: int) -> Bits:
        return [
            self.arena.const_net((raw >> k) & 1) for k in range(width)
        ]

    def _tree(self, prefix: str, ctype: CellType, hint: str,
              nets: Bits) -> int:
        """Balanced reduction tree over *nets* with 2-input gates."""
        if not nets:
            raise NetlistError("reduction over empty bus")
        level = list(nets)
        while len(level) > 1:
            nxt: Bits = []
            for k in range(0, len(level) - 1, 2):
                nxt.append(self._gate(prefix, ctype, hint,
                                      level[k], level[k + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def _extend(self, nets: Bits, width: int, signed: bool) -> Bits:
        if len(nets) >= width:
            return nets[:width]
        fill = nets[-1] if signed else self.arena.const_net(0)
        return nets + [fill] * (width - len(nets))

    def _extend_expr(self, expr: Expr, nets: Bits, width: int) -> Bits:
        return self._extend(nets, width, _is_signed_kind(expr.spec.kind))

    # ------------------------------------------------------------------
    # arithmetic building blocks
    # ------------------------------------------------------------------
    def _full_adder(self, prefix: str, a: int, b: int,
                    cin: int | None) -> tuple[int, int]:
        """Returns (sum, carry_out)."""
        axb = self._gate(prefix, XOR2, "fa_x", a, b)
        if cin is None:
            carry = self._gate(prefix, AND2, "fa_c", a, b)
            return axb, carry
        s = self._gate(prefix, XOR2, "fa_s", axb, cin)
        c1 = self._gate(prefix, AND2, "fa_a1", a, b)
        c2 = self._gate(prefix, AND2, "fa_a2", axb, cin)
        carry = self._gate(prefix, OR2, "fa_o", c1, c2)
        return s, carry

    def _ripple_add(self, prefix: str, a: Bits, b: Bits,
                    cin: int | None = None) -> Bits:
        """Width-preserving ripple-carry addition (equal-width operands)."""
        if len(a) != len(b):
            raise NetlistError("ripple_add operands must be pre-extended")
        out: Bits = []
        carry = cin
        for k in range(len(a)):
            s, carry = self._full_adder(prefix, a[k], b[k], carry)
            out.append(s)
        return out

    def _invert_bits(self, prefix: str, nets: Bits) -> Bits:
        return [self._gate(prefix, INV, "inv", n) for n in nets]

    def _sub_bits(self, prefix: str, a: Bits, b: Bits) -> Bits:
        """a - b, width preserved (operands pre-extended)."""
        nb = self._invert_bits(prefix, b)
        one = self.arena.const_net(1)
        return self._ripple_add(prefix, a, nb, cin=one)

    # ------------------------------------------------------------------
    # expression dispatch
    # ------------------------------------------------------------------
    def _map(self, expr: Expr, prefix: str) -> Bits:
        key = id(expr)
        if key in self._expr_nets:
            return self._expr_nets[key]
        if key in self._in_progress:
            raise NetlistError("combinational loop in RTL expressions")
        self._in_progress.add(key)
        nets = self._dispatch(expr, prefix)
        self._in_progress.discard(key)
        if len(nets) != expr.width:
            raise NetlistError(
                f"mapper produced {len(nets)} bits for {expr!r} "
                f"(expected {expr.width})"
            )
        self._expr_nets[key] = nets
        return nets

    def _q_nets(self, reg: Register, prefix: str) -> Bits:
        nets = self._dff_q.get(reg.uid)
        if nets is None:
            nets = [
                self.arena.new_net(f"{prefix}/{reg.name}_q[{k}]")
                for k in range(reg.width)
            ]
            self._dff_q[reg.uid] = nets
        return nets

    def _carrier(self, carrier: Carrier) -> Bits:
        uid = carrier.uid
        if uid in self._carrier_nets:
            return self._carrier_nets[uid]
        prefix = self._carrier_prefix.get(uid, self.module.name)
        if isinstance(carrier, Register):
            return self._q_nets(carrier, prefix)
        if isinstance(carrier, WireCarrier):
            nets = self._map(carrier.expr, prefix)
        elif isinstance(carrier, InstanceOutputCarrier):
            instance = carrier.instance
            child_prefix = f"{prefix}"
            nets = self._map(
                instance.module.outputs[carrier.port_name], child_prefix
            )
        elif isinstance(carrier, InputCarrier):
            instance = self._child_input_instance.get(uid)
            if instance is None:
                raise NetlistError(
                    f"input carrier {carrier.name!r} reached before "
                    "primary inputs were created"
                )
            nets = self._map(instance.connections[carrier.name], prefix)
        else:  # pragma: no cover
            raise NetlistError(f"unknown carrier {carrier!r}")
        self._carrier_nets[uid] = nets
        return nets

    def _dispatch(self, expr: Expr, prefix: str) -> Bits:
        if isinstance(expr, Const):
            return self._const_bits(expr.raw, expr.width)
        if isinstance(expr, Read):
            return list(self._carrier(expr.carrier))
        if isinstance(expr, UnaryOp):
            return self._map_unary(expr, prefix)
        if isinstance(expr, BinOp):
            return self._map_binop(expr, prefix)
        if isinstance(expr, Mux):
            sel = self._map(expr.cond, prefix)[0]
            t = self._map(expr.if_true, prefix)
            f = self._map(expr.if_false, prefix)
            return [
                self._mux_net(prefix, "mux", sel, t[k], f[k])
                for k in range(expr.width)
            ]
        if isinstance(expr, Slice):
            nets = self._map(expr.a, prefix)
            return nets[expr.lo:expr.hi + 1]
        if isinstance(expr, Concat):
            out: Bits = []
            for part in reversed(expr.parts):
                out.extend(self._map(part, prefix))
            return out
        if isinstance(expr, ShiftConst):
            return self._map_shift_const(expr, prefix)
        if isinstance(expr, ShiftDyn):
            return self._map_shift_dyn(expr, prefix)
        if isinstance(expr, Resize):
            nets = self._map(expr.a, prefix)
            return self._extend_expr(expr.a, nets, expr.width)
        raise NetlistError(f"unmappable expression {expr!r}")

    # ------------------------------------------------------------------
    # operator families
    # ------------------------------------------------------------------
    def _map_unary(self, expr: UnaryOp, prefix: str) -> Bits:
        nets = self._map(expr.a, prefix)
        if expr.op == "invert":
            return self._invert_bits(prefix, nets)
        if expr.op == "not":
            return [self._gate(prefix, INV, "not", nets[0])]
        if expr.op == "neg":
            inverted = self._invert_bits(prefix, nets)
            zero = self._const_bits(0, len(nets))
            one = self.arena.const_net(1)
            return self._ripple_add(prefix, inverted, zero, cin=one)
        if expr.op == "reduce_or":
            return [self._tree(prefix, OR2, "ror", nets)]
        if expr.op == "reduce_and":
            return [self._tree(prefix, AND2, "rand", nets)]
        if expr.op == "reduce_xor":
            return [self._tree(prefix, XOR2, "rxor", nets)]
        raise NetlistError(f"unmappable unary op {expr.op!r}")

    def _map_binop(self, expr: BinOp, prefix: str) -> Bits:
        a_nets = self._map(expr.a, prefix)
        b_nets = self._map(expr.b, prefix)
        op = expr.op
        if op in ("and", "or", "xor"):
            width = expr.width
            a_ext = self._extend(a_nets, width, signed=False)
            b_ext = self._extend(b_nets, width, signed=False)
            ctype = {"and": AND2, "or": OR2, "xor": XOR2}[op]
            return [
                self._gate(prefix, ctype, op, a_ext[k], b_ext[k])
                for k in range(width)
            ]
        if op in ("add", "sub"):
            width = expr.width
            a_ext = self._extend_expr(expr.a, a_nets, width)
            b_ext = self._extend_expr(expr.b, b_nets, width)
            if op == "add":
                return self._ripple_add(prefix, a_ext, b_ext)
            return self._sub_bits(prefix, a_ext, b_ext)
        if op == "mul":
            return self._map_mul(expr, a_nets, b_nets, prefix)
        if op in ("eq", "ne"):
            width = max(len(a_nets), len(b_nets))
            a_ext = self._extend_expr(expr.a, a_nets, width)
            b_ext = self._extend_expr(expr.b, b_nets, width)
            columns = [
                self._gate(prefix, XNOR2, "eq", a_ext[k], b_ext[k])
                for k in range(width)
            ]
            equal = self._tree(prefix, AND2, "eq_t", columns)
            if op == "eq":
                return [equal]
            return [self._gate(prefix, INV, "ne", equal)]
        if op in ("lt", "le", "gt", "ge"):
            width = max(len(a_nets), len(b_nets)) + 1
            a_ext = self._extend_expr(expr.a, a_nets, width)
            b_ext = self._extend_expr(expr.b, b_nets, width)
            if op in ("lt", "ge"):
                diff = self._sub_bits(prefix, a_ext, b_ext)
            else:  # gt / le compare the swapped way
                diff = self._sub_bits(prefix, b_ext, a_ext)
            sign = diff[-1]
            if op in ("lt", "gt"):
                return [sign]
            return [self._gate(prefix, INV, op, sign)]
        raise NetlistError(f"unmappable binary op {op!r}")

    def _map_mul(self, expr: BinOp, a_nets: Bits, b_nets: Bits,
                 prefix: str) -> Bits:
        width = expr.width
        a_ext = self._extend_expr(expr.a, a_nets, width)
        b_ext = self._extend_expr(expr.b, b_nets, width)
        accum: Bits | None = None
        for k in range(width):
            row = [
                self._gate(prefix, AND2, "pp", a_ext[j], b_ext[k])
                for j in range(width - k)
            ]
            shifted = self._const_bits(0, k) + row
            if accum is None:
                accum = shifted
            else:
                # Bits below position k are already final; add the rest.
                low, rest_a = accum[:k], accum[k:]
                rest_b = shifted[k:]
                accum = low + self._ripple_add(prefix, rest_a, rest_b)
        assert accum is not None
        return accum

    def _map_shift_const(self, expr: ShiftConst, prefix: str) -> Bits:
        nets = self._map(expr.a, prefix)
        width = expr.width
        amount = expr.amount
        zero = self.arena.const_net(0)
        if expr.left:
            if amount >= width:
                return [zero] * width
            return [zero] * amount + nets[: width - amount]
        fill = nets[-1] if _is_signed_kind(expr.spec.kind) else zero
        if amount >= width:
            return [fill] * width
        return nets[amount:] + [fill] * amount

    def _map_shift_dyn(self, expr: ShiftDyn, prefix: str) -> Bits:
        nets = self._map(expr.a, prefix)
        amount = self._map(expr.amount, prefix)
        width = expr.width
        zero = self.arena.const_net(0)
        fill = nets[-1] if (
            not expr.left and _is_signed_kind(expr.spec.kind)
        ) else zero
        current = list(nets)
        for k, sel in enumerate(amount):
            step = 1 << k
            if expr.left:
                if step >= width:
                    shifted = [zero] * width
                else:
                    shifted = [zero] * step + current[: width - step]
            else:
                if step >= width:
                    shifted = [fill] * width
                else:
                    shifted = current[step:] + [fill] * step
            current = [
                self._mux_net(prefix, "bshift", sel, shifted[j], current[j])
                for j in range(width)
            ]
        return current


def map_module(module: RtlModule) -> GateArena:
    """Technology-map *module* into a fresh, unoptimized gate arena."""
    return TechMapper(module).map()
