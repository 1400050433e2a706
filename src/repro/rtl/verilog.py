"""Behavioral Verilog emission from the RTL IR (paper Fig. 6, ``*.v``).

The ODETTE flow hands standard HDL to downstream tools; this module renders
an :class:`~repro.rtl.ir.RtlModule` tree as synthesizable Verilog-2001 —
one ``module`` per RTL module, registers in a single clocked ``always``
block with synchronous semantics matching the cycle-accurate simulator
(reset is already folded into each register's next expression, so no
``posedge rst`` appears).

The emitter is deterministic, so tests can golden-check structure, and the
output is plain enough for any external synthesis tool to consume.
"""

from __future__ import annotations

from repro.rtl.ir import (
    BinOp,
    Concat,
    Const,
    Expr,
    Mux,
    Read,
    Register,
    Resize,
    RtlModule,
    ShiftConst,
    ShiftDyn,
    Slice,
    UnaryOp,
)

_BINOP_SYMBOL = {
    "add": "+", "sub": "-", "mul": "*",
    "and": "&", "or": "|", "xor": "^",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
}

_SIGNED_COMPARE = {"lt", "le", "gt", "ge"}


def _identifier(name: str) -> str:
    """Make a legal Verilog identifier out of an IR name."""
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not safe or safe[0].isdigit():
        safe = "s_" + safe
    return safe


class _Namer:
    """Unique, stable identifiers for carriers and temporaries."""

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self._used: set[str] = set()

    def name_for(self, uid: int, hint: str) -> str:
        if uid in self._names:
            return self._names[uid]
        base = _identifier(hint)
        candidate = base
        counter = 0
        while candidate in self._used:
            counter += 1
            candidate = f"{base}_{counter}"
        self._used.add(candidate)
        self._names[uid] = candidate
        return candidate


class VerilogWriter:
    """Renders one RtlModule (plus its descendants) as Verilog text."""

    def __init__(self, module: RtlModule) -> None:
        module.validate()
        self.module = module

    # ------------------------------------------------------------------
    def emit(self) -> str:
        """The full Verilog source: this module and every child module."""
        chunks: list[str] = []
        emitted: set[int] = set()

        def walk(mod: RtlModule) -> None:
            for instance in mod.instances:
                walk(instance.module)
            if id(mod) not in emitted:
                emitted.add(id(mod))
                chunks.append(_emit_one(mod))

        walk(self.module)
        return "\n\n".join(chunks) + "\n"


def _emit_one(mod: RtlModule) -> str:
    namer = _Namer()
    lines: list[str] = []
    ports: list[str] = ["input wire clk"]
    for name, carrier in mod.inputs.items():
        ident = namer.name_for(carrier.uid, name)
        width = f"[{carrier.width - 1}:0] " if carrier.width > 1 else ""
        ports.append(f"input wire {width}{ident}")
    out_names = {}
    for name, expr in mod.outputs.items():
        ident = _identifier(name)
        out_names[name] = ident
        width = f"[{expr.width - 1}:0] " if expr.width > 1 else ""
        ports.append(f"output wire {width}{ident}")

    body: list[str] = []
    temp_count = [0]
    rendered: dict[int, str] = {}

    def fresh_wire(width: int, text: str) -> str:
        temp_count[0] += 1
        name = f"t{temp_count[0]}"
        decl = f"[{width - 1}:0] " if width > 1 else ""
        body.append(f"  wire {decl}{name} = {text};")
        return name

    def render(expr: Expr) -> str:
        key = id(expr)
        if key in rendered:
            return rendered[key]
        text = _render(expr)
        # Hoist non-trivial shared or compound expressions into wires so
        # output stays readable and sharing is visible.
        if not isinstance(expr, (Const, Read)):
            text = fresh_wire(expr.width, text)
        rendered[key] = text
        return text

    def _render(expr: Expr) -> str:
        if isinstance(expr, Const):
            return f"{expr.width}'d{expr.raw}"
        if isinstance(expr, Read):
            return namer.name_for(expr.carrier.uid, expr.carrier.name)
        if isinstance(expr, BinOp):
            a, b = render(expr.a), render(expr.b)
            if expr.op in _SIGNED_COMPARE and \
                    expr.a.spec.kind in ("signed", "fixed"):
                a, b = f"$signed({a})", f"$signed({b})"
            return f"({a} {_BINOP_SYMBOL[expr.op]} {b})"
        if isinstance(expr, UnaryOp):
            a = render(expr.a)
            table = {"invert": f"(~{a})", "not": f"(!{a})",
                     "neg": f"(-{a})", "reduce_or": f"(|{a})",
                     "reduce_and": f"(&{a})", "reduce_xor": f"(^{a})"}
            return table[expr.op]
        if isinstance(expr, Mux):
            return (f"({render(expr.cond)} ? {render(expr.if_true)} : "
                    f"{render(expr.if_false)})")
        if isinstance(expr, Slice):
            inner = render(expr.a)
            if expr.hi == expr.lo:
                return f"{inner}[{expr.hi}]"
            return f"{inner}[{expr.hi}:{expr.lo}]"
        if isinstance(expr, Concat):
            parts = ", ".join(render(p) for p in expr.parts)
            return f"{{{parts}}}"
        if isinstance(expr, ShiftConst):
            op = "<<" if expr.left else ">>"
            inner = render(expr.a)
            if not expr.left and expr.spec.kind in ("signed", "fixed"):
                return f"($signed({inner}) >>> {expr.amount})"
            return f"({inner} {op} {expr.amount})"
        if isinstance(expr, ShiftDyn):
            op = "<<" if expr.left else ">>"
            inner = render(expr.a)
            amount = render(expr.amount)
            if not expr.left and expr.spec.kind in ("signed", "fixed"):
                return f"($signed({inner}) >>> {amount})"
            return f"({inner} {op} {amount})"
        if isinstance(expr, Resize):
            inner = render(expr.a)
            source = expr.a
            if expr.width == source.width:
                return inner
            if expr.width < source.width:
                return f"{inner}[{expr.width - 1}:0]"
            pad = expr.width - source.width
            if source.spec.kind in ("signed", "fixed"):
                sign_bit = (f"{inner}[{source.width - 1}]"
                            if source.width > 1 else inner)
                return f"{{{{{pad}{{{sign_bit}}}}}, {inner}}}"
            return f"{{{pad}'d0, {inner}}}"
        raise ValueError(f"cannot emit {expr!r}")

    # Registers (declared before use).
    reg_decls: list[str] = []
    for reg in mod.registers:
        ident = namer.name_for(reg.uid, reg.name)
        width = f"[{reg.width - 1}:0] " if reg.width > 1 else ""
        reg_decls.append(
            f"  reg {width}{ident} = {reg.width}'d{reg.reset_raw};"
        )

    # Instances.
    instance_lines: list[str] = []
    for instance in mod.instances:
        pin_map = [".clk(clk)"]
        for port_name, expr in instance.connections.items():
            pin_map.append(f".{_identifier(port_name)}({render(expr)})")
        for port_name, carrier in instance.output_carriers.items():
            ident = namer.name_for(carrier.uid,
                                   f"{instance.name}_{port_name}")
            width = (f"[{carrier.width - 1}:0] "
                     if carrier.width > 1 else "")
            body.append(f"  wire {width}{ident};")
            pin_map.append(f".{_identifier(port_name)}({ident})")
        instance_lines.append(
            f"  {_identifier(instance.module.name)} "
            f"{_identifier(instance.name)} (\n    "
            + ",\n    ".join(pin_map) + "\n  );"
        )

    # Register updates.
    always_lines: list[str] = ["  always @(posedge clk) begin"]
    for reg in mod.registers:
        ident = namer.name_for(reg.uid, reg.name)
        always_lines.append(f"    {ident} <= {render(reg.next)};")
    always_lines.append("  end")

    # Outputs.
    assigns = [
        f"  assign {out_names[name]} = {render(expr)};"
        for name, expr in mod.outputs.items()
    ]

    header = (f"module {_identifier(mod.name)} (\n  "
              + ",\n  ".join(ports) + "\n);")
    parts = [header]
    if reg_decls:
        parts.append("\n".join(reg_decls))
    if body:
        parts.append("\n".join(body))
    if instance_lines:
        parts.append("\n".join(instance_lines))
    if mod.registers:
        parts.append("\n".join(always_lines))
    if assigns:
        parts.append("\n".join(assigns))
    parts.append("endmodule")
    return "\n\n".join(parts)


def to_verilog(module: RtlModule) -> str:
    """Render *module* (and children) as Verilog-2001 source."""
    return VerilogWriter(module).emit()
