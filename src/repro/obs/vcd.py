"""VCD document writing and cycle-based waveform adapters.

:class:`VcdWriter` is the low-level VCD renderer extracted from
:mod:`repro.hdl.trace` so that every simulation stage — kernel, RTL and
gate level — can dump waveforms through one implementation.  It adds
two capabilities the kernel-only tracer never needed:

* **scopes** — variables are grouped into ``$scope module <name>``
  blocks, which is how the equivalence harness renders its three-stage
  side-by-side dump (one scope per stage);
* **windows** — :meth:`VcdWriter.render` accepts an inclusive
  ``(t0, t1)`` window: each variable's value *at* ``t0`` is emitted as
  the initial dump, then only the changes inside the window follow.
  Used to cut a small waveform around a
  :class:`~repro.eval.equivalence.Mismatch`.

:class:`RtlTrace` and :class:`GateTrace` adapt the two cycle-based
simulators onto the writer: they register a sampling hook on the
simulator's ``step_hooks`` list (the cycle-based counterpart of the
kernel's ``cycle_hooks``, also used by the cosim shell) and record one
sample per committed cycle, timestamped with the cycle index.  Both
support :meth:`detach` and are idempotent about it.
"""

from __future__ import annotations

import io
from typing import Any, Mapping, Sequence

_IDENT_CHARS = "".join(chr(c) for c in range(33, 127))


def vcd_ident(index: int) -> str:
    """Short printable VCD identifier for variable *index*."""
    ident = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_IDENT_CHARS))
        ident = _IDENT_CHARS[rem] + ident
    return ident


class VcdWriter:
    """Collects value changes and renders a VCD document.

    Parameters
    ----------
    timescale:
        VCD timescale string (``"1ps"`` for the kernel's picosecond
        base, ``"1ns"`` as the nominal unit of cycle-based traces).
    """

    def __init__(self, timescale: str = "1ps") -> None:
        self.timescale = timescale
        #: (scope, name, width, ident) in declaration order.
        self._vars: list[tuple[str, str, int, str]] = []
        self._widths: dict[str, int] = {}
        self._changes: list[tuple[int, str, int, int]] = []
        self._last: dict[str, int] = {}

    # ------------------------------------------------------------------
    # declaration / recording
    # ------------------------------------------------------------------
    def add_var(self, name: str, width: int, scope: str = "top") -> str:
        """Declare a variable; returns its short VCD identifier."""
        ident = vcd_ident(len(self._vars))
        self._vars.append((scope, name, width, ident))
        self._widths[ident] = width
        return ident

    def record(self, time: int, ident: str, raw: int) -> bool:
        """Record a value change (deduplicated); True if it was new."""
        if self._last.get(ident) == raw:
            return False
        self._last[ident] = raw
        self._changes.append((time, ident, self._widths.get(ident, 1), raw))
        return True

    @property
    def change_count(self) -> int:
        """Number of recorded value changes (for tests)."""
        return len(self._changes)

    @property
    def var_count(self) -> int:
        """Number of declared variables."""
        return len(self._vars)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    @staticmethod
    def _emit(out: io.StringIO, ident: str, width: int, raw: int) -> None:
        if width == 1:
            out.write(f"{raw}{ident}\n")
        else:
            out.write(f"b{raw:b} {ident}\n")

    def render(self, window: tuple[int, int] | None = None) -> str:
        """The complete VCD document as a string.

        With *window* ``(t0, t1)`` (inclusive), emit each variable's
        value as of ``t0`` followed by only the changes in ``(t0, t1]``.
        """
        out = io.StringIO()
        out.write(f"$timescale {self.timescale} $end\n")
        current_scope = None
        for scope, name, width, ident in self._vars:
            if scope != current_scope:
                if current_scope is not None:
                    out.write("$upscope $end\n")
                out.write(f"$scope module {scope} $end\n")
                current_scope = scope
            safe = name.replace(" ", "_")
            out.write(f"$var wire {width} {ident} {safe} $end\n")
        if current_scope is not None:
            out.write("$upscope $end\n")
        out.write("$enddefinitions $end\n")

        changes = sorted(self._changes, key=lambda c: (c[0],))
        if window is not None:
            t0, t1 = window
            initial: dict[str, tuple[int, int]] = {}
            tail: list[tuple[int, str, int, int]] = []
            for time, ident, width, raw in changes:
                if time <= t0:
                    initial[ident] = (width, raw)
                elif time <= t1:
                    tail.append((time, ident, width, raw))
            out.write(f"#{t0}\n")
            for _, _, width, ident in self._vars:
                if ident in initial:
                    width, raw = initial[ident]
                    self._emit(out, ident, width, raw)
            changes = tail
        current_time = None
        for time, ident, width, raw in changes:
            if time != current_time:
                out.write(f"#{time}\n")
                current_time = time
            self._emit(out, ident, width, raw)
        return out.getvalue()

    def write(self, path: str, window: tuple[int, int] | None = None) -> None:
        """Write the VCD document to *path*."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write(self.render(window))


class _CycleTrace:
    """Shared machinery of :class:`RtlTrace` and :class:`GateTrace`."""

    def __init__(self, sim: Any, scope: str, timescale: str) -> None:
        self.sim = sim
        self.scope = scope
        self.writer = VcdWriter(timescale)
        self._names: set[str] = set()
        self._attached = False

    def _declare(self, name: str, width: int) -> str:
        """Declare a var; returns its ident.

        A name already declared becomes ``<name>_<k>``, unique against
        every declared name (the Verilog writer's rule): the
        synthesizer may give two registers one name.
        """
        unique, k = name, 0
        while unique in self._names:
            k += 1
            unique = f"{name}_{k}"
        self._names.add(unique)
        return self.writer.add_var(unique, width, self.scope)

    def attach(self) -> None:
        """Register the sampling hook; takes an initial sample."""
        if self._attached:
            return
        self.sim.step_hooks.append(self._sample)
        self._attached = True
        self._sample()

    def detach(self) -> None:
        """Remove the sampling hook; safe to call repeatedly."""
        if not self._attached:
            return
        try:
            self.sim.step_hooks.remove(self._sample)
        except ValueError:
            pass
        self._attached = False

    close = detach

    def _sample(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # Delegation -------------------------------------------------------
    @property
    def change_count(self) -> int:
        return self.writer.change_count

    def render(self, window: tuple[int, int] | None = None) -> str:
        return self.writer.render(window)

    def write(self, path: str, window: tuple[int, int] | None = None) -> None:
        self.writer.write(path, window)


class RtlTrace(_CycleTrace):
    """Per-cycle VCD sampling of an :class:`~repro.rtl.simulate.RtlSimulator`.

    Samples every top-level output (and, with *include_registers*, every
    register) after each committed cycle; timestamps are cycle indices.
    """

    def __init__(self, sim: Any, include_registers: bool = False,
                 scope: str = "rtl", timescale: str = "1ns") -> None:
        super().__init__(sim, scope, timescale)
        self._outputs = {name: self._declare(name, expr.spec.width)
                         for name, expr in sim.module.outputs.items()}
        #: (register, ident): keyed by register, as names may repeat.
        self._registers = [
            (reg, self._declare(reg.name, reg.spec.width))
            for reg in (sim.registers() if include_registers else ())
        ]
        self.attach()

    def _sample(self) -> None:
        cycle = self.sim.cycle
        writer = self.writer
        idents = self._outputs
        for name, value in self.sim.peek_outputs().items():
            writer.record(cycle, idents[name], value)
        for reg, ident in self._registers:
            writer.record(cycle, ident, self.sim.register_value(reg))


class GateTrace(_CycleTrace):
    """Per-cycle VCD sampling of a :class:`~repro.netlist.sim.GateSimulator`.

    Samples every output bus (and, with *include_flops*, every flop
    output bit) after each committed cycle.  Under the compiled backend
    the per-cycle sample forces the lazy post-commit settle, so tracing
    costs one extra generated call per cycle.
    """

    def __init__(self, sim: Any, include_flops: bool = False,
                 scope: str = "netlist", timescale: str = "1ns") -> None:
        super().__init__(sim, scope, timescale)
        self._outputs = {name: self._declare(name, len(nets))
                         for name, nets in sim.circuit.output_buses.items()}
        self._flops = {name: self._declare(name, 1)
                       for name in (sim.flop_values() if include_flops
                                    else ())}
        self.attach()

    def _sample(self) -> None:
        cycle = self.sim.cycle
        writer = self.writer
        for name, value in self.sim.peek_outputs().items():
            writer.record(cycle, self._outputs[name], value)
        if self._flops:
            for name, value in self.sim.flop_values().items():
                writer.record(cycle, self._flops[name], value)


def mismatch_window_vcd(
    samples: Mapping[str, Sequence[tuple[int, Mapping[str, int]]]],
    first_cycle: int,
    last_cycle: int,
    margin: int = 8,
    timescale: str = "1ns",
) -> tuple[VcdWriter, tuple[int, int]]:
    """Build the three-stage side-by-side dump around a mismatch window.

    *samples* maps stage name to its per-cycle observation list
    ``[(cycle, {output: value}), ...]``.  Every stage gets its own VCD
    scope with one variable per observed output (widths inferred from
    the widest value seen).  Returns the writer plus the clipped
    ``(t0, t1)`` window covering ``[first - margin, last + margin]``.
    """
    writer = VcdWriter(timescale)
    idents: dict[tuple[str, str], str] = {}
    for stage, trace in samples.items():
        names: dict[str, int] = {}
        for _, outputs in trace:
            for name, value in outputs.items():
                width = max(1, int(value).bit_length())
                names[name] = max(names.get(name, 1), width)
        for name, width in names.items():
            idents[(stage, name)] = writer.add_var(name, width, stage)
    for stage, trace in samples.items():
        for cycle, outputs in trace:
            for name, value in outputs.items():
                writer.record(cycle, idents[(stage, name)], int(value))
    t0 = max(0, first_cycle - margin)
    t1 = last_cycle + margin
    return writer, (t0, t1)
