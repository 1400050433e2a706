"""Cycle-accurate RTL simulation.

The simulator evaluates an :class:`~repro.rtl.ir.RtlModule` hierarchy one
clock cycle at a time: every register next-value and output expression is
computed from the *current* register contents and the cycle's inputs, then
all registers commit simultaneously.  This is exactly the observable
semantics of the kernel-level simulation of the same design, which is what
the paper's bit/cycle-accuracy statement (§12) rests on — and what the
equivalence harness in :mod:`repro.eval.equivalence` checks mechanically.

Hierarchies are evaluated in place (no flattening copy): each carrier in
the tree is unique, so a single memo table per cycle suffices.  The same
``RtlModule`` object may not appear twice in one tree — producers emit a
fresh module per instantiation.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.rtl.ir import (
    Carrier,
    InputCarrier,
    InstanceOutputCarrier,
    Instance,
    Read,
    Register,
    RtlError,
    RtlModule,
    WireCarrier,
)


class CombinationalLoopError(RtlError):
    """Raised when expression evaluation re-enters the same carrier."""


class RtlSimulator:
    """Cycle-based simulator for an RTL module tree.

    Parameters
    ----------
    module:
        The top :class:`RtlModule`; it is validated on construction.
    """

    def __init__(self, module: RtlModule) -> None:
        module.validate()
        self.module = module
        self._check_unique_modules(module)
        self.state: dict[int, int] = {}
        self._registers: list[tuple[Register, RtlModule]] = []
        self._input_parent: dict[int, tuple[Instance, RtlModule]] = {}
        self._collect(module, None)
        self.cycle = 0
        #: Hooks called (no arguments) after every committed step; the
        #: cycle-based counterpart of the kernel's ``cycle_hooks``, used
        #: by :class:`repro.obs.vcd.RtlTrace`.
        self.step_hooks: list = []
        self._steps = 0
        self._register_commits = 0
        self._register_changes = 0
        self._carrier_evals = 0
        self._fanout: list | None = None  # see fanout()
        self.reset_state()
        self._inputs: dict[str, int] = {
            name: 0 for name in module.inputs
        }

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_unique_modules(module: RtlModule) -> None:
        seen: set[int] = set()

        def visit(mod: RtlModule) -> None:
            if id(mod) in seen:
                raise RtlError(
                    f"module object {mod.name!r} instantiated twice; "
                    "emit a fresh RtlModule per instance"
                )
            seen.add(id(mod))
            for instance in mod.instances:
                visit(instance.module)

        visit(module)

    def _collect(self, module: RtlModule, parent: Instance | None) -> None:
        for reg in module.registers:
            self._registers.append((reg, module))
        for instance in module.instances:
            for name, carrier in instance.module.inputs.items():
                self._input_parent[carrier.uid] = (instance, module)
            self._collect(instance.module, instance)

    # ------------------------------------------------------------------
    # state control
    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        """Load every register with its reset pattern (power-on state)."""
        self.state = {reg.uid: reg.reset_raw for reg, _ in self._registers}
        self.cycle = 0

    def drive(self, **inputs: int) -> None:
        """Set top-level input values (held until changed)."""
        for name, value in inputs.items():
            if name not in self.module.inputs:
                raise RtlError(f"{self.module.name} has no input {name!r}")
            width = self.module.inputs[name].spec.width
            self._inputs[name] = int(value) & ((1 << width) - 1)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _make_valuation(self):
        memo: dict[int, int] = {}
        in_progress: set[int] = set()

        def valuation(carrier: Carrier) -> int:
            uid = carrier.uid
            if uid in memo:
                return memo[uid]
            if isinstance(carrier, Register):
                return self.state[uid]
            if uid in in_progress:
                raise CombinationalLoopError(
                    f"combinational loop through {carrier.name!r}"
                )
            in_progress.add(uid)
            if isinstance(carrier, InputCarrier):
                parent = self._input_parent.get(uid)
                if parent is None:
                    value = self._inputs[carrier.name]
                else:
                    instance, _ = parent
                    value = instance.connections[carrier.name].evaluate(valuation)
            elif isinstance(carrier, WireCarrier):
                value = carrier.expr.evaluate(valuation)
            elif isinstance(carrier, InstanceOutputCarrier):
                value = carrier.instance.module.outputs[
                    carrier.port_name
                ].evaluate(valuation)
            else:  # pragma: no cover - no other carrier kinds exist
                raise RtlError(f"cannot evaluate carrier {carrier!r}")
            in_progress.discard(uid)
            memo[uid] = value
            self._carrier_evals += 1
            return value

        return valuation

    def peek_outputs(self) -> dict[str, int]:
        """Evaluate top-level outputs for the current cycle (no commit)."""
        valuation = self._make_valuation()
        return {
            name: expr.evaluate(valuation)
            for name, expr in self.module.outputs.items()
        }

    def fanout(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per register, who reads it: ``(register indices, output indices)``.

        Entry ``k`` belongs to ``registers()[k]``: the ascending indices
        into :meth:`registers` of every register whose next-value cone
        reads it, and into ``module.outputs`` of every top-level output
        whose cone does.  Cones follow wires, child-instance inputs and
        instance outputs, and take both arms of every mux, so the map is
        conservative: a value outside a register's fan-out cannot change
        when only that register does.  A combinational loop makes every
        cone read every register.  Computed on first use, then cached.
        """
        if self._fanout is not None:
            return self._fanout
        n = len(self._registers)
        outputs = list(self.module.outputs.values())
        cones = _Cones(self)
        try:
            reg_cones = [cones.of_expr(reg.next) for reg, _ in self._registers]
            out_cones = [cones.of_expr(expr) for expr in outputs]
        except CombinationalLoopError:
            every = (1 << n) - 1
            reg_cones, out_cones = [every] * n, [every] * len(outputs)
        self._fanout = [
            (tuple(r for r, cone in enumerate(reg_cones) if cone >> k & 1),
             tuple(o for o, cone in enumerate(out_cones) if cone >> k & 1))
            for k in range(n)
        ]
        return self._fanout

    def check_no_comb_loops(self) -> None:
        """Evaluate every expression cone once to prove it is acyclic.

        Visits all top-level outputs and every register's next-value
        expression; a combinational cycle anywhere in the hierarchy trips
        the in-progress detector and raises
        :class:`CombinationalLoopError`.  State is not modified.
        """
        valuation = self._make_valuation()
        for expr in self.module.outputs.values():
            expr.evaluate(valuation)
        for reg, _ in self._registers:
            reg.next.evaluate(valuation)

    def step(self, **inputs: int) -> dict[str, int]:
        """Advance one clock cycle.

        Applies *inputs*, samples the outputs (combinational view of the
        cycle), computes every register's next value and commits them all
        simultaneously.  Returns the sampled outputs.
        """
        if inputs:
            self.drive(**inputs)
        valuation = self._make_valuation()
        outputs = {
            name: expr.evaluate(valuation)
            for name, expr in self.module.outputs.items()
        }
        updates = [
            (reg, reg.next.evaluate(valuation))
            for reg, _ in self._registers
        ]
        state = self.state
        changed = 0
        for reg, value in updates:
            if state[reg.uid] != value:
                state[reg.uid] = value
                changed += 1
        self._register_commits += len(updates)
        self._register_changes += changed
        self._steps += 1
        self.cycle += 1
        for hook in self.step_hooks:
            hook()
        return outputs

    def run(self, stimulus: Iterable[Mapping[str, int]],
            max_cycles: int | None = None) -> list[dict[str, int]]:
        """Step once per stimulus entry; returns the output of each cycle.

        With *max_cycles*, raise :class:`RtlError` once that many cycles
        have been stepped — a guard against pathological (e.g. endless)
        stimulus generators.
        """
        outputs: list[dict[str, int]] = []
        for entry in stimulus:
            if max_cycles is not None and len(outputs) >= max_cycles:
                raise RtlError(
                    f"run() exceeded its cycle budget of {max_cycles} "
                    f"cycles on {self.module.name!r}; the stimulus "
                    "generator did not terminate in time"
                )
            outputs.append(self.step(**dict(entry)))
        return outputs

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int | str]:
        """Uniform work counters (see DESIGN.md §8).

        ``steps``             committed clock cycles;
        ``register_commits``  register next-values computed and stored
                              (``registers × steps``);
        ``register_changes``  commits that actually changed the state;
        ``carrier_evals``     unique carrier evaluations (memo fills)
                              across all valuations.
        """
        return {
            "backend": "rtl",
            "steps": self._steps,
            "register_commits": self._register_commits,
            "register_changes": self._register_changes,
            "carrier_evals": self._carrier_evals,
        }

    def reset_stats(self) -> None:
        """Zero the work counters (simulation state is untouched)."""
        self._steps = 0
        self._register_commits = 0
        self._register_changes = 0
        self._carrier_evals = 0

    def register_value(self, register: Register) -> int:
        """Current committed contents of *register* (tests/debug)."""
        return self.state[register.uid]

    def registers(self) -> list[Register]:
        """Every register in the tree, in deterministic collection order.

        Used by the fault-injection layer to enumerate SEU targets; the
        order is stable for a given module tree (pre-order traversal).
        """
        return [reg for reg, _ in self._registers]

    def poke_register(self, register: Register, raw: int) -> None:
        """Overwrite a register's committed contents (fault injection).

        The raw pattern is masked to the register width; the change is
        observable from the next evaluation on, exactly as if the bits
        had been upset between two clock edges.
        """
        if register.uid not in self.state:
            raise RtlError(f"{register!r} is not part of this simulation")
        self.state[register.uid] = int(raw) & ((1 << register.spec.width) - 1)

    def find_register(self, name: str) -> Register:
        """Look up a register anywhere in the tree by (suffix) name."""
        matches = [reg for reg, _ in self._registers if reg.name == name
                   or reg.name.endswith(f".{name}")]
        if not matches:
            raise KeyError(f"no register named {name!r}")
        if len(matches) > 1:
            raise KeyError(f"register name {name!r} is ambiguous")
        return matches[0]

    def __repr__(self) -> str:
        return f"RtlSimulator({self.module.name!r}, cycle={self.cycle})"


class _Cones:
    """The registers each expression cone reads, as bit masks over indices.

    Static: cones follow wires, child-instance inputs and instance
    outputs, and take both arms of every mux (see
    :meth:`RtlSimulator.fanout`).  Memoized per expression and carrier.
    """

    def __init__(self, sim: RtlSimulator) -> None:
        self._sim = sim
        self._index = {reg.uid: k for k, reg in enumerate(sim.registers())}
        self._carriers: dict[int, int | None] = {}  # None: on the stack
        self._exprs: dict[int, int] = {}  # by id()

    def of_expr(self, expr) -> int:
        mask = self._exprs.get(id(expr))
        if mask is None:
            if isinstance(expr, Read):
                mask = self.of_carrier(expr.carrier)
            else:
                mask = 0
                for child in expr.children():
                    mask |= self.of_expr(child)
            self._exprs[id(expr)] = mask
        return mask

    def of_carrier(self, carrier: Carrier) -> int:
        uid = carrier.uid
        if uid in self._carriers:
            mask = self._carriers[uid]
            if mask is None:
                raise CombinationalLoopError(carrier.name)
            return mask
        self._carriers[uid] = None
        if isinstance(carrier, Register):
            mask = 1 << self._index[uid]
        elif isinstance(carrier, InputCarrier):
            parent = self._sim._input_parent.get(uid)
            mask = 0 if parent is None else self.of_expr(
                parent[0].connections[carrier.name])
        elif isinstance(carrier, WireCarrier):
            mask = self.of_expr(carrier.expr)
        else:
            mask = self.of_expr(
                carrier.instance.module.outputs[carrier.port_name])
        self._carriers[uid] = mask
        return mask
