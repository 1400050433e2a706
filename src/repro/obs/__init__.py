"""Unified observability layer: spans, counters, multi-stage waveforms.

The paper's team debugged by inspecting *"the generated intermediate
files on all possible levels of synthesis"* (§12) and §9 calls for
object-level dumps at any time.  This package generalizes both habits
into one cross-cutting layer over the whole reproduction:

* :mod:`repro.obs.profiler` — a span-based profiler (``Span``/``Tracer``,
  context-manager API, monotonic-clock timing, nested spans) with a
  stable ``repro-trace/v1`` JSON export and a schema validator.  Wired
  into both synthesis flows (per-stage spans), the fault-campaign engine
  (per-fault spans, throughput, per-worker rollups) and the CLI
  (``--profile`` on ``synth``/``flows``/``inject``/``dse``/``build``).
* :mod:`repro.obs.vcd` — the VCD document writer (extracted from
  :mod:`repro.hdl.trace`) plus ``RtlTrace``/``GateTrace`` adapters that
  sample the cycle-based simulators through their ``step_hooks``, and
  the three-stage side-by-side mismatch dump used by
  :mod:`repro.eval.equivalence`.

Counters ride on the simulators themselves: all three expose a uniform
``.stats()`` dict (see DESIGN.md §8) that trace exports embed, so wall
time is always explainable in simulator work units.
"""

from repro.obs.profiler import (
    NULL_TRACER,
    NullTracer,
    Span,
    TRACE_SCHEMA,
    Tracer,
    validate_trace,
)
from repro.obs.vcd import GateTrace, RtlTrace, VcdWriter, vcd_ident

__all__ = [
    "GateTrace",
    "NULL_TRACER",
    "NullTracer",
    "RtlTrace",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "VcdWriter",
    "validate_trace",
    "vcd_ident",
]
