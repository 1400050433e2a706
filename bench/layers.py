"""Per-layer spans of a traced op: the program's own, plus benchmark-side ones.

The program already opens spans on a :class:`repro.obs.Tracer` handed to
it: ``run_job`` opens one per memoized flow stage (analyze, synthesize,
lint, techmap, link, opt, sta, pnr) and ``expocu_campaign`` opens
``build_injector`` and ``campaign``.  :data:`NATIVE` names the layer
each of those spans belongs to.

Where those spans lack a split, :class:`LayerTracer` patches the module
attributes in :data:`LAYERS` with wrappers that open a span named after
the layer: store reads and writes, (de)serialization, fingerprints, the
IP library, the netlist the fault injector builds outside the stage
runner, simulator construction, and the serve client.  The wrappers are
installed only while traced ops run and the originals are restored
afterwards, so untraced ops run the unmodified program; no span is added
inside ``src/``.

:func:`layer_totals` turns each op's span tree into per-layer ``calls``
/ ``total_s`` / ``self_s``.  A span that is not a layer (a flow root, a
fault replay) belongs to the layer around it, and a layer span inside a
span of the same layer (a stage calling the function its wrapper also
covers) is part of that outer span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Any, Callable, Iterator

from repro.obs.profiler import Span, Tracer, validate_trace

#: The program's own span names -> layer.
NATIVE: dict[str, str] = {
    "analyze": "synth.analyze",
    "synthesize": "synth.synthesize",
    "lint": "rtl.lint",
    "techmap": "netlist.techmap",
    "link": "netlist.link",
    "opt": "netlist.opt",
    "sta": "netlist.sta",
    "sta_routed": "netlist.sta",
    "pnr": "netlist.pnr",
    "build_injector": "fault.build_injector",
    "campaign": "fault.campaign",
}

_FLOW_KINDS = ("rtl", "circuit", "diagnostics", "timing", "placement",
               "testability")

#: Benchmark-side layers -> the ``module:attribute`` targets wrapped.
LAYERS: dict[str, tuple[str, ...]] = {
    "design.elaborate": ("repro.serve.jobs:default_design",),
    "baseline.expocu_rtl": ("repro.baseline:expocu_rtl",),
    "store.probe": ("repro.store.cas:ArtifactStore.probe",),
    "store.put": ("repro.store.cas:ArtifactStore.store",),
    "store.load": ("repro.store.cas:ArtifactStore.get_object",),
    "store.serialize": tuple(f"repro.eval.flows:serialize_{kind}"
                             for kind in _FLOW_KINDS),
    "store.deserialize": tuple(f"repro.eval.flows:deserialize_{kind}"
                               for kind in _FLOW_KINDS),
    "store.fingerprint": ("repro.eval.flows:fingerprint_design",
                          "repro.eval.flows:fingerprint_rtl",
                          "repro.eval.flows:fingerprint_circuit"),
    "baseline.ip_library": ("repro.baseline.vhdl_ip:ip_library",),
    # expocu_injector imports these at call time and runs them outside
    # any stage span; the flows bound their own names at import, so
    # these wrappers fire only there.
    "synth.synthesize": ("repro.synth.modulegen:synthesize",),
    "netlist.techmap": ("repro.netlist.techmap:map_module",),
    "netlist.opt": ("repro.netlist.opt:optimize",),
    "netlist.sim.build": ("repro.fault.scenarios:FaultableGateSimulator",),
    "rtl.sim.build": ("repro.fault.scenarios:RtlSimulator",),
    "fault.fault_list": ("repro.fault.scenarios:generate_fault_list",),
    "serve.submit": ("repro.serve.client:ServeClient.submit",),
    "serve.result": ("repro.serve.client:ServeClient.result_text",),
}

#: Every layer, in report order.
ALL_LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    [*NATIVE.values(), *LAYERS]))

#: Integer span annotations summed into the per-op counters: the op
#: span's (store counters, campaign work), the ``netlist.opt`` wrapper's,
#: and the campaign span's simulator ``stats()``.
COUNTERS = (
    "store.hit", "store.miss", "store.store", "store.corrupt",
    "store.bytes_written", "netlist.opt.cells_in", "netlist.opt.cells_out",
    "fault.simulated", "fault.lane_batches", "fault.sim_cycles",
    "netlist.sim.steps", "netlist.sim.settle_passes",
    "netlist.sim.cell_evals",
    "rtl.sim.steps", "rtl.sim.register_commits", "rtl.sim.carrier_evals",
)

_COLD = (("op_p50_s", "build-cold"),)
_BUILDS = _COLD + (("op_p50_s", "build-warm"),)
_WARM_READS = (("op_p50_s", "build-warm"), ("op_p50_s", "serve-warm"),
               ("ops_per_s", "serve-warm"))
_GATE = (("op_p50_s", "campaign-gate"),)
_CAMPAIGNS = _GATE + (("op_p50_s", "campaign-rtl"),)
_SERVED = (("op_p50_s", "serve-warm"), ("ops_per_s", "serve-warm"))

#: The end-to-end metric, and workload, each per-layer metric should
#: move — written down before measuring.  A key covers the metric of
#: that name and every ``<key>.<suffix>`` metric.  ``obs.*`` describes
#: the tracing itself and moves nothing.
MOVES: dict[str, tuple[tuple[str, str], ...]] = {
    "design.elaborate": _BUILDS,
    "baseline.expocu_rtl": _BUILDS,
    "synth.analyze": _COLD,
    "synth.synthesize": _COLD + _CAMPAIGNS,
    "rtl.lint": _COLD,
    "netlist.techmap": _COLD + _GATE,
    "netlist.link": _COLD,
    "netlist.opt": _COLD + _GATE,
    "netlist.sta": _COLD,
    "netlist.pnr": _COLD,
    "store.put": _COLD,
    "store.serialize": _COLD,
    "store.store": _COLD,
    "store.bytes_written": _COLD,
    "store.probe": _WARM_READS,
    "store.load": _WARM_READS,
    "store.deserialize": _WARM_READS,
    "store.fingerprint": _WARM_READS,
    "baseline.ip_library": _WARM_READS,
    "store.hit": _WARM_READS,
    "store.miss": _WARM_READS,
    "store.corrupt": _WARM_READS,
    "store.lookups": _WARM_READS,
    "store.hit_ratio": _WARM_READS,
    "fault.build_injector": _CAMPAIGNS,
    "netlist.sim": _GATE,
    "fault.lane_batches": _GATE,
    "rtl.sim": (("op_p50_s", "campaign-rtl"),),
    "fault.fault_list": _CAMPAIGNS,
    "fault.campaign": _CAMPAIGNS,
    "fault.simulated": _CAMPAIGNS,
    "fault.sim_cycles": _CAMPAIGNS,
    "fault.sim_cycles_per_s": _CAMPAIGNS,
    "serve": _SERVED,
    "exec": _SERVED,
    "obs": (),
}


def moves(metric: str) -> tuple[tuple[str, str], ...] | None:
    """What *metric* moves, by its longest :data:`MOVES` key."""
    parts = metric.split(".")
    for size in range(len(parts), 0, -1):
        key = ".".join(parts[:size])
        if key in MOVES:
            return MOVES[key]
    return None


def _resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Owner.attr"`` -> ``(owner object, "attr")``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Installs layer wrappers and collects the traced ops' span trees."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: The tracer traced ops hand the program and the wrappers use.
        self.tracer = Tracer(name)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        opt = layer == "netlist.opt"

        # updated=(): a wrapped class must not copy its namespace onto
        # the wrapper function.
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            with self.tracer.span(layer) as span:
                if opt:  # optimize(circuit) rewrites circuit in place
                    span.annotate(**{"netlist.opt.cells_in":
                                     len(args[0].cells)})
                result = fn(*args, **kwargs)
                if opt:
                    span.annotate(**{"netlist.opt.cells_out":
                                     len(args[0].cells)})
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every :data:`LAYERS` target for the duration of the block."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(layer, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def op(self):
        """One traced op: a root ``op`` span.

        Layer spans land inside it while :meth:`installed` is active.
        """
        return self.tracer.span("op")

    def ops(self) -> list[Span]:
        """Every closed root ``op`` span."""
        return [span for span in self.tracer.roots
                if span.name == "op" and span.closed]

    def document(self, **meta: Any) -> dict[str, Any]:
        """All op spans as one validated ``repro-trace/v1`` document."""
        ops = self.ops()
        doc = {
            "schema": "repro-trace/v1",
            "name": self.name,
            "total_s": round(sum(span.dur for span in ops), 9),
            "meta": meta,
            "spans": [span.as_dict() for span in ops],
        }
        return validate_trace(doc)


def layer_of(span: Span) -> str | None:
    """The layer *span* measures, or ``None`` if it is not a layer."""
    if span.name in LAYERS:
        return span.name
    return NATIVE.get(span.name)


def _counters(span: Span) -> dict[str, int]:
    meta = span.snapshot()
    counts = {key: meta[key] for key in COUNTERS if key in meta}
    stats = meta.get("sim_stats") if span.name == "campaign" else None
    if stats:
        prefix = "rtl.sim" if stats.get("backend") == "rtl" else "netlist.sim"
        counts.update({f"{prefix}.{key}": value
                       for key, value in stats.items()
                       if f"{prefix}.{key}" in COUNTERS})
    return counts


def layer_totals(ops: list[Span]) -> tuple[dict[str, dict[str, float]],
                                          dict[str, int], list[float]]:
    """Per-layer ``calls``/``total_s``/``self_s``, counters, unattributed.

    A layer's self time is its spans' time minus that of the nearest
    layer spans inside them; the op's own self time, left outside every
    layer, is its unattributed time (one entry per op).
    """
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}

    def visit(span: Span, outer: str | None,
              entry: dict[str, float]) -> None:
        for key, value in _counters(span).items():
            counters[key] = counters.get(key, 0) + value
        layer = layer_of(span)
        if layer is not None and layer != outer:
            entry["self_s"] -= span.dur
            entry = layers.setdefault(
                layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span.dur
            entry["self_s"] += span.dur
            outer = layer
        for child in span.children:
            visit(child, outer, entry)

    unattributed = []
    for op in ops:
        own = {"self_s": 0.0}
        visit(op, None, own)
        unattributed.append(op.dur + own["self_s"])
    return layers, counters, unattributed


def span_count(ops: list[Span]) -> int:
    """Spans opened inside *ops* (the tracing work done)."""

    def count(span: Span) -> int:
        return 1 + sum(count(child) for child in span.children)

    return sum(count(op) - 1 for op in ops)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapper span adds to a call, measured on a no-op."""

    def noop() -> None:
        return None

    tracer = LayerTracer("cost")
    wrapped = tracer._wrap("cost", noop)
    with tracer.op():
        began = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - began
    began = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, traced - (time.perf_counter() - began)) / calls
