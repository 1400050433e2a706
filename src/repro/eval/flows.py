"""End-to-end flow runners for the two design flows under comparison.

``run_osss_flow``   : OSSS module → behavioral synthesis → gates
                      (paper Fig. 6 left path).
``run_vhdl_flow``   : hand-written RTL → gates, with separately
                      synthesized IP linked at the netlist level
                      (paper Fig. 6 right path).

Both end in the same optimizer, STA and placement, so every reported
difference comes from the *description style*, which is exactly the
comparison of the paper's Results section.

The OSSS path from design to gates is one memoized recipe,
synthesize → techmap → opt (→ harden): :func:`synthesis_stage` and
:func:`gate_stages`, or both at once through :func:`netlist_prefix`.
The OSSS flow, ``repro analyze``, the design-space exploration
evaluator, the fault injector and ``repro synth --netlist`` all take
their netlist from it, so every number reported on a design comes from
the same netlist.

Both runners accept an :class:`~repro.store.ArtifactStore` (``store=``):
each stage is then memoized through the design library — its inputs are
fingerprinted, cached artifacts are replayed instead of recomputed, and
downstream stage keys chain on upstream artifact digests, so a warm
rebuild of an unchanged design skips every stage.  Every hit is lazy,
and each flow stores its summary row as a stage of its own, so a warm
build reads that row and the analyzer and lint findings, and leaves
netlists, timing reports and placements on disk until something asks
for them.  Cached or not, the same spans open in the same order (with
``cache=hit/miss/off`` annotations) and the resulting
:class:`FlowResult` is equivalent; summaries are byte-identical across
cold, warm and cache-disabled runs.
"""

from __future__ import annotations

from typing import Any

from repro.analyze import (
    AnalysisError,
    Diagnostic,
    NetlistAnalysis,
    analyze_circuit,
    analyze_design,
    diagnostics_from_lint_report,
)
# The recipe calls synthesize, map_module and optimize through their
# modules at call time, so a wrapper installed on one of those module
# attributes (bench/layers.py) sees every call.
import repro.netlist.opt
import repro.netlist.techmap
import repro.synth.modulegen
from repro.fault.harden import harden_circuit
from repro.hdl.module import Module
from repro.netlist.area import AreaReport, total_area
from repro.netlist.circuit import Circuit
from repro.netlist.linker import link
from repro.netlist.pnr import place
from repro.netlist.sta import TimingReport, analyze
from repro.obs.profiler import NULL_TRACER, Tracer
from repro.rtl.ir import RtlModule
from repro.rtl.lint import lint_module
from repro.store import (
    TESTABILITY_SCHEMA,
    ArtifactStore,
    StageOutcome,
    StageRunner,
    StoreError,
    deserialize_circuit,
    deserialize_diagnostics,
    deserialize_placement,
    deserialize_rtl,
    deserialize_testability,
    deserialize_timing,
    digest_doc,
    fingerprint_circuit,
    fingerprint_design,
    fingerprint_rtl,
    serialize_circuit,
    serialize_diagnostics,
    serialize_placement,
    serialize_rtl,
    serialize_testability,
    serialize_timing,
)


#: The columns of a flow's summary row, in order.
_SUMMARY_FIELDS = ("flow", "area_ge", "cells", "flops", "fmax_mhz",
                  "fmax_routed_mhz", "critical_ns")


def _artifact(key: str, doc: str) -> property:
    return property(lambda self: self._stages[key].value(), doc=doc)


class FlowResult:
    """Everything one flow produced for one design.

    Holds the flow's stage outcomes: each artifact loads on first
    access, and :meth:`summary` is the stored ``summary`` row.  So a
    caller that reads only the summary and :attr:`diagnostics` never
    loads a netlist, timing report or placement from a warm store.
    """

    def __init__(self, name: str, stages: dict[str, StageOutcome],
                 diagnostics: list[Diagnostic] | None = None) -> None:
        self.name = name
        self._stages = stages
        #: Analyzer findings plus RTL lint warnings gathered by the flow.
        self.diagnostics: list[Diagnostic] = list(diagnostics or [])

    rtl = _artifact("rtl", "The RTL the flow mapped to gates.")
    circuit = _artifact("circuit", "The optimized netlist.")
    timing = _artifact("timing", "Pre-placement timing report.")
    placement = _artifact("placement", "The netlist's placement.")
    timing_routed = _artifact("timing_routed",
                              "Timing report with placed wire delays.")

    @property
    def area(self) -> float:
        """Optimized area in gate equivalents."""
        return total_area(self.circuit)

    @property
    def cells(self) -> int:
        """Optimized cell count."""
        return len(self.circuit.cells)

    @property
    def fmax_mhz(self) -> float:
        """Post-placement maximum frequency."""
        return self.timing_routed.fmax_mhz

    def area_report(self, depth: int = 2) -> AreaReport:
        """Per-module area breakdown (Fig. 12)."""
        return AreaReport(self.circuit, depth)

    def summary(self) -> dict[str, Any]:
        """Flat record for tables: the stored ``summary`` row."""
        return dict(self._stages["summary"].value())

    def __repr__(self) -> str:
        return (f"FlowResult({self.name!r}, area={self.area:.0f}GE, "
                f"fmax={self.fmax_mhz:.0f}MHz)")


def _summary_row(name: str, circuit: Circuit, timing: TimingReport,
                 timing_routed: TimingReport) -> dict[str, Any]:
    return {
        "flow": name,
        "area_ge": round(total_area(circuit), 1),
        "cells": len(circuit.cells),
        "flops": len(circuit.flops()),
        "fmax_mhz": round(timing.fmax_mhz, 1),
        "fmax_routed_mhz": round(timing_routed.fmax_mhz, 1),
        "critical_ns": round(timing_routed.critical_path_ns, 3),
    }


def _load_summary(doc: Any) -> dict[str, Any]:
    if not isinstance(doc, dict) or tuple(doc) != _SUMMARY_FIELDS:
        raise StoreError("expected a flow summary row")
    return doc


def _finish(name: str, rtl_outcome: StageOutcome, opt: StageOutcome,
            diagnostics: list[Diagnostic] | None,
            runner: StageRunner) -> FlowResult:
    """The shared back end: sta → pnr → sta_routed → summary.

    *opt* holds the optimized circuit.  Each stage keys on upstream
    digests and loads upstream artifacts only inside its compute, so a
    fully warm run loads the ``summary`` row and nothing else.
    """
    circuit = opt.value
    sta = runner.run(
        "sta", (opt.digest,),
        compute=lambda: analyze(circuit()),
        dump=lambda t: serialize_timing(t, circuit()),
        load=lambda doc: deserialize_timing(doc, circuit()),
    )
    pnr = runner.run(
        "pnr", (opt.digest,),
        compute=lambda: place(circuit()),
        dump=serialize_placement,
        load=lambda doc: deserialize_placement(doc, circuit()),
    )
    sta_routed = runner.run(
        "sta_routed", (opt.digest, pnr.digest),
        compute=lambda: analyze(circuit(), pnr.value().wire_delays()),
        dump=lambda t: serialize_timing(t, circuit()),
        load=lambda doc: deserialize_timing(doc, circuit()),
    )
    summary = runner.run(
        "summary", (opt.digest, sta.digest, sta_routed.digest, name),
        compute=lambda: _summary_row(name, circuit(), sta.value(),
                                     sta_routed.value()),
        dump=lambda row: row, load=_load_summary,
    )
    return FlowResult(name, {
        "rtl": rtl_outcome, "circuit": opt, "timing": sta,
        "placement": pnr, "timing_routed": sta_routed, "summary": summary,
    }, diagnostics)


def _annotate(flow_span, result: FlowResult) -> None:
    row = result.summary()
    flow_span.annotate(cells=row["cells"], area_ge=row["area_ge"])


def _optimized(circuit: Circuit) -> Circuit:
    repro.netlist.opt.optimize(circuit)
    return circuit


def _opt_stage(pre_outcome: StageOutcome,
               runner: StageRunner) -> StageOutcome:
    """The ``opt`` stage of both flows; *pre_outcome* holds the circuit
    to optimize (the techmap or link output)."""
    return runner.run(
        "opt", (pre_outcome.digest,),
        compute=lambda: _optimized(pre_outcome.value()),
        dump=serialize_circuit, load=deserialize_circuit,
    )


def synthesis_stage(module: Module, runner: StageRunner,
                    design_fp: str | None = None) -> StageOutcome:
    """The recipe's first step: the memoized ``synthesize`` stage.

    Keyed on the design fingerprint, which is computed here (only when
    the runner has a store) unless the caller passes *design_fp*.  The
    RTL fault campaigns run this step alone.
    """
    if design_fp is None:
        design_fp = (fingerprint_design(module)
                     if runner.store is not None else "")
    return runner.run(
        "synthesize", (design_fp,),
        compute=lambda: repro.synth.modulegen.synthesize(
            module, observe_children=False),
        dump=serialize_rtl, load=deserialize_rtl,
    )


def gate_stages(synth_outcome: StageOutcome, runner: StageRunner,
                hardening: str = "none") -> StageOutcome:
    """The rest of the recipe, techmap → opt (→ harden), on the
    :func:`synthesis_stage` outcome.  Returns the netlist's outcome.

    *hardening* names a :func:`~repro.fault.harden.harden_circuit`
    recipe; anything but ``"none"`` adds the ``harden`` stage, keyed on
    the optimized netlist's digest plus the mode.  ``"none"`` returns
    the ``opt`` outcome itself.
    """
    techmap = runner.run(
        "techmap", (synth_outcome.digest,),
        compute=lambda: repro.netlist.techmap.map_module(
            synth_outcome.value()),
        dump=serialize_circuit, load=deserialize_circuit,
    )
    opt = _opt_stage(techmap, runner)
    if hardening == "none":
        return opt
    return runner.run(
        "harden", (opt.digest, hardening),
        compute=lambda: harden_circuit(opt.value(), hardening),
        dump=serialize_circuit, load=deserialize_circuit,
    )


def run_osss_flow(module: Module, name: str = "osss",
                  tracer: Tracer | None = None,
                  store: ArtifactStore | None = None,
                  guard=None) -> FlowResult:
    """OSSS source → analyzer/synthesizer → behavioral FSMs → gates.

    The analyzer gate (paper Fig. 6) runs before synthesis: when it finds
    errors the flow stops with :class:`AnalysisError` carrying *all* of
    them; its warnings ride along on :attr:`FlowResult.diagnostics`.

    With a :class:`~repro.obs.profiler.Tracer`, every stage (analyze →
    synthesize → lint → techmap → opt → sta → pnr → sta_routed →
    summary) is recorded as a span under one ``flow:<name>`` root.

    With a *store*, stages are memoized through the design library: the
    live module hierarchy is fingerprinted, and any stage whose inputs
    (and implementing code) are unchanged replays its cached artifact.

    *guard* is a per-stage cancellation hook (see
    :class:`~repro.store.StageRunner`): called with each stage name
    before the stage runs, it may raise to abort the flow at the next
    stage boundary — how ``repro serve`` cancels in-flight jobs.
    """
    runner = StageRunner(store, tracer or NULL_TRACER, guard=guard)
    with runner.tracer.span(f"flow:{name}") as flow_span:
        design_fp = fingerprint_design(module) if store is not None else ""
        diagnostics = runner.run(
            "analyze", (design_fp,),
            compute=lambda: analyze_design(module),
            dump=serialize_diagnostics, load=deserialize_diagnostics,
        ).value()
        if any(d.severity == "error" for d in diagnostics):
            raise AnalysisError(diagnostics)
        synth_outcome = synthesis_stage(module, runner, design_fp)
        rtl = synth_outcome.value
        diagnostics = diagnostics + runner.run(
            "lint", (synth_outcome.digest, name),
            compute=lambda: diagnostics_from_lint_report(lint_module(rtl()),
                                                         name),
            dump=serialize_diagnostics, load=deserialize_diagnostics,
        ).value()
        result = _finish(name, synth_outcome,
                         gate_stages(synth_outcome, runner), diagnostics,
                         runner)
        _annotate(flow_span, result)
    return result


def netlist_prefix(module: Module, runner: StageRunner,
                   hardening: str = "none") -> StageOutcome:
    """The whole recipe, synthesize → techmap → opt (→ harden), reentrant.

    Shared by :func:`run_netlist_analysis`, the design-space exploration
    evaluator (:mod:`repro.dse.evaluate`) and the fault injector
    (:func:`repro.fault.scenarios.expocu_injector`): the stages run
    under the *same* names and keys as :func:`run_osss_flow`, so a
    prior ``repro build`` leaves them warm and any number of callers
    may re-enter them against one store.  Returns the netlist's
    :class:`~repro.store.StageOutcome` (see :func:`gate_stages`); a
    warm entry yields only its digest, and its artifact never leaves
    disk unless ``.value()`` is called.
    """
    return gate_stages(synthesis_stage(module, runner), runner, hardening)


def _testability(module: Module, runner: StageRunner,
                 against_netlist: bool) -> tuple[StageOutcome, dict]:
    """The prefix plus the ``testability`` stage, whose value is the
    serialized document: returns ``(opt outcome, document)``.

    Loading a stored document checks its shape.  *against_netlist* also
    rebuilds it against the netlist, so a document whose net references
    the netlist rejects recomputes like a corrupt object.
    """
    opt_outcome = netlist_prefix(module, runner)
    circuit = opt_outcome.value

    def load(doc: Any) -> dict:
        _check_testability(doc)
        if against_netlist:
            deserialize_testability(doc, circuit())
        return doc

    doc = runner.run(
        "testability", (opt_outcome.digest,),
        compute=lambda: serialize_testability(analyze_circuit(circuit()),
                                              circuit()),
        dump=lambda doc: doc, load=load,
    ).value()
    return opt_outcome, doc


#: The fields of a ``repro-testability/v1`` document and their types.
_TESTABILITY_FIELDS = {"schema": str, "design": str, "scores": list,
                       "equivalence": list, "dominance": list,
                       "diagnostics": list}


def _check_testability(doc: Any) -> None:
    if (not isinstance(doc, dict)
            or doc.get("schema") != TESTABILITY_SCHEMA
            or any(not isinstance(doc.get(field), kind)
                   for field, kind in _TESTABILITY_FIELDS.items())):
        raise StoreError(f"expected a {TESTABILITY_SCHEMA} document")


def run_netlist_analysis(module: Module, store: ArtifactStore | None = None
                         ) -> tuple[Circuit, NetlistAnalysis]:
    """OSSS source → optimized gates → structural testability analysis.

    The synthesize → techmap → opt prefix runs through the *same*
    memoized stages (same stage names, same keys) as
    :func:`run_osss_flow`, so a prior ``repro build`` leaves them warm,
    and a ``testability`` stage caches the SCOAP/collapse/lint analysis
    document keyed on the optimized netlist's digest; the analysis is
    rebuilt from it against the netlist.  STA and placement are skipped
    — structural analysis does not need them.
    """
    opt_outcome, doc = _testability(module, StageRunner(store),
                                    against_netlist=True)
    circuit = opt_outcome.value()
    return circuit, deserialize_testability(doc, circuit)


def netlist_analysis_document(module: Module,
                              tracer: Tracer | None = None,
                              store: ArtifactStore | None = None,
                              guard=None) -> dict:
    """:func:`run_netlist_analysis`'s ``repro-testability/v1`` document.

    The backbone of ``repro analyze --format json`` and served
    ``analyze`` jobs: the same stages, but the stored document is the
    result, so a warm run reads it and never loads the netlist.
    """
    runner = StageRunner(store, tracer or NULL_TRACER, guard=guard)
    with runner.tracer.span("analyze:osss") as span:
        _, doc = _testability(module, runner, against_netlist=False)
        span.annotate(diagnostics=len(doc["diagnostics"]))
    return doc


def _uses_blackboxes(rtl: RtlModule) -> bool:
    """True if techmapping *rtl* will produce unresolved black boxes."""
    for instance in rtl.instances:
        if instance.module.attributes.get("blackbox_ip"):
            return True
        if _uses_blackboxes(instance.module):
            return True
    return False


def run_vhdl_flow(rtl: RtlModule, name: str = "vhdl",
                  tracer: Tracer | None = None,
                  store: ArtifactStore | None = None,
                  guard=None) -> FlowResult:
    """Hand-written (or pre-synthesized) RTL → gates, linking the VHDL IP."""
    runner = StageRunner(store, tracer or NULL_TRACER, guard=guard)
    with runner.tracer.span(f"flow:{name}") as flow_span:
        rtl_fp = fingerprint_rtl(rtl) if store is not None else ""
        diagnostics = runner.run(
            "lint", (rtl_fp, name),
            compute=lambda: diagnostics_from_lint_report(lint_module(rtl),
                                                         name),
            dump=serialize_diagnostics, load=deserialize_diagnostics,
        ).value()
        techmap_outcome = runner.run(
            "techmap", (rtl_fp,),
            compute=lambda: repro.netlist.techmap.map_module(rtl),
            dump=serialize_circuit, load=deserialize_circuit,
        )
        pre_outcome = techmap_outcome
        if _uses_blackboxes(rtl):
            resolved: dict[str, Circuit] = {}

            def ips() -> dict[str, Circuit]:
                # Resolved lazily so building the IP library is
                # attributed to the link span (and skipped entirely when
                # the link stage is warm).
                if not resolved:
                    from repro.baseline.vhdl_ip import ip_library

                    resolved.update(ip_library())
                return resolved

            def link_parts() -> tuple[str, str]:
                library = ips()
                return (techmap_outcome.digest, digest_doc(
                    [[ip, fingerprint_circuit(library[ip])]
                     for ip in sorted(library)]
                ))

            pre_outcome = runner.run(
                "link", link_parts,
                compute=lambda: _linked(techmap_outcome, ips()),
                dump=serialize_circuit, load=deserialize_circuit,
            )
        live_rtl = StageOutcome("rtl", hit=False, digest=None, value=rtl,
                                loaded=True)
        result = _finish(name, live_rtl, _opt_stage(pre_outcome, runner),
                         diagnostics, runner)
        _annotate(flow_span, result)
    return result


def _linked(techmap_outcome, ip_library: dict[str, Circuit]) -> Circuit:
    circuit = techmap_outcome.value()
    link(circuit, ip_library)
    return circuit
