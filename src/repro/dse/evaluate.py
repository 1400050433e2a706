"""Per-point evaluation: memoized flow prefix + hardening + fault campaign.

One design point runs the build flow's memoized design-to-gates recipe
plus one stage of its own:

``synthesize`` → ``opt`` → ``harden``
    The build flow's design-to-gates recipe (same names, same keys),
    entered through :func:`repro.eval.flows.netlist_prefix` with the
    point's hardening mode — a space whose specializations were ever
    built replays them warm, and ``repro inject`` attacks the same
    netlist.  ``harden`` is keyed on the optimized netlist's digest
    plus the mode; ``none`` skips the stage entirely and aliases the
    ``opt`` artifact.
``dse_point``
    STA + area + the seeded fault campaign, reduced to a small metrics /
    campaign / objectives document (``repro-dse-point/v1``) keyed on the
    hardened netlist's digest and the campaign spec fingerprint.  On a
    warm run only digests are touched: no netlist leaves the store and
    nothing is re-simulated.

The cached point document carries no point identity — two assignments
that specialize to identical hardware share one entry; the assignment
labels attach here, on :class:`PointResult`.

The campaign backend is deliberately **excluded** from the spec
fingerprint: the event-driven, compiled and bit-parallel backends
produce byte-identical campaign reports (asserted by the fault-backend
tests), so their objective vectors are interchangeable cache-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.analyze import AnalysisError
from repro.eval.flows import netlist_prefix
from repro.fault.campaign import (
    CampaignConfig,
    CampaignError,
    generate_fault_list,
    run_campaign,
)
from repro.fault.inject import FaultableGateSimulator, GateFaultInjector
from repro.netlist import NetlistError
from repro.netlist.area import total_area
from repro.netlist.circuit import Circuit
from repro.netlist.sta import analyze as analyze_timing
from repro.obs.profiler import NULL_TRACER, Tracer
from repro.store import (
    ArtifactStore,
    StageRunner,
    deserialize_dse_point,
    digest_doc,
    serialize_dse_point,
)
from repro.synth import SynthesisError

from repro.dse.pareto import DEFAULT_OBJECTIVES, Objective
from repro.dse.space import DesignSpace

#: Failures recorded per point instead of aborting the exploration.
POINT_ERRORS = (SynthesisError, NetlistError, AnalysisError, CampaignError)


@dataclass
class CampaignSpec:
    """The fault campaign every point runs, as data.

    ``stimulus`` is the input-frame sequence; ``config`` the campaign
    configuration (its ``detect_signals`` are filtered per point against
    the hardened netlist's actual outputs, so one spec serves hardened
    and unhardened variants alike); ``n_faults`` seeded injections drawn
    over the stimulus with ``seed``.  ``backend`` picks the gate
    simulator backend — excluded from the cache fingerprint because all
    backends produce byte-identical campaign reports.
    """

    stimulus: Sequence[Mapping[str, int]]
    config: CampaignConfig = field(default_factory=CampaignConfig)
    n_faults: int = 32
    seed: int = 2004
    backend: str = "bitparallel"

    def fingerprint(self) -> str:
        """Canonical digest of everything that shapes the point document."""
        config = self.config
        return digest_doc([
            "repro-dse-spec/v1",
            [sorted(frame.items()) for frame in self.stimulus],
            [config.reset_name, config.reset_cycles,
             sorted(config.observed) if config.observed is not None else None,
             sorted(config.detect_signals),
             config.done_signal, config.done_value, config.drain_budget,
             sorted(config.idle_input.items())],
            self.n_faults, self.seed,
        ])


class PointResult:
    """One evaluated (or failed) design point, with its identity."""

    def __init__(self, assignment: dict[str, Any], point_id: str,
                 doc: dict | None = None,
                 error: Exception | None = None) -> None:
        self.assignment = assignment
        self.point_id = point_id
        self.doc = doc
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def objectives(self) -> dict[str, float]:
        """The point's objective vector (raises when the point failed)."""
        if self.doc is None:
            raise self.error  # pragma: no cover - guarded by callers
        return self.doc["objectives"]

    def __repr__(self) -> str:
        if self.doc is None:
            return f"PointResult({self.point_id!r}, error={self.error!r})"
        return f"PointResult({self.point_id!r}, {self.objectives})"


class PointEvaluator:
    """Evaluates design-space assignments through the memoized stack.

    Reentrant and order-independent: every evaluation starts from the
    space's factory and flows through store-keyed stages, so factorial
    enumeration, evolutionary search and repeated CLI runs all share one
    cache.  Evaluated points are additionally memoized **in process** by
    ``point_id`` — the evolutionary loop re-visits genomes freely.
    """

    def __init__(self, space: DesignSpace, campaign: CampaignSpec,
                 objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
                 store: ArtifactStore | None = None,
                 tracer: Tracer | None = None,
                 guard=None) -> None:
        self.space = space
        self.campaign = campaign
        self.objectives = tuple(objectives)
        self.runner = StageRunner(store, tracer or NULL_TRACER, guard=guard)
        self.tracer = self.runner.tracer
        self._spec_fp = campaign.fingerprint()
        self._seen: dict[str, PointResult] = {}

    @property
    def store(self) -> ArtifactStore | None:
        return self.runner.store

    def evaluate(self, assignment: Mapping[str, Any]) -> PointResult:
        """Evaluate one assignment (in-process memoized by point id)."""
        ordered = self.space.validate(assignment)
        point_id = self.space.point_id(ordered)
        cached = self._seen.get(point_id)
        if cached is not None:
            return cached
        with self.tracer.span(f"dse:{point_id}") as span:
            try:
                result = PointResult(ordered, point_id,
                                     doc=self._evaluate(ordered))
                span.annotate(**{
                    name: result.objectives[name]
                    for name in ("area_ge", "sdc_rate")
                    if name in result.objectives
                })
            except POINT_ERRORS as exc:
                result = PointResult(ordered, point_id, error=exc)
                span.annotate(error=f"{type(exc).__name__}: {exc}")
        self._seen[point_id] = result
        return result

    def _evaluate(self, ordered: dict[str, Any]) -> dict:
        hardening = self.space.hardening(ordered)
        module = self.space.factory(**self.space.params(ordered))
        netlist = netlist_prefix(module, self.runner, hardening)
        return self.runner.run(
            "dse_point", (netlist.digest, self._spec_fp),
            compute=lambda: self._measure(netlist.value(), hardening),
            dump=lambda doc: doc, load=deserialize_dse_point,
        ).value()

    def _measure(self, circuit: Circuit, hardening: str) -> dict:
        """STA + area + fault campaign on one hardened netlist."""
        spec = self.campaign
        timing = analyze_timing(circuit)
        metrics = {
            "area_ge": round(total_area(circuit), 3),
            "cells": len(circuit.cells),
            "flops": len(circuit.flops()),
            "fmax_mhz": round(timing.fmax_mhz, 3),
        }
        config = spec.config
        present = [name for name in config.detect_signals
                   if name in circuit.output_buses]
        if list(config.detect_signals) != present:
            config = replace(config, detect_signals=tuple(present))
        simulator = FaultableGateSimulator(circuit, backend=spec.backend)
        injector = GateFaultInjector(simulator)
        faults = generate_fault_list(injector, spec.n_faults,
                                     len(spec.stimulus), spec.seed)
        campaign = run_campaign(
            injector, spec.stimulus, faults, config,
            design=self.space.name, hardening=hardening, seed=spec.seed,
        )
        extracted = campaign.objectives(config.drain_budget)
        objectives = {
            "area_ge": metrics["area_ge"],
            "fmax_mhz": metrics["fmax_mhz"],
            "sdc_rate": extracted["sdc_rate"],
            "detected_rate": extracted["detected_rate"],
            "sim_cycles": extracted["sim_cycles"],
        }
        campaign_doc = {
            "faults": len(campaign.records),
            "outcomes": campaign.outcomes,
            "golden_selfcheck": campaign.golden_selfcheck,
            "golden_done": campaign.golden_done,
            "detect_signals": list(config.detect_signals),
        }
        return serialize_dse_point(metrics, campaign_doc, objectives)
