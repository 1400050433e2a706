"""Fault-injection campaigns: fault lists, golden runs, classification.

A campaign replays one deterministic stimulus once fault-free (the
*golden run*, checkpointed at every injection cycle) and then once per
fault, restoring the checkpoint at the fault's cycle, injecting, and
comparing the observed outputs against the golden trace.  Every fault is
classified into exactly one outcome:

``masked``    no observed output ever diverged and the run completed;
``sdc``       silent data corruption — outputs diverged, nothing fired;
``detected``  a designated detection signal rose where the golden run's
              was low — during the stimulus *or* the post-stimulus
              drain — or the simulator itself raised on the fault;
``hang``      the done-signal never reached its quiescent value within
              the drain budget (cycle-budget watchdog).

Precedence when several apply: ``hang`` > ``detected`` > ``sdc``.  The
taxonomy and the checkpoint-replay structure follow simulation-based
fault injection practice (DAVOS); determinism is end-to-end — the same
seed yields byte-identical reports.  A replay stops as soon as its
record is decided: when the faulty machine has become the golden one,
or when its drain provably cycles without quiescing.  RTL replays also
simulate only what differs from the recorded golden run
(:class:`~repro.fault.inject.RtlFaultInjector`).

Execution: the fault list is deduplicated before replay (identical
faults are simulated once and their record shared) and planned once
into a task list — lane batches on a lane-capable injector, then single
faults — which every ``jobs`` value hands to the same
:class:`~repro.exec.pool.SupervisedPool`.  With ``jobs=1`` the pool
runs the tasks in-process on the caller's injector; with ``jobs=N`` (and
an ``injector_factory``) each worker process rebuilds the injector and
its golden checkpoints from the seeded scenario, so the merged report is
byte-identical either way (guarded by a cross-worker golden consistency
check).
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.exec.deadline import DeadlineExceeded
from repro.exec.journal import CampaignJournal, fault_key
from repro.exec.pool import (
    MetaMismatchError,
    PoolError,
    SupervisedPool,
    TaskPickleError,
)
from repro.obs.profiler import NULL_TRACER, Tracer
from repro.store.common import digest_doc
from repro.store.serialize import (
    deserialize_fault_record,
    serialize_fault_record,
)

#: The closed outcome taxonomy, in report order.
OUTCOMES = ("masked", "sdc", "detected", "hang")

#: Fault kinds per flow (SEU everywhere; net faults are gate-level).
RTL_KINDS = ("seu",)
GATE_KINDS = ("seu", "sa0", "sa1", "flip")


class CampaignError(RuntimeError):
    """The campaign could not run to completion as configured.

    Raised for execution-infrastructure failures — an injector factory
    that does not pickle under the active start method, worker golden
    runs that disagree, or a journal that belongs to a different
    campaign.  Classification outcomes (including quarantined faults)
    are never errors; they are reported in the result.
    """


@dataclass(frozen=True)
class Fault:
    """One injection: *kind* at *target*, bit *bit*, before cycle *cycle*."""

    kind: str    # "seu" | "sa0" | "sa1" | "flip"
    target: str  # register name (rtl) or net name (netlist)
    bit: int     # bit index within the register; 0 for single nets
    cycle: int   # stimulus index at whose boundary the fault appears

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "target": self.target,
                "bit": self.bit, "cycle": self.cycle}


@dataclass
class FaultRecord:
    """A fault plus its classified outcome."""

    fault: Fault
    outcome: str
    first_divergence: int | None = None
    detail: str = ""

    def as_dict(self) -> dict[str, Any]:
        record = self.fault.as_dict()
        record["outcome"] = self.outcome
        record["first_divergence"] = self.first_divergence
        if self.detail:
            record["detail"] = self.detail
        return record


@dataclass
class CampaignConfig:
    """What the campaign drives, observes and classifies against.

    Parameters
    ----------
    reset_name / reset_cycles:
        The reset input and how many cycles it is held before the
        stimulus starts (the golden snapshot is taken after release).
    observed:
        Output names compared against the golden trace; ``None`` means
        every output.
    detect_signals:
        Outputs that signal *detection* (parity errors, ack errors...):
        a 1 where the golden run had 0 classifies the fault as detected.
        Monitored during the stimulus and during the drain phase (a
        detector may first fire after the last stimulus cycle).
    done_signal / done_value:
        Quiescence test for hang detection: after the stimulus the design
        gets up to *drain_budget* extra cycles of *idle_input* to bring
        this output to this value.  ``None`` disables hang detection.
    """

    reset_name: str = "reset"
    reset_cycles: int = 2
    observed: Sequence[str] | None = None
    detect_signals: Sequence[str] = ()
    done_signal: str | None = None
    done_value: int = 0
    drain_budget: int = 2000
    idle_input: Mapping[str, int] = field(default_factory=dict)


@dataclass
class CampaignResult:
    """Everything one campaign produced, JSON-serializable."""

    design: str
    flow: str
    hardening: str
    seed: int
    cycles: int
    observed: list[str]
    detect_signals: list[str]
    golden_selfcheck: str
    golden_done: bool
    golden_drain_cycles: int
    records: list[FaultRecord]
    #: Static-analysis extras from ``run_campaign(collapse=True)``.
    #: Deliberately NOT part of :meth:`as_dict`: the serialized report
    #: must stay byte-identical to the uncollapsed oracle's.
    collapse: dict[str, int] | None = None
    net_scores: dict[str, float] | None = None
    #: Faults quarantined by the execution layer (wall-clock deadline
    #: exhausted after retries).  Serialized as an ``"errors"`` section
    #: only when non-empty, so clean runs stay byte-identical.
    errors: list[dict[str, Any]] = field(default_factory=list)
    #: Resilience counters (respawns, requeues, timeouts, journal hits)
    #: from the execution layer; NOT part of :meth:`as_dict`.
    exec_stats: dict[str, int] | None = None

    @property
    def outcomes(self) -> dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for record in self.records:
            counts[record.outcome] += 1
        return counts

    def outcome_rates(self) -> dict[str, float]:
        """Outcome shares over the faults actually simulated.

        The denominator is ``len(self.records)`` — the faults that were
        classified — *not* the full fault-list length: quarantined
        faults (the ``errors`` section) were never classified, so
        counting them in the denominator would understate every rate.
        Totals always reconcile: ``len(records) + len(errors)`` equals
        the injected fault-list length.  All zeros when nothing was
        simulated.
        """
        total = len(self.records)
        if not total:
            return {outcome: 0.0 for outcome in OUTCOMES}
        counts = self.outcomes
        return {outcome: counts[outcome] / total for outcome in OUTCOMES}

    def objectives(self, drain_budget: int | None = None) -> dict[str, Any]:
        """Robustness/cost objectives for design-space exploration.

        ``sdc_rate`` / ``detected_rate`` are the outcome shares;
        ``sim_cycles`` is a deterministic campaign-cost proxy counted in
        simulated cycles, not wall time, so it is identical across
        backends and job counts: the golden run (stimulus plus its drain)
        plus, per classified fault, the re-simulated tail from the
        injection cycle and the drain phase (a hang consumes the full
        *drain_budget*; anything else drains like the golden run).
        It stays this full-replay cost formula, so DSE objectives do not
        depend on how replays run: it is *not* the number of cycles
        simulated, which a replay that converges with the golden run or
        provably hangs stops short of (see :func:`_classify`).
        """
        rates = self.outcome_rates()
        drain = self.golden_drain_cycles
        hang_drain = drain if drain_budget is None else drain_budget
        sim_cycles = self.cycles + drain
        for record in self.records:
            sim_cycles += self.cycles - record.fault.cycle
            sim_cycles += hang_drain if record.outcome == "hang" else drain
        return {
            "sdc_rate": round(rates["sdc"], 9),
            "detected_rate": round(rates["detected"], 9),
            "sim_cycles": sim_cycles,
        }

    def as_dict(self) -> dict[str, Any]:
        doc = {
            "schema": "repro-fault-campaign/v1",
            "design": self.design,
            "flow": self.flow,
            "hardening": self.hardening,
            "seed": self.seed,
            "cycles": self.cycles,
            "observed": list(self.observed),
            "detect_signals": list(self.detect_signals),
            "golden": {
                "selfcheck": self.golden_selfcheck,
                "done": self.golden_done,
                "drain_cycles": self.golden_drain_cycles,
            },
            "injected": len(self.records),
            "outcomes": self.outcomes,
            "faults": [record.as_dict() for record in self.records],
        }
        if self.errors:
            doc["errors"] = self.errors
        return doc

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def sdc_ranking(self, limit: int | None = None) -> list[tuple[str, float]]:
        """SDC-prone nets ranked by SCOAP observability, best first.

        Targets whose stuck-at/flip faults classified as silent data
        corruption, ordered by ascending observability score (a low CO
        means the net's value reaches the outputs easily, so its
        corruption is the most likely to slip through undetected).
        Needs the ``net_scores`` attached by ``collapse=True`` runs;
        returns ``[]`` otherwise.
        """
        if self.net_scores is None:
            return []
        prone: dict[str, float] = {}
        for record in self.records:
            if record.outcome != "sdc":
                continue
            score = self.net_scores.get(record.fault.target)
            if score is not None:
                prone[record.fault.target] = score
        ranked = sorted(prone.items(), key=lambda item: (item[1], item[0]))
        return ranked[:limit] if limit is not None else ranked

    def summary_rows(self) -> list[dict[str, Any]]:
        """One table row (for ``repro.eval.format_table``)."""
        counts = self.outcomes
        return [{
            "design": self.design, "flow": self.flow,
            "hardening": self.hardening, "faults": len(self.records),
            **counts,
        }]

    def __repr__(self) -> str:
        counts = self.outcomes
        body = ", ".join(f"{k}={v}" for k, v in counts.items())
        return (f"CampaignResult({self.design!r}, {self.flow}, "
                f"{self.hardening}, {body})")


def collapse_fault(fault: Fault,
                   cmap: Mapping[tuple[str, str], tuple[str, str]]) -> Fault:
    """The class representative of *fault* under an equivalence map.

    Equivalence is structural, so canonicalization preserves the
    injection cycle and bit; faults outside any class map to themselves.
    """
    rep = cmap.get((fault.target, fault.kind))
    if rep is None:
        return fault
    return Fault(rep[1], rep[0], fault.bit, fault.cycle)


def generate_fault_list(injector, n: int, cycles: int, seed: int,
                        kinds: Sequence[str] | None = None,
                        collapse: bool = False) -> list[Fault]:
    """Seeded, deterministic fault list: target × cycle × bit.

    Targets are drawn from the injector's deterministic enumerations;
    injection cycles are uniform over ``[1, cycles)`` so every fault has
    at least one post-reset cycle before it and one stimulus cycle after.

    With ``collapse=True`` every stuck-at fault is replaced by its
    structural equivalence-class representative
    (:meth:`fault_collapse_map`), shrinking the list a campaign has to
    simulate while covering the same fault classes.  Note the sampled
    *sites* change under collapsing; to keep a report byte-identical to
    the uncollapsed oracle, leave the list alone and pass
    ``collapse=True`` to :func:`run_campaign` instead.
    """
    if kinds is None:
        kinds = RTL_KINDS if injector.flow == "rtl" else GATE_KINDS
    seu = injector.seu_targets()
    nets = injector.net_targets()
    kinds = tuple(k for k in kinds
                  if k == "seu" and seu or k != "seu" and nets)
    if n > 0 and not kinds:
        raise ValueError("no fault targets available for the chosen kinds")
    rng = random.Random(seed)
    faults: list[Fault] = []
    for _ in range(n):
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "seu":
            target, width = seu[rng.randrange(len(seu))]
            bit = rng.randrange(width)
        else:
            target, bit = nets[rng.randrange(len(nets))], 0
        # A one-cycle stimulus leaves no post-reset cycle to draw from:
        # inject at cycle 0 instead of sampling cycle 1, which
        # run_campaign would reject as outside the stimulus.
        cycle = rng.randrange(1, cycles) if cycles > 1 else 0
        faults.append(Fault(kind, target, bit, cycle))
    if collapse:
        cmap = injector.fault_collapse_map()
        if cmap:
            faults = [collapse_fault(fault, cmap) for fault in faults]
    return faults


def stuck_at_universe(injector, cycle: int = 1) -> list[Fault]:
    """The classical full stuck-at fault list: sa0/sa1 on every net.

    One injection cycle for the whole list (stuck-at faults are
    permanent; *cycle* chooses how much of the stimulus they overlap).
    This is the universe fault collapsing is measured against.
    """
    return [Fault(kind, target, 0, cycle)
            for target in injector.net_targets()
            for kind in ("sa0", "sa1")]


def _observed_names(outputs: Mapping[str, int],
                    config: CampaignConfig) -> list[str]:
    if config.observed is not None:
        return list(config.observed)
    return sorted(outputs)


class _CycleCheck:
    """Brent's cycle detection over the states of a drain.

    One stored state, refreshed at power-of-two cycle counts, detects any
    period within the drain budget.
    """

    def __init__(self) -> None:
        self._seen: Any = None
        self._next = 1

    def repeats(self, cycles: int, state: Any) -> bool:
        """Whether *state*, reached after *cycles* steps, was seen before."""
        if state == self._seen:
            return True
        if cycles >= self._next:
            self._seen = state
            self._next *= 2
        return False


def _drain(injector, config: CampaignConfig,
           detect_reference: list[dict[str, int]] | None = None,
           ) -> tuple[bool, int, list[dict[str, int]], bool]:
    """Step idle input until the done-signal quiesces.

    Returns ``(done, cycles, detect_trace, detected)``: the per-cycle
    detect-signal samples (the golden run's trace becomes the reference
    for fault replays) and, when *detect_reference* is given, whether a
    detect signal rose where the reference had 0 — the drain-phase half
    of the ``detected`` classification.  A fault drain outlasting the
    reference is compared against the reference's final cycle.

    A fault replay's drain (*detect_reference* given) ends early in two
    provable cases, each with the ``done``/``detected`` a drain to the
    budget would return.  Once a step makes the faulty machine the
    golden one (``injector.converged()``), it repeats the golden drain,
    which quiesces with no detect signal rising over its own trace:
    ``done``.  Once the reference is clamped to its final entry, input
    and reference are constant, so a repeat of the state
    (``injector.state_key()``) with an unchanged detection flag means
    the drain cycles forever without quiescing: a hang (as in
    :func:`_classify_batch`).
    """
    if config.done_signal is None:
        return True, 0, [], False
    idle = {config.reset_name: 0, **dict(config.idle_input)}
    trace: list[dict[str, int]] = []
    detected = False
    done = False
    cycles = 0
    cycle_check = _CycleCheck()
    while cycles < config.drain_budget + 1:
        outputs = injector.step(idle)
        if config.detect_signals:
            sample = {sig: outputs.get(sig) or 0
                      for sig in config.detect_signals}
            trace.append(sample)
            if detect_reference is not None and not detected:
                k = min(cycles, len(detect_reference) - 1)
                reference = detect_reference[k] if k >= 0 else {}
                detected = any(
                    sample[sig] and not reference.get(sig)
                    for sig in config.detect_signals
                )
        cycles += 1
        if outputs.get(config.done_signal) == config.done_value:
            done = True
            break
        if detect_reference is None:
            continue
        if injector.converged():
            done = True
            break
        if cycles >= len(detect_reference) - 1 and cycle_check.repeats(
                cycles, (injector.state_key(), detected)):
            break
    return done, cycles, trace, detected


@dataclass
class _GoldenRun:
    """Everything a fault replay compares against."""

    snapshots: dict[int, tuple]
    trace: list[dict[str, int]]
    done: bool
    drain_cycles: int
    detect_trace: list[dict[str, int]]
    observed: list[str]
    selfcheck: str


def _golden_run(injector, stimulus: Sequence[Mapping[str, int]],
                config: CampaignConfig, snap_cycles: set[int]) -> _GoldenRun:
    """Reset, golden run with checkpoints, drain, and the self-check.

    The injector records the golden stimulus and drain as it steps them
    (``record_golden``).  The self-check then restores the first
    checkpoint and replays the stimulus in full steps, which must
    reproduce the observed trace and the recorded register states; only
    after it (``follow_golden``) do steps replay as deltas over the
    recording, so the check cannot compare the recording with itself.
    """
    for _ in range(config.reset_cycles):
        injector.step({config.reset_name: 1})
    base = injector.snapshot()
    injector.record_golden()
    snapshots: dict[int, tuple] = {}
    trace: list[dict[str, int]] = []
    for cycle, entry in enumerate(stimulus):
        if cycle in snap_cycles:
            snapshots[cycle] = injector.snapshot()
        trace.append(injector.step(entry))
    done, drain_cycles, detect_trace, _ = _drain(injector, config)
    observed = _observed_names(trace[0], config)

    # Golden self-check: restore+replay must reproduce the trace.
    injector.restore(base)
    selfcheck = "masked"
    for cycle, entry in enumerate(stimulus):
        outputs = injector.step(entry)
        if any(outputs.get(k) != trace[cycle].get(k) for k in observed):
            selfcheck = "sdc"
            break
    if not injector.follow_golden():
        selfcheck = "sdc"
    return _GoldenRun(snapshots, trace, done, drain_cycles, detect_trace,
                      observed, selfcheck)


def _classify(injector, fault: Fault,
              stimulus: Sequence[Mapping[str, int]], golden: _GoldenRun,
              config: CampaignConfig) -> FaultRecord:
    """Restore the fault's checkpoint, inject, replay the tail, classify.

    The replay stops on the first step that makes the faulty machine the
    golden one (``injector.converged()``, never true while a stuck-at is
    forced): the rest of the stimulus and the drain then repeat the
    golden run, so the record is already final.
    """
    injector.restore(golden.snapshots[fault.cycle])
    first_divergence: int | None = None
    detected = False
    detail = ""
    hang = False
    try:
        injector.inject(fault)
        for cycle in range(fault.cycle, len(stimulus)):
            outputs = injector.step(stimulus[cycle])
            reference = golden.trace[cycle]
            if first_divergence is None and any(
                outputs.get(k) != reference.get(k) for k in golden.observed
            ):
                first_divergence = cycle
            if not detected and any(
                outputs.get(k) and not reference.get(k)
                for k in config.detect_signals
            ):
                detected = True
            if injector.converged():
                break
        else:
            if golden.done:
                done, _, _, drain_detected = _drain(
                    injector, config, golden.detect_trace
                )
                hang = not done
                detected = detected or drain_detected
    except DeadlineExceeded:
        # A wall-clock deadline is an execution-infrastructure event,
        # not a simulator detection — let the supervisor retry or
        # quarantine instead of misfiling the fault as "detected".
        raise
    except Exception as exc:  # simulator flagged the fault itself
        detected = True
        detail = f"{type(exc).__name__}: {exc}"
    finally:
        injector.clear_faults()
    if hang:
        outcome = "hang"
    elif detected:
        outcome = "detected"
    elif first_divergence is not None:
        outcome = "sdc"
    else:
        outcome = "masked"
    return FaultRecord(fault, outcome, first_divergence, detail)


def _classify_batch(injector, faults: Sequence[Fault],
                    stimulus: Sequence[Mapping[str, int]],
                    golden: _GoldenRun,
                    config: CampaignConfig) -> list[FaultRecord]:
    """Classify up to ``lane_capacity`` faults of any kind in one replay.

    Bit-parallel (PPSFP) counterpart of :func:`_classify`: the replay
    restores the earliest checkpoint of the batch, widens the simulator
    to one lane per fault, and injects each lane's fault at that fault's
    own injection cycle — a stuck-at clamp, a state flip or a one-step
    glitch, each with its scalar semantics — while a lane before its
    cycle tracks the golden run exactly (the golden self-check
    guarantees replay determinism), so it accumulates no spurious
    divergence.  Divergence, detect-signal rises and done-signal
    quiescence are reduced to lane bitmasks per cycle, mirroring the
    scalar classifier's sampling points (outputs observed pre-commit;
    drain detection sampled on the cycle quiescence is reached) so each
    lane's record is byte-identical to its scalar classification.
    Faults must be pre-validated with ``injector.resolve`` — a lane
    fault can then never raise, so the scalar classifier's
    exception-means-detected path has no batch counterpart.

    The batch drives the lane steps and reducers on ``injector.sim``
    directly.  The drain ends early once the lanes still active
    provably cycle: only their flop bits are compared (see
    ``sim.lane_state_snapshot``), so lanes that already finished cannot
    hide a hanging lane's short period behind their own.
    """
    n = len(faults)
    base = min(fault.cycle for fault in faults)
    by_cycle: dict[int, list[tuple[int, Fault]]] = {}
    for lane, fault in enumerate(faults):
        by_cycle.setdefault(fault.cycle, []).append((lane, fault))
    all_lanes = (1 << n) - 1
    first_divergence: list[int | None] = [None] * n
    diff_seen = 0
    detected = 0
    hang = 0
    sim = injector.sim
    injector.restore(golden.snapshots[base])
    try:
        sim.begin_lanes(n)
        for cycle in range(base, len(stimulus)):
            for lane, fault in by_cycle.get(cycle, ()):
                injector.inject(fault, lane)
            sim.step_lanes(stimulus[cycle])
            reference = golden.trace[cycle]
            diff = sim.lanes_output_diff(reference, golden.observed)
            fresh = diff & ~diff_seen
            while fresh:
                lane = (fresh & -fresh).bit_length() - 1
                first_divergence[lane] = cycle
                fresh &= fresh - 1
            diff_seen |= diff
            if config.detect_signals:
                detected |= sim.lanes_detect_rise(
                    reference, config.detect_signals
                )
            sim.commit_lanes()
        # No done-signal means the scalar drain declares quiescence
        # immediately (no drain steps, no hang) — mirror that here.
        if golden.done and config.done_signal is not None:
            idle = {config.reset_name: 0, **dict(config.idle_input)}
            detect_trace = golden.detect_trace
            active = all_lanes
            cycles = 0
            # Periodicity shortcut for hang lanes: the drain input and
            # masks are constant and lanes independent, so once the
            # active lanes' flop bits repeat with unchanged
            # active/detected masks (and the detect reference clamped to
            # its final entry), no active lane can ever quiesce or newly
            # detect — the classification is already exactly what
            # exhausting the budget would produce.
            cycle_check = _CycleCheck()
            while cycles < config.drain_budget + 1:
                sim.step_lanes(idle)
                if config.detect_signals:
                    k = min(cycles, len(detect_trace) - 1)
                    reference = detect_trace[k] if k >= 0 else {}
                    detected |= sim.lanes_detect_rise(
                        reference, config.detect_signals
                    ) & active
                done = sim.lanes_done(config.done_signal, config.done_value)
                sim.commit_lanes()
                cycles += 1
                active &= ~done
                if not active:
                    break
                if cycles >= len(detect_trace) - 1 and cycle_check.repeats(
                        cycles, (active, detected,
                                 sim.lane_state_snapshot(active))):
                    break
            hang = active
    finally:
        sim.end_lanes()
        injector.clear_faults()
    records = []
    for lane, fault in enumerate(faults):
        bit = 1 << lane
        if hang & bit:
            outcome = "hang"
        elif detected & bit:
            outcome = "detected"
        elif first_divergence[lane] is not None:
            outcome = "sdc"
        else:
            outcome = "masked"
        records.append(FaultRecord(fault, outcome, first_divergence[lane]))
    return records


def _lane_batches(injector, sim_faults: Sequence[Fault],
                  pending: Sequence[int]) -> tuple[list[list[int]],
                                                   list[int]]:
    """Split *pending* fault indices into lane batches and a scalar rest.

    Every fault whose target ``injector.resolve`` accepts packs into
    lanes, whatever its kind (stuck-at, SEU or flip); only faults that
    do not resolve go through the scalar classifier, to reproduce its
    exception-means-detected record.  Batchable faults are sorted
    target-major (then bit, kind, cycle) before chunking at the
    injector's lane capacity: faults on the same or structurally nearby
    nets tend to classify alike, so in particular the hang-prone ones
    cluster into the same batch — one batch pays the full drain budget
    instead of every batch carrying a straggler lane.
    """
    batchable: list[int] = []
    rest: list[int] = []
    for k in pending:
        try:
            injector.resolve(sim_faults[k])
        except Exception:
            rest.append(k)
        else:
            batchable.append(k)
    batchable.sort(key=lambda k: (sim_faults[k].target, sim_faults[k].bit,
                                  sim_faults[k].kind, sim_faults[k].cycle))
    capacity = injector.lane_capacity
    batches = [batchable[i:i + capacity]
               for i in range(0, len(batchable), capacity)]
    return batches, rest


def _golden_meta(injector, golden: _GoldenRun) -> dict[str, Any]:
    """The injector-independent golden facts every shard must agree on."""
    return {
        "flow": injector.flow,
        "design": getattr(injector, "design", injector.flow),
        "observed": list(golden.observed),
        "selfcheck": golden.selfcheck,
        "done": golden.done,
        "drain_cycles": golden.drain_cycles,
    }


def _sim_stats(injector) -> dict[str, Any] | None:
    """The injector's simulator work counters, when it exposes them."""
    sim = getattr(injector, "sim", None)
    stats = getattr(sim, "stats", None)
    return stats() if callable(stats) else None


def _outcome_tally(records: Sequence[FaultRecord]) -> dict[str, int]:
    counts = {outcome: 0 for outcome in OUTCOMES}
    for record in records:
        counts[record.outcome] += 1
    return counts


class _CampaignSession:
    """One injector plus its checkpointed golden run; classifies tasks.

    The campaign's only classification entry point: ``run`` takes one
    planned task — a single fault, or a tuple of faults for one
    lane-parallel replay — and returns its record(s).  ``meta`` is the
    cross-worker consistency contract: every session must reproduce the
    identical golden run or the campaign refuses to merge results.

    The session takes the *faults* its tasks will replay.  Before the
    golden run it declares them to the injector (``declare_faults``),
    so a gate engine guards every fault site in its generated settle
    once, not in mid-replay, and it checkpoints the golden run at cycle
    0 and at every fault's injection cycle.

    ``jobs=1`` builds the session in the parent on the caller's
    injector and *tracer*, so each task gets its own span; worker
    processes build theirs via :func:`_worker_session` and trace
    nothing (the pool records one rollup span per worker).
    """

    def __init__(self, injector, stimulus, faults, config,
                 tracer: Tracer = NULL_TRACER):
        self.injector = injector
        self.stimulus = stimulus
        self.config = config
        self.tracer = tracer
        injector.declare_faults(faults)
        self.golden = _golden_run(injector, stimulus, config,
                                  {fault.cycle for fault in faults} | {0})
        self.meta = _golden_meta(injector, self.golden)

    @staticmethod
    def label(task: Fault | tuple) -> str:
        """The task's span name, also used in deadline messages."""
        if isinstance(task, tuple):
            return f"lanes[{len(task)}]@{min(f.cycle for f in task)}"
        return f"{task.kind}:{task.target}[{task.bit}]@{task.cycle}"

    def run(self, task: Fault | tuple) -> FaultRecord | list[FaultRecord]:
        with self.tracer.span(self.label(task)) as span:
            if not isinstance(task, tuple):
                try:
                    record = _classify(self.injector, task, self.stimulus,
                                       self.golden, self.config)
                except DeadlineExceeded:
                    span.annotate(outcome="timed_out")
                    raise
                span.annotate(outcome=record.outcome)
                return record
            try:
                records = _classify_batch(self.injector, list(task),
                                          self.stimulus, self.golden,
                                          self.config)
            except Exception:
                # A lane-parallel surprise must never cost the batch its
                # classification: fall back to the scalar oracle.
                self.injector.clear_faults()
                records = [_classify(self.injector, fault, self.stimulus,
                                     self.golden, self.config)
                           for fault in task]
            span.annotate(faults=len(task), outcomes=_outcome_tally(records))
            return records

    def stats(self) -> dict[str, Any] | None:
        return _sim_stats(self.injector)


def _worker_session(injector_factory, stimulus, faults,
                    config) -> _CampaignSession:
    """A worker process's session, on an injector of its own.

    Module-level so ``functools.partial`` over it pickles under every
    multiprocessing start method.
    """
    return _CampaignSession(injector_factory(), stimulus, faults, config)


def _campaign_fingerprint(design: str, hardening: str, seed: int,
                          stimulus: Sequence[Mapping[str, int]],
                          config: CampaignConfig,
                          faults: Sequence[Fault]) -> str:
    """Digest of everything that determines a campaign's report.

    Binds a journal to one exact campaign: any change to the stimulus,
    fault list or configuration yields a different fingerprint, so
    stale journals are discarded instead of replayed into the wrong
    report.  Collapse mode is deliberately *not* part of the digest:
    collapse is classification-preserving, so a record journaled by a
    plain run is byte-for-byte the record a collapsed run would emit
    (and vice versa) — one journal serves both modes of the same
    campaign.  Mappings are serialized as sorted item lists to stay
    independent of dict insertion order.
    """
    return digest_doc({
        "design": design,
        "hardening": hardening,
        "seed": seed,
        "stimulus": [sorted(entry.items()) for entry in stimulus],
        "config": {
            "reset_name": config.reset_name,
            "reset_cycles": config.reset_cycles,
            "observed": (None if config.observed is None
                         else list(config.observed)),
            "detect_signals": list(config.detect_signals),
            "done_signal": config.done_signal,
            "done_value": config.done_value,
            "drain_budget": config.drain_budget,
            "idle_input": sorted(config.idle_input.items()),
        },
        "faults": [fault.as_dict() for fault in faults],
    })


def _collapse_plan(injector, unique: Sequence[Fault],
                   stimulus: Sequence[Mapping[str, int]],
                   config: CampaignConfig, tracer: Tracer):
    """The static pre-campaign reduction of ``collapse=True``.

    Returns ``(canonical, masked, cmap, net_scores)``: each unique
    fault's equivalence-class representative, whether one instrumented
    golden pass proves that representative masked, the collapse map
    itself (journal restore reuses it) and, on gate-level injectors,
    each addressable net's SCOAP observability score.
    """
    from repro.fault.profile import quiescence_profile

    cmap = injector.fault_collapse_map()
    canonical = [collapse_fault(fault, cmap) for fault in unique]
    with tracer.span("quiescence-profile") as profile_span:
        profile = quiescence_profile(injector, stimulus, config)
    profile_span.annotate(targets=len(profile.quiet),
                          sample_points=profile.sample_points)
    masked = [profile.masks(fault) for fault in canonical]
    net_scores: dict[str, float] | None = None
    if getattr(injector, "flow", None) == "netlist":
        from repro.analyze.netlist import scoap_analysis

        testability = scoap_analysis(injector.sim.circuit)
        net_scores = {
            name: testability.co[net.uid]
            for name, net in injector.addressable_nets().items()
        }
    return canonical, masked, cmap, net_scores


def _restore_journal(entries: Mapping[str, Mapping[str, Any]],
                     sim_faults: Sequence[Fault],
                     cmap: Mapping[tuple[str, str], tuple[str, str]],
                     ) -> list[FaultRecord | None]:
    """Each simulated fault's journaled record, ``None`` if not stored.

    A journal written by a plain run keys its records by the original
    fault ids; with a collapse map every entry is also indexed under its
    equivalence-class representative, so a collapsed resume can reuse a
    member's record for the class it now simulates.  Classification is
    class-invariant — the property collapse's byte-identity rests on —
    so any member's record stands in for the representative; it keeps
    the member's identity until :func:`_expand_records` rewraps it.
    """
    by_rep: dict[str, Mapping[str, Any]] = {}
    for doc in entries.values() if cmap else ():
        fault = Fault(doc["fault"]["kind"], doc["fault"]["target"],
                      int(doc["fault"]["bit"]), int(doc["fault"]["cycle"]))
        by_rep.setdefault(fault_key(collapse_fault(fault, cmap).as_dict()),
                          doc)
    records: list[FaultRecord | None] = []
    for fault in sim_faults:
        key = fault_key(fault.as_dict())
        doc = entries.get(key) or by_rep.get(key)
        records.append(None if doc is None else deserialize_fault_record(doc))
    return records


def _expand_records(unique: Sequence[Fault], canonical: Sequence[Fault],
                    masked: Sequence[bool],
                    sim_records: Sequence[FaultRecord | None],
                    sim_index: Mapping[Fault, int],
                    ) -> list[FaultRecord | None]:
    """Spread the simulated records back over the unique fault list.

    A pruned fault gets a synthesized masked record, a fault that is
    its own representative shares the simulated record object, and any
    other fault gets a rewrap carrying its own identity.  Quarantined
    representatives stay ``None``; the report lists them as errors.
    """
    expanded: list[FaultRecord | None] = []
    for fault, rep, pruned in zip(unique, canonical, masked):
        record = (FaultRecord(fault, "masked") if pruned
                  else sim_records[sim_index[rep]])
        if record is not None and record.fault != fault:
            record = FaultRecord(fault, record.outcome,
                                 record.first_divergence, record.detail)
        expanded.append(record)
    return expanded


def run_campaign(
    injector,
    stimulus: Sequence[Mapping[str, int]],
    faults: Sequence[Fault],
    config: CampaignConfig | None = None,
    *,
    design: str = "",
    hardening: str = "none",
    seed: int = 0,
    jobs: int = 1,
    injector_factory: Callable[[], Any] | None = None,
    collapse: bool = False,
    tracer: Tracer | None = None,
    fault_timeout: float | None = None,
    max_retries: int = 1,
    journal: str | None = None,
    resume: bool = False,
    start_method: str | None = None,
) -> CampaignResult:
    """Golden run + per-fault replay + classification (see module doc).

    The deduplicated fault list is planned once into tasks — lane
    batches when the injector is lane-capable, then single faults —
    that every *jobs* value (clamped to the task count) runs through a
    :class:`~repro.exec.pool.SupervisedPool`: in-process on *injector*
    for ``jobs=1``, else on worker processes that each rebuild the
    injector with *injector_factory* (picklable, zero-argument; the
    parent calls it once itself to plan lanes when *injector* is
    ``None``).  The merged report is byte-identical to the ``jobs=1``
    run, also when workers crash mid-campaign (the dead worker's
    in-flight task is re-queued onto a respawned worker) or cannot be
    spawned at all (the pool degrades to in-process execution).

    *fault_timeout* puts a wall-clock deadline (seconds) on each fault
    replay, complementing the cycle budget: a fault that overruns is
    retried up to *max_retries* times (on a fresh worker when
    parallel), then quarantined into the result's ``errors`` section —
    never misclassified, never able to stall the campaign.  The
    deadline is per fault, so it turns lane batching off.

    *journal* names a crash-safe append-only checkpoint file
    (``repro-journal/v1``); with ``resume=True`` faults already
    recorded by a previous (possibly killed) run of the *same*
    campaign are restored instead of re-simulated, and the final
    report is byte-identical to an uninterrupted run.  The journal is
    fingerprint-bound: any change to the campaign starts fresh.

    With ``collapse=True`` (gate flow) the static netlist analysis cuts
    the simulated set in two ways before any replay happens: each fault
    is canonicalized to its structural equivalence-class representative
    (:mod:`repro.analyze.netlist`), and stuck-at faults proven masked by
    one instrumented golden pass (:mod:`repro.fault.profile`) have their
    records synthesized outright.  Both reductions are
    classification-preserving, so the result — including the serialized
    report — is byte-identical to the uncollapsed run; the extra
    ``collapse`` stats and per-net ``net_scores`` ride on the result
    object only.  At RTL level ``collapse=True`` is a no-op.

    With a :class:`~repro.obs.profiler.Tracer`, the campaign records a
    ``campaign`` root span holding a ``replay`` span around the pool
    run.  With ``jobs=1`` a ``golden`` span precedes it, ``replay``
    holds one span per task (``lanes[N]@<cycle>`` per lane batch,
    ``<kind>:<target>[<bit>]@<cycle>`` per single fault) and the
    simulator's work counters annotate ``campaign``; with ``jobs > 1``
    ``replay`` holds one rollup span per worker.  ``replay`` carries
    faults/sec and per-outcome tallies, and ``campaign`` the resilience
    counters (respawns, re-queues, timeouts, journal hits — also on the
    result's ``exec_stats``).
    """
    tracer = tracer or NULL_TRACER
    config = config or CampaignConfig()
    stimulus = [{config.reset_name: 0, **dict(entry)} for entry in stimulus]
    if not stimulus:
        raise ValueError("campaign needs a non-empty stimulus")
    for fault in faults:
        if not 0 <= fault.cycle < len(stimulus):
            raise ValueError(
                f"fault cycle {fault.cycle} outside the "
                f"{len(stimulus)}-cycle stimulus"
            )
    if jobs > 1 and injector_factory is None:
        raise ValueError(
            "run_campaign(jobs>1) needs a picklable injector_factory so "
            "worker processes can rebuild the injector"
        )
    if resume and journal is None:
        raise ValueError(
            "run_campaign(resume=True) needs a journal path to resume from"
        )

    # Identical faults replay identically (determinism guarantee), so
    # simulate each unique fault once and share its record.
    index_of: dict[Fault, int] = {}
    for fault in faults:
        index_of.setdefault(fault, len(index_of))
    unique = list(index_of)
    canonical, masked = unique, [False] * len(unique)
    cmap: Mapping[tuple[str, str], tuple[str, str]] = {}
    net_scores: dict[str, float] | None = None
    if collapse:
        if injector is None:
            injector = injector_factory()
        canonical, masked, cmap, net_scores = _collapse_plan(
            injector, unique, stimulus, config, tracer)
    sim_index: dict[Fault, int] = {}
    for fault, pruned in zip(canonical, masked):
        if not pruned:
            sim_index.setdefault(fault, len(sim_index))
    sim_faults = list(sim_index)
    collapse_stats = None if not collapse else {
        "faults": len(faults),
        "unique": len(unique),
        "equivalence_merged": len(unique) - len(set(canonical)),
        "quiescence_pruned": sum(masked),
        "simulated": len(sim_faults),
    }

    # Checkpoint/resume: restore already-journaled records, simulate
    # only what remains.  The journal stays open for the whole run so
    # every fresh record is durable the moment it is classified.
    sim_records: list[FaultRecord | None] = [None] * len(sim_faults)
    sim_failures: dict[int, dict[str, str]] = {}
    jrnl: CampaignJournal | None = None
    try:
        if journal is not None:
            fingerprint = _campaign_fingerprint(design, hardening, seed,
                                                stimulus, config, faults)
            jrnl = CampaignJournal(journal, fingerprint).open(resume=resume)
            sim_records = _restore_journal(jrnl.entries, sim_faults, cmap)
        journal_meta = meta = jrnl.meta if jrnl is not None else None
        pending = [k for k, record in enumerate(sim_records)
                   if record is None]
        if injector is None and (pending or meta is None):
            injector = injector_factory()

        # One task per lane batch (a tuple of faults classified in one
        # bit-parallel replay), then one per remaining fault; task_map
        # resolves each task back to its sim indices.
        batches: list[list[int]] = []
        scalar = pending
        if (pending and getattr(injector, "lane_capacity", 0) > 1
                and fault_timeout is None):
            batches, scalar = _lane_batches(injector, sim_faults, pending)
        task_map = batches + [[k] for k in scalar]
        tasks: list[Any] = [tuple(sim_faults[k] for k in batch)
                            for batch in batches]
        tasks += [sim_faults[k] for k in scalar]
        jobs = max(1, min(int(jobs), len(tasks)))
        exec_stats: dict[str, int] = {
            "jobs": jobs,
            "simulated": len(pending),
            "journal_hits": len(sim_records) - len(pending),
            "timeouts": 0,
            "timeout_retries": 0,
            "quarantined": 0,
            "lane_batches": len(batches),
        }

        def check_meta(fresh_meta: Mapping[str, Any]) -> None:
            if journal_meta is not None and dict(fresh_meta) != journal_meta:
                raise CampaignError(
                    "the journal's golden-run metadata does not match this "
                    "campaign's golden run; refusing to resume into a "
                    "different report"
                )
            if jrnl is not None:
                jrnl.set_meta(fresh_meta)

        def on_result(i: int, result: Any) -> None:
            records = result if isinstance(result, list) else [result]
            for k, record in zip(task_map[i], records):
                sim_records[k] = record
                if jrnl is not None:
                    jrnl.append_record(serialize_fault_record(record))

        campaign_ctx = tracer.span("campaign", hardening=hardening,
                                   seed=seed, faults=len(faults),
                                   unique_faults=len(unique),
                                   simulated=len(sim_faults),
                                   jobs=jobs, cycles=len(stimulus))
        with campaign_ctx as campaign_span:
            # A full resume restored every record and the golden facts
            # from the journal: nothing to simulate.  Otherwise run the
            # tasks — none at all still builds one session, whose golden
            # run supplies the report header's facts.
            if tasks or meta is None:
                pending_faults = tuple(sim_faults[k] for k in pending)
                session: _CampaignSession | None = None
                if jobs == 1:
                    with tracer.span("golden") as golden_span:
                        session = _CampaignSession(injector, stimulus,
                                                   pending_faults, config,
                                                   tracer)
                    golden_span.annotate(
                        selfcheck=session.golden.selfcheck,
                        done=session.golden.done,
                        drain_cycles=session.golden.drain_cycles,
                    )
                pool = SupervisedPool(
                    (lambda: session) if session is not None
                    else functools.partial(_worker_session, injector_factory,
                                           stimulus, pending_faults, config),
                    jobs,
                    task_timeout=fault_timeout,
                    max_retries=max(0, int(max_retries)),
                    start_method=start_method,
                    tracer=tracer,
                )
                with tracer.span("replay") as replay_span:
                    try:
                        outcome = pool.run(tasks, on_result=on_result,
                                           on_meta=check_meta)
                    except TaskPickleError as exc:
                        raise CampaignError(
                            "run_campaign(jobs>1) needs an injector_factory "
                            "that pickles under the active start method: "
                            f"{exc}"
                        ) from exc
                    except MetaMismatchError as exc:
                        raise CampaignError(
                            "parallel campaign workers disagree on the "
                            "golden run; the injector factory is not "
                            "deterministic across processes"
                        ) from exc
                    except PoolError as exc:
                        raise CampaignError(str(exc)) from exc
                replayed = [sim_records[k] for k in pending
                            if sim_records[k] is not None]
                replay_span.annotate(faults=len(pending),
                                     outcomes=_outcome_tally(replayed))
                if replay_span.dur:
                    replay_span.annotate(
                        faults_per_s=round(len(pending) / replay_span.dur, 2)
                    )
                meta = outcome.meta
                exec_stats.update(pool.stats)
                for i, failure in outcome.failures.items():
                    for k in task_map[i]:
                        sim_failures[k] = failure
                stats = session.stats() if session is not None else None
                if stats is not None:
                    campaign_span.annotate(sim_stats=stats)
            unique_records = _expand_records(unique, canonical, masked,
                                             sim_records, sim_index)
            if collapse:
                # Journal the expanded records too, so a later resume of
                # the same campaign (collapsed or plain) finds every
                # fault under its own key; append_record dedups by key.
                for record in unique_records:
                    if jrnl is not None and record is not None:
                        jrnl.append_record(serialize_fault_record(record))
                campaign_span.annotate(
                    collapse=collapse_stats,
                    expanded_records=sum(
                        1 for record in unique_records if record is not None
                    ),
                )
            campaign_span.annotate(design=design or meta["design"],
                                   flow=meta["flow"],
                                   resilience=dict(exec_stats))

        records: list[FaultRecord] = []
        errors: list[dict[str, Any]] = []
        for fault in faults:
            u = index_of[fault]
            record = unique_records[u]
            if record is None:
                failure = sim_failures[sim_index[canonical[u]]]
                errors.append({"fault": fault.as_dict(),
                               "error": failure["error"],
                               "detail": failure["detail"]})
            else:
                records.append(record)
    finally:
        if jrnl is not None:
            jrnl.close()

    return CampaignResult(
        design=design or meta["design"],
        flow=meta["flow"],
        hardening=hardening,
        seed=seed,
        cycles=len(stimulus),
        observed=meta["observed"],
        detect_signals=list(config.detect_signals),
        golden_selfcheck=meta["selfcheck"],
        golden_done=meta["done"],
        golden_drain_cycles=meta["drain_cycles"],
        records=records,
        collapse=collapse_stats,
        net_scores=net_scores,
        errors=errors,
        exec_stats=exec_stats,
    )
