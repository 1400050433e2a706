"""The serve job model: validated specs, one parameter schema.

A **job** is one unit of work a client can submit to ``repro serve``:
a flow build, a netlist analysis, a fault-injection campaign or a
design-space exploration.  :func:`make_spec` validates raw parameters
against the kind's schema (:data:`JOB_PARAMS`, from which the one-shot
``repro build``/``inject``/``dse`` commands also declare their options)
and merges defaults; :func:`run_job` executes the spec.  ``repro
build`` and ``repro dse`` run through :func:`run_job` itself; ``repro
analyze`` and ``repro inject`` call the same functions
(:func:`repro.eval.netlist_analysis_document`, :func:`repro.fault
.expocu_campaign`) directly, because they also take options a job does
not (``--design``, ``--jobs``, deadlines, journals).  A job's rendered
result is byte-identical to the corresponding ``repro build --json`` /
``repro inject --format json`` / ``repro dse --format json`` /
``repro analyze --format json`` output — asserted by the serve tests
and the CI serve-smoke job.

Because parameters are canonically ordered and default-completed,
:meth:`JobSpec.fingerprint` is stable across clients: two submissions
that mean the same work digest identically, which is what the
scheduler's request-coalescing keys on.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping

from repro.store import ArtifactStore, digest_doc

#: Fingerprint domain tag (bump when job semantics change).
JOB_SCHEMA = "repro-job/v1"


class JobError(ValueError):
    """A submission is malformed: unknown kind, bad parameter."""


#: Parameter schema per job kind: ``name -> (default, choices | type,
#: help)``.  The one-shot CLI commands declare their job options from
#: this table (:func:`repro.cli.build_parser`), so a parameterless job
#: submission produces the same bytes as the bare CLI command.
JOB_PARAMS: dict[str, dict[str, tuple[Any, Any, str]]] = {
    "build": {
        "flow": ("both", ("osss", "vhdl", "both"), "which flow(s) to build"),
    },
    "analyze": {},
    "inject": {
        "flow": ("rtl", ("rtl", "netlist"),
                 "inject into RTL registers or netlist nets"),
        "faults": (50, int, "number of seeded faults to inject"),
        "seed": (1, int, "campaign seed (stimulus and fault list)"),
        "hardening": ("none", ("none", "tmr", "parity", "tmr+parity"),
                      "netlist hardening applied before injection"),
        "backend": ("event", ("event", "compiled", "bitparallel"),
                    "gate evaluator: interpreted event-driven, "
                    "code-generated straight-line, or lane-packed "
                    "bit-parallel (netlist flow)"),
        "collapse": (False, bool,
                     "statically collapse the fault list (equivalence + "
                     "quiescence pruning; netlist flow, report stays "
                     "byte-identical)"),
    },
    "dse": {
        "space": ("tiny", ("tiny", "full"),
                  "bundled ExpoCU space: tiny (4 points) or full "
                  "(24 points)"),
        "side": (4, int, "frame side length of the explored ExpoCU "
                 "specializations (default: 4)"),
        "strategy": ("factorial", ("factorial", "evolutionary"),
                     "search strategy"),
        "fraction": (1, int, "factorial: keep 1/N of the full design "
                     "(index-sum fractional design)"),
        "population": (8, int, "evolutionary: population size"),
        "generations": (6, int, "evolutionary: number of generations"),
        "seed": (1, int, "evolutionary: search seed"),
        "faults": (24, int, "seeded faults injected per design point"),
        "campaign_seed": (2004, int,
                          "campaign seed (stimulus and fault list)"),
        "backend": ("bitparallel", ("event", "compiled", "bitparallel"),
                    "gate evaluator backend (reports are byte-identical "
                    "across backends)"),
    },
}

#: The kinds a server accepts, in presentation order.
JOB_KINDS = tuple(JOB_PARAMS)


class JobSpec:
    """One validated, default-completed job description."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: dict[str, Any]) -> None:
        self.kind = kind
        self.params = params

    def fingerprint(self) -> str:
        """Canonical digest: the scheduler's coalescing key."""
        return digest_doc([JOB_SCHEMA, self.kind,
                           sorted(self.params.items())])

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    def __repr__(self) -> str:
        return f"JobSpec({self.kind!r}, {self.params!r})"


def make_spec(kind: str, params: Mapping[str, Any] | None = None) -> JobSpec:
    """Validate *kind* / *params* and return a canonical :class:`JobSpec`.

    Unknown kinds, unknown parameter names, wrong types, out-of-range
    choices and inject options the RTL flow cannot run (a hardening or
    a gate backend) all raise :class:`JobError` with a message naming
    the offender — the server maps these to HTTP 400, the CLI to exit 2.
    """
    schema = JOB_PARAMS.get(kind)
    if schema is None:
        raise JobError(f"unknown job kind {kind!r} "
                       f"(expected one of {', '.join(JOB_KINDS)})")
    params = dict(params or {})
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise JobError(f"unknown parameter(s) for {kind!r}: "
                       f"{', '.join(unknown)}")
    complete: dict[str, Any] = {}
    for name, (default, constraint, _help) in schema.items():
        value = params.get(name, default)
        if isinstance(constraint, tuple):
            if value not in constraint:
                raise JobError(
                    f"{kind}.{name} must be one of "
                    f"{', '.join(map(repr, constraint))}, got {value!r}")
        elif constraint is bool:
            if not isinstance(value, bool):
                raise JobError(f"{kind}.{name} must be a boolean, "
                               f"got {value!r}")
        elif constraint is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise JobError(f"{kind}.{name} must be an integer, "
                               f"got {value!r}")
        complete[name] = value
    if kind == "inject" and complete["flow"] == "rtl":
        if complete["hardening"] != "none":
            raise JobError("inject.hardening operates on the netlist flow "
                           "(flow 'netlist'); the RTL flow is always "
                           "unhardened")
        if complete["backend"] != "event":
            raise JobError("inject.backend selects the gate evaluator of "
                           "the netlist flow (flow 'netlist'); RTL "
                           "injection is always event-driven")
    return JobSpec(kind, complete)


def default_design():
    """The bundled ExpoCU top every parameterless flow command builds."""
    from repro.expocu import ExpoCU
    from repro.hdl import Clock, NS, Signal
    from repro.types import Bit
    from repro.types.spec import bit

    return ExpoCU[16, 16]("expocu", Clock("clk", 15 * NS),
                          Signal("rst", bit(), Bit(1)))


def run_job(spec: JobSpec,
            store: ArtifactStore | None = None,
            tracer=None,
            guard: Callable[[str], None] | None = None,
            use_journal: bool = False) -> dict[str, Any]:
    """Execute *spec* and return its JSON-able result payload.

    The payload is exactly the document the matching CLI command
    prints in JSON mode; :func:`render_result` turns it into the same
    bytes.  *guard* is threaded into every memoized stage for
    cancellation at stage boundaries; *use_journal* lets inject jobs
    checkpoint/resume through the store's campaign journal (the serve
    scheduler enables it for coalescable submissions only, so no two
    concurrent campaigns share a journal file).
    """
    params = spec.params
    if spec.kind == "build":
        from repro.eval import run_osss_flow, run_vhdl_flow

        results = []
        if params["flow"] in ("osss", "both"):
            results.append(run_osss_flow(default_design(), "osss",
                                         tracer=tracer, store=store,
                                         guard=guard))
        if params["flow"] in ("vhdl", "both"):
            from repro.baseline import expocu_rtl

            results.append(run_vhdl_flow(expocu_rtl(), "vhdl",
                                         tracer=tracer, store=store,
                                         guard=guard))
        return {"flows": [result.summary() for result in results]}

    if spec.kind == "analyze":
        from repro.eval import netlist_analysis_document

        return netlist_analysis_document(default_design(), tracer=tracer,
                                         store=store, guard=guard)

    if spec.kind == "inject":
        from repro.fault import expocu_campaign

        if guard is not None:
            # Campaigns run through the fault injector, not the stage
            # runner; check once up front so a queued-then-cancelled
            # job never starts simulating.
            guard("campaign")
        journal = None
        resume = False
        if use_journal and store is not None:
            tag = "serve_" + spec.fingerprint()[:16]
            journal = str(store.journal_path(tag))
            resume = True
        result = expocu_campaign(**params, tracer=tracer, journal=journal,
                                 resume=resume)
        return result.as_dict()

    if spec.kind == "dse":
        from repro.dse import (
            EvolutionaryConfig,
            expocu_campaign_spec,
            expocu_space,
            explore,
        )

        space = expocu_space(params["space"], side=params["side"])
        campaign = expocu_campaign_spec(side=params["side"],
                                        faults=params["faults"],
                                        seed=params["campaign_seed"],
                                        backend=params["backend"])
        evolution = EvolutionaryConfig(population=params["population"],
                                       generations=params["generations"],
                                       seed=params["seed"])
        result = explore(space, campaign, strategy=params["strategy"],
                         fraction=params["fraction"], evolution=evolution,
                         store=store, tracer=tracer, guard=guard)
        return result.doc

    raise JobError(f"unknown job kind {spec.kind!r}")  # pragma: no cover


def render_result(kind: str, payload: dict[str, Any]) -> str:
    """The payload as the exact bytes the one-shot CLI prints.

    Every JSON-mode CLI output in this repo is
    ``json.dumps(doc, indent=2) + "\\n"`` — the single convention that
    makes server results diffable against direct runs.
    """
    return json.dumps(payload, indent=2) + "\n"


def span_event(span) -> dict[str, Any]:
    """Reduce a closed profiler span to one JSON-able progress event."""
    event: dict[str, Any] = {
        "kind": "span",
        "span": span.name,
        "dur_s": round(span.dur if span.dur is not None else 0.0, 6),
    }
    meta = {key: value for key, value in span.snapshot().items()
            if value is None or isinstance(value, (str, int, float, bool))}
    if meta:
        event["meta"] = meta
    return event
