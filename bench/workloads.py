"""The five benchmark workloads, their output checks, and the child entry.

Every op is a closed loop: the caller waits for one op's result before
it starts the next.  A run measures ops back to back for ``seconds``
(at least ``min_ops``), then reports medians.  Timings are reference
seconds: wall time scaled by the host's speed, measured around and
during it (:mod:`bench.hostspeed`).  With ``trace=True`` the
ops alternate untraced and traced (:mod:`bench.layers`), so the run
yields the per-layer split and the tracing overhead side by side.

``python -m bench.workloads WORKLOAD --seed S --seconds N --trace 0|1
--out DIR`` runs one workload in this (fresh) process and writes
``DIR/<workload>.trace<0|1>.json`` plus, when traced,
``DIR/trace-<workload>.json``.  ``bench/run.py`` is the user-facing
command that spawns it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.obs import Tracer
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import make_spec, render_result, run_job
from repro.store import ArtifactStore

from bench import ROOT, child_env
from bench.hostspeed import Clock
from bench.layers import ALL_LAYERS, COUNTERS, LayerTracer, layer_totals, \
    span_cost_s, span_count
from bench.stats import summarize

#: Fault-list seed of both campaign workloads.  A seeded fault list
#: moves the simulated work by up to +-25% between seeds (a fault that
#: hangs the design costs a full 4000-cycle drain), which would swamp
#: any regression bound, so the list is fixed and the run seed draws
#: the camera frame instead.
FAULT_SEED = 2004
GATE_FAULTS = 32
RTL_FAULTS = 6
#: Set-ups per run; set-up time is their median.
SETUPS = 5
SERVE_SETUPS = 3
SERVE_WORKERS = 2
#: The served job mix: warm, short jobs whose time is HTTP, scheduling,
#: the worker pool and store reads rather than synthesis.
SERVE_MIX: tuple[tuple[str, dict[str, Any]], ...] = (
    ("build", {"flow": "osss"}),
    ("build", {"flow": "vhdl"}),
    ("analyze", {}),
)

#: Layers each workload must reach in its traced ops; a layer that
#: never fires fails the run, so a refactor that moves a call cannot
#: silently zero a layer.
EXPECTED_LAYERS: dict[str, tuple[str, ...]] = {
    "build-cold": (
        "design.elaborate", "baseline.expocu_rtl", "synth.analyze",
        "synth.synthesize", "rtl.lint", "netlist.techmap", "netlist.link",
        "netlist.opt", "netlist.sta", "netlist.pnr", "store.probe",
        "store.put", "store.serialize", "store.fingerprint",
        "baseline.ip_library",
    ),
    "build-warm": (
        "design.elaborate", "baseline.expocu_rtl", "netlist.opt",
        "store.probe", "store.load", "store.deserialize",
        "store.fingerprint", "baseline.ip_library",
    ),
    "campaign-gate": (
        "fault.build_injector", "synth.synthesize", "netlist.techmap",
        "netlist.opt", "netlist.sim.build", "fault.fault_list",
        "fault.campaign",
    ),
    "campaign-rtl": (
        "fault.build_injector", "synth.synthesize", "rtl.sim.build",
        "fault.fault_list", "fault.campaign",
    ),
    "serve-warm": ("serve.submit", "serve.result"),
}

#: How a served job's latency splits, from the server's job timestamps.
SERVE_PARTS = ("queue_wait", "service", "client_overhead")

#: Serve counters read from ``/stats`` at the end of a run.
SERVE_COUNTERS = {
    "serve.completed": ("counters", "completed"),
    "serve.failed": ("counters", "failed"),
    "serve.deduped": ("counters", "deduped"),
    "exec.respawns": ("pool", "respawns"),
    "exec.crashes": ("pool", "crashes"),
    "exec.fallback": ("pool", "fallback"),
    "exec.hung_kills": ("pool", "hung_kills"),
}

#: One op: called with the tracer to hand the program (``None`` when
#: untraced); returns the output problems found and the op's counters.
Op = Callable[[Tracer | None], tuple[list[str], dict[str, int]]]


class Tally:
    """Checked operations of one run; a failed check fails its op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def metric(value: float, unit: str, samples: list[float] | None = None,
           n: int | None = None) -> dict[str, Any]:
    """One reported number; timings carry their samples and summary."""
    doc: dict[str, Any] = {"value": value, "unit": unit}
    if samples is not None:
        doc.update(summarize(samples))
        doc["samples"] = list(samples)
    else:
        doc["n"] = 1 if n is None else n
    return doc


def measure_setups(workload: str, count: int) -> list[float]:
    """Reference seconds of *count* fresh set-up interpreters."""
    clock = Clock("child")
    samples = []
    for _ in range(count):
        # No timeout here: a wait with one polls in steps of up to 50 ms,
        # which would quantize the sample.  run.py bounds the whole run.
        _, wall, speed = clock.time(lambda: subprocess.run(
            [sys.executable, "-m", "bench.setup_probe", workload],
            cwd=ROOT, env=child_env(), check=True))
        samples.append(wall * speed)
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timed(NamedTuple):
    """One op's wall seconds and the host's speed while it ran."""

    traced: bool
    wall: float
    speed: float

    @property
    def ref(self) -> float:
        """The op's time in reference seconds."""
        return self.wall * self.speed


def closed_loop(prepare: Callable[[], None], op: Op, tally: Tally,
                seconds: float, min_ops: int, max_ops: int | None = None,
                tracer: LayerTracer | None = None,
                mode: str = "inline") -> list[Timed]:
    """Run ops back to back; returns every op's time, in order.

    ``prepare`` runs untimed before each op.  *mode* says where the
    op's work runs (:class:`bench.hostspeed.Clock`).  A new op starts
    only while the elapsed time plus a typical op fits in *seconds*,
    once *min_ops* ops (and, traced, one of each kind) are done.  With
    a *tracer*, untraced and traced ops alternate, so drift over the
    run does not read as tracing overhead; a traced op's counters
    annotate its root span.
    """
    clock = Clock(mode)
    timed: list[Timed] = []

    def traced_op() -> tuple[list[str], dict[str, int]]:
        # The root span opens inside the clock, so it leaves out the
        # host-speed loops run around the op.
        with tracer.op() as span:
            problems, counts = op(tracer.tracer)
            span.annotate(**counts)
        return problems, counts

    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(timed) % 2 == 1
        prepare()
        if use_trace:
            with tracer.installed():
                (problems, _), wall, speed = clock.time(traced_op)
        else:
            (problems, _), wall, speed = clock.time(lambda: op(None))
        timed.append(Timed(use_trace, wall, speed))
        tally.op(problems)
        done = len(timed)
        if max_ops is not None and done >= max_ops:
            break
        if done < min_ops or (tracer is not None and done < 2):
            continue
        typical = statistics.median(t.wall for t in timed)
        if time.perf_counter() - start + typical > seconds:
            break
    return timed


def end_to_end(setup: list[float], timed: list[Timed],
               rss_mb: float) -> dict[str, Any]:
    """The metrics every workload reports with tracing off.

    Op times are the untraced ops' reference seconds; ``results.json``
    keeps their wall seconds (``op_wall_s``) and the host's speed
    (``host_speed``) beside them.  One closed loop running ops back to
    back completes ``1 / mean op time`` ops per second.
    """
    plain = [t for t in timed if not t.traced]
    ref = [t.ref for t in plain]
    wall = [t.wall for t in plain]
    speeds = [t.speed for t in plain]
    return {
        "setup_s": metric(statistics.median(setup), "s", setup),
        "op_p50_s": metric(statistics.median(ref), "s", ref),
        "ops_per_s": metric(len(ref) / sum(ref), "1/s", n=len(ref)),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "op_wall_s": metric(statistics.median(wall), "s", wall),
        "host_speed": metric(statistics.median(speeds), "x", speeds),
    }


def layer_metrics(tracer: LayerTracer, timed: list[Timed]
                  ) -> tuple[dict[str, Any], dict[str, Any]]:
    """Per-layer metrics of the traced ops, plus the raw layer table.

    Layer times are shares (%) of traced op wall time, so a layer a
    workload never reaches reads 0% rather than a constant zero time;
    the seconds are in the returned table (``results.json``).
    """
    ops = tracer.ops()
    layers, counters, unattributed = layer_totals(ops)
    wall = sum(op.dur for op in ops)
    n = len(ops)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics: dict[str, Any] = {}
    for layer in ALL_LAYERS:
        entry = layers.get(layer, zero)
        metrics[f"{layer}.self_pct"] = metric(
            100.0 * entry["self_s"] / wall, "%", n=n)
        metrics[f"{layer}.calls"] = metric(entry["calls"] / n, "count", n=n)
    injector = layers.get("fault.build_injector", zero)
    metrics["fault.build_injector.total_pct"] = metric(
        100.0 * injector["total_s"] / wall, "%", n=n)
    for name in COUNTERS:
        unit = "B" if name == "store.bytes_written" else "count"
        metrics[name] = metric(counters.get(name, 0) / n, unit, n=n)
    lookups = counters.get("store.hit", 0) + counters.get("store.miss", 0)
    metrics["store.lookups"] = metric(lookups / n, "count", n=n)
    metrics["store.hit_ratio"] = metric(
        100.0 * counters.get("store.hit", 0) / lookups if lookups else 0.0,
        "%", n=lookups)
    campaign_s = layers.get("fault.campaign", zero)["total_s"]
    metrics["fault.sim_cycles_per_s"] = metric(
        counters.get("fault.sim_cycles", 0) / campaign_s
        if campaign_s else 0.0, "1/s", n=n)
    metrics["obs.unattributed_pct"] = metric(
        100.0 * sum(unattributed) / wall, "%", n=n)
    base = statistics.median(t.ref for t in timed if not t.traced)
    metrics["obs.trace_overhead_pct"] = metric(
        100.0 * (statistics.median(t.ref for t in timed if t.traced) - base)
        / base, "%", n=len(timed))
    spans = span_count(ops) / n
    metrics["obs.spans"] = metric(spans, "count", n=n)
    metrics["obs.span_cost_pct"] = metric(
        100.0 * spans * span_cost_s() / base, "%", n=n)
    # Read by one workload (serve's job timeline); zero elsewhere, where
    # no job is served.
    for part in SERVE_PARTS:
        metrics[f"serve.{part}_pct"] = metric(0.0, "%", n=0)
    for name in SERVE_COUNTERS:
        metrics[name] = metric(0, "count")
    table = {name: {key: round(value, 6) for key, value in entry.items()}
             for name, entry in sorted(layers.items())}
    table["op"] = {"calls": n, "total_s": round(wall, 6),
                   "self_s": round(sum(unattributed), 6)}
    return metrics, {"layers": table, "unattributed_s": unattributed,
                     "counters": counters}


def check_fired(workload: str, tracer: LayerTracer) -> None:
    """Fail the run when a declared layer never fired."""
    fired, _, _ = layer_totals(tracer.ops())
    missing = [layer for layer in EXPECTED_LAYERS[workload]
               if layer not in fired]
    if missing:
        raise RuntimeError(
            f"{workload}: layer wrapper(s) never fired: {', '.join(missing)}"
            " (a call moved; update bench/layers.py)")


def finish(workload: str, tally: Tally, metrics: dict[str, Any],
           tracer: LayerTracer | None, timed: list[Timed],
           **meta: Any) -> dict[str, Any]:
    """Assemble a run's result document (and trace, when traced)."""
    result: dict[str, Any] = {
        "workload": workload,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.error_rate,
        "problems": tally.problems[:20],
        "metrics": metrics,
    }
    if tracer is not None:
        check_fired(workload, tracer)
        layer, table = layer_metrics(tracer, timed)
        layer.update(metrics)
        result["metrics"] = layer
        result.update(table)
        result["trace"] = tracer.document(workload=workload, **meta)
    return result


# ----------------------------------------------------------------------
# builds
# ----------------------------------------------------------------------
def run_build(cold: bool, seed: int, seconds: float, trace: bool,
              work_dir: Path, *, setups: int = SETUPS, min_ops: int = 2,
              max_ops: int | None = None) -> dict[str, Any]:
    """One ``run_job(build, flow=both)`` per op: the edit/build loop.

    ``cold=True`` is ``build-cold``: the store is cleared (untimed)
    before each op, so the build runs every stage — dominated by
    ``opt``, ``techmap`` and store writes — and once per run its OSSS
    netlist is checked against the behavioral kernel.  ``cold=False``
    is ``build-warm``: set-up fills the store with one cold build, and
    each op is a warm rebuild from it — store reads, fingerprints and
    the IP-library key, no ``opt``.  Every op's output must equal the
    first (cold) build's bytes.
    """
    name = "build-cold" if cold else "build-warm"
    setup = measure_setups(name, setups)
    store = ArtifactStore(work_dir / "build-store")
    spec = make_spec("build", {"flow": "both"})
    tally = Tally()
    tracer = LayerTracer(name) if trace else None
    reference = [] if cold else [render_result("build",
                                               run_job(spec, store=store))]

    def op(tracer: Tracer | None) -> tuple[list[str], dict[str, int]]:
        before = store.counter_totals()
        text = render_result("build", run_job(spec, store=store,
                                              tracer=tracer))
        after = store.counter_totals()
        counts = {f"store.{event}": after[event] - before[event]
                  for event in after}
        problems = []
        if not reference:
            reference.append(text)
        elif text != reference[0]:
            problems.append("build output differs from the first cold build")
        if cold and counts["store.hit"]:
            problems.append(f"cold build hit the cleared store: {counts}")
        if not cold and counts["store.miss"]:
            problems.append(f"warm rebuild missed: {counts}")
        if cold and tracer is not None:
            counts["store.bytes_written"] = store.stats()["bytes"]
        return problems, counts

    timed = closed_loop(store.clear if cold else lambda: None, op, tally,
                        seconds, min_ops, max_ops, tracer)
    rss = peak_rss_mb()
    if cold:
        tally.op(check_equivalence(store, seed))
    metrics = end_to_end(setup, timed, rss)
    return finish(name, tally, metrics, tracer, timed, seed=seed)


def check_equivalence(store: ArtifactStore, seed: int) -> list[str]:
    """Lockstep the built OSSS netlist against the behavioral kernel.

    The kernel simulation of the OO source is the reference; it does
    not go through the synthesizer under test.  Runs outside the timers.
    """
    from repro.eval import run_osss_flow
    from repro.eval.equivalence import GateStage, KernelStage, lockstep
    from repro.expocu import ExpoCU
    from repro.fault.scenarios import EXPOCU_OBSERVED, expocu_stimulus
    from repro.serve.jobs import default_design

    circuit = run_osss_flow(default_design(), "osss", store=store).circuit
    # The same ExpoCU[16, 16] that default_design() elaborates.
    kernel = KernelStage(lambda clk, rst: ExpoCU[16, 16]("expocu", clk, rst),
                         EXPOCU_OBSERVED)
    report = lockstep([kernel, GateStage(circuit, EXPOCU_OBSERVED)],
                      expocu_stimulus(seed, frames=1, side=16))
    if report.equivalent:
        return []
    return [f"netlist differs from the kernel: {report.mismatches[:3]}"]


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
def check_campaign(text: str, faults: int,
                   reference: list[str]) -> list[str]:
    """Record reconciliation, golden self-check, rep byte-identity."""
    problems = []
    doc = json.loads(text)
    classified = len(doc["faults"]) + len(doc.get("errors", []))
    if classified != faults:
        problems.append(f"{classified} of {faults} faults accounted for")
    if doc["golden"]["selfcheck"] != "masked":
        problems.append(f"golden self-check {doc['golden']['selfcheck']!r}")
    if not reference:
        reference.append(text)
    elif text != reference[0]:
        problems.append("campaign report differs between reps")
    return problems


def run_campaign(flow: str, seed: int, seconds: float, trace: bool,
                 work_dir: Path, *, faults: int | None = None,
                 setups: int = SETUPS, min_ops: int = 2,
                 max_ops: int | None = None) -> dict[str, Any]:
    """One ``repro inject`` campaign on the ExpoCU per op.

    ``flow="netlist"`` is ``campaign-gate``: the bit-parallel backend,
    whose default fault mix is about half lane-packed stuck-ats and half
    scalar SEU/flip replays.  ``flow="rtl"`` is ``campaign-rtl``: SEUs on
    the event-driven RTL simulator, which never touches ``netlist.*`` —
    the control workload for any gate-level change.
    """
    from repro.fault import expocu_campaign
    from repro.fault.scenarios import expocu_stimulus

    name = "campaign-gate" if flow == "netlist" else "campaign-rtl"
    if faults is None:
        faults = GATE_FAULTS if flow == "netlist" else RTL_FAULTS
    backend = "bitparallel" if flow == "netlist" else "event"
    setup = measure_setups(name, setups)
    stimulus = expocu_stimulus(seed, frames=1, side=8)
    tally = Tally()
    tracer = LayerTracer(name) if trace else None
    reference: list[str] = []

    def op(tracer: Tracer | None) -> tuple[list[str], dict[str, int]]:
        result = expocu_campaign(flow=flow, faults=faults, seed=FAULT_SEED,
                                 backend=backend, stimulus=stimulus,
                                 tracer=tracer)
        problems = check_campaign(render_result("inject", result.as_dict()),
                                  faults, reference)
        return problems, {
            "fault.simulated": result.exec_stats["simulated"],
            "fault.lane_batches": result.exec_stats["lane_batches"],
            "fault.sim_cycles": result.objectives()["sim_cycles"],
        }

    timed = closed_loop(lambda: None, op, tally, seconds, min_ops, max_ops,
                        tracer)
    metrics = end_to_end(setup, timed, peak_rss_mb())
    return finish(name, tally, metrics, tracer, timed, seed=seed,
                  faults=faults, fault_seed=FAULT_SEED)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _label(kind: str, params: dict[str, Any]) -> str:
    return "_".join([kind, *map(str, params.values())])


def start_server(socket: str, store_dir: Path, log: Path):
    """``repro serve`` in a child process; returns it once it answers."""
    with open(log, "ab") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", socket,
             "--cache-dir", str(store_dir), "--workers", str(SERVE_WORKERS)],
            cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
    client = ServeClient(socket_path=socket, timeout=60.0)
    deadline = time.monotonic() + 60.0
    try:
        while True:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {proc.returncode}: "
                    f"{log.read_text()[-2000:]}")
            try:
                client.health()
                return proc
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not answer in 60s")
                time.sleep(0.005)
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc) -> list[str]:
    """SIGTERM (graceful drain), then kill if it does not exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return ["repro serve did not drain within 30s"]
    if proc.returncode != 0:
        return [f"repro serve exited with {proc.returncode}"]
    return []


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak RSS (VmHWM) over *pid* and its child processes."""
    pids = [pid]
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            pids.append(int(stat.parent.name))
    total_kb = 0
    for each in pids:
        try:
            for line in Path(f"/proc/{each}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def run_serve(seed: int, seconds: float, trace: bool, work_dir: Path, *,
              setups: int = SERVE_SETUPS, min_ops: int = 2,
              max_ops: int | None = None) -> dict[str, Any]:
    """One client submits ``force=True`` warm jobs to ``repro serve``.

    Set-up is a server start over a store filled once per run, plus
    warm-up rounds so worker imports happen before timing.  An op is one
    round: the client submits every kind of :data:`SERVE_MIX` once, in a
    seeded order, waiting for each result's bytes.  Rounds keep the mix
    exactly balanced, and their time is unimodal where single-job
    latency is a mixture of kinds whose median falls between modes.
    One client keeps one job in flight, so the client, the server and a
    worker take turns and never outnumber the cores; ``force=True``
    keeps the work per job fixed (coalescing depends on timing).
    """
    tally = Tally()
    store_dir = work_dir / "serve-store"
    began = time.perf_counter()
    store = ArtifactStore(store_dir)
    references = {
        _label(kind, params): render_result(
            kind, run_job(make_spec(kind, params), store=store))
        for kind, params in SERVE_MIX
    }
    fill_s = time.perf_counter() - began
    # Relative to ROOT (the cwd of server and client) when shorter: keeps
    # the socket path within the AF_UNIX length limit in deep checkouts.
    socket = min(str(work_dir / "serve.sock"),
                 os.path.relpath(work_dir / "serve.sock", ROOT), key=len)
    log = work_dir / "serve.log"
    client = ServeClient(socket_path=socket, timeout=60.0)
    rng = random.Random(seed)
    orders = [rng.sample(range(len(SERVE_MIX)), len(SERVE_MIX))
              for _ in range(200)]
    jobs: list[dict[str, Any]] = []  # each timed round's, with its op index
    tracer = LayerTracer("serve-warm") if trace else None

    def run_round(order: list[int]) -> tuple[list[str], list[dict]]:
        """Submit each kind in *order*; the problems and the jobs run."""
        problems: list[str] = []
        done = []
        for index in order:
            kind, params = SERVE_MIX[index]
            label = _label(kind, params)
            start = time.perf_counter()
            try:
                job = client.submit(kind, params, force=True)
                text = client.result_text(job["id"])
            except (ServeError, OSError) as exc:
                problems.append(f"served {label} failed: {exc}")
                continue
            latency = time.perf_counter() - start
            if text != references[label]:
                problems.append(f"served {label} differs from the "
                                "in-process result")
            done.append({"id": job["id"], "label": label,
                         "latency_s": latency})
        return problems, done

    ops = itertools.count()

    def op(tracer: Tracer | None) -> tuple[list[str], dict[str, int]]:
        index = next(ops)
        problems, done = run_round(orders[index % len(orders)])
        jobs.extend(dict(job, op=index) for job in done)
        return problems, {}

    def start_and_warm() -> None:
        nonlocal server
        server = start_server(socket, store_dir, log)
        # A round per worker, so each has likely run every kind once.
        for _ in range(SERVE_WORKERS):
            tally.op(run_round(list(range(len(SERVE_MIX))))[0])

    setup: list[float] = []
    server = None
    clock = Clock("child")
    try:
        for k in range(setups):
            _, took, speed = clock.time(start_and_warm)
            setup.append(took * speed)
            if k < setups - 1:
                tally.op(stop_server(server))
                server = None
        # Taken before the timed phase: the server keeps every finished
        # job's result, so its RSS later tracks how many jobs ran.
        rss = tree_peak_rss_mb(server.pid)
        timed = closed_loop(lambda: None, op, tally, seconds, min_ops,
                            max_ops, tracer, mode="child")
        stats = client.stats()
        timeline = {job["id"]: job for job in client.jobs()}
    finally:
        if server is not None:
            tally.op(stop_server(server))

    metrics = end_to_end(setup, timed, rss)
    metrics["store_fill_s"] = metric(fill_s, "s")
    latencies: dict[str, list[float]] = {}
    for job in jobs:
        if not timed[job["op"]].traced:
            latencies.setdefault(job["label"], []).append(
                job["latency_s"] * timed[job["op"]].speed)
    every = [latency for each in latencies.values() for latency in each]
    if every:
        metrics["job_latency_s"] = metric(statistics.median(every), "s",
                                          every)
        metrics["jobs_per_s"] = metric(len(every) / sum(every), "1/s",
                                       n=len(every))
    for label, samples in latencies.items():
        metrics[f"job_latency_s.{label}"] = metric(
            statistics.median(samples), "s", samples)
    result = finish("serve-warm", tally, metrics, tracer, timed, seed=seed)
    if tracer is not None:
        result["metrics"].update(serve_layers(jobs, timeline, stats))
    return result


def serve_layers(jobs: list[dict[str, Any]], timeline: dict[str, Any],
                 stats: dict[str, Any]) -> dict[str, Any]:
    """Queue wait, service and client overhead from job timestamps.

    The server stamps ``submitted_at``/``started_at``/``finished_at``
    (ms resolution); the rest of the client-measured latency is HTTP
    and polling.  Shares are of total job latency; p50/p90 in seconds
    ride along for ``results.json``.
    """
    parts: dict[str, list[float]] = {part: [] for part in SERVE_PARTS}
    service_by_label: dict[str, list[float]] = {}
    for job in jobs:
        doc = timeline[job["id"]]
        queue = doc["started_at"] - doc["submitted_at"]
        service = doc["finished_at"] - doc["started_at"]
        parts["queue_wait"].append(queue)
        parts["service"].append(service)
        parts["client_overhead"].append(
            job["latency_s"] - (doc["finished_at"] - doc["submitted_at"]))
        service_by_label.setdefault(job["label"], []).append(service)
    total = sum(job["latency_s"] for job in jobs)
    metrics: dict[str, Any] = {}
    for part, samples in parts.items():
        metrics[f"serve.{part}_pct"] = metric(100.0 * sum(samples) / total,
                                              "%", n=len(samples))
        metrics[f"serve.{part}_s"] = metric(statistics.median(samples), "s",
                                            samples)
    for label, samples in service_by_label.items():
        metrics[f"serve.service_s.{label}"] = metric(
            statistics.median(samples), "s", samples)
    for name, (section, key) in SERVE_COUNTERS.items():
        metrics[name] = metric(stats.get(section, {}).get(key, 0), "count")
    return metrics


WORKLOADS: dict[str, Callable[..., dict[str, Any]]] = {
    "build-cold": functools.partial(run_build, True),
    "build-warm": functools.partial(run_build, False),
    "campaign-gate": functools.partial(run_campaign, "netlist"),
    "campaign-rtl": functools.partial(run_campaign, "rtl"),
    "serve-warm": run_serve,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.workloads")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    work_dir = args.out.resolve() / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds,
                                          bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    trace = result.pop("trace", None)
    if trace is not None:
        path = args.out / f"trace-{args.workload}.json"
        path.write_text(json.dumps(trace, indent=2) + "\n")
    path = args.out / f"{args.workload}.trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
