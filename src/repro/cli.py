"""Command-line interface: ``python -m repro <command>``.

Small utilities around the flow, useful for poking at the reproduction
without writing a script:

``demo``      run the closed-loop auto-exposure system and print per-frame
              convergence (the headline scenario).
``synth``     synthesize the ExpoCU (OSSS flow), print the synthesis
              report and optionally write Verilog.
``flows``     run both flows and print the §12 comparison + Fig. 12 table.
``resolve``   print the Fig. 7 procedural intermediate of the paper's
              SyncRegister example.
``effort``    print the E8 effort-metric table.
``lint``      run the standalone OSSS analyzer (fail-slow diagnostics;
              text, JSON or SARIF output).
``analyze``   run the netlist structural analysis (SCOAP testability,
              fault collapsing, OSS5xx observability lints) on the
              optimized gates, memoized through the design library.
``inject``    run a seeded fault-injection campaign on the ExpoCU
              (RTL or netlist flow, optional TMR/parity hardening);
              supervised workers, per-fault deadlines and a crash-safe
              journal (``--resume``) keep long campaigns restartable.
``dse``       multi-objective design-space exploration over the bundled
              ExpoCU spaces (factorial or evolutionary search, memoized
              per point through the design library), emitting a
              ``repro-dse/v1`` report with the exact Pareto front and
              MCDM ranking.
``build``     run the ExpoCU flows through the design library
              (content-addressed cache): warm rebuilds skip unchanged
              stages.
``cache``     design-library maintenance: ``stats``, ``gc``, ``verify``.
``serve``     long-lived job server (JSON over HTTP on a TCP port or
              Unix socket): clients submit build/analyze/inject/dse
              jobs, identical concurrent submissions coalesce onto one
              computation, and results are byte-identical to the
              one-shot commands above.
``submit``    thin client for ``serve``: submit a job, stream/await
              its result.

``build``/``inject``/``dse`` declare their job options from
:data:`repro.serve.jobs.JOB_PARAMS`, the schema ``serve`` validates
submissions against, so a bare one-shot command and a parameterless
submission mean the same job.  ``synth``/``flows``/``inject``/``dse``/
``build`` accept ``--profile <out.json>``: :func:`main` traces the run,
writes the validated ``repro-trace/v1`` span report there and prints
its span table to stderr, so stdout is the same with or without it.

Uncaught flow errors (:class:`~repro.synth.SynthesisError`,
:class:`~repro.netlist.NetlistError`, :class:`~repro.store.StoreError`,
:class:`~repro.fault.CampaignError`) print as one-line
``repro: error: ...`` diagnostics with exit code 2 instead of
tracebacks.  ``repro inject`` additionally exits 1 when the golden
self-check fails and 3 when any fault was quarantined by its
``--fault-timeout`` deadline (the report under-covers the fault list).
A command whose stdout reader goes away (``repro ... | head``) stops
quietly with :data:`EXIT_BROKEN_PIPE`, the status a shell reports for a
program SIGPIPE ends.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

#: Exit status when the reader of stdout closed it: 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141


def _load_design(spec: str):
    """Build a design from a ``pkg.module:callable`` factory spec."""
    module_name, _, attr = spec.partition(":")
    if not attr:
        raise SystemExit(
            f"--design must look like 'pkg.module:factory', got {spec!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SystemExit(f"cannot import {module_name!r}: {exc}") from exc
    factory = getattr(module, attr, None)
    if factory is None:
        raise SystemExit(f"{module_name!r} has no attribute {attr!r}")
    return factory() if callable(factory) else factory


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.expocu import CameraModel, ExpoCU
    from repro.hdl import Clock, Module, NS, Signal, Simulator
    from repro.types import Bit
    from repro.types.spec import bit

    top = Module("system")
    top.clk = Clock("clk", 15 * NS)
    top.rst = Signal("rst", bit(), Bit(1))
    top.cam = CameraModel("cam", top.clk, top.rst, width=16, height=16,
                          scene_mean=args.scene_mean)
    top.dut = ExpoCU[16, 16]("expocu", top.clk, top.rst)
    for port in ("pix", "pix_valid", "line_strobe", "frame_strobe"):
        top.dut.port(port).bind(top.cam.port(port))
    top.cam.port("scl").bind(top.dut.port("scl"))
    top.cam.port("sda_master").bind(top.dut.port("sda_out"))
    top.cam.port("sda_oe").bind(top.dut.port("sda_oe"))
    top.dut.port("sda_in").bind(top.cam.port("sda_in"))
    sim = Simulator(top)
    sim.run(10 * 15 * NS)
    top.rst.write(0)
    print("frame | mean  | exposure | gain")
    for frame in range(args.frames):
        sim.run(700 * 15 * NS)
        print(f"{frame:5d} | {top.cam.mean_pixel():5.1f} | "
              f"{top.cam.exposure:8d} | {top.cam.gain:4d}")
    return 0


def _print_warnings(diagnostics) -> int:
    """Print warning diagnostics; returns how many there were."""
    warnings = [d for d in diagnostics if d.severity == "warning"]
    for diag in warnings:
        print(diag.render())
    return len(warnings)


def _write_profile(tracer, path: str) -> None:
    """Write *tracer* to *path* (validated); summarize it on stderr."""
    from repro.eval import format_table

    tracer.write(path)
    print(format_table(tracer.summary_rows()), file=sys.stderr)
    print(f"\ntotal: {tracer.total_seconds():.4f}s", file=sys.stderr)
    print(f"profile trace written to {path}", file=sys.stderr)


def _open_store(args: argparse.Namespace):
    """The design library ``--cache-dir``/``--cold``/``--no-cache`` pick."""
    if args.no_cache:
        return None
    from repro.store import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    if args.cold:
        store.clear()
    return store


def _report_cache(store) -> None:
    """Print *store*'s counters to stderr, keeping stdout run-comparable."""
    if store is None:
        return
    counts = store.counter_totals()
    line = (f"cache: {counts['hit']} hit(s), {counts['miss']} miss(es), "
            f"{counts['store']} store(s)")
    if counts["corrupt"]:
        line += f", {counts['corrupt']} corrupt entr(ies) recomputed"
    print(line, file=sys.stderr)


def _job_spec(kind: str, args: argparse.Namespace):
    """The validated :class:`~repro.serve.jobs.JobSpec` *args* describe."""
    from repro.serve.jobs import JOB_PARAMS, make_spec

    return make_spec(kind, {name: getattr(args, name)
                            for name in JOB_PARAMS[kind]})


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.analyze import diagnostics_from_lint_report
    from repro.eval.flows import gate_stages, synthesis_stage
    from repro.rtl.lint import lint_module
    from repro.serve.jobs import default_design
    from repro.store import StageRunner
    from repro.synth.report import design_report

    tracer = args.tracer
    runner = StageRunner(None, tracer)
    module = default_design()
    synthesized = synthesis_stage(module, runner)
    rtl = synthesized.value()
    print(design_report(module, rtl))
    with tracer.span("lint"):
        lint_report = lint_module(rtl)
    warnings = _print_warnings(
        diagnostics_from_lint_report(lint_report, "osss")
    )
    if args.verilog:
        from repro.rtl.verilog import to_verilog

        with tracer.span("verilog"), \
                open(args.verilog, "w", encoding="utf-8") as handle:
            handle.write(to_verilog(rtl))
        print(f"\nbehavioral Verilog written to {args.verilog}")
    if args.netlist:
        from repro.netlist.verilog import (
            netlist_stats_comment,
            to_structural_verilog,
        )

        circuit = gate_stages(synthesized, runner).value()
        with open(args.netlist, "w", encoding="utf-8") as handle:
            handle.write(netlist_stats_comment(circuit))
            handle.write(to_structural_verilog(circuit))
        print(f"structural netlist written to {args.netlist}")
    if warnings and args.strict:
        print(f"strict mode: {warnings} lint warning(s)")
        return 1
    return 0


def _cmd_flows(args: argparse.Namespace) -> int:
    from repro.baseline import expocu_rtl
    from repro.eval import (
        flow_comparison,
        module_inventory,
        run_osss_flow,
        run_vhdl_flow,
    )
    from repro.serve.jobs import default_design

    osss = run_osss_flow(default_design(), "osss", tracer=args.tracer)
    vhdl = run_vhdl_flow(expocu_rtl(), "vhdl", tracer=args.tracer)
    print(flow_comparison(osss, vhdl))
    print()
    print(module_inventory(osss))
    warnings = _print_warnings(osss.diagnostics + vhdl.diagnostics)
    if warnings and args.strict:
        print(f"strict mode: {warnings} lint warning(s)")
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analyze import analyze_design
    from repro.analyze.emit import RENDERERS
    from repro.serve.jobs import default_design

    design = (_load_design(args.design) if args.design
              else default_design())
    diagnostics = analyze_design(
        design, design_lints=not args.no_design_lints
    )
    rendered = RENDERERS[args.format](diagnostics)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"{args.format} report written to {args.output}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    errors = sum(1 for d in diagnostics if d.severity == "error")
    warnings = len(diagnostics) - errors
    if errors:
        return 1
    if warnings and args.strict:
        return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.eval import netlist_analysis_document, run_netlist_analysis
    from repro.serve.jobs import default_design, render_result

    design = (_load_design(args.design) if args.design
              else default_design())
    store = _open_store(args)
    if args.format == "json":
        # The stored document is the report: a warm run loads no netlist.
        doc = netlist_analysis_document(design, store=store)
        rendered = render_result("analyze", doc)
        findings = doc["diagnostics"]
    else:
        _, analysis = run_netlist_analysis(design, store=store)
        findings = analysis.diagnostics
        summary = analysis.summary()
        lines = [
            f"netlist analysis: {summary['design']}",
            f"  nets: {summary['nets']}, "
            f"equivalent fault sites merged: "
            f"{summary['equivalent_fault_sites_merged']} "
            f"(in {summary['equivalence_classes']} classes), "
            f"dominance-droppable: {summary['dominance_droppable']}",
            f"  worst finite observability: "
            f"{summary['max_finite_observability']}",
        ]
        for diagnostic in analysis.diagnostics:
            lines.append(diagnostic.render())
        rendered = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"{args.format} report written to {args.output}")
    else:
        print(rendered, end="")
    _report_cache(store)
    if args.strict and findings:
        return 1
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    import os

    from repro.fault import expocu_campaign

    tag = f"fault_{args.flow}_{args.hardening}_seed{args.seed}"
    if args.backend != "event":
        tag += f"_{args.backend}"
    journal = args.journal
    if journal is None and args.resume:
        # --resume without an explicit journal: the campaign's default
        # journal next to the design library, keyed by the same tag as
        # the default report.
        from repro.store import ArtifactStore

        journal = str(ArtifactStore(args.cache_dir).journal_path(tag))
    result = expocu_campaign(
        **_job_spec("inject", args).params,
        jobs=args.jobs,
        tracer=args.tracer,
        fault_timeout=args.fault_timeout,
        max_retries=args.max_retries,
        journal=journal,
        resume=args.resume,
    )
    output = args.output
    if output is None and os.path.isdir("benchmarks/results"):
        output = os.path.join("benchmarks", "results", f"{tag}.json")
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
    if args.format == "json":
        print(result.to_json(), end="")
    else:
        from repro.eval import format_table

        print(format_table(result.summary_rows()))
        print(f"\ngolden run: selfcheck={result.golden_selfcheck}, "
              f"done={result.golden_done} "
              f"(drained {result.golden_drain_cycles} cycles)")
        if result.collapse is not None:
            stats = result.collapse
            print(f"collapse: simulated {stats['simulated']} of "
                  f"{stats['unique']} unique faults "
                  f"(equivalence-merged {stats['equivalence_merged']}, "
                  f"quiescence-pruned {stats['quiescence_pruned']})")
        exec_stats = result.exec_stats or {}
        eventful = {key: exec_stats[key]
                    for key in ("journal_hits", "respawns", "crashes",
                                "crash_requeues", "timeouts",
                                "timeout_retries", "quarantined",
                                "hung_kills", "fallback")
                    if exec_stats.get(key)}
        if eventful:
            detail = ", ".join(f"{key}={value}"
                               for key, value in eventful.items())
            print(f"resilience: {detail}")
        if result.errors:
            print(f"quarantined: {len(result.errors)} fault(s) exceeded "
                  "the --fault-timeout deadline and were excluded from "
                  "the record stream")
        if output:
            print(f"campaign report written to {output}")
    if result.golden_selfcheck != "masked":
        print("error: golden replay diverged from the golden run")
        return 1
    if result.errors:
        return 3
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.dse import DseResult
    from repro.serve.jobs import run_job

    store = _open_store(args)
    # Same execution path as 'repro serve' dse jobs (byte-diffable).
    result = DseResult(run_job(_job_spec("dse", args), store=store,
                               tracer=args.tracer))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
    if args.format == "json":
        print(result.to_json(), end="")
    else:
        print(result.summary(), end="")
        if args.output:
            print(f"dse report written to {args.output}")
    _report_cache(store)
    if result.doc["failures"] and not result.doc["points"]:
        print("error: every design point failed", file=sys.stderr)
        return 1
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    from repro.expocu import SyncRegister
    from repro.synth.codegen import resolve_class_text

    print(resolve_class_text(SyncRegister[args.regsize, args.resetvalue]))
    return 0


def _cmd_effort(args: argparse.Namespace) -> int:
    from repro.eval import format_table, i2c_effort_comparison

    rows = [record.as_dict()
            for record in i2c_effort_comparison().values()]
    print(format_table(rows))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.serve.jobs import render_result, run_job

    store = _open_store(args)
    # The same execution path 'repro serve' uses for build jobs — the
    # serve tests diff server results against this command's output.
    payload = run_job(_job_spec("build", args), store=store,
                      tracer=args.tracer)
    if args.json:
        # Summaries only: this output is byte-comparable across cold,
        # warm and cache-disabled runs (counters go to stderr).
        print(render_result("build", payload), end="")
    else:
        from repro.eval import format_table

        print(format_table(payload["flows"]))
    _report_cache(store)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import run_server

    return run_server(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        cache_dir=None if args.no_cache else args.cache_dir,
        workers=args.workers,
        job_timeout=args.job_timeout,
        grace_s=args.grace,
        verbose=args.verbose,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServeClient, ServeError

    if not args.socket and not args.port:
        print("repro: error: submit needs --socket PATH or --port N",
              file=sys.stderr)
        return 2
    try:
        params = json.loads(args.params)
    except ValueError as exc:
        print(f"repro: error: --params is not valid JSON: {exc}",
              file=sys.stderr)
        return 2
    client = ServeClient(socket_path=args.socket, host=args.host,
                         port=args.port)
    try:
        job = client.submit(args.kind, params, force=args.force)
        if args.no_wait:
            print(json.dumps({"job": job}, indent=2))
            return 0
        text = client.result_text(job["id"], timeout_s=args.timeout)
    except ServeError as exc:
        print(f"repro: error: server refused: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    # The rendered result already ends in a newline and is
    # byte-identical to the matching one-shot command's JSON output.
    print(text, end="")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.store import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    if args.cache_command == "stats":
        print(json.dumps(store.stats(), indent=2))
        return 0
    if args.cache_command == "gc":
        max_age = (args.max_age_days * 86400.0
                   if args.max_age_days is not None else None)
        report = store.gc(max_age)
        print(json.dumps(report, indent=2))
        return 0
    # verify
    report = store.verify(repair=args.repair)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def _add_job_options(parser: argparse.ArgumentParser, kind: str) -> None:
    """Declare *kind*'s :data:`~repro.serve.jobs.JOB_PARAMS` as options."""
    from repro.serve.jobs import JOB_PARAMS

    for name, (default, constraint, help_text) in JOB_PARAMS[kind].items():
        if isinstance(constraint, tuple):
            typed = {"choices": constraint}
        elif constraint is bool:
            typed = {"action": "store_true"}
        else:
            typed = {"type": constraint}
        parser.add_argument("--" + name.replace("_", "-"), default=default,
                            help=help_text, **typed)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    from repro import __version__
    from repro.serve.jobs import JOB_KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="PyOSSS — OSSS methodology reproduction (DATE 2004)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Options several verbs share, declared once as parent parsers.
    profiled = argparse.ArgumentParser(add_help=False)
    profiled.add_argument("--profile", metavar="OUT.json",
                          help="write a repro-trace/v1 span report here "
                          "(span table on stderr)")
    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument("--cache-dir", default=".repro-cache",
                        help="design-library root (default: .repro-cache)")
    cached.add_argument("--cold", action="store_true",
                        help="clear the cache first (forced full rebuild)")
    cached.add_argument("--no-cache", action="store_true",
                        help="bypass the design library entirely")

    demo = sub.add_parser("demo", help="closed-loop auto-exposure demo")
    demo.add_argument("--frames", type=int, default=10)
    demo.add_argument("--scene-mean", type=int, default=100)
    demo.set_defaults(func=_cmd_demo)

    synth = sub.add_parser("synth", parents=[profiled],
                           help="synthesize the ExpoCU")
    synth.add_argument("--verilog", help="write behavioral Verilog here")
    synth.add_argument("--netlist", help="write structural netlist here")
    synth.add_argument("--strict", action="store_true",
                       help="exit non-zero on lint warnings")
    synth.set_defaults(func=_cmd_synth)

    flows = sub.add_parser("flows", parents=[profiled],
                           help="both flows, §12 comparison")
    flows.add_argument("--strict", action="store_true",
                       help="exit non-zero on lint warnings")
    flows.set_defaults(func=_cmd_flows)

    lint = sub.add_parser(
        "lint", help="static analysis (fail-slow OSSS analyzer)"
    )
    lint.add_argument(
        "--design", metavar="PKG.MOD:FACTORY",
        help="design factory to analyze (default: the ExpoCU top)",
    )
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="output format")
    lint.add_argument("--output", help="write the report here")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero on warnings too")
    lint.add_argument("--no-design-lints", action="store_true",
                      help="skip the RTL4xx design lints")
    lint.set_defaults(func=_cmd_lint)

    analyze = sub.add_parser(
        "analyze", parents=[cached],
        help="netlist structural analysis (testability, collapsing, lints)",
    )
    analyze.add_argument(
        "--design", metavar="PKG.MOD:FACTORY",
        help="design factory to analyze (default: the ExpoCU top)",
    )
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="text summary or the repro-testability/v1 "
                         "JSON report")
    analyze.add_argument("--output", help="write the report here")
    analyze.add_argument("--strict", action="store_true",
                         help="exit non-zero when any OSS5xx lint fires")
    analyze.set_defaults(func=_cmd_analyze)

    inject = sub.add_parser(
        "inject", parents=[profiled],
        help="fault-injection campaign on the ExpoCU",
    )
    _add_job_options(inject, "inject")
    inject.add_argument("--jobs", type=int, default=1,
                        help="worker processes sharding the fault list "
                        "(the report stays byte-identical to --jobs 1)")
    inject.add_argument("--fault-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per fault replay; a "
                        "fault overrunning it is retried, then "
                        "quarantined (exit code 3)")
    inject.add_argument("--max-retries", type=int, default=1,
                        help="retries for a timed-out fault before "
                        "quarantine (default: 1)")
    inject.add_argument("--journal", metavar="PATH",
                        help="crash-safe campaign journal (JSONL); every "
                        "classified fault is durably appended")
    inject.add_argument("--resume", action="store_true",
                        help="resume from the journal: already-simulated "
                        "faults are restored, the report is byte-identical "
                        "to an uninterrupted run (default journal lives "
                        "under --cache-dir)")
    inject.add_argument("--cache-dir", default=".repro-cache",
                        help="design-library root the default --resume "
                        "journal lives next to")
    inject.add_argument("--format", choices=("text", "json"),
                        default="text", help="stdout format")
    inject.add_argument("--output", help="write the JSON report here "
                        "(default: benchmarks/results/ when present)")
    inject.set_defaults(func=_cmd_inject)

    dse = sub.add_parser(
        "dse", parents=[cached, profiled],
        help="multi-objective design-space exploration on the ExpoCU",
    )
    _add_job_options(dse, "dse")
    dse.add_argument("--format", choices=("text", "json"),
                     default="text", help="stdout format")
    dse.add_argument("--output", help="write the repro-dse/v1 report here")
    dse.set_defaults(func=_cmd_dse)

    resolve = sub.add_parser("resolve",
                             help="Fig. 7 intermediate of SyncRegister")
    resolve.add_argument("--regsize", type=int, default=4)
    resolve.add_argument("--resetvalue", type=int, default=0)
    resolve.set_defaults(func=_cmd_resolve)

    effort = sub.add_parser("effort", help="E8 effort metrics")
    effort.set_defaults(func=_cmd_effort)

    build = sub.add_parser(
        "build", parents=[cached, profiled],
        help="run the ExpoCU flows through the design library",
    )
    _add_job_options(build, "build")
    build.add_argument("--json", action="store_true",
                       help="print flow summaries as JSON (cache counters "
                       "go to stderr, so output is run-comparable)")
    build.set_defaults(func=_cmd_build)

    serve = sub.add_parser(
        "serve",
        help="long-lived job server over the design library",
    )
    serve_target = serve.add_mutually_exclusive_group(required=True)
    serve_target.add_argument("--socket", metavar="PATH",
                              help="listen on a Unix domain socket")
    serve_target.add_argument("--port", type=int, default=0,
                              help="listen on TCP (with --host)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default: 127.0.0.1)")
    serve.add_argument("--cache-dir", default=".repro-cache",
                       help="design-library root shared by all jobs")
    serve.add_argument("--no-cache", action="store_true",
                       help="run jobs without the design library")
    serve.add_argument("--workers", type=int, default=2,
                       help="supervised worker processes (>= 2; fewer "
                       "runs jobs on an in-process thread)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock deadline per job")
    serve.add_argument("--grace", type=float, default=10.0,
                       metavar="SECONDS",
                       help="shutdown grace period for in-flight jobs "
                       "(default: 10)")
    serve.add_argument("--verbose", action="store_true",
                       help="log requests to stderr")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a job to a running 'repro serve'"
    )
    submit.add_argument("kind", choices=JOB_KINDS, help="job kind")
    submit.add_argument("--socket", metavar="PATH",
                        help="server's Unix domain socket")
    submit.add_argument("--port", type=int, default=0,
                        help="server's TCP port (with --host)")
    submit.add_argument("--host", default="127.0.0.1",
                        help="server's TCP host (default: 127.0.0.1)")
    submit.add_argument("--params", default="{}", metavar="JSON",
                        help="job parameters as a JSON object "
                        "(defaults mirror the one-shot command)")
    submit.add_argument("--force", action="store_true",
                        help="bypass request coalescing: always run a "
                        "fresh job even if an identical one is active")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job document and return instead "
                        "of waiting for the result")
    submit.add_argument("--timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="how long to wait for the result "
                        "(default: 600)")
    submit.set_defaults(func=_cmd_submit)

    cache = sub.add_parser(
        "cache", help="design-library maintenance (stats / gc / verify)"
    )
    cache.add_argument("--cache-dir", default=".repro-cache",
                       help="design-library root (default: .repro-cache)")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="entry/object counts and size")
    cache_gc = cache_sub.add_parser(
        "gc", help="drop dangling pointers and unreferenced objects"
    )
    cache_gc.add_argument("--max-age-days", type=float, default=None,
                          help="also expire entries older than this")
    cache_verify = cache_sub.add_parser(
        "verify", help="rehash all objects, resolve all entries"
    )
    cache_verify.add_argument("--repair", action="store_true",
                              help="remove damaged objects/entries so the "
                              "next build recomputes them")
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    from repro.dse import DseError
    from repro.fault import CampaignError
    from repro.netlist import NetlistError
    from repro.obs import NULL_TRACER, Tracer
    from repro.serve.jobs import JobError
    from repro.store import StoreError
    from repro.synth import SynthesisError

    parser = build_parser()
    args = parser.parse_args(argv)
    profile = getattr(args, "profile", None)
    args.tracer = Tracer(args.command) if profile else NULL_TRACER
    try:
        try:
            code = args.func(args)
        except (SynthesisError, NetlistError, StoreError, CampaignError,
                DseError, JobError) as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            code = 2
        if profile:
            _write_profile(args.tracer, profile)
        # Flush here, so a closed pipe surfaces below and not in the
        # interpreter's flush at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at /dev/null so that flush at exit cannot fail
        # too.  SIGPIPE stays ignored: `repro serve` writes to sockets.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
