"""Evaluation harness: flows, equivalence, metrics, effort, reports."""

from repro.eval.cosim import RtlCosimModule
from repro.eval.effort import EffortMetrics, i2c_effort_comparison, measure_source
from repro.eval.equivalence import (
    EquivalenceReport,
    GateStage,
    KernelStage,
    Mismatch,
    RtlStage,
    check_all_stages,
    lockstep,
)
from repro.eval.flows import (
    FlowResult,
    netlist_analysis_document,
    netlist_prefix,
    run_netlist_analysis,
    run_osss_flow,
    run_rtl,
    run_vhdl_flow,
)
from repro.eval.metrics import RateSample, measure_stage, simulation_rates, speedup_table
from repro.eval.report import flow_comparison, format_table, module_inventory
from repro.eval.resilience import hardening_comparison
from repro.eval.sweep import PointRunner, SweepPoint, grid, monotonic, sweep

__all__ = [
    "EffortMetrics",
    "EquivalenceReport",
    "FlowResult",
    "GateStage",
    "KernelStage",
    "Mismatch",
    "RateSample",
    "RtlCosimModule",
    "RtlStage",
    "check_all_stages",
    "flow_comparison",
    "format_table",
    "hardening_comparison",
    "i2c_effort_comparison",
    "lockstep",
    "measure_source",
    "measure_stage",
    "module_inventory",
    "netlist_analysis_document",
    "netlist_prefix",
    "run_netlist_analysis",
    "run_osss_flow",
    "run_rtl",
    "run_vhdl_flow",
    "simulation_rates",
    "PointRunner",
    "SweepPoint",
    "grid",
    "monotonic",
    "speedup_table",
    "sweep",
]
