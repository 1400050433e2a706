"""E1 — area comparison of the two flows (paper §12).

Paper claim: *"If we compare the required area of a synthesized ExpoCU
netlist in a conventional and an OSSS approach, they are almost
equivalent."*  This bench synthesizes the full ExpoCU through both flows
(shared backend) and reports areas, cell counts and the ratio.
"""

from conftest import record_report

from repro.baseline import expocu_rtl
from repro.eval import flow_comparison, run_osss_flow, run_vhdl_flow
from repro.expocu import ExpoCU
from repro.hdl import Clock, NS, Signal
from repro.types import Bit
from repro.types.spec import bit


def _osss_expocu():
    return ExpoCU[16, 16](
        "expocu", Clock("clk", 15 * NS), Signal("rst", bit(), Bit(1))
    )


def test_e1_area_comparison(benchmark):
    osss = benchmark(lambda: run_osss_flow(_osss_expocu(), "osss"))
    vhdl = run_vhdl_flow(expocu_rtl(), "vhdl")
    table = flow_comparison(osss, vhdl)
    ratio = osss.area / vhdl.area
    lines = [
        "paper: ExpoCU area OSSS vs conventional flow 'almost equivalent'",
        "       (§12; the prototype tools 'produce some unnecessary "
        "overhead')",
        "",
        table,
        "",
        f"measured area ratio osss/vhdl = {ratio:.2f}",
        "shape check: same order of magnitude; OSSS >= VHDL as the",
        "behavioral-synthesis overhead predicts (the generated arbiter",
        "and the behavioral FSMs, I2C first).",
    ]
    record_report("E1_area", "\n".join(lines))
    assert 0.8 <= ratio <= 3.5, "flows diverged beyond the expected band"
