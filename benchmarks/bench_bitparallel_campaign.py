"""X — bit-parallel (PPSFP) fault simulation: lanes over scalar replay.

Not a paper experiment: it quantifies the third scaling lever of the
fault-campaign engine.  The ``bitparallel`` backend packs up to 64
faults of any kind into the bit-lanes of word-wide Python integers and
classifies a whole batch per replay; on the bundled ExpoCU netlist it
must beat the scalar compiled evaluator by at least 4x on campaign
wall-clock, for a stuck-at-only fault list (the classical coverage
universe) and for the default list mixing all four gate kinds (SEUs
and one-cycle flips ride in lanes beside the stuck-ats), while
producing a byte-identical report — the oracle contract every backend
is held to.  Hang-prone faults keep it below the lane bound: a batch
holding one drains until that lane provably cycles.

Injector construction (synthesis + technology mapping + codegen) happens
outside the timers: the campaign replay loop is what scales with fault
count, so that is what gets measured.
"""

import time

from conftest import record_report

from repro.eval import format_table
from repro.fault.campaign import generate_fault_list, run_campaign
from repro.fault.scenarios import (
    expocu_config,
    expocu_injector,
    expocu_stimulus,
)

FAULTS = 120
SEED = 1
SIDE = 8
#: Fault lists: ``None`` is generate_fault_list's default, all four kinds.
LISTS = {"stuck-at": ("sa0", "sa1"), "mixed": None}


def _campaign(injector, stimulus, faults):
    return run_campaign(
        injector, stimulus, faults, expocu_config("none"),
        design=f"ExpoCU[{SIDE},{SIDE}]", hardening="none", seed=SEED,
    )


def test_bitparallel_speedup_and_byte_identity():
    stimulus = expocu_stimulus(SEED, frames=1, side=SIDE)
    compiled_injector = expocu_injector("netlist", backend="compiled",
                                        side=SIDE)
    wide_injector = expocu_injector("netlist", backend="bitparallel",
                                    side=SIDE)
    rows = []
    slow = []
    for name, kinds in LISTS.items():
        faults = generate_fault_list(compiled_injector, FAULTS,
                                     len(stimulus), SEED, kinds=kinds)

        start = time.perf_counter()
        compiled_result = _campaign(compiled_injector, stimulus, faults)
        t_compiled = time.perf_counter() - start

        start = time.perf_counter()
        wide_result = _campaign(wide_injector, stimulus, faults)
        t_wide = time.perf_counter() - start

        # Oracle contract first: speed means nothing if the bytes drift.
        assert wide_result.to_json() == compiled_result.to_json()
        assert compiled_result.golden_selfcheck == "masked"
        assert wide_result.exec_stats["lane_batches"] > 0

        speedup = t_compiled / t_wide
        if speedup < 4.0:
            slow.append(f"{name}: {speedup:.2f}x ({t_wide:.2f}s vs "
                        f"{t_compiled:.2f}s)")
        label = f"{name} ({'/'.join(sorted({f.kind for f in faults}))})"
        rows += [
            {"fault list": label, "configuration": "compiled, scalar replay",
             "campaign_s": f"{t_compiled:.2f}", "speedup": "1.00x"},
            {"fault list": label,
             "configuration": "bitparallel, lane-packed (byte-identical)",
             "campaign_s": f"{t_wide:.2f}", "speedup": f"{speedup:.2f}x"},
        ]
    record_report("X_bitparallel", format_table(rows))
    assert not slow, f"bitparallel evaluator under 4x over compiled: {slow}"
