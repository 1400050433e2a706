"""Synthesis must be deterministic across processes.

Campaign reports embed generated net names, and ``run_campaign(jobs=N)``
workers rebuild the design in separate processes — so the synthesized
RTL (and everything downstream of it) must not depend on the per-process
string-hash seed.  Regression for the branch-merge in
``interp.merge_into``, which used to iterate a set of local names in
hash order.
"""

import os
import subprocess
import sys

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)

# A behavioral module whose dynamic `if` writes enough distinct locals
# that a hash-ordered branch merge reorders their holding registers.
PROBE = """
from repro.hdl import Clock, Module, Input, Output, NS, Signal
from repro.netlist import map_module, optimize
from repro.synth import synthesize
from repro.types import Bit, Unsigned
from repro.types.spec import bit, unsigned


class Branchy(Module):
    x = Input(unsigned(8))
    q = Output(unsigned(8))

    def __init__(self, name, clk, rst):
        super().__init__(name)
        self.cthread(self.run, clock=clk, reset=rst)

    def run(self):
        self.q.write(Unsigned(8, 0))
        yield
        while True:
            # The locals below are written on one path only and read
            # after the merge: each needs a holding register, allocated
            # during the branch merge itself.
            if self.x.read() > Unsigned(8, 7):
                alpha = self.x.read()
                bravo = (alpha + alpha).resized(8)
                charlie = (bravo + alpha).resized(8)
                delta = (charlie + bravo).resized(8)
                echo = (delta + charlie).resized(8)
            else:
                alpha = Unsigned(8, 1)
            self.q.write(
                (alpha + bravo + charlie + delta + echo).resized(8)
            )
            yield


dut = Branchy("probe", Clock("clk", 10 * NS),
              Signal("rst", bit(), Bit(1)))
rtl = synthesize(dut, observe_children=False)
print("registers:", [r.name for r in rtl.registers])
circuit = optimize(map_module(rtl))
print("nets:", [n.name for n in circuit.nets])
print("cells:", [c.name for c in circuit.cells])
"""


def _probe(script: str, hashseed: str) -> str:
    # A real file, not `-c`: the synthesizer reads method source via
    # inspect.getsource.
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_synthesis_independent_of_string_hash_seed(tmp_path):
    script = tmp_path / "probe.py"
    script.write_text(PROBE)
    outputs = {_probe(str(script), seed) for seed in ("1", "2", "27")}
    assert len(outputs) == 1, "generated names differ across hash seeds"


# The design library extends the determinism contract to cache keys and
# stored artifacts: a fingerprint computed in one process must match one
# computed in another, or every warm rebuild silently goes cold.
STORE_PROBE = """
from repro.hdl import Clock, Module, Input, Output, NS, Signal
from repro.netlist import map_module
from repro.store import (
    digest_doc, fingerprint_design, serialize_circuit, serialize_rtl,
    stage_key,
)
from repro.synth import synthesize
from repro.types import Bit, Unsigned
from repro.types.spec import bit, unsigned


class Probe(Module):
    x = Input(unsigned(8))
    q = Output(unsigned(8))

    def __init__(self, name, clk, rst):
        super().__init__(name)
        self.cthread(self.run, clock=clk, reset=rst)

    def run(self):
        self.q.write(Unsigned(8, 0))
        yield
        while True:
            self.q.write((self.x.read() + Unsigned(8, 3)).resized(8))
            yield


dut = Probe("probe", Clock("clk", 10 * NS),
            Signal("rst", bit(), Bit(1)))
fp = fingerprint_design(dut)
print("design:", fp)
print("key:", stage_key("synthesize", fp))
rtl = synthesize(dut, observe_children=False)
print("rtl:", digest_doc(serialize_rtl(rtl)))
print("netlist:", digest_doc(serialize_circuit(map_module(rtl).to_circuit())))
"""


def test_fingerprints_and_artifacts_independent_of_hash_seed(tmp_path):
    script = tmp_path / "store_probe.py"
    script.write_text(STORE_PROBE)
    outputs = {_probe(str(script), seed) for seed in ("1", "2", "27")}
    assert len(outputs) == 1, \
        "cache keys or serialized artifacts differ across hash seeds"
