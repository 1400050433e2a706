"""``BENCHMARK.json`` is well formed and every layer metric is explained."""

import json
import re
from pathlib import Path

from bench.layers import ALL_LAYERS, moves

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def names(section):
    return [entry["name"] for entry in SPEC[section]]


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_command_and_paths():
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    command = SPEC["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in command)
    for arg in command[1:]:
        assert not arg.startswith("/") and ".." not in arg.split("/")
        if (ROOT / arg).exists():
            assert any(arg.startswith(path.rstrip("/") + "/")
                       for path in SPEC["paths"])


def test_counts_and_run_seconds():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_entries_have_exactly_their_keys():
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}


def test_names_and_units():
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(every) == len(set(every)), "a name is used twice"
    for name in every:
        assert NAME.fullmatch(name), name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry


def test_setup_metric_has_the_largest_bound():
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_every_layer_metric_names_what_it_moves():
    end_to_end = set(names("end_to_end"))
    workloads = set(names("workloads"))
    for name in names("per_layer"):
        moved = moves(name)
        assert moved is not None, f"{name} has no MOVES entry"
        if not name.startswith("obs."):
            assert moved, f"{name} moves nothing"
        for metric, workload in moved:
            assert metric in end_to_end, (name, metric)
            assert workload in workloads, (name, workload)


def test_every_layer_has_time_and_call_metrics():
    per_layer = set(names("per_layer"))
    for layer in ALL_LAYERS:
        assert f"{layer}.self_pct" in per_layer
        assert f"{layer}.calls" in per_layer
