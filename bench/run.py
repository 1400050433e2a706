"""Run the repository benchmark.

    python3 bench/run.py --seed S [--workload W ...] [--seconds N]
                         [--trace 0|1] [--out DIR]

Each workload runs in its own fresh child process
(``python -m bench.workloads``), so peak RSS, import cost and
in-process caches do not leak between workloads.  Without ``--trace``
every workload runs twice: untraced for the end-to-end metrics, then
traced for the per-layer ones.  The command prints every metric as
``workload metric value unit n``, writes ``DIR/results.json`` (and
``DIR/trace-<workload>.json`` for traced runs), and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``; for a single
workload and pass, ``metrics`` holds exactly the metrics
``BENCHMARK.json`` lists for that pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
if not __package__:  # run as a script: make the bench package importable
    sys.path.insert(0, str(BENCH.parent))

from bench import ROOT, child_env  # noqa: E402

WORKLOADS = ("build-cold", "build-warm", "campaign-gate", "campaign-rtl",
             "serve-warm")

#: Per child; a benchmark run must end within 180 seconds.
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_child(workload: str, seed: int, seconds: float, trace: int,
              out: Path) -> dict[str, Any]:
    """Run one workload pass in a fresh process; return its result."""
    cmd = [sys.executable, "-m", "bench.workloads", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    # Own session, so a timeout can stop the whole tree (the serve
    # workload's server and its workers included).  Child stdout goes
    # to stderr: stdout carries only rows and the final JSON line.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:  # the child, or anything it left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise BenchError(f"{workload} (trace {trace}) did not finish in "
                         f"{CHILD_TIMEOUT_S:.0f}s")
    if code != 0:
        raise BenchError(f"{workload} (trace {trace}) exited with {code}")
    return json.loads((out / f"{workload}.trace{trace}.json").read_text())


def merge(passes: list[dict[str, Any]]) -> dict[str, Any]:
    """One workload's passes as one record; the untraced pass comes first."""
    merged: dict[str, Any] = {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [problem for p in passes for problem in p["problems"]],
        "metrics": {},
    }
    merged["error_rate"] = merged["failed"] / merged["attempted"]
    for result in passes:
        for name, value in result["metrics"].items():
            merged["metrics"].setdefault(name, value)
        for key in ("layers", "unattributed_s", "counters"):
            if key in result:
                merged[key] = result[key]
    return merged


def listed_metrics(spec: dict[str, Any], result: dict[str, Any],
                   trace: int) -> dict[str, dict[str, Any]]:
    """The pass's metrics exactly as ``BENCHMARK.json`` lists them."""
    selected = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        measured = result["metrics"].get(entry["name"])
        if measured is None or measured["unit"] != entry["unit"]:
            raise BenchError(f"{result['workload']} did not report "
                             f"{entry['name']} in {entry['unit']}")
        selected[entry["name"]] = {"value": measured["value"],
                                   "unit": entry["unit"]}
    return selected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 bench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="the only workload input (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per pass (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run only the untraced (0) or traced (1) pass")
    parser.add_argument("--out", type=Path, default=BENCH / "out",
                        help="output directory (default bench/out)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or list(WORKLOADS)
    traces = [0, 1] if args.trace is None else [args.trace]
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)

    started = time.time()
    records: dict[str, dict[str, Any]] = {}
    final_metrics: dict[str, dict[str, Any]] = {}
    try:
        for workload in workloads:
            passes = []
            for trace in traces:
                result = run_child(workload, args.seed, seconds, trace, out)
                passes.append(result)
                selected = listed_metrics(spec, result, trace)
                if len(workloads) == 1 and len(traces) == 1:
                    final_metrics = selected
                else:
                    final_metrics.update(
                        {f"{workload}.{name}": value
                         for name, value in selected.items()})
            records[workload] = merge(passes)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1

    for workload, record in records.items():
        for name, entry in sorted(record["metrics"].items()):
            print(f"{workload} {name} {entry['value']:.6g} {entry['unit']} "
                  f"{entry['n']}")
        print(f"{workload} error_rate {record['error_rate']:.6g} ratio "
              f"{record['attempted']}")
        for problem in record["problems"]:
            print(f"bench: {workload}: {problem}", file=sys.stderr)
    results = {
        "schema": "repro-bench/v1",
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "seed": args.seed,
        "seconds": seconds,
        "passes": traces,
        "started_at": round(started, 3),
        "wall_s": round(time.time() - started, 3),
        "workloads": records,
    }
    (out / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": final_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
