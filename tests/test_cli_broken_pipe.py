"""A reader that closes stdout early stops ``repro`` quietly.

``repro synth ... | head -1`` must not end in a ``BrokenPipeError``
traceback: the command exits with ``EXIT_BROKEN_PIPE`` and writes
nothing about the pipe to stderr.  ``synth`` writes its report as it
goes; ``cache stats`` writes one document at the end, which only the
flush at exit would send.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_BROKEN_PIPE

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_with_closed_stdout(args, cwd):
    """Run ``python -m repro *args*`` with its stdout pipe closed before
    it writes; returns ``(exit status, stderr)``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "repro", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=cwd, env=env)
    proc.stdout.close()  # the reader is gone before the first write
    _, stderr = proc.communicate(timeout=300)
    return proc.returncode, stderr.decode()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered",
                                                        "buffered"])
@pytest.mark.parametrize("command", [
    ["synth", "--netlist", "netlist.v"],
    ["cache", "--cache-dir", "store", "stats"],
], ids=["synth", "cache-stats"])
def test_closed_stdout_exits_quietly(tmp_path, monkeypatch, command,
                                     unbuffered):
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    code, stderr = _run_with_closed_stdout(command, tmp_path)
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr
    assert code == EXIT_BROKEN_PIPE, stderr
