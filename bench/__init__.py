"""The repository benchmark: five workloads with per-layer traces.

Run it with ``python3 bench/run.py --seed S``; see ``bench/README.md``.
This module imports nothing from the program, so ``bench/run.py`` can
load it before it knows the program is there.
"""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    """Environment for child interpreters: ``src`` and the bench package."""
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
