"""One set-up of a workload, run in a fresh interpreter and timed from outside.

``python -m bench.setup_probe WORKLOAD`` imports the packages the
workload's op calls into and elaborates the bundled ExpoCU, then exits.
The serve workload's set-up is a server start instead (see
:func:`bench.workloads.run_serve`).
"""

from __future__ import annotations

import sys


def main(workload: str) -> None:
    import repro.serve.jobs as jobs

    if workload.startswith("build"):
        import repro.baseline  # noqa: F401
        import repro.eval  # noqa: F401
    else:
        import repro.fault  # noqa: F401
    jobs.default_design()


if __name__ == "__main__":
    main(sys.argv[1])
