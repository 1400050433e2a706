"""Flow-as-a-service: the ``repro serve`` job server and its client.

The package splits along the protocol boundary:

:mod:`repro.serve.jobs`
    The job model — validated :class:`JobSpec`\\ s, the parameter
    schema the one-shot CLI declares its job options from, the
    :func:`run_job` execution path ``repro build``/``dse`` share (the
    ``analyze``/``inject`` commands call the same flow functions
    directly), and the byte-exact :func:`render_result` convention.
:mod:`repro.serve.scheduler`
    Queue, fingerprint-based request coalescing, and the one
    executor: a supervised pool stream running jobs on worker
    processes, or in-process on its pump thread.
:mod:`repro.serve.server`
    The JSON-over-HTTP daemon (TCP or Unix socket) with graceful
    drain on SIGTERM/SIGINT.
:mod:`repro.serve.client`
    :class:`ServeClient`, the thin client behind ``repro submit``.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import (
    JOB_KINDS,
    JobError,
    JobSpec,
    default_design,
    make_spec,
    render_result,
    run_job,
)
from repro.serve.scheduler import Job, JobSession, Scheduler, SchedulerClosed
from repro.serve.server import build_server, run_server

__all__ = [
    "JOB_KINDS",
    "Job",
    "JobError",
    "JobSession",
    "JobSpec",
    "Scheduler",
    "SchedulerClosed",
    "ServeClient",
    "ServeError",
    "build_server",
    "default_design",
    "make_spec",
    "render_result",
    "run_job",
    "run_server",
]
