"""The ``repro serve`` daemon: JSON over HTTP, TCP or Unix socket.

A deliberately small protocol on the standard library's threading HTTP
server — every request and response body is JSON, except a finished
job's result, which is returned as the **exact bytes** the one-shot
CLI would have printed (see :func:`repro.serve.jobs.render_result`).

========================  ====  =====================================
endpoint                  verb  meaning
========================  ====  =====================================
``/healthz``              GET   liveness + draining flag
``/stats``                GET   scheduler/executor/store counters
``/jobs``                 POST  submit ``{"kind", "params", "force"}``
``/jobs``                 GET   list all jobs
``/jobs/<id>``            GET   one job's status document
``/jobs/<id>/result``     GET   rendered result (``?wait=S`` blocks)
``/jobs/<id>/events``     GET   event log (``?since=N&wait=S`` polls)
``/jobs/<id>/cancel``     POST  cancel queued/running job
``/shutdown``             POST  drain and exit (same path as SIGTERM)
========================  ====  =====================================

Submissions return ``202 Accepted`` with the job document (plus
``"deduped": true`` when the submission coalesced onto an active
identical job).  While the server drains — after SIGTERM/SIGINT or
``POST /shutdown`` — new submissions get ``503`` and in-flight jobs
are given a grace period to finish (inject jobs additionally
checkpoint through their campaign journal), then the process exits 0.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import socketserver
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.store import ArtifactStore

from repro.serve.jobs import JobError, render_result
from repro.serve.scheduler import Scheduler, SchedulerClosed

#: Longest ``?wait=`` a single request may hold its thread (seconds).
MAX_WAIT_S = 30.0

#: Request bodies beyond this are rejected (submissions are tiny).
MAX_BODY_BYTES = 1 << 20


class ServeHandler(BaseHTTPRequestHandler):
    """Routes requests onto the server's scheduler."""

    # One connection per request: no keep-alive bookkeeping, and a
    # long-polling client never starves another's thread.
    protocol_version = "HTTP/1.0"
    server_version = "repro-serve/1"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> Scheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    def address_string(self) -> str:  # AF_UNIX peers have no address
        if isinstance(self.client_address, str) or not self.client_address:
            return "local"
        return super().address_string()

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:  # type: ignore[attr-defined]
            sys.stderr.write("repro serve: %s - %s\n"
                             % (self.address_string(), format % args))

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, doc: dict[str, Any]) -> None:
        self._send(status, (json.dumps(doc, indent=2) + "\n").encode())

    def _read_body(self) -> dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:  # rfile.read(-1) would block until the client hangs up
            raise JobError("Content-Length must be a non-negative integer, "
                           f"got {header!r}")
        if length > MAX_BODY_BYTES:
            raise JobError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise JobError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise JobError("request body must be a JSON object")
        return doc

    def _query(self) -> dict[str, str]:
        parsed = parse_qs(urlparse(self.path).query)
        return {key: values[-1] for key, values in parsed.items()}

    def _wait_s(self, query: dict[str, str]) -> float:
        try:
            return max(0.0, min(MAX_WAIT_S, float(query.get("wait", 0))))
        except ValueError:
            return 0.0

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._route_get()
        except KeyError as exc:
            self._send_json(404, {"error": f"no such job: {exc.args[0]}"})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            self._route_post()
        except JobError as exc:
            self._send_json(400, {"error": str(exc)})
        except SchedulerClosed as exc:
            self._send_json(503, {"error": str(exc)})
        except KeyError as exc:
            self._send_json(404, {"error": f"no such job: {exc.args[0]}"})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def _route_get(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        query = self._query()
        if path == "/healthz":
            self._send_json(200, {
                "ok": True,
                "draining": self.server.draining,  # type: ignore
            })
        elif path == "/stats":
            doc = self.scheduler.stats()
            doc["uptime_s"] = round(
                time.time() - self.scheduler.started_at, 3)
            self._send_json(200, doc)
        elif path == "/jobs":
            self._send_json(200, {"jobs": self.scheduler.list_jobs()})
        elif path.startswith("/jobs/") and path.endswith("/result"):
            self._get_result(path.split("/")[2], query)
        elif path.startswith("/jobs/") and path.endswith("/events"):
            job_id = path.split("/")[2]
            self.scheduler.get(job_id)  # 404 before blocking
            try:
                since = int(query.get("since", 0))
            except ValueError:
                since = 0
            doc = self.scheduler.events_since(job_id, since=since,
                                              wait_s=self._wait_s(query))
            self._send_json(200, doc)
        elif path.startswith("/jobs/"):
            job = self.scheduler.get(path.split("/")[2])
            self._send_json(200, {"job": job.as_dict()})
        else:
            self._send_json(404, {"error": f"unknown path {path!r}"})

    def _get_result(self, job_id: str, query: dict[str, str]) -> None:
        job = self.scheduler.wait_result(job_id, wait_s=self._wait_s(query))
        if job.state == "done":
            rendered = render_result(job.spec.kind, job.payload)
            self._send(200, rendered.encode())
        elif job.state == "failed":
            self._send_json(500, {"error": job.error or "job failed",
                                  "job": job.as_dict()})
        elif job.state == "cancelled":
            self._send_json(409, {"error": "job was cancelled",
                                  "job": job.as_dict()})
        else:  # still queued/running after the wait window
            self._send_json(202, {"job": job.as_dict()})

    def _route_post(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        if path == "/jobs":
            body = self._read_body()
            kind = body.get("kind")
            if not isinstance(kind, str):
                raise JobError("submission must carry a string 'kind'")
            params = body.get("params") or {}
            if not isinstance(params, dict):
                raise JobError("'params' must be a JSON object")
            job, deduped = self.scheduler.submit(
                kind, params, force=bool(body.get("force")))
            doc = job.as_dict()
            doc["deduped"] = deduped
            self._send_json(202, {"job": doc})
        elif path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path.split("/")[2]
            changed = self.scheduler.cancel(job_id)
            job = self.scheduler.get(job_id)
            self._send_json(200, {"cancelled": changed,
                                  "job": job.as_dict()})
        elif path == "/shutdown":
            self._send_json(200, {"ok": True, "shutting_down": True})
            self.server.request_shutdown()  # type: ignore[attr-defined]
        else:
            self._send_json(404, {"error": f"unknown path {path!r}"})


class ServeServer(ThreadingHTTPServer):
    """TCP variant; one daemon thread per request."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, scheduler: Scheduler,
                 grace_s: float = 10.0, verbose: bool = False) -> None:
        self.scheduler = scheduler
        self.grace_s = grace_s
        self.verbose = verbose
        self.draining = False
        self._shutdown_lock = threading.Lock()
        self._shutdown_started = False
        super().__init__(address, ServeHandler)

    def describe(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def request_shutdown(self) -> None:
        """Drain and stop, exactly once, off the serving threads."""
        with self._shutdown_lock:
            if self._shutdown_started:
                return
            self._shutdown_started = True
        self.draining = True
        thread = threading.Thread(target=self._drain_and_stop,
                                  name="serve-shutdown", daemon=True)
        thread.start()

    def _drain_and_stop(self) -> None:
        cancelled = self.scheduler.drain(self.grace_s)
        if cancelled and self.verbose:
            sys.stderr.write(
                f"repro serve: cancelled {cancelled} unfinished job(s) "
                f"after the {self.grace_s:.0f}s grace period\n")
        # shutdown() must come from outside serve_forever's thread.
        self.shutdown()


class UnixServeServer(ServeServer):
    """The same server bound to a Unix domain socket."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        path = self.server_address
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            os.unlink(path)  # stale socket from a killed predecessor
        socketserver.TCPServer.server_bind(self)
        # HTTPServer.server_bind would try to unpack (host, port).
        self.server_name = "localhost"
        self.server_port = 0

    def describe(self) -> str:
        return f"unix:{self.server_address}"


def build_server(scheduler: Scheduler, socket_path: str | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 grace_s: float = 10.0, verbose: bool = False):
    """Bind the right server flavor for the requested transport."""
    if socket_path:
        return UnixServeServer(socket_path, scheduler, grace_s=grace_s,
                               verbose=verbose)
    return ServeServer((host, port), scheduler, grace_s=grace_s,
                       verbose=verbose)


def run_server(socket_path: str | None = None, host: str = "127.0.0.1",
               port: int = 0, cache_dir: str | None = ".repro-cache",
               workers: int = 2, job_timeout: float | None = None,
               grace_s: float = 10.0, verbose: bool = False) -> int:
    """The ``repro serve`` entry point: serve until told to stop.

    Installs SIGTERM/SIGINT handlers that drain (finish or checkpoint
    in-flight jobs within *grace_s*, refuse new submissions) and exit
    0.  The scheduler — and with it any worker processes — starts
    *before* the first serving thread, so forks happen while the
    process is still single-threaded.
    """
    store = ArtifactStore(cache_dir) if cache_dir else None
    scheduler = Scheduler(store, workers=workers, job_timeout=job_timeout)
    scheduler.start()
    server = build_server(scheduler, socket_path=socket_path, host=host,
                          port=port, grace_s=grace_s, verbose=verbose)

    def on_signal(signum, frame) -> None:
        server.request_shutdown()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, on_signal)
        except ValueError:  # pragma: no cover - non-main thread (tests)
            pass
    print(f"repro serve: listening on {server.describe()} "
          f"({scheduler.mode} executor, "
          f"store={'off' if store is None else store.root})",
          flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        scheduler.stop()
        if socket_path and os.path.exists(socket_path):
            os.unlink(socket_path)
    print("repro serve: drained and stopped", flush=True)
    return 0
