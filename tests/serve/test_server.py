"""The HTTP surface of ``repro serve`` plus end-to-end identity checks.

A real server runs on a Unix socket for the whole module; jobs execute
in thread mode against a shared :class:`ArtifactStore` so the tests
can assert the hard invariant of the subsystem: bytes fetched from the
server are identical to what the one-shot CLI prints, and concurrent
identical submissions pay for the stage work exactly once.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.serve import Scheduler, ServeClient, ServeError, build_server
from repro.store import ArtifactStore


REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One live server on a Unix socket, thread-mode, shared store."""
    root = tmp_path_factory.mktemp("serve")
    store = ArtifactStore(root / "cache")
    scheduler = Scheduler(store, workers=1)
    scheduler.start()
    socket_path = str(root / "repro.sock")
    server = build_server(scheduler, socket_path=socket_path)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield SimpleNamespace(
            store=store,
            scheduler=scheduler,
            client=ServeClient(socket_path=socket_path),
            socket_path=socket_path,
            cache_dir=str(root / "cache"),
        )
    finally:
        server.shutdown()
        server.server_close()
        scheduler.stop()


def _raw_request(socket_path: str, request: bytes) -> bytes:
    """Send raw bytes to the server; everything it answers within 5 s."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(5.0)
        sock.connect(socket_path)
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestEndpoints:
    def test_health(self, served):
        doc = served.client.health()
        assert doc == {"ok": True, "draining": False}

    def test_stats_include_store_and_uptime(self, served):
        doc = served.client.stats()
        assert doc["mode"].startswith("thread")
        assert "uptime_s" in doc and "store" in doc

    def test_submit_rejects_unknown_kind(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client.submit("compile")
        assert excinfo.value.status == 400

    def test_submit_rejects_unknown_parameter(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client.submit("build", {"flows": "osss"})
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client.job("j999999")
        assert excinfo.value.status == 404

    def test_unknown_path_is_404(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client._decode(*served.client._request("GET", "/nope"))
        assert excinfo.value.status == 404

    def test_jobs_listing_grows(self, served):
        before = len(served.client.jobs())
        served.client.submit("build", {"flow": "osss"})
        assert len(served.client.jobs()) >= before

    def test_submit_rejects_rtl_inject_with_hardening(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client.submit("inject", {"flow": "rtl",
                                            "hardening": "tmr"})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_bad_content_length_is_400(self, served, length):
        body = b'{"kind": "build"}'
        reply = _raw_request(
            served.socket_path,
            b"POST /jobs HTTP/1.0\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + length + b"\r\n\r\n" + body)
        assert reply.startswith(b"HTTP/1.0 400 ")
        assert b"Content-Length must be a non-negative integer" in reply


class TestByteIdentity:
    """Server results must equal the one-shot CLI output, byte for byte."""

    def test_build_matches_cli(self, served, capsys):
        text = served.client.run("build", {"flow": "osss"})
        assert main(["build", "--json", "--flow", "osss",
                     "--cache-dir", served.cache_dir]) == 0
        assert text == capsys.readouterr().out

    def test_analyze_matches_cli(self, served, capsys):
        text = served.client.run("analyze")
        assert main(["analyze", "--format", "json",
                     "--cache-dir", served.cache_dir]) == 0
        assert text == capsys.readouterr().out

    def test_inject_matches_cli(self, served, capsys, tmp_path):
        text = served.client.run("inject", {"faults": 8})
        assert main(["inject", "--format", "json", "--faults", "8",
                     "--cache-dir", served.cache_dir,
                     "--output", str(tmp_path / "report.json")]) == 0
        assert text == capsys.readouterr().out

    def test_dse_matches_cli(self, served, capsys, tmp_path):
        text = served.client.run("dse", {"faults": 8})
        assert main(["dse", "--format", "json", "--faults", "8",
                     "--cache-dir", served.cache_dir,
                     "--output", str(tmp_path / "dse.json")]) == 0
        assert text == capsys.readouterr().out


class TestDedupOverHttp:
    def test_concurrent_identical_clients_share_one_computation(self, served):
        """Satellite: two clients, one testability analysis, same bytes."""
        results = {}
        errors = []
        barrier = threading.Barrier(2)

        def submit(name):
            try:
                barrier.wait()
                client = ServeClient(socket_path=served.socket_path)
                results[name] = client.run("analyze", timeout_s=300.0)
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(n,))
                   for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Byte-identical responses to both clients...
        assert results["a"] == results["b"]
        json.loads(results["a"])  # ...and well-formed JSON.
        # ...from exactly one testability computation, whether the
        # submissions coalesced or the second hit the warm store.
        assert served.store.counters["miss"]["testability"] == 1

    def test_dedup_counter_visible_in_stats(self, served):
        first = served.client.submit("inject", {"faults": 9})
        second = served.client.submit("inject", {"faults": 9})
        if second["id"] == first["id"]:  # coalesced while still active
            assert second["deduped"]
            assert served.client.stats()["counters"]["deduped"] >= 1
        served.client.result_text(first["id"], timeout_s=300.0)


class TestCancelOverHttp:
    def test_cancel_queued_job(self, served):
        # The single worker is busy with a forced long-ish job, so the
        # second forced submission is deterministically queued.
        blocker = served.client.submit("inject", {"faults": 40, "seed": 3},
                                       force=True)
        victim = served.client.submit("inject", {"faults": 40, "seed": 4},
                                      force=True)
        doc = served.client.cancel(victim["id"])
        assert doc["cancelled"]
        assert doc["job"]["state"] == "cancelled"
        with pytest.raises(ServeError) as excinfo:
            served.client.result_text(victim["id"], timeout_s=10.0)
        assert excinfo.value.status == 409
        served.client.result_text(blocker["id"], timeout_s=300.0)

    def test_cancel_finished_job_reports_no_change(self, served):
        job = served.client.submit("build", {"flow": "osss"})
        served.client.result_text(job["id"], timeout_s=300.0)
        doc = served.client.cancel(job["id"])
        assert not doc["cancelled"]


class TestDraining:
    def test_draining_server_refuses_submissions(self, tmp_path):
        # Draining is sticky, so this test gets its own server.
        scheduler = Scheduler(None, workers=1)
        scheduler.start()
        socket_path = str(tmp_path / "drain.sock")
        server = build_server(scheduler, socket_path=socket_path)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        client = ServeClient(socket_path=socket_path)
        try:
            scheduler.begin_drain()
            server.draining = True
            assert client.health()["draining"]
            with pytest.raises(ServeError) as excinfo:
                client.submit("build", {"flow": "osss"})
            assert excinfo.value.status == 503
        finally:
            server.shutdown()
            server.server_close()
            scheduler.stop()


class TestSignalShutdown:
    """Satellite: SIGTERM drains in-flight work and exits 0."""

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_daemon_exits_cleanly_on_signal(self, tmp_path, signum):
        socket_path = str(tmp_path / "daemon.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", socket_path,
             "--cache-dir", str(tmp_path / "cache"),
             "--workers", "1", "--grace", "5"],
            cwd=str(tmp_path), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            deadline = time.monotonic() + 30.0
            while not os.path.exists(socket_path):
                assert proc.poll() is None, proc.stdout.read()
                assert time.monotonic() < deadline, "socket never appeared"
                time.sleep(0.05)
            client = ServeClient(socket_path=socket_path)
            assert client.health()["ok"]
            job = client.submit("build", {"flow": "osss"})

            proc.send_signal(signum)
            # While draining the server may still answer (refusing new
            # work) or may already have closed the socket.
            try:
                with pytest.raises(ServeError) as excinfo:
                    client.submit("build", {"flow": "vhdl"})
                assert excinfo.value.status == 503
            except (ConnectionError, FileNotFoundError, OSError):
                pass

            out, _ = proc.communicate(timeout=60.0)
            assert proc.returncode == 0, out
            assert "listening on" in out
            assert "drained and stopped" in out
            assert not os.path.exists(socket_path)
            assert job["id"].startswith("j")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
