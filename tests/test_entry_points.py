"""The real entry points, as subprocesses: ``python -m repro serve`` and
``python -m repro cluster`` from the startup banner through one traced
``/verify`` to the SIGTERM drain."""

import os
import select
import signal
import subprocess
import sys
from pathlib import Path

from repro.obs.context import IdSource
from repro.service.client import ServiceClient

ORDERS = """
goal: receive * (credit | stock) * approve
constraint: precedes(credit, approve)
property credit_first: precedes(credit, approve)
property approved: happens(approve)
"""

SRC = Path(__file__).resolve().parents[1] / "src"


def start(*argv):
    """Spawn ``python -m repro ARGV --port 0``; returns the process and
    its first output line (the banner), waiting at most a minute."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    ready, _, _ = select.select([process.stdout], [], [], 60)
    banner = process.stdout.readline() if ready else ""
    if not banner:
        process.kill()
        process.communicate()
    return process, banner


def client_for(banner: str) -> ServiceClient:
    host, port = banner.split("http://", 1)[1].split()[0].rsplit(":", 1)
    return ServiceClient(host, int(port), timeout=60.0, ids=IdSource())


def drain(process) -> tuple[str, int]:
    """SIGTERM, then the rest of the output and the exit status."""
    process.send_signal(signal.SIGTERM)
    rest, _ = process.communicate(timeout=60)
    return rest, process.returncode


def verify_and_list_traces(banner: str) -> tuple[dict, str, list]:
    client = client_for(banner)
    try:
        out = client.verify(text=ORDERS)
        return out, client.last_trace_id, client.traces()
    finally:
        client.close()


class TestServe:
    def test_tracing_without_a_seed_records_trace_ids(self):
        process, banner = start("serve", "--tracing")
        try:
            assert banner.startswith("serving on http://127.0.0.1:")
            out, trace_id, traces = verify_and_list_traces(banner)
        finally:
            rest, status = drain(process)
        assert [r["holds"] for r in out["results"]] == [True, True]
        assert trace_id in traces
        assert "draining..." in rest and "shutdown complete" in rest
        assert status == 0


    def test_cached_daemon_answers_a_repeated_verify_from_memory(
        self, tmp_path
    ):
        process, banner = start("serve", "--cache-dir", str(tmp_path))
        try:
            client = client_for(banner)
            try:
                first = client.verify(text=ORDERS)
                second = client.verify(text=ORDERS)
                counters = client.metrics(format="json")["counters"]
            finally:
                client.close()
        finally:
            rest, status = drain(process)
        assert second == first
        assert counters["service.verify.memo_hits"] == 2
        assert status == 0


class TestCluster:
    def test_traced_cluster_serves_and_drains(self):
        process, banner = start("cluster", "--workers", "1", "--tracing")
        try:
            assert banner.startswith("cluster routing on http://127.0.0.1:")
            assert banner.rstrip().endswith("(1 workers, 2 replicas/key)")
            out, trace_id, traces = verify_and_list_traces(banner)
        finally:
            rest, status = drain(process)
        assert [r["holds"] for r in out["results"]] == [True, True]
        assert out["worker"] == "w0"
        assert trace_id in traces
        assert "draining..." in rest and "shutdown complete" in rest
        assert status == 0
