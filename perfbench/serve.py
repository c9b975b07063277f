"""The ``serve_rw`` workload: the real daemon under two closed-loop clients.

``python -m repro serve --port 0`` runs with a fresh ``--specs-dir``
holding the six paper workflows and a fresh ``--cache-dir``; every other
flag keeps its default.  Two keep-alive ``ServiceClient`` threads send
about 80% ``/verify``, 10% ``/schedule`` and 10% ``/compile`` of spec
text the daemon has never seen (a renamed paper workflow).  Each client
waits for its reply before sending the next request.

The clients run chunk by chunk: after each chunk both are paused at a
barrier and the host probe runs, so the probe neither competes with them
for the GIL nor times a busy daemon.  The daemon is pinned to one CPU and
the clients to another (when there are two), and the probe runs on the
daemon's CPU: probed on whatever CPU the clients ran on, scaling widened
the spread of throughput over five seeds from 5.5% (raw) to 12%.
"""

from __future__ import annotations

import itertools
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus
import judges
from measure import percentile, self_seconds
from workloads import (layer_of, layer_times, new_counts, new_obs,
                       traced_compile, traced_witness, vm_hwm_mb)

from repro.constraints.normalize import negate
from repro.core.compiler import CompileCache, compile_workflow
from repro.obs.tracer import Tracer
from repro.service.client import ServiceClient
from repro.spec import parse_specification

_BARRIER_TIMEOUT_S = 120.0


def _cpus() -> tuple[set[int], set[int]]:
    """(daemon CPU, client CPU): the last and first CPUs this process may use."""
    allowed = sorted(os.sched_getaffinity(0))
    return {allowed[-1]}, {allowed[0]}


class ServeRW:
    name = "serve_rw"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.process: subprocess.Popen | None = None
        self.pass_no = 0
        self.exit_code: int | None = None

    # -- set-up ----------------------------------------------------------------

    def build(self) -> None:
        self.specs_dir = self.workdir / "specs"
        self.cache_dir = self.workdir / "cache"
        self.specs_dir.mkdir(parents=True)
        self.cache_dir.mkdir()
        self.texts = corpus.serve_specs(self.seed)
        for name, text in self.texts.items():
            (self.specs_dir / f"{name}.workflow").write_text(text,
                                                             encoding="utf-8")
        self.specs = {name: parse_specification(text)
                      for name, text in self.texts.items()}
        self.plan = corpus.serve_plan()

    def start(self) -> None:
        self.daemon_cpu, self.client_cpu = _cpus()
        os.sched_setaffinity(0, self.client_cpu)  # before any thread starts
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--specs-dir", str(self.specs_dir),
             "--cache-dir", str(self.cache_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, self.daemon_cpu),
        )
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=lambda: [lines.put(line) for line in self.process.stdout]
            + [lines.put(None)], daemon=True)
        self._reader.start()
        self._lines = lines
        line = lines.get(timeout=60)
        if not line or not line.startswith("serving on http://"):
            raise RuntimeError(f"daemon did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        self.clients = [ServiceClient(self.host, self.port, timeout=60)
                        for _ in range(corpus.SERVE_CLIENTS)]

    def warm(self) -> None:
        """Every distinct read once (fills the registry memo and the compile
        cache), plus two unseen compiles."""
        client = self.clients[0]
        for name in sorted(self.specs):
            client.verify(spec=name)
            client.schedule(spec=name, limit=corpus.SERVE_SCHEDULE_LIMIT)
        for k, name in enumerate(sorted(self.specs)[:2]):
            client.compile(text=corpus.renamed_spec(self.texts[name],
                                                    f"warm{k}_"))

    def prepare_judge(self) -> None:
        self.expected = {
            (kind, name): judges.serve_expected(
                spec, kind, corpus.SERVE_SCHEDULE_LIMIT)
            for name, spec in self.specs.items()
            for kind in ("verify", "schedule")
        }

    # -- the measured window ---------------------------------------------------

    def _text(self, request, pass_no: int) -> str:
        _, name, k = request
        return corpus.renamed_spec(self.texts[name], f"w{pass_no}x{k}_")

    def _send(self, client, request, pass_no: int) -> dict:
        kind, name = request[0], request[1]
        if kind == "verify":
            return client.verify(spec=name)
        if kind == "schedule":
            return client.schedule(spec=name,
                                   limit=corpus.SERVE_SCHEDULE_LIMIT)
        return client.compile(text=self._text(request, pass_no))

    def probe(self, meter) -> None:
        """Probe the daemon's CPU (it is idle: both clients are paused)."""
        os.sched_setaffinity(0, self.daemon_cpu)  # this thread only
        try:
            meter.probe(2)
        finally:
            os.sched_setaffinity(0, self.client_cpu)

    def metrics(self) -> dict:
        return self.clients[0].metrics(format="json")

    def cache_entries(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    def run_window(self, meter, seconds: float, traced: bool) -> dict:
        """Whole passes until ``seconds`` have elapsed; returns the raw records."""
        start_gate = threading.Barrier(corpus.SERVE_CLIENTS + 1,
                                       timeout=_BARRIER_TIMEOUT_S)
        done_gate = threading.Barrier(corpus.SERVE_CLIENTS + 1,
                                      timeout=_BARRIER_TIMEOUT_S)
        state = {"chunk": None, "stop": False}
        records: list[list] = [[] for _ in self.clients]
        tracers = [Tracer() for _ in self.clients]

        def client_main(index: int) -> None:
            client, own = self.clients[index], records[index]
            tracer = tracers[index]
            while True:
                start_gate.wait()
                if state["stop"]:
                    return
                pass_no, chunk = state["chunk"]
                for request in self.plan[index][chunk]:
                    started = time.perf_counter()
                    try:
                        if traced:
                            with tracer.span("http.client", op=len(own)):
                                payload = self._send(client, request, pass_no)
                        else:
                            payload = self._send(client, request, pass_no)
                        error = None
                    except Exception as exc:  # counted as a failed op
                        payload, error = None, f"{type(exc).__name__}: {exc}"
                    took = time.perf_counter() - started
                    own.append((request, pass_no, started, took, payload,
                                error))
                done_gate.wait()

        threads = [threading.Thread(target=client_main, args=(i,))
                   for i in range(len(self.clients))]
        for thread in threads:
            thread.start()
        before = self.metrics()
        entries_before = self.cache_entries()
        entries_first_pass = None
        first_pass = self.pass_no
        segments = []
        deadline = time.perf_counter() + seconds
        try:
            while True:
                for chunk in range(corpus.SERVE_CHUNKS_PER_PASS):
                    state["chunk"] = (self.pass_no, chunk)
                    started = time.perf_counter()
                    start_gate.wait()
                    done_gate.wait()
                    segments.append((started, time.perf_counter() - started))
                    self.probe(meter)
                if entries_first_pass is None:
                    entries_first_pass = self.cache_entries() - entries_before
                self.pass_no += 1
                if time.perf_counter() >= deadline:
                    break
        finally:
            state["stop"] = True
            try:
                start_gate.wait()
            except threading.BrokenBarrierError:
                pass
            for thread in threads:
                thread.join(timeout=_BARRIER_TIMEOUT_S)
        after = self.metrics()
        return {
            "records": [r for own in records for r in own],
            "segments": segments,
            "passes": self.pass_no - first_pass,
            "first_pass": first_pass,
            "tracers": tracers,
            "server": (before, after),
            "cache_entries_per_pass": entries_first_pass,
        }

    # -- results ---------------------------------------------------------------

    def summarize(self, meter, window: dict) -> dict:
        reads, writes = [], []
        failed = 0
        for request, _, started, took, _, error in window["records"]:
            if error is not None:
                failed += 1
                continue
            scaled = meter.scaled(started, took) * 1e3
            (writes if request[0] == "compile" else reads).append(scaled)
        busy = sum(meter.scaled(s, t) for s, t in window["segments"])
        return {
            "attempted": len(window["records"]),
            "failed": failed,
            "busy_s": busy,
            "raw_busy_s": sum(t for _, t in window["segments"]),
            "ops_per_s": (len(window["records"]) - failed) / busy,
            "latency_p50_ms": percentile(reads, 50),
            "latency_p90_ms": percentile(reads, 90),
            "write_latency_p50_ms": percentile(writes, 50),
            "samples": len(reads),
            "write_samples": len(writes),
        }

    def wrong_answers(self, window: dict) -> int:
        wrong = 0
        for request, pass_no, _, _, payload, error in window["records"]:
            if error is not None:
                continue
            kind, name = request[0], request[1]
            if kind == "compile":
                spec = parse_specification(self._text(request, pass_no))
                expected = judges.serve_expected(spec, kind)
            else:
                expected = self.expected[(kind, name)]
            if judges.serve_answer(kind, payload) != expected:
                wrong += 1
        return wrong

    def layers(self, meter, window: dict, workdir: Path):
        """Per-layer metrics: daemon histogram deltas, client spans, and an
        in-process replay of one pass for the compile and witness layers.
        Returns the metrics, the replay's work counters and the tracers
        whose spans the run dumps."""
        before, after = window["server"]
        factor = meter.factor()

        def delta(kind: str, name: str, field: str) -> float:
            if kind == "histograms":
                old = before[kind].get(name, {}).get(field, 0)
                return after[kind].get(name, {}).get(field, 0) - old
            return after[kind].get(name, 0) - before[kind].get(name, 0)

        def mean_ms(name: str) -> float:
            count = delta("histograms", name, "count")
            total = delta("histograms", name, "total")
            return total / count / factor * 1e3 if count else 0.0

        handler_s = sum(delta("histograms", f"service.http.{e}.latency",
                              "total")
                        for e in ("verify", "schedule", "compile")) / factor
        handled = sum(delta("histograms", f"service.http.{e}.latency",
                            "count")
                      for e in ("verify", "schedule", "compile"))
        client_s = sum(self_seconds(tracer.spans, meter).get("http.client", 0.0)
                       for tracer in window["tracers"])
        non2xx = sum(delta("counters", f"service.http.{e}.errors", "")
                     for e in ("verify", "schedule", "compile"))
        batched = delta("histograms", "service.verify.batch_size", "total")
        layer = {
            "http.verify_ms": mean_ms("service.http.verify.latency"),
            "http.schedule_ms": mean_ms("service.http.schedule.latency"),
            "http.compile_ms": mean_ms("service.http.compile.latency"),
            "http.client_ms": ((client_s - handler_s) / handled * 1e3
                               if handled else 0.0),
            "http.non2xx": non2xx,
            "batcher.batch_ms": mean_ms("service.verify.batch_latency"),
            "batcher.batch_size": (
                batched / delta("histograms", "service.verify.batch_size",
                                "count") if batched else 0.0),
            "batcher.coalesced_ratio": (
                delta("counters", "service.verify.coalesced", "") / batched
                if batched else 0.0),
            "cache.entries_written": window["cache_entries_per_pass"],
        }
        layer["batcher.wait_ms"] = layer["http.verify_ms"] - layer[
            "batcher.batch_ms"]
        replay, counts, obs = self.replay(meter, window["first_pass"],
                                          workdir)
        layer.update(replay)
        return layer, counts, window["tracers"] + [obs.tracer]

    def replay(self, meter, pass_no: int, workdir: Path):
        """One pass of both clients' requests, replayed in this process
        (writes through the traced compile; reads against a warm compile
        cache, as in the daemon, with the traced witness)."""
        cache = CompileCache(workdir / "replay-cache")
        requests = [r for client in self.plan for chunk in client
                    for r in chunk]
        for first in (True, False):  # the first round only warms the cache
            obs, counts = new_obs(), new_counts()
            for index, request in enumerate(requests):
                with obs.tracer.span("op", op=index):
                    self._replay_one(obs, request, pass_no, cache, counts)
                meter.probe()
        layer = layer_times(self_seconds(obs.tracer.spans, meter, layer_of),
                            len(requests))
        return layer, counts, obs

    def _replay_one(self, obs, request, pass_no, cache, counts) -> None:
        kind, name = request[0], request[1]
        if kind == "compile":
            spec = parse_specification(self._text(request, pass_no))
            traced_compile(obs, spec.goal, spec.constraints, spec.rules,
                           counts)
            return
        spec = self.specs[name]
        if kind == "schedule":
            compiled = compile_workflow(spec.goal, list(spec.constraints),
                                        rules=spec.rules, cache=cache)
            with obs.tracer.span("witness"):
                list(itertools.islice(
                    compiled.schedules(corpus.SERVE_SCHEDULE_LIMIT),
                    corpus.SERVE_SCHEDULE_LIMIT))
            return
        for _, prop in spec.properties:
            violating = compile_workflow(
                spec.goal, list(spec.constraints) + [negate(prop)],
                rules=spec.rules, cache=cache)
            if violating.consistent:
                traced_witness(obs, violating, counts)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM the daemon and check that it drains and exits cleanly."""
        for client in getattr(self, "clients", ()):
            client.close()
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.exit_code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("daemon did not exit within 60 s of SIGTERM")
        self._reader.join(timeout=10)
        tail = []
        while not self._lines.empty():
            line = self._lines.get()
            if line:
                tail.append(line.strip())
        if self.exit_code != 0 or "shutdown complete" not in tail:
            raise RuntimeError(
                f"daemon exited with {self.exit_code}; last output {tail[-3:]}")

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()
