"""One workload in one fresh process: set-up, the measured window, the judges.

Started by ``run.py`` (never by hand) as::

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE WORKDIR T0 [--setup-only]

``T0`` is the ``time.monotonic()`` reading the parent took just before
starting this process, so set-up time counts interpreter start-up too.
The last line of standard output is one JSON object for the parent.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from measure import HostMeter, dump_spans, percentile, self_seconds

#: Probes taken at each set-up stage boundary.
_SETUP_PROBES = 3


def make(name: str, seed: int, workdir: Path):
    import workloads

    if name == "serve_rw":
        from serve import ServeRW

        return ServeRW(seed, workdir)
    for cls in (workloads.SatConsistency, workloads.Counterexample,
                workloads.BatchFanout):
        if cls.name == name:
            return cls(seed)
    raise SystemExit(f"unknown workload {name!r}")


def setup(name: str, seed: int, workdir: Path, t0: float, meter: HostMeter):
    """Import, build inputs, start, warm up; returns (workload, set-up info)."""
    meter.probe(_SETUP_PROBES)
    workload = make(name, seed, workdir)  # imports repro
    meter.probe(_SETUP_PROBES)
    workload.build()
    meter.probe(_SETUP_PROBES)
    workload.start()
    meter.probe(_SETUP_PROBES)
    workload.warm()
    meter.probe(_SETUP_PROBES)
    raw = time.monotonic() - t0 - meter.probe_s
    factor = meter.factor()
    return workload, {"setup_s": raw / factor, "setup_raw_s": raw,
                      "setup_host_factor": factor}


def run_inprocess(workload, meter, seconds, obs=None, counts=None):
    """Whole passes over the corpus until ``seconds`` have elapsed; with
    ``obs``, each op runs traced under an ``op`` span and the first pass
    adds its work counters to ``counts``."""
    records = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        first = passes == 0
        for index, item in enumerate(workload.items):
            started = time.perf_counter()
            try:
                if obs is None:
                    output = workload.op(item)
                else:
                    with obs.tracer.span("op", op=len(records)):
                        output = workload.traced_op(obs, item,
                                                    counts if first else None)
                error = None
            except Exception as exc:  # counted as a failed op
                output, error = None, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - started
            records.append((index, started, took, output, error))
            workload.probe(meter)
        passes += 1
        if time.perf_counter() >= deadline:
            break
    return {"records": records, "passes": passes}


def summarize_inprocess(meter, window) -> dict:
    scaled = [meter.scaled(s, t) for _, s, t, _, e in window["records"]
              if e is None]
    raw = [t for _, _, t, _, e in window["records"] if e is None]
    busy = sum(scaled)
    latencies = [t * 1e3 for t in scaled]
    p50 = percentile(latencies, 50)
    return {
        "attempted": len(window["records"]),
        "failed": len(window["records"]) - len(scaled),
        "busy_s": busy,
        "raw_busy_s": sum(raw),
        "ops_per_s": len(scaled) / busy,
        "latency_p50_ms": p50,
        "latency_p90_ms": percentile(latencies, 90),
        # Every in-process op compiles input this process has never
        # compiled before (there is no cache), so each op is a write.
        "write_latency_p50_ms": p50,
        "samples": len(latencies),
        "write_samples": len(latencies),
    }


def wrong_inprocess(workload, window) -> int:
    return sum(not workload.judge(index, output)
               for index, _, _, output, error in window["records"]
               if error is None)


def layers_inprocess(meter, spans, ops: int) -> dict:
    """Per-layer self times per op, plus the pool fan-out's own accounting
    (``parallel.verify_batch`` spans, batch_fanout only)."""
    from workloads import layer_of, layer_times

    layer = layer_times(self_seconds(spans, meter, layer_of), ops)
    batches = [s for s in spans if s.name == "parallel.verify_batch"]
    if batches:
        # wall_s: the batch in the parent; busy_s: its properties' summed
        # verify times in the workers (what jobs=1 would take).
        factors = [meter.factor(s.start) for s in batches]
        wall = [s.attrs["wall_s"] / f for s, f in zip(batches, factors)]
        busy = [s.attrs["busy_s"] / f for s, f in zip(batches, factors)]
        layer["parallel.speedup"] = sum(busy) / sum(wall)
        layer["parallel.overhead_ms"] = 1e3 * sum(
            w - b / 2 for w, b in zip(wall, busy)) / len(batches)
    return layer


def counter_metrics(counts: dict) -> dict:
    tried = counts["excise.combos_tried"]
    compiles = counts["compiles"]
    return {
        "apply.dag_nodes": counts["apply.dag_nodes"],
        # Mean sharing factor (tree size over DAG size) of a pass's compiles.
        "apply.sharing": counts["apply.sharing"] / compiles if compiles else 0,
        "excise.knots": counts["excise.knots"],
        "excise.combos_tried": tried,
        "excise.viable_ratio": (counts["excise.combos_viable"] / tried
                                if tried else 1.0),
        "witness.steps": counts["witness.steps"],
        "witness.configs_expanded": counts["witness.configs_expanded"],
        "sat.satisfiable": counts["sat.satisfiable"],
        "parallel.goal_bytes": counts["parallel.goal_bytes"],
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir, t0 = argv[:6]
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    workdir, t0 = Path(workdir), float(t0)
    setup_only = "--setup-only" in argv[6:]
    meter = HostMeter()
    workload = None
    try:
        workload, info = setup(name, seed, workdir, t0, meter)
        if setup_only:
            workload.stop()
            print(json.dumps(info))
            return 0
        workload.prepare_judge()
        result = dict(info)
        inprocess = name != "serve_rw"
        half = seconds / 2 if trace else seconds
        if inprocess:
            plain = run_inprocess(workload, meter, half)
            summary = summarize_inprocess(meter, plain)
            wrong = wrong_inprocess(workload, plain)
        else:
            plain = workload.run_window(meter, half, traced=False)
            summary = workload.summarize(meter, plain)
            wrong = workload.wrong_answers(plain)
        summary["peak_rss_mb"] = workload.peak_rss_mb()
        summary["wrong"] = wrong
        summary["passes"] = plain["passes"]
        result["untraced"] = summary
        if trace:
            from workloads import new_counts, new_obs

            counts = new_counts()
            if inprocess:
                obs = new_obs()
                traced = run_inprocess(workload, meter, half, obs, counts)
                traced_summary = summarize_inprocess(meter, traced)
                traced_summary["wrong"] = wrong_inprocess(workload, traced)
                layer = layers_inprocess(meter, obs.tracer.spans,
                                         len(traced["records"]))
                tracers = [obs.tracer]
            else:
                traced = workload.run_window(meter, half, traced=True)
                traced_summary = workload.summarize(meter, traced)
                traced_summary["wrong"] = workload.wrong_answers(traced)
                layer, counts, tracers = workload.layers(meter, traced,
                                                         workdir)
            traced_summary["passes"] = traced["passes"]
            layer.update(counter_metrics(counts))
            layer["trace_overhead"] = (summary["ops_per_s"]
                                       / traced_summary["ops_per_s"])
            result["traced"] = traced_summary
            result["layers"] = layer
            spans_path = workdir / "spans.jsonl"
            dump_spans(spans_path, tracers)
            result["spans_path"] = str(spans_path)
        result["host_factor"] = meter.factor()
        workload.stop()
        workload = None
        print(json.dumps(result))
        return 0
    finally:
        if workload is not None:
            kill = getattr(workload, "kill", None) or workload.stop
            kill()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
