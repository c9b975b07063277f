"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sat_consistency --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` runs the same seed untraced, then traced, and prints the per-layer
metrics, a per-layer self-time table and the path of the span dump.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``).
Every timing is at reference host speed (see ``measure.py``); the raw
wall-clock values and the host factor are printed above it.

The work runs in fresh child processes (``child.py``) with a pinned
environment; set-up is measured several times and its median reported.
See README.md for the workloads, metrics and their rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sat_consistency", "counterexample", "serve_rw", "batch_fanout")

#: Fresh processes whose set-up time is measured per ``--trace 0`` run.
SETUP_REPEATS = 3

#: Wall-clock budget of one invocation; the contract allows 180 s.
BUDGET_S = 170.0

#: Environment variables that would change what the program does.
_PINNED_AWAY = ("REPRO_BACKEND", "REPRO_JOBS", "REPRO_CACHE_DIR")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "write_latency_p50_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "apply.self_ms": "ms", "apply.dag_nodes": "count",
    "apply.sharing": "ratio",
    "excise.self_ms": "ms", "excise.knots": "count",
    "excise.combos_tried": "count", "excise.viable_ratio": "ratio",
    "expand.self_ms": "ms",
    "witness.self_ms": "ms", "witness.steps": "count",
    "witness.configs_expanded": "count",
    "verify.other_ms": "ms",
    "http.verify_ms": "ms", "http.schedule_ms": "ms",
    "http.compile_ms": "ms", "http.client_ms": "ms", "http.non2xx": "count",
    "batcher.wait_ms": "ms", "batcher.batch_ms": "ms",
    "batcher.batch_size": "count", "batcher.coalesced_ratio": "ratio",
    "cache.entries_written": "count",
    "parallel.speedup": "x", "parallel.overhead_ms": "ms",
    "parallel.goal_bytes": "bytes",
    "sat.satisfiable": "count",
    "trace_overhead": "x", "host_factor": "x",
}

#: Rows of the self-time table: (layer, metric), in pipeline order.
_TABLE = (("expand", "expand.self_ms"), ("apply", "apply.self_ms"),
          ("excise", "excise.self_ms"), ("witness", "witness.self_ms"),
          ("verify.other", "verify.other_ms"))


def child_env(tmp: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _PINNED_AWAY}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


def run_child(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    """One fresh child process; returns its result line."""
    workdir.mkdir(parents=True)
    tmp = workdir / "tmp"
    tmp.mkdir()
    t0 = time.monotonic()
    command = [sys.executable, str(HERE / "child.py"), args.workload,
               str(args.seed), str(args.seconds), str(args.trace),
               str(workdir), repr(t0)]
    if setup_only:
        command.append("--setup-only")
    process = subprocess.Popen(command, cwd=ROOT, env=child_env(tmp),
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{args.workload} child exceeded the time budget")
    finally:
        # The child's own children (daemon, pool workers) die with it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(
            f"{args.workload} child exited with {process.returncode}")
    return json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_untraced(args, setups: list[dict], result: dict) -> dict:
    run = result["untraced"]
    attempted = run["attempted"]
    errors = run["failed"] + run["wrong"]
    setup_s = statistics.median(s["setup_s"] for s in setups)
    values = {
        "setup_s": setup_s,
        "ops_per_s": run["ops_per_s"],
        "latency_p50_ms": run["latency_p50_ms"],
        "latency_p90_ms": run["latency_p90_ms"],
        "write_latency_p50_ms": run["write_latency_p50_ms"],
        "ok_ratio": 1 - errors / attempted,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw = run["raw_busy_s"]
    print(f"# {args.workload} seed={args.seed}: {attempted} ops in "
          f"{run['passes']} passes, {run['samples']} latency samples, "
          f"{run['write_samples']} write samples")
    print(f"# busy {run['busy_s']:.4f} s at reference speed "
          f"(raw {raw:.4f} s); host factor {result['host_factor']:.4f}; "
          f"error_ratio {errors / attempted:.6f} "
          f"({run['failed']} failed, {run['wrong']} wrong)")
    print("# set-up per process: " + ", ".join(
        f"{s['setup_s']:.4f} s (raw {s['setup_raw_s']:.4f} s, host "
        f"{s['setup_host_factor']:.4f})" for s in setups))
    print(f"# raw ops/s {attempted / raw:.4f}")
    return {
        "correct": run["wrong"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {k: metric(v, END_TO_END[k]) for k, v in values.items()},
    }


def report_traced(args, result: dict, spans_path: Path) -> dict:
    layers = dict(result["layers"])
    layers["host_factor"] = result["host_factor"]
    run = result["traced"]
    attempted = result["untraced"]["attempted"] + run["attempted"]
    failed = result["untraced"]["failed"] + run["failed"]
    wrong = result["untraced"]["wrong"] + run["wrong"]
    total = sum(layers[key] for _, key in _TABLE)
    source = ("one pass replayed in-process" if args.workload == "serve_rw"
              else "traced run")
    print(f"# {args.workload} seed={args.seed}: per-layer self time per op "
          f"({source})")
    print(f"# {'layer':<14} {'ms/op':>10} {'share':>7}")
    for name, key in _TABLE:
        share = layers[key] / total if total else 0.0
        print(f"# {name:<14} {layers[key]:>10.4f} {share:>7.1%}")
    for key in ("http.verify_ms", "http.schedule_ms", "http.compile_ms",
                "http.client_ms", "batcher.wait_ms", "batcher.batch_ms",
                "parallel.speedup", "parallel.overhead_ms"):
        if key in layers:
            print(f"# {key:<22} {layers[key]:>10.4f}")
    print(f"# trace overhead {layers['trace_overhead']:.4f}x; host factor "
          f"{result['host_factor']:.4f}; spans in {spans_path}")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        # A layer the workload does not exercise reports 0.
        "metrics": {k: metric(layers.get(k, 0), u)
                    for k, u in PER_LAYER.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        print(f"# python {sys.version.split()[0]}, nproc {os.cpu_count()}")
        if args.trace:
            result = run_child(args, run_dir / "main", deadline, False)
            kept = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            shutil.copyfile(result["spans_path"], kept)
            report = report_traced(args, result, kept)
        else:
            setups = [run_child(args, run_dir / f"setup{i}", deadline, True)
                      for i in range(SETUP_REPEATS - 1)]
            result = run_child(args, run_dir / "main", deadline, False)
            report = report_untraced(args, setups + [result], result)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
