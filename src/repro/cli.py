"""Command-line interface: analyze and run workflow specification files.

::

    python -m repro check SPEC        # consistency + static report
    python -m repro schedules SPEC    # enumerate allowed executions
    python -m repro verify SPEC       # verify the file's `property` lines
    python -m repro run SPEC          # execute one schedule (log-only oracle)
    python -m repro show SPEC         # print the compiled goal
    python -m repro trace ...         # record / show / diff / replay run traces
    python -m repro serve             # JSON-over-HTTP verification service
    python -m repro cluster           # the same service, routed over workers

``SPEC`` is a text file in the :mod:`repro.spec` format. Exit status is 0
on success, 1 when the specification is inconsistent, a property fails,
or the file cannot be parsed.

Every spec command accepts ``--cache-dir DIR`` (default:
``$REPRO_CACHE_DIR`` when set) to serve repeated compilations of
unchanged specifications from the persistent
:class:`~repro.core.compiler.CompileCache`, and ``--no-cache`` to force
a from-scratch compile.

``verify --jobs N`` (default 1, 0 = all cores) verifies the file's
properties on ``N`` worker processes — one full sequential verification
per property per worker, so the report is identical at any ``N`` — and
``--witness-seed`` pins the witness schedule printed for failing
properties.

``run --trace FILE`` records the run — spans, every scheduler decision,
and the final summary — into a JSONL flight-recorder trace whose header
embeds the specification, chaos plan, and retry policies, so ``repro
trace replay FILE`` can re-execute it and verify the identical schedule
and database digest. ``run --metrics`` prints the metrics registry
(compile sizes and the Theorem 5.11 ratio, attempt/retry/reroute
counters, per-activity latency percentiles) after the schedule.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core.static import analyze
from .ctr.pretty import pretty
from .errors import ReproError
from .spec import Specification, load_specification

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Logic-based workflow analysis (PODS'98 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("check", "check consistency and print the static report"),
        ("schedules", "enumerate the allowed executions"),
        ("verify", "verify the specification's properties"),
        ("run", "execute one schedule with the log-only oracle"),
        ("show", "print the compiled goal"),
        ("dot", "emit Graphviz DOT for the compiled goal"),
    ]:
        command = sub.add_parser(name, help=help_text)
        command.add_argument("spec", help="path to a workflow specification file")
        command.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help="persistent compile cache directory "
                 "(default: $REPRO_CACHE_DIR if set)",
        )
        command.add_argument(
            "--no-cache", action="store_true",
            help="compile from scratch, ignoring any cache directory",
        )
        if name == "schedules":
            command.add_argument(
                "--limit", type=int, default=100, help="maximum schedules to print"
            )
        if name == "verify":
            command.add_argument(
                "--jobs", type=int, default=1, metavar="N",
                help="verify properties on N worker processes "
                     "(0 = all cores; default: 1). "
                     "Results are identical at any N.",
            )
            command.add_argument(
                "--witness-seed", type=int, default=None, metavar="SEED",
                help="seed the witness schedule reported for failing "
                     "properties (default: deterministic lexicographic "
                     "minimum)",
            )
        if name == "run":
            command.add_argument(
                "--retry", type=int, default=1, metavar="N",
                help="attempt each activity up to N times (default: 1)",
            )
            command.add_argument(
                "--backoff", type=float, default=0.0, metavar="SECONDS",
                help="base delay between attempts, doubled each retry "
                     "(virtual seconds)",
            )
            command.add_argument(
                "--fail", action="append", default=[], metavar="EVENT[:K]",
                help="chaos: fail EVENT's first K attempts "
                     "(omit :K to fail it permanently); repeatable",
            )
            command.add_argument(
                "--fail-rate", type=float, default=0.0, metavar="P",
                help="chaos: fail any attempt with probability P (seeded)",
            )
            command.add_argument(
                "--seed", type=int, default=0,
                help="seed for --fail-rate fault injection",
            )
            command.add_argument(
                "--trace", metavar="FILE", default=None,
                help="record the run as a replayable JSONL trace",
            )
            command.add_argument(
                "--metrics", action="store_true",
                help="print the metrics registry after the run",
            )

    serve = sub.add_parser(
        "serve", help="run the JSON-over-HTTP verification service"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8745,
                       help="bind port, 0 for ephemeral (default: 8745)")
    serve.add_argument("--specs-dir", metavar="DIR", default=None,
                       help="directory of *.workflow/*.spec files to register "
                            "by stem and hot-reload on change")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes per verification batch "
                            "(0 = all cores; default: 1)")
    serve.add_argument("--queue-limit", type=int, default=256, metavar="N",
                       help="max queued properties before shedding with 429 "
                            "(default: 256)")
    serve.add_argument("--deadline", type=float, default=30.0, metavar="SECONDS",
                       help="default per-request deadline; requests may "
                            "override with a 'timeout' field (default: 30)")
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persistent compile cache directory "
                            "(default: $REPRO_CACHE_DIR if set)")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without a persistent compile cache")
    serve.add_argument("--tracing", action="store_true",
                       help="record request spans, exposed on /traces for "
                            "cross-process assembly")
    serve.add_argument("--ids-seed", type=int, default=None, metavar="SEED",
                       help="seed trace/span/request id generation so runs "
                            "replay deterministically")

    cluster = sub.add_parser(
        "cluster", help="run the sharded verification cluster "
                        "(router + supervised workers)"
    )
    cluster.add_argument("--host", default="127.0.0.1",
                         help="router bind address (default: 127.0.0.1)")
    cluster.add_argument("--port", type=int, default=8745,
                         help="router bind port, 0 for ephemeral (default: 8745)")
    cluster.add_argument("--workers", type=int, default=2, metavar="N",
                         help="worker daemons to supervise (default: 2)")
    cluster.add_argument("--replicas", type=int, default=2, metavar="K",
                         help="replicas per spec key on the hash ring "
                              "(default: 2)")
    cluster.add_argument("--specs-dir", metavar="DIR", default=None,
                         help="directory of *.workflow/*.spec files the router "
                              "registers by stem and hot-reloads on change")
    cluster.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="verification processes per worker (default: 1)")
    cluster.add_argument("--hedge-delay", type=float, default=None,
                         metavar="SECONDS",
                         help="start a second replica if the first has not "
                              "answered within this delay (default: off)")
    cluster.add_argument("--capacity", type=float, default=None, metavar="COST",
                         help="total in-flight admission capacity; enables "
                              "per-tenant quotas (default: off)")
    cluster.add_argument("--tenant-share", type=float, default=1.0,
                         metavar="COST",
                         help="guaranteed in-flight cost per tenant when "
                              "--capacity is set (default: 1)")
    cluster.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="compile cache directory shared by router and "
                              "workers (default: $REPRO_CACHE_DIR if set)")
    cluster.add_argument("--no-cache", action="store_true",
                         help="run without a persistent compile cache")
    cluster.add_argument("--tracing", action="store_true",
                         help="propagate trace context to workers and serve "
                              "assembled cross-process trees on /traces")
    cluster.add_argument("--trace-dir", metavar="DIR", default=None,
                         help="persist assembled traces as JSONL under DIR "
                              "(implies --tracing)")
    cluster.add_argument("--ids-seed", type=int, default=None, metavar="SEED",
                         help="seed id generation for replayable traces "
                              "(worker i uses SEED+1+i)")

    trace = sub.add_parser("trace", help="inspect and replay recorded run traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser(
        "record", help="run a specification and record the trace (= run --trace)"
    )
    record.add_argument("spec", help="path to a workflow specification file")
    record.add_argument("trace_file", metavar="TRACE",
                        help="output path for the JSONL trace")
    for flag, kwargs in [
        ("--retry", dict(type=int, default=1, metavar="N")),
        ("--backoff", dict(type=float, default=0.0, metavar="SECONDS")),
        ("--fail", dict(action="append", default=[], metavar="EVENT[:K]")),
        ("--fail-rate", dict(type=float, default=0.0, metavar="P")),
        ("--seed", dict(type=int, default=0)),
    ]:
        record.add_argument(flag, **kwargs)

    show = trace_sub.add_parser("show", help="pretty-print a recorded trace")
    show.add_argument("trace_file", metavar="TRACE")
    show.add_argument("--distributed", action="store_true",
                      help="render TRACE as a distributed span-segment file "
                           "(the `trace fetch` / router sink format)")

    fetch = trace_sub.add_parser(
        "fetch", help="download an assembled distributed trace from a router"
    )
    fetch.add_argument("trace_id", metavar="TRACE_ID")
    fetch.add_argument("--host", default="127.0.0.1",
                       help="router address (default: 127.0.0.1)")
    fetch.add_argument("--port", type=int, default=8745,
                       help="router port (default: 8745)")
    fetch.add_argument("--output", "-o", metavar="FILE", default=None,
                       help="write span JSONL to FILE instead of rendering "
                            "the tree")

    diff = trace_sub.add_parser("diff", help="compare two recorded traces")
    diff.add_argument("trace_a", metavar="TRACE_A")
    diff.add_argument("trace_b", metavar="TRACE_B")

    replay = trace_sub.add_parser(
        "replay", help="re-execute a trace and verify it reproduces"
    )
    replay.add_argument("trace_file", metavar="TRACE")

    top = sub.add_parser(
        "top", help="live ASCII fleet view of a running cluster router"
    )
    top.add_argument("--host", default="127.0.0.1",
                     help="router address (default: 127.0.0.1)")
    top.add_argument("--port", type=int, default=8745,
                     help="router port (default: 8745)")
    top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                     help="seconds between refreshes (default: 2)")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="refresh N times then exit (default: 0 = run until "
                          "interrupted)")
    return parser


def _cache_from_args(args):
    """Resolve ``--cache-dir``/``--no-cache``/``$REPRO_CACHE_DIR`` to a cache.

    Precedence: ``--no-cache`` wins, then an explicit ``--cache-dir``, then
    the ``REPRO_CACHE_DIR`` environment variable. Returns ``None`` (caching
    disabled) when no directory is configured.
    """
    import os

    if getattr(args, "no_cache", False):
        return None
    directory = getattr(args, "cache_dir", None) or os.environ.get("REPRO_CACHE_DIR")
    if not directory:
        return None
    from .core.compiler import CompileCache

    return CompileCache(directory)


def _cmd_check(spec: Specification, out, cache=None) -> int:
    compiled = spec.compile(cache=cache)
    report = analyze(compiled)
    print(report.describe(), file=out)
    return 0 if compiled.consistent else 1


def _cmd_schedules(spec: Specification, out, limit: int, cache=None) -> int:
    compiled = spec.compile(cache=cache)
    if not compiled.consistent:
        print("inconsistent: no allowed executions", file=out)
        return 1
    count = 0
    for schedule in compiled.schedules(limit=max(limit, 1)):
        print(" -> ".join(schedule), file=out)
        count += 1
        if count >= limit:
            print(f"... (stopped at {limit})", file=out)
            break
    return 0


def _cmd_verify(spec: Specification, out, cache=None, jobs=1,
                seed=None) -> int:
    if not spec.properties:
        print("specification declares no properties", file=out)
        return 0
    from .core.verify import verify_properties

    results = verify_properties(
        spec.goal, list(spec.constraints),
        [prop for _, prop in spec.properties], rules=spec.rules,
        cache=cache, jobs=jobs, seed=seed,
    )
    failures = 0
    for (name, prop), result in zip(spec.properties, results):
        status = "HOLDS" if result.holds else "FAILS"
        print(f"[{status}] {name}: {prop}", file=out)
        if not result.holds:
            failures += 1
            print(f"        witness: {' -> '.join(result.witness)}", file=out)
    return 1 if failures else 0


def _cmd_run(spec: Specification, out, args) -> int:
    from .core.engine import WorkflowEngine
    from .core.resilience import ChaosOracle, ResiliencePolicy, RetryPolicy, VirtualClock
    from .db.oracle import TransitionOracle

    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    obs = None
    if trace_path or want_metrics:
        from .obs import IdSource, Observability

        # Traced runs mint replayable distributed ids seeded by --seed:
        # `repro trace replay` re-mints the identical span tree.
        obs = Observability.enabled(
            trace=bool(trace_path),
            metrics=want_metrics,
            record=bool(trace_path),
            ids=IdSource(seed=args.seed) if trace_path else None,
        )

    cache = _cache_from_args(args)
    compiled = spec.compile(obs=obs, cache=cache)
    if not compiled.consistent:
        print("inconsistent: nothing to run", file=out)
        return 1
    clock = VirtualClock()
    oracle = TransitionOracle()
    chaos = None
    if args.fail or args.fail_rate:
        from .ctr.formulas import event_names

        known = event_names(spec.goal)
        chaos = ChaosOracle(oracle, clock=clock, seed=args.seed)
        for directive in args.fail:
            event, _, budget = directive.partition(":")
            try:
                attempts = int(budget) if budget else None
            except ValueError:
                print(f"error: --fail expects EVENT[:K] with integer K, "
                      f"got {directive!r}", file=sys.stderr)
                return 2
            if event not in known:
                print(f"warning: --fail {event!r} matches no activity in "
                      "the workflow; no fault will be injected",
                      file=sys.stderr)
            chaos.fail_event(event, attempts=attempts)
        if args.fail_rate:
            try:
                chaos.fail_rate(args.fail_rate)
            except ValueError as exc:
                print(f"error: --fail-rate: {exc}", file=sys.stderr)
                return 2
        oracle = chaos
    policies = ResiliencePolicy(
        default=RetryPolicy(max_attempts=max(args.retry, 1),
                            base_delay=args.backoff, multiplier=2.0)
    )
    engine = WorkflowEngine(compiled, oracle=oracle,
                            policies=policies, clock=clock, obs=obs)
    report = engine.run()
    print(" -> ".join(report.schedule), file=out)
    summary = report.summary()
    if summary:
        print(summary, file=out)
    if trace_path:
        from .obs import write_trace

        with open(args.spec, encoding="utf-8") as handle:
            spec_text = handle.read()
        header = {
            "spec": spec_text,
            "chaos": chaos.plan() if chaos is not None else None,
            "policies": policies.to_dict(),
            "seed": args.seed,
            "strategy": "first",
        }
        if getattr(obs.tracer, "ids", None) is not None:
            spans = obs.tracer.spans
            header["trace_id"] = spans[0].trace_id if spans else None
            header["ids_seed"] = args.seed
            # The span tree is replay-checkable only for from-scratch
            # compiles: a cache hit skips the Apply/Excise spans.
            if cache is None:
                header["span_check"] = True
        tail = {
            "schedule": list(report.schedule),
            "digest": report.database.digest(),
            "attempts": dict(report.attempts),
            "failures": len(report.failures),
            "reroutes": len(report.reroutes),
            "elapsed": report.elapsed,
            "backoff": report.backoff,
        }
        with open(trace_path, "w", encoding="utf-8") as handle:
            write_trace(handle, header, spans=obs.tracer.spans,
                        recorder=obs.recorder, summary=tail)
        print(f"trace written to {trace_path}", file=out)
    if want_metrics:
        print(obs.metrics.render(), file=out)
    return 0


def _cmd_trace(args, out) -> int:
    from .obs import diff_traces, read_trace, render_trace, replay_trace

    if args.trace_command == "record":
        spec = load_specification(args.spec)
        args.trace = args.trace_file
        args.metrics = False
        return _cmd_run(spec, out, args)

    if args.trace_command == "show":
        if getattr(args, "distributed", False):
            from .obs.distributed import (load_distributed_trace,
                                          render_distributed)

            spans = load_distributed_trace(args.trace_file)
            print(render_distributed(spans), file=out)
            return 0
        with open(args.trace_file, encoding="utf-8") as handle:
            trace = read_trace(handle)
        print(render_trace(trace), file=out)
        return 0

    if args.trace_command == "fetch":
        import json

        from .obs.distributed import render_distributed
        from .service.client import ServiceClient

        client = ServiceClient(args.host, args.port)
        try:
            data = client.trace(args.trace_id)
        finally:
            client.close()
        spans = data.get("spans", [])
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(json.dumps(span, default=repr) + "\n")
            print(f"{len(spans)} spans written to {args.output}", file=out)
        else:
            print(render_distributed(spans), file=out)
        return 0

    if args.trace_command == "diff":
        with open(args.trace_a, encoding="utf-8") as handle:
            trace_a = read_trace(handle)
        with open(args.trace_b, encoding="utf-8") as handle:
            trace_b = read_trace(handle)
        differences = diff_traces(trace_a, trace_b)
        if not differences:
            print("traces are equivalent", file=out)
            return 0
        for line in differences:
            print(line, file=out)
        return 1

    with open(args.trace_file, encoding="utf-8") as handle:
        trace = read_trace(handle)
    result = replay_trace(trace)
    print(" -> ".join(result.schedule), file=out)
    if result.matches:
        print(f"replay ok: schedule and digest {result.digest} reproduced",
              file=out)
        return 0
    for line in result.mismatches:
        print("mismatch: " + line, file=out)
    return 1


def _cmd_serve(args, out) -> int:
    """``repro serve`` and ``repro cluster``: assemble the front door, then
    serve it until SIGINT/SIGTERM."""
    from .service.server import VerificationService, traced_obs

    cache = _cache_from_args(args)
    if args.command == "serve":
        service = VerificationService(
            specs_dir=args.specs_dir,
            cache=cache,
            jobs=args.jobs,
            queue_limit=args.queue_limit,
            default_deadline=args.deadline,
            obs=traced_obs("service", args.ids_seed) if args.tracing else None,
        )
        names = service.registry.names()
        banner = "serving"
        detail = f" ({len(names)} specs: {', '.join(names)})" if names else ""
    else:
        from .cluster.quotas import AdmissionController
        from .cluster.router import assemble_cluster

        if args.workers < 1:
            print("error: --workers must be at least 1", file=sys.stderr)
            return 1
        service = assemble_cluster(
            args.workers, args.replicas,
            specs_dir=args.specs_dir,
            cache_dir=getattr(cache, "directory", None),
            worker_jobs=args.jobs,
            tracing=args.tracing or args.trace_dir is not None,
            trace_dir=args.trace_dir,
            ids_seed=args.ids_seed,
            hedge_delay=args.hedge_delay,
            admission=(AdmissionController(args.capacity,
                                           default_share=args.tenant_share)
                       if args.capacity is not None else None),
        )
        banner = "cluster routing"
        detail = f" ({args.workers} workers, {args.replicas} replicas/key)"
    return _serve_until_signalled(service, args.host, args.port, out,
                                  banner, detail)


def _serve_until_signalled(service, host, port, out, banner, detail) -> int:
    """Start ``service``, print ``<banner> on http://host:port<detail>``
    (workers and benchmarks read the bound port off it), serve until
    SIGINT or SIGTERM, then drain every accepted request."""
    import asyncio
    import signal

    async def run() -> None:
        host_bound, port_bound = await service.start(host, port)
        print(f"{banner} on http://{host_bound}:{port_bound}{detail}",
              file=out, flush=True)
        loop = asyncio.get_running_loop()
        stop = loop.create_task(service.serve_forever())
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.cancel)
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
        try:
            await stop
        finally:
            print("draining...", file=out, flush=True)
            await service.shutdown(drain=True)
            print("shutdown complete", file=out, flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # signal handler unavailable (e.g. Windows)
        pass
    return 0


def _cmd_dot(spec: Specification, out, cache=None) -> int:
    from .graph.dot import goal_to_dot

    compiled = spec.compile(cache=cache)
    print(goal_to_dot(compiled.goal if compiled.consistent else compiled.source),
          file=out)
    return 0 if compiled.consistent else 1


def _cmd_show(spec: Specification, out, cache=None) -> int:
    from .ctr.formulas import goal_size

    compiled = spec.compile(cache=cache)
    print("source:  ", pretty(compiled.source), file=out)
    print("compiled:", pretty(compiled.goal), file=out)
    print(
        f"sizes:    |G|={goal_size(compiled.source)}"
        f" |Apply|={compiled.applied_size} |compiled|={compiled.compiled_size}",
        file=out,
    )
    print(
        f"sharing:  dag(Apply)={compiled.applied_dag_size}"
        f" dag(compiled)={compiled.compiled_dag_size}"
        f" ratio={compiled.sharing_ratio:.2f}x",
        file=out,
    )
    return 0 if compiled.consistent else 1


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit status."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "trace":
            return _cmd_trace(args, out)
        if args.command in ("serve", "cluster"):
            return _cmd_serve(args, out)
        if args.command == "top":
            from .obs.top import run_top

            return run_top(args.host, args.port, interval=args.interval,
                           iterations=args.iterations, out=out)
        spec = load_specification(args.spec)
        cache = _cache_from_args(args)
        if args.command == "check":
            return _cmd_check(spec, out, cache=cache)
        if args.command == "schedules":
            return _cmd_schedules(spec, out, args.limit, cache=cache)
        if args.command == "verify":
            return _cmd_verify(spec, out, cache=cache, jobs=args.jobs,
                               seed=args.witness_seed)
        if args.command == "run":
            return _cmd_run(spec, out, args)
        if args.command == "dot":
            return _cmd_dot(spec, out, cache=cache)
        return _cmd_show(spec, out, cache=cache)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        schedule = getattr(exc, "schedule", None)
        if schedule:
            print("  partial schedule: " + " -> ".join(schedule), file=sys.stderr)
        eligible = getattr(exc, "eligible", None)
        if eligible:
            print("  eligible at failure: " + ", ".join(sorted(eligible)),
                  file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `repro dot ... | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
