"""Flight recorder: journaling, round trips, diff, and deterministic replay."""

import io

import pytest

from repro.core.compiler import compile_workflow
from repro.core.engine import WorkflowEngine
from repro.core.resilience import (
    ChaosOracle,
    ResiliencePolicy,
    RetryPolicy,
    VirtualClock,
)
from repro.ctr.formulas import atoms
from repro.obs import (
    FlightRecorder,
    Observability,
    diff_traces,
    read_trace,
    render_trace,
    replay_trace,
    write_trace,
)
from repro.obs.recorder import Decision, ReplayDivergenceError, ReplayStrategy


def record_run(goal_text, constraints=(), chaos=None, policies=None,
               clock=None):
    """Run a workflow with a recorder attached and return (trace, report).

    Mirrors what ``repro run --trace`` does: header with spec source, chaos
    plan, and policies; summary with schedule, digest, and counters.
    """
    from repro.spec import parse_specification

    spec_lines = [f"goal: {goal_text}"]
    spec_lines += [f"constraint: {c}" for c in constraints]
    spec_text = "\n".join(spec_lines) + "\n"
    spec = parse_specification(spec_text)

    clock = clock or VirtualClock()
    policies = policies if policies is not None else ResiliencePolicy()
    obs = Observability.enabled(trace=True, metrics=False, record=True)
    compiled = spec.compile()
    engine = WorkflowEngine(compiled, oracle=chaos, policies=policies,
                            clock=clock, obs=obs)
    report = engine.run()

    header = {
        "spec": spec_text,
        "chaos": chaos.plan() if chaos is not None else None,
        "policies": policies.to_dict(),
        "strategy": "first",
    }
    summary = {
        "schedule": list(report.schedule),
        "digest": report.database.digest(),
        "attempts": dict(report.attempts),
        "failures": len(report.failures),
        "reroutes": len(report.reroutes),
    }
    buffer = io.StringIO()
    write_trace(buffer, header, spans=obs.tracer.spans,
                recorder=obs.recorder, summary=summary)
    buffer.seek(0)
    return read_trace(buffer), report


class TestRecorder:
    def test_decisions_journal_in_order(self):
        a, b, c = atoms("a b c")
        compiled = compile_workflow((a + b) >> c)
        obs = Observability.enabled(trace=False, metrics=False, record=True)
        WorkflowEngine(compiled, obs=obs).run()
        decisions = obs.recorder.decisions
        assert [d.chosen for d in decisions] == ["a", "c"]
        assert decisions[0].eligible == ("a", "b")
        assert all(d.verdict == "ok" for d in decisions)
        assert all(d.digest for d in decisions)

    def test_failed_step_records_dead_verdict_and_reroute(self):
        a, b, c = atoms("a b c")
        compiled = compile_workflow((a + b) >> c)
        chaos = ChaosOracle().fail_event("a")
        obs = Observability.enabled(trace=False, metrics=False, record=True)
        report = WorkflowEngine(compiled, oracle=chaos, obs=obs).run()
        assert report.schedule == ("b", "c")
        verdicts = [d.verdict for d in obs.recorder.decisions]
        assert verdicts[0] == "dead:FaultInjected"
        assert "ok" in verdicts
        assert len(obs.recorder.reroutes) == 1
        assert obs.recorder.reroutes[0]["failed_event"] == "a"

    def test_round_trip_and_render(self):
        trace, _ = record_run("(a + b) * c", chaos=ChaosOracle().fail_event("a"))
        assert trace.header["format"] == 1
        assert trace.schedule == ("b", "c")
        assert len(trace.decisions) == 3  # dead a, then b, then c
        text = render_trace(trace)
        assert "flight recorder" in text
        assert "dead:FaultInjected" in text
        assert "reroute" in text


class TestReplayDeterminism:
    """The PR's acceptance satellite: a chaotic run replays identically."""

    def test_seeded_chaos_run_replays_identically(self):
        clock = VirtualClock()
        chaos = ChaosOracle(clock=clock, seed=1234).fail_rate(0.3)
        policies = ResiliencePolicy(
            default=RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0)
        )
        trace, report = record_run(
            "(a + b) * c * d", chaos=chaos, policies=policies, clock=clock
        )
        result = replay_trace(trace)
        assert result.matches, result.mismatches
        assert result.schedule == report.schedule
        assert result.digest == report.database.digest()
        assert dict(result.report.attempts) == dict(report.attempts)
        assert len(result.report.failures) == len(report.failures)
        assert len(result.report.reroutes) == len(report.reroutes)

    def test_replay_covers_failover(self):
        chaos = ChaosOracle(seed=9).fail_event("approve")
        trace, report = record_run(
            "receive * (approve + reject) * archive", chaos=chaos
        )
        assert report.schedule == ("receive", "reject", "archive")
        result = replay_trace(trace)
        assert result.matches, result.mismatches

    def test_tampered_trace_is_detected(self):
        trace, _ = record_run("a * b")
        trace.summary["digest"] = "0" * 16
        result = replay_trace(trace)
        assert not result.matches
        assert any("digest" in m for m in result.mismatches)


class TestDiff:
    def test_identical_traces_have_no_diff(self):
        trace_a, _ = record_run("a * b")
        trace_b, _ = record_run("a * b")
        assert diff_traces(trace_a, trace_b) == []

    def test_divergent_schedules_are_reported(self):
        trace_a, _ = record_run("(a + b) * c")
        trace_b, _ = record_run("(a + b) * c", chaos=ChaosOracle().fail_event("a"))
        differences = diff_traces(trace_a, trace_b)
        assert differences
        assert any("schedule differs" in d for d in differences)


class TestReplayStrategy:
    def test_rejects_mismatched_eligible_set(self):
        strategy = ReplayStrategy([Decision(0, ("a", "b"), "a")])
        with pytest.raises(ReplayDivergenceError):
            strategy(frozenset({"a", "z"}), None)

    def test_rejects_extra_consultations(self):
        strategy = ReplayStrategy([])
        with pytest.raises(ReplayDivergenceError):
            strategy(frozenset({"a"}), None)

    def test_recorder_sorts_eligible(self):
        recorder = FlightRecorder()
        recorder.record(0, frozenset({"z", "a", "m"}), "m", "ok", "d1")
        assert recorder.decisions[0].eligible == ("a", "m", "z")


class TestObservabilityConfig:
    def test_disabled_is_inactive(self):
        assert not Observability.disabled().active

    def test_enabled_variants(self):
        assert Observability.enabled().active
        only_metrics = Observability.enabled(trace=False, record=False)
        assert only_metrics.active
        assert only_metrics.recorder is None
        assert not only_metrics.tracer.enabled


class TestDistributedReplayInterop:
    """`run --trace` stamps distributed ids into the journal header and
    `trace replay` re-mints the identical span tree under seeded chaos."""

    SPEC = (
        "goal: receive * (credit | stock) * approve\n"
        "constraint: precedes(credit, approve)\n"
    )

    def record(self, tmp_path):
        from repro.cli import main

        spec = tmp_path / "orders.workflow"
        spec.write_text(self.SPEC)
        trace_path = tmp_path / "run.trace.jsonl"
        out = io.StringIO()
        status = main([
            "run", str(spec), "--trace", str(trace_path), "--no-cache",
            "--fail-rate", "0.4", "--seed", "1234", "--retry", "5",
        ], out=out)
        assert status == 0, out.getvalue()
        return trace_path

    def test_header_carries_the_distributed_ids(self, tmp_path):
        trace_path = self.record(tmp_path)
        with open(trace_path, encoding="utf-8") as handle:
            trace = read_trace(handle)
        header = trace.header
        assert header["ids_seed"] == 1234
        assert header["span_check"] is True
        assert header["trace_id"] and len(header["trace_id"]) == 32
        assert trace.spans
        # The header names the run's first trace root (compile and engine
        # each root a trace); every span carries well-formed minted ids.
        assert trace.spans[0].trace_id == header["trace_id"]
        assert all(s.trace_id and len(s.trace_id) == 32
                   for s in trace.spans)
        assert all(s.ref and len(s.ref) == 16 for s in trace.spans)

    def test_replay_reproduces_the_span_tree(self, tmp_path):
        from repro.cli import main

        trace_path = self.record(tmp_path)
        out = io.StringIO()
        assert main(["trace", "replay", str(trace_path)], out=out) == 0
        assert "replay ok" in out.getvalue()

    def test_tampered_span_ref_fails_the_replay(self, tmp_path):
        import json

        from repro.cli import main

        trace_path = self.record(tmp_path)
        lines = trace_path.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record.get("kind") == "span" and record.get("ref"):
                record["ref"] = "f" * 16
                lines[i] = json.dumps(record)
                break
        else:  # pragma: no cover - recording broke first
            pytest.fail("no span with a ref to tamper with")
        trace_path.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        assert main(["trace", "replay", str(trace_path)], out=out) == 1
        assert "mismatch: span tree" in out.getvalue()
