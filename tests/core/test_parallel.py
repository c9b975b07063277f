"""Tests for the parallel verification layer (the batch pool).

The contract under test: a batch at ``jobs=N`` answers exactly what it
answers at ``jobs=1`` — identical
:class:`~repro.core.verify.VerificationResult`s (holds, counterexample
goal, witness) and identical redundancy listings — while the pool (shared
compile cache, pool reuse, the ``parallel.*`` spans) stays an
implementation detail.
"""

import os

from repro.constraints.algebra import absent, conj, disj, must, order
from repro.core.compiler import CompileCache
from repro.core.parallel import resolve_jobs
from repro.core.verify import (
    redundant_constraints,
    verify_properties,
    verify_property,
)
from repro.ctr.formulas import Atom, alt, atoms, par, seq, walk
from repro.ctr.machine import machine_traces
from repro.workflows.figure1 import figure1_constraints, figure1_goal

A, B, C, D = atoms("a b c d")


class TestResolveJobs:
    def test_explicit_values(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_negative_clamps_to_one(self):
        # A negative count is a caller mistake, not a request for every
        # core: clamp rather than surprise-fork os.cpu_count() workers.
        assert resolve_jobs(-1) == 1


class TestVerificationParity:
    PROPS = [order("a", "c"), must("c"), absent("z"), order("c", "a")]

    def test_batch_matches_sequential_in_order(self):
        goal = (A | B) >> C
        sequential = verify_properties(goal, [], self.PROPS)
        fanned = verify_properties(goal, [], self.PROPS, jobs=2)
        assert sequential == fanned
        assert [r.property for r in fanned] == self.PROPS
        # Counterexample goals re-intern across the process boundary:
        # not merely equal but the same canonical object.
        assert all(seq_result.counterexample is fan_result.counterexample
                   for seq_result, fan_result in zip(sequential, fanned))

    def test_batch_witness_names_are_the_goal_strings(self):
        # Witnesses come back pickled; their names must be mapped onto the
        # goal's own strings, as a jobs=1 witness's are, not kept as copies.
        goal = par(*(Atom(f"task_{i}") for i in range(4))) >> Atom("task_end")
        names = {a.name: a.name for a in walk(goal) if isinstance(a, Atom)}
        props = [order("task_1", "task_0"), order("task_3", "task_2")]
        fanned = verify_properties(goal, [], props, jobs=2)
        assert all(not r.holds for r in fanned)
        for result in fanned:
            assert all(event is names[event] for event in result.witness)

    def test_batch_on_figure1(self):
        goal = figure1_goal()
        constraints = figure1_constraints()
        props = list(constraints) + [absent("reject")]
        sequential = verify_properties(goal, constraints, props)
        fanned = verify_properties(goal, constraints, props, jobs=2)
        assert sequential == fanned

    def test_batch_shares_the_compile_cache(self, tmp_path):
        goal = (A | B) >> C
        # Failing properties: each one compiles (a holding property that
        # the masks refute writes no entry).
        props = [order("a", "b"), order("b", "a"), order("c", "a"), absent("b")]
        verify_properties(goal, [], props, jobs=2, cache=tmp_path / "cache")
        warm = CompileCache(tmp_path / "cache")
        verify_properties(goal, [], props, jobs=1, cache=warm)
        assert warm.hits == len(props)

    def test_redundancy_parity(self):
        goal = (A | B) >> C
        constraints = [order("a", "c"), conj(must("a"), must("c")),
                       disj(order("a", "c"), order("b", "c"))]
        assert redundant_constraints(goal, constraints) == \
            redundant_constraints(goal, constraints, jobs=2)


class TestSeededWitness:
    def test_seed_is_reproducible_across_jobs_and_reruns(self):
        goal = alt(seq(A, B), seq(B, A), seq(C, A))
        prop = order("a", "b")
        # Two properties, so the jobs=2 batch crosses the pool (a batch of
        # one runs sequentially).
        fanned, _ = verify_properties(goal, [], [prop, order("c", "a")],
                                      seed=99, jobs=2)
        results = [
            verify_property(goal, [], prop, seed=99),
            verify_property(goal, [], prop, seed=99),
            fanned,
        ]
        assert not results[0].holds
        assert results[0].witness == results[1].witness == results[2].witness

    def test_seeded_witness_is_a_real_violation(self):
        from repro.constraints.satisfy import satisfies

        goal = alt(seq(A, B), seq(B, A))
        prop = order("a", "b")
        result = verify_property(goal, [], prop, seed=7)
        assert result.witness in machine_traces(goal)
        assert not satisfies(result.witness, prop)

    def test_default_stays_lexicographic_minimum(self):
        goal = alt(seq(A, B), seq(B, A))
        unseeded = verify_property(goal, [], order("a", "b"))
        assert unseeded.witness == ("b", "a")


class TestBatchObservability:
    PROPS = TestVerificationParity.PROPS

    def test_batch_span_covers_the_fan_out(self):
        from repro.obs import Observability

        obs = Observability.enabled(trace=True, metrics=True, record=False)
        verify_properties((A | B) >> C, [], self.PROPS, jobs=2, obs=obs)
        spans = obs.tracer.spans
        batch = next(s for s in spans if s.name == "parallel.verify_batch")
        # The span is open from submit to harvest, so it lasts at least as
        # long as the wall time it reports.
        assert batch.duration >= 0.9 * batch.attrs["wall_s"]
        assert batch.attrs["jobs"] == 2
        assert batch.attrs["tasks"] == len(self.PROPS)
        assert batch.attrs["busy_s"] > 0
        workers = [s for s in spans if s.name == "parallel.worker"]
        assert workers
        assert all(s.parent_id == batch.span_id for s in workers)
        gauges = obs.metrics.to_dict()["gauges"]
        assert gauges["parallel.jobs"] == 2
        assert "parallel.speedup" in gauges

    def test_metrics_without_tracing(self):
        from repro.obs import Observability

        obs = Observability.enabled(trace=False, metrics=True, record=False)
        fanned = verify_properties((A | B) >> C, [], self.PROPS, jobs=2,
                                   obs=obs)
        assert fanned == verify_properties((A | B) >> C, [], self.PROPS)
        assert obs.metrics.to_dict()["gauges"]["parallel.jobs"] == 2


class TestCLI:
    SPEC = """
goal: (a + b) * c
property a_first: precedes(a, c)
property never_z: never(z)
property a_happens: happens(a)
"""

    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.workflow"
        path.write_text(self.SPEC)
        return str(path)

    def test_verify_jobs_output_identical(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._spec_file(tmp_path)
        status_seq = main(["verify", spec])
        out_seq = capsys.readouterr().out
        status_par = main(["verify", spec, "--jobs", "2"])
        out_par = capsys.readouterr().out
        assert status_seq == status_par == 1  # a_happens fails
        assert out_seq == out_par

    def test_verify_witness_seed_flag(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._spec_file(tmp_path)
        assert main(["verify", spec, "--witness-seed", "3"]) == 1
        first = capsys.readouterr().out
        assert main(["verify", spec, "--witness-seed", "3", "--jobs", "2"]) == 1
        assert capsys.readouterr().out == first
