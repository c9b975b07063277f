"""Tests for the parallel verification layer (DNF disjunct fan-out).

The contract under test: ``jobs=N`` answers exactly what ``jobs=1``
answers — identical consistency booleans, identical
:class:`~repro.core.verify.VerificationResult`s (holds, counterexample
goal, witness), identical redundancy listings — while the fan-out
machinery (chunking, early-exit cancellation, shared compile cache,
pool reuse) stays an implementation detail.
"""

import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.algebra import absent, conj, disj, must, order
from repro.core.compiler import CompileCache, compile_workflow
from repro.core.parallel import (
    check_consistency,
    compile_parallel,
    resolve_jobs,
    verify_property_parallel,
)
from repro.core.verify import (
    is_consistent,
    is_redundant,
    redundant_constraints,
    verify_properties,
    verify_property,
)
from repro.ctr.formulas import Atom, alt, atoms, par, seq, walk
from repro.ctr.traces import traces
from repro.workflows.figure1 import figure1_constraints, figure1_goal
from tests.conftest import constraints_over, unique_event_goals

A, B, C, D = atoms("a b c d")

# A small corpus spanning the interesting shapes: pure order, disjunctive,
# inconsistent, choice-heavy, and the paper's Figure 1 workflow.
CORPUS = [
    ((A | B) >> C, [order("a", "c")]),
    ((A | B) >> C, [disj(order("a", "c"), order("b", "c"))]),
    (alt(A, B) >> C, [disj(must("a"), must("b")), must("c")]),
    (alt(A >> B, C >> D), [conj(must("a"), must("b"))]),
    (A | B, [order("a", "b"), order("b", "a")]),  # inconsistent
    (seq(A, alt(B, C)), [disj(absent("b"), absent("c"))]),
    (figure1_goal(), figure1_constraints()),
]


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

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_env_tolerates_whitespace(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", " 4 ")
        assert resolve_jobs(None) == 4
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert resolve_jobs(None) == 1

    def test_env_negative_clamps_and_warns_once(self, monkeypatch):
        from repro.core import parallel as parallel_module

        monkeypatch.setattr(parallel_module, "_warned_jobs_values", set())
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS='-2'"):
            assert resolve_jobs(None) == 1
        # The warning fires once per distinct value, not once per call.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs(None) == 1

    def test_env_non_integer_clamps_and_warns_once(self, monkeypatch):
        from repro.core import parallel as parallel_module

        monkeypatch.setattr(parallel_module, "_warned_jobs_values", set())
        monkeypatch.setenv("REPRO_JOBS", "all")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert resolve_jobs(None) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs(None) == 1


class TestConsistencyFanout:
    @pytest.mark.parametrize("goal,constraints", CORPUS)
    def test_sequential_probe_matches_full_compile(self, goal, constraints):
        expected = compile_workflow(goal, constraints).consistent
        assert check_consistency(goal, constraints, jobs=1).consistent == expected

    @pytest.mark.parametrize("goal,constraints", CORPUS)
    def test_parallel_probe_matches_full_compile(self, goal, constraints):
        expected = compile_workflow(goal, constraints).consistent
        assert check_consistency(goal, constraints, jobs=2).consistent == expected

    def test_is_consistent_jobs_knob(self):
        for goal, constraints in CORPUS:
            assert is_consistent(goal, constraints) == is_consistent(
                goal, constraints, jobs=2
            )

    def test_early_exit_prunes_branches(self):
        # First branch (∇a) is already consistent: the remaining branch is
        # never compiled at jobs=1, and the stats say so.
        outcome = check_consistency(A >> B, [disj(must("a"), must("b"))], jobs=1)
        assert outcome.consistent
        assert outcome.branch_index == 0
        assert outcome.stats.examined == 1
        assert outcome.stats.pruned == 1
        assert outcome.stats.early_exit

    def test_inconsistent_probe_examines_everything(self):
        constraints = [disj(must("z"), must("y")), must("a")]
        outcome = check_consistency(A >> B, constraints, jobs=1)
        assert not outcome.consistent
        assert outcome.branch_index is None
        assert outcome.stats.examined == outcome.stats.disjuncts_total == 2
        assert not outcome.stats.early_exit

    def test_parallel_outcome_reports_workers_and_chunks(self):
        constraints = [disj(order("a", "c"), order("b", "c")),
                       disj(must("c"), absent("z"))]
        outcome = check_consistency((A | B) >> C, constraints, jobs=2,
                                    chunk_size=1)
        assert outcome.consistent
        assert outcome.stats.chunks >= 2
        assert outcome.stats.workers  # at least one worker pid reported

    def test_shared_cache_warms_per_branch(self, tmp_path):
        cache_dir = tmp_path / "shared"
        constraints = [disj(must("z"), must("y"))]  # both branches compiled
        check_consistency(A >> B, constraints, jobs=2, cache=cache_dir)
        warm = CompileCache(cache_dir)
        outcome = check_consistency(A >> B, constraints, jobs=1, cache=warm)
        assert not outcome.consistent
        assert warm.hits == 2  # one per disjunct

    def test_obs_counters_recorded(self):
        from repro.obs import Observability

        obs = Observability.enabled(trace=True, metrics=True, record=False)
        check_consistency(A >> B, [disj(must("a"), must("b"))], jobs=1, obs=obs)
        metrics = obs.metrics.to_dict()
        assert metrics["counters"]["parallel.disjuncts_total"] == 2
        assert metrics["counters"]["parallel.disjuncts_pruned"] == 1
        assert metrics["counters"]["parallel.early_exit"] == 1
        assert metrics["gauges"]["parallel.jobs"] == 1
        assert any(span.name == "parallel.consistency"
                   for span in obs.tracer.spans)


class TestVerificationParity:
    PROPS = [order("a", "c"), must("c"), absent("z"), order("c", "a")]

    def test_single_property_identical_results(self):
        goal = (A | B) >> C
        for prop in self.PROPS:
            sequential = verify_property(goal, [], prop)
            fanned = verify_property(goal, [], prop, jobs=2)
            assert sequential == fanned
            # Counterexample goals re-intern across the process boundary:
            # not merely equal but the same canonical object.
            assert sequential.counterexample is fanned.counterexample
            assert sequential.witness == fanned.witness

    def test_failing_property_counterexample_is_canonical(self):
        goal = alt(A, B) >> C
        sequential = verify_property(goal, [], must("a"))
        fanned = verify_property_parallel(goal, [], must("a"), jobs=2)
        assert not sequential.holds and not fanned.holds
        assert sequential.counterexample is fanned.counterexample
        assert sequential.witness == fanned.witness

    def test_batch_matches_sequential_in_order(self):
        goal = (A | B) >> C
        sequential = verify_properties(goal, [], self.PROPS)
        fanned = verify_properties(goal, [], self.PROPS, jobs=2)
        assert sequential == fanned
        assert [r.property for r in fanned] == self.PROPS

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
        verify_properties(goal, [], self.PROPS, jobs=2,
                          cache=tmp_path / "cache")
        warm = CompileCache(tmp_path / "cache")
        verify_properties(goal, [], self.PROPS, jobs=1, cache=warm)
        assert warm.hits == len(self.PROPS)

    def test_redundancy_parity(self):
        goal = (A | B) >> C
        constraints = [order("a", "c"), conj(must("a"), must("c")),
                       disj(order("a", "c"), order("b", "c"))]
        assert redundant_constraints(goal, constraints) == \
            redundant_constraints(goal, constraints, jobs=2)

    def test_is_redundant_jobs_knob(self):
        goal = (A | B) >> C
        constraints = [order("a", "c"), conj(must("a"), must("c"))]
        for phi in constraints:
            assert is_redundant(goal, constraints, phi) == \
                is_redundant(goal, constraints, phi, jobs=2)


class TestSeededWitness:
    def test_seed_is_reproducible_across_jobs_and_reruns(self):
        goal = alt(seq(A, B), seq(B, A), seq(C, A))
        prop = order("a", "b")
        results = [
            verify_property(goal, [], prop, seed=99),
            verify_property(goal, [], prop, seed=99),
            verify_property(goal, [], prop, seed=99, jobs=2),
        ]
        assert not results[0].holds
        assert results[0].witness == results[1].witness == results[2].witness

    def test_seeded_witness_is_a_real_violation(self):
        from repro.constraints.satisfy import satisfies

        goal = alt(seq(A, B), seq(B, A))
        prop = order("a", "b")
        result = verify_property(goal, [], prop, seed=7)
        assert result.witness in traces(goal)
        assert not satisfies(result.witness, prop)

    def test_default_stays_lexicographic_minimum(self):
        goal = alt(seq(A, B), seq(B, A))
        unseeded = verify_property(goal, [], order("a", "b"))
        assert unseeded.witness == ("b", "a")


class TestParallelCompile:
    @pytest.mark.parametrize("goal,constraints", CORPUS)
    def test_trace_equivalent_to_sequential(self, goal, constraints):
        sequential = compile_workflow(goal, constraints)
        assembled = compile_parallel(goal, constraints, jobs=2)
        assert assembled.consistent == sequential.consistent
        if sequential.consistent:
            assert traces(assembled.goal) == traces(sequential.goal)

    def test_assembly_is_deterministic(self):
        constraints = [disj(order("a", "c"), order("b", "c"))]
        one = compile_parallel((A | B) >> C, constraints, jobs=2)
        two = compile_parallel((A | B) >> C, constraints, jobs=2)
        assert one.goal is two.goal

    def test_compile_workflow_jobs_knob_routes_here(self):
        constraints = [disj(order("a", "c"), order("b", "c"))]
        via_knob = compile_workflow((A | B) >> C, constraints, jobs=2)
        direct = compile_parallel((A | B) >> C, constraints, jobs=2)
        assert via_knob.goal is direct.goal

    def test_scheduler_runs_on_assembled_goal(self):
        constraints = [disj(order("a", "c"), order("b", "c")), must("c")]
        assembled = compile_parallel((A | B) >> C, constraints, jobs=2)
        schedule = assembled.scheduler().run()
        assert schedule in traces(assembled.source)

    def test_inconsistent_assembles_to_neg_path(self):
        assembled = compile_parallel(A | B, [order("a", "b"), order("b", "a")],
                                     jobs=2)
        assert not assembled.consistent


class TestHypothesisParity:
    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_branch_decomposition_equals_direct_consistency(self, goal, data):
        from repro.constraints.normalize import split_disjuncts
        from repro.ctr.formulas import event_names

        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        split = split_disjuncts([constraint])
        by_branches = any(
            compile_workflow(goal, list(branch)).consistent
            for branch in split.branches()
        )
        assert by_branches == is_consistent(goal, [constraint])

    @settings(max_examples=10, deadline=None)
    @given(unique_event_goals(max_events=3), st.data())
    def test_jobs4_consistency_matches_jobs1(self, goal, data):
        from repro.ctr.formulas import event_names

        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        assert check_consistency(goal, [constraint], jobs=4).consistent == \
            check_consistency(goal, [constraint], jobs=1).consistent


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

    def test_repro_jobs_env_is_the_default(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_JOBS", "2")
        spec = self._spec_file(tmp_path)
        assert main(["verify", spec]) == 1
        out_env = capsys.readouterr().out
        monkeypatch.delenv("REPRO_JOBS")
        assert main(["verify", spec]) == 1
        assert capsys.readouterr().out == out_env
