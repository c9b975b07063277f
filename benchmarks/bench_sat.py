"""E5: Proposition 4.1 — NP-completeness of verification/consistency.

Two sides of the proposition, and a check of the consistency search:

* **E5a** — hardness: consistency checking solves random 3-SAT near the
  phase transition (clause/variable ratio ≈ 4.3). Median compile time
  grows super-polynomially with the variable count; the reduction uses
  *existence constraints only* ("synchronization per se is not the
  culprit"). The fit stays on the full compile, because the exponent is
  a claim about Apply; the consistency search of
  :func:`repro.core.apply.consistent_branch` is timed beside it, and
  search, compile and brute force must agree on every instance.
* **E5b** — the tractable fragment: with *order constraints only*
  (d = 1), the whole pipeline is polynomial — measured time versus graph
  size fits a low-degree power law.
* **E5c** — the search answers as the compile does: 10,000 seeded specs
  (random goals with ``⊙`` blocks, ``◇`` tests and conditions; random
  constraints, ``∇``/``¬∇`` disjunctions and negations) with zero
  divergence, both for consistency and for the redundancy of one drawn
  constraint.
* **E5d** — the masks only skip work: on E5c's specs, each with and
  without the negation of an order constraint on two of its events (the
  shape :func:`~repro.core.verify.verify_property` compiles),
  :func:`~repro.core.apply.apply_all` returns the very node the unpruned
  walk of ``tests/apply_reference.py`` builds, which rewrites every node
  of the goal for each order constraint.
* **E5e** — one occurrence table answers every event-set question: on
  E5c's specs, the unique-event check, ``event_names``, the possible and
  mandatory events, the guaranteed orderings, the dead activities and the
  full static report, each read off :class:`~repro.ctr.formulas.EventMasks`,
  equal the recursive definitions of ``tests/occurrence_reference.py`` on
  the source, applied and compiled goals; on each source goal with its
  events folded onto fewer names, the check names the event the recursive
  check names.
"""

import random
import statistics

from conftest import save_table, time_best_of

from repro.analysis.metrics import fit_exponential, fit_power_law, render_table
from repro.analysis.sat import brute_force_sat, cnf_to_workflow, random_cnf
from repro.constraints.algebra import absent, disj, must, order
from repro.constraints.normalize import negate
from repro.core.apply import apply_all, consistent_branch
from repro.core.compiler import compile_workflow, expand_goal
from repro.core.excise import excise
from repro.core.sync import TokenFactory
from repro.core.verify import is_consistent, is_redundant
from repro.ctr.formulas import event_names, goal_size
from repro.ctr.simplify import is_failure
from repro.graph.generators import parallel_chains, random_constraints, random_goal
from tests.apply_reference import reference_apply_all
from tests.occurrence_reference import (
    folded,
    goal_mismatches,
    occurrence_mismatches,
    reference_occurring_events,
    unique_verdict,
)


def test_e5a_consistency_solves_3sat(benchmark):
    rows = []
    xs, ys = [], []
    for n_vars in (4, 6, 8, 10, 12):
        n_clauses = round(4.3 * n_vars)
        times = []
        search_times = []
        sat_count = 0
        for seed in range(5):
            cnf = random_cnf(n_vars, n_clauses, seed=seed)
            goal, constraints = cnf_to_workflow(cnf)
            seconds = time_best_of(
                lambda: compile_workflow(goal, constraints).consistent, repeats=1
            )
            times.append(seconds)
            search_times.append(time_best_of(
                lambda: consistent_branch(constraints, goal), repeats=1))
            consistent = compile_workflow(goal, constraints).consistent
            sat_count += consistent
            # Ground truth: the reduction is exact, and the search agrees.
            assert consistent == (brute_force_sat(cnf) is not None)
            assert consistent == (not is_failure(consistent_branch(constraints, goal)))
        median = statistics.median(times)
        rows.append([n_vars, n_clauses, f"{sat_count}/5", median * 1e3,
                     statistics.median(search_times) * 1e3])
        xs.append(float(n_vars))
        ys.append(median)
    base, r2 = fit_exponential(xs, ys)

    cnf = random_cnf(8, 34, seed=0)
    goal, constraints = cnf_to_workflow(cnf)
    benchmark(lambda: compile_workflow(goal, constraints).consistent)

    save_table(
        "E5a_np_hardness",
        render_table(
            "E5a: consistency checking on random 3-SAT (ratio 4.3)",
            ["vars", "clauses", "SAT", "compile median ms", "search median ms"],
            rows,
            note=f"semi-log fit of the compile: time ∝ {base:.2f}^n (r²={r2:.3f}); "
            "existence constraints only, matching Prop 4.1's NP-hardness source. "
            "Search, compile and brute force agree on every instance.",
        ),
    )
    assert base > 1.3, f"expected super-polynomial growth, got base {base}"
    assert ys[-1] > ys[0], "largest instances should dominate"


def test_e5b_order_constraints_are_polynomial(benchmark):
    rows = []
    xs, ys = [], []
    for width in (2, 4, 8, 16, 32):
        goal = parallel_chains(width, 4)
        # One order constraint per chain pair: strictly d = 1 workload.
        constraints = [
            order(f"t{i}_1", f"t{i + 1}_1") for i in range(1, width)
        ]
        seconds = time_best_of(
            lambda: compile_workflow(goal, constraints).consistent, repeats=3
        )
        rows.append([width, goal_size(goal), len(constraints), seconds * 1e3])
        xs.append(float(goal_size(goal)))
        ys.append(seconds)
    exponent, r2 = fit_power_law(xs, ys)

    goal = parallel_chains(8, 4)
    constraints = [order(f"t{i}_1", f"t{i + 1}_1") for i in range(1, 8)]
    benchmark(lambda: compile_workflow(goal, constraints).consistent)

    save_table(
        "E5b_order_polynomial",
        render_table(
            "E5b: consistency with order constraints only (d=1)",
            ["width", "|G|", "N", "time ms"],
            rows,
            note=f"power-law fit: time ∝ |G|^{exponent:.2f} (r²={r2:.3f}); "
            "paper: for order constraints verification is polynomial.",
        ),
    )
    assert exponent < 3.0, f"expected polynomial, got exponent {exponent}"


E5C_SPECS = 10_000


def _e5c_spec(seed):
    """One seeded spec: a random goal and 1–4 constraints over its events."""
    rng = random.Random(seed)
    goal = random_goal(rng.randint(2, 6), rng=rng, p_choice=0.3,
                       p_isolated=0.2, p_possible=0.1, p_condition=0.1)
    events = sorted(event_names(goal)) + ["e_missing"]
    constraints = random_constraints(events, rng.randint(1, 3), rng=rng)
    constraints = [negate(c) if rng.random() < 0.2 else c for c in constraints]
    if rng.random() < 0.6:
        chosen = rng.sample(events, rng.randint(2, min(3, len(events))))
        constraints.append(disj(*(must(e) if rng.random() < 0.5 else absent(e)
                                  for e in chosen)))
    return goal, constraints


def test_e5c_search_matches_the_compile():
    consistent = redundant = 0
    verdict_divergences = redundancy_divergences = 0
    for seed in range(E5C_SPECS):
        goal, constraints = _e5c_spec(seed)
        phi = constraints[seed % len(constraints)]
        rest = list(constraints)
        rest.remove(phi)
        searched = is_consistent(goal, constraints)
        searched_redundant = is_redundant(goal, constraints, phi)
        compiled = compile_workflow(goal, constraints).consistent
        compiled_redundant = not compile_workflow(goal, rest + [negate(phi)]).consistent
        consistent += compiled
        redundant += compiled_redundant
        verdict_divergences += searched != compiled
        redundancy_divergences += searched_redundant != compiled_redundant
    save_table(
        "E5c_search_divergence",
        render_table(
            "E5c: consistency search vs the full compile on seeded specs",
            ["specs", "consistent", "redundant φ", "verdict divergences",
             "redundancy divergences"],
            [[E5C_SPECS, consistent, redundant, verdict_divergences,
              redundancy_divergences]],
            note="goals: random_goal n=2–6 with ⊙ 0.2, ◇ 0.1, conditions 0.1; "
            "constraints: 1–3 random_constraints (20% negated) plus a width-2/3 "
            "∇/¬∇ disjunction in 60% of specs; φ is one of them. The search "
            "answers through is_consistent and is_redundant, the compile "
            "through compile_workflow(...).consistent.",
        ),
    )
    assert verdict_divergences == 0
    assert redundancy_divergences == 0


def test_e5d_apply_is_the_reference_walk():
    applies = failures = order_walks = mismatches = 0
    for seed in range(E5C_SPECS):
        goal, constraints = _e5c_spec(seed)
        goal = expand_goal(goal)
        first, second = random.Random(f"e5d-{seed}").sample(
            sorted(event_names(goal)), 2)
        for spec in (constraints, constraints + [negate(order(first, second))]):
            tokens = TokenFactory()
            applied = apply_all(spec, goal, tokens)
            mismatches += applied is not reference_apply_all(spec, goal, TokenFactory())
            applies += 1
            failures += is_failure(applied)
            # Each order walk mints one token, so the next is xi<walks + 1>.
            order_walks += int(tokens.fresh()[len("xi"):]) - 1
    save_table(
        "E5d_apply_identity",
        render_table(
            "E5d: Apply on the occurrence masks vs the unpruned walk",
            ["specs", "applies", "¬path", "order walks", "mismatches"],
            [[E5C_SPECS, applies, failures, order_walks, mismatches]],
            note="E5c's specs (rule-expanded goals), each alone and with "
            "¬order(α, β) for two of its events; a mismatch is an apply_all "
            "result that is not (by identity) the node of the reference walk, "
            "which rebuilds every node for each order constraint. Order walks "
            "count the tokens apply_all minted.",
        ),
    )
    assert mismatches == 0


def test_e5e_occurrence_table_is_the_recursive_reading():
    goals = violating = mismatches = 0
    for seed in range(E5C_SPECS):
        goal, constraints = _e5c_spec(seed)
        goal = expand_goal(goal)
        applied = apply_all(constraints, goal)
        mismatches += bool(occurrence_mismatches(goal, constraints, applied,
                                                 excise(applied)))
        broken = folded(goal, 1 + seed % 3)
        violating += unique_verdict(reference_occurring_events, broken) is not None
        mismatches += bool(goal_mismatches(broken))
        goals += 4
    save_table(
        "E5e_occurrence_identity",
        render_table(
            "E5e: event sets read off the occurrence table vs the recursive definitions",
            ["specs", "goals", "not unique-event", "mismatches"],
            [[E5C_SPECS, goals, violating, mismatches]],
            note="E5c's specs (rule-expanded goals): the source, applied and "
            "compiled goals of each, and the source with event e<i> renamed "
            "e<(i - 1) % k + 1>, k = 1 + seed % 3. A mismatch is a goal (or "
            "compile, for dead_activities and analyze) where some table-backed "
            "answer differs from tests/occurrence_reference.py; the unique-event "
            "check must also name the same event.",
        ),
    )
    assert mismatches == 0
