"""S2: parallel batch verification, and the search's pruning of d^N.

Workload: the Theorem 5.11 sweep (seven concurrent event pairs plus a
serial pad) under N = 7 width-2 disjunctive order constraints, i.e.
2^7 = 128 pure-conjunctive branches. Three gates:

* **S2a** — *zero divergence*: ``jobs=4`` returns results identical to
  ``jobs=1`` (holds, counterexample, witness) for the whole property
  batch, and the consistency search (``is_consistent``) agrees with the
  monolithic compile on consistent and inconsistent specifications
  alike. Runs on any machine.
* **S2b** — *speedup*: the 16-property batch verifies at least 2× faster
  at ``jobs=4`` than sequentially. Requires ≥4 cores (CI); skipped on
  smaller machines, where there is no parallelism to measure.
* **S2c** — *pruning*: the consistency search decides a consistent
  specification with ∏dᵢ = 128 branches after examining a handful of
  them (at least 100 pruned) — its answer to the Proposition 4.1
  exponent. The spec is S2's goal with each pair made a choice
  ``alt(pᵢ, qᵢ)``, under the seven width-2 constraints
  ``disj(must(pᵢ), absent(qᵢ))``. Branches examined are the Excise
  leaves the search reaches, counted by wrapping the ``excise`` that
  :mod:`repro.core.apply` calls. Runs on any machine (pruning is a
  counter, not a timing).

The sweep is saved machine-readably as ``results/BENCH_parallel.json``
(consumed by CI).
"""

from __future__ import annotations

import json
import math
import os
from unittest import mock

import pytest

from bench_apply_size import _PAIRS, _pair_goal, _width_d_constraint
from conftest import RESULTS_DIR, save_table, time_best_of

import repro.core.apply as apply_module
from repro.analysis.metrics import render_table
from repro.constraints.algebra import absent, disj, must, order
from repro.constraints.normalize import to_dnf
from repro.core.compiler import compile_workflow
from repro.core import parallel
from repro.core.verify import is_consistent, verify_properties
from repro.ctr.formulas import Atom, alt, par, seq

N_CONSTRAINTS = 7  # 2^7 = 128 DNF branches; ISSUE gate wants N >= 6
JOBS_SWEEP = [1, 2, 4]
_RESULTS: dict | None = None


def _workload():
    goal = _pair_goal(7, padding=6)
    constraints = [_width_d_constraint(i, d=2) for i in range(N_CONSTRAINTS)]
    # 16 properties that all hold: each forces the full (inconsistent)
    # G ∧ C ∧ ¬Φ compile, so every batch item is maximal, uniform work.
    props = (
        [disj(order(a, b), order(b, a)) for a, b in _PAIRS[:7]]
        + [must(f"pad{i}") for i in range(6)]
        + [order("pad0", "pad3"), order("pad1", "pad4"), order("pad2", "pad5")]
    )
    return goal, constraints, props


def _choice_workload():
    """S2c's spec: each pair a choice, one width-2 constraint per pair."""
    choices = [alt(Atom(p), Atom(q)) for p, q in _PAIRS[:N_CONSTRAINTS]]
    goal = seq(par(*choices), *(Atom(f"pad{i}") for i in range(6)))
    constraints = [disj(must(p), absent(q)) for p, q in _PAIRS[:N_CONSTRAINTS]]
    return goal, constraints


def _search_leaves(goal, constraints) -> tuple[bool, int]:
    """``is_consistent`` and the number of Excise leaves its search reached."""
    with mock.patch.object(apply_module, "excise",
                           wraps=apply_module.excise) as excise:
        consistent = is_consistent(goal, constraints)
    return consistent, excise.call_count


def _measure() -> dict:
    global _RESULTS
    if _RESULTS is not None:
        return _RESULTS

    goal, constraints, props = _workload()

    # --- divergence: jobs=4 must reproduce the sequential batch exactly.
    sequential = verify_properties(goal, constraints, props, jobs=1)
    fanned = verify_properties(goal, constraints, props, jobs=4)
    identical = sequential == fanned

    impossible = constraints + [must("nonexistent")]
    probe_agrees = (
        is_consistent(goal, constraints)
        and compile_workflow(goal, constraints).consistent
        and not is_consistent(goal, impossible)
        and not compile_workflow(goal, impossible).consistent
    )

    # --- timing sweep over the jobs knob (pool pre-warmed per size so the
    # one-time fork cost is not billed to the measured batch: a batch of
    # `jobs` properties starts the pool, where one property would run
    # sequentially).
    sweep = []
    base_s = None
    for jobs in JOBS_SWEEP:
        verify_properties(goal, constraints, props[:jobs], jobs=jobs)
        assert jobs == 1 or parallel._pool is not None, "warm-up left no pool"
        batch_s = time_best_of(
            lambda jobs=jobs: verify_properties(goal, constraints, props,
                                                jobs=jobs),
            repeats=3,
        )
        if base_s is None:
            base_s = batch_s
        sweep.append({
            "jobs": jobs,
            "batch_s": round(batch_s, 6),
            "speedup": round(base_s / batch_s, 2),
        })
    parallel.shutdown_pool()

    # --- pruning: the search settles the consistent choice spec on a few
    # of its 128 branches.
    choice_goal, choice_constraints = _choice_workload()
    consistent, leaves = _search_leaves(choice_goal, choice_constraints)
    branches = math.prod(to_dnf(c).width for c in choice_constraints)
    search = {
        "branches_total": branches,
        "examined": leaves,
        "pruned": branches - leaves,
        "consistent": consistent,
    }

    speedup_at_4 = sweep[-1]["speedup"]
    _RESULTS = {
        "benchmark": "parallel",
        "workload": (
            f"7 concurrent event pairs + 6-event serial pad; "
            f"{N_CONSTRAINTS} width-2 disjunctive order constraints "
            f"(2^{N_CONSTRAINTS} = {2 ** N_CONSTRAINTS} DNF branches); "
            f"{len(props)}-property batch"
        ),
        "cpu_count": os.cpu_count(),
        "properties": len(props),
        "sweep": sweep,
        "search": search,
        "divergence": {
            "properties_checked": len(props),
            "batch_identical": identical,
            "probe_agrees": probe_agrees,
        },
        "gates": {
            "zero_divergence": identical and probe_agrees,
            "speedup_2x_at_4": (
                speedup_at_4 >= 2.0 if (os.cpu_count() or 1) >= 4 else None
            ),
            "search_prunes": consistent and search["pruned"] >= 100,
        },
    }
    return _RESULTS


def test_s2a_zero_divergence(benchmark):
    results = _measure()
    assert results["divergence"]["batch_identical"], (
        "jobs=4 returned a different VerificationResult batch than jobs=1"
    )
    assert results["divergence"]["probe_agrees"], (
        "the consistency search disagrees with the monolithic compile"
    )

    goal, constraints, props = _workload()
    benchmark(lambda: verify_properties(goal, constraints, props[:2]))

    rows = [[r["jobs"], round(r["batch_s"] * 1e3, 1), r["speedup"]]
            for r in results["sweep"]]
    save_table(
        "S2_parallel",
        render_table(
            "S2: batch verification wall time vs jobs "
            f"({results['properties']} properties, "
            f"2^{N_CONSTRAINTS} DNF branches)",
            ["jobs", "batch ms", "speedup"],
            rows,
            note=f"cpu_count={results['cpu_count']}; the consistency search "
            f"examined {results['search']['examined']}/"
            f"{results['search']['branches_total']} branches on the "
            "consistent choice spec. Proposition 4.1 puts the exponent in "
            "N; the search prunes it, and the batch fan-out buys back a "
            "core-count factor across properties.",
        ),
    )


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup gate needs >=4 cores (measured in CI)")
def test_s2b_speedup_2x_at_jobs4():
    results = _measure()
    at4 = next(r for r in results["sweep"] if r["jobs"] == 4)
    assert at4["speedup"] >= 2.0, (
        f"expected >=2x speedup at jobs=4, got {at4['speedup']:.2f}x "
        f"(sequential {results['sweep'][0]['batch_s']:.3f}s, "
        f"jobs=4 {at4['batch_s']:.3f}s)"
    )


def test_s2c_search_prunes_the_branch_space():
    results = _measure()
    search = results["search"]
    assert search["consistent"], "the choice spec is consistent"
    # A consistent answer comes from a surviving leaf, so a count of 0
    # means the wrapped excise was not the one the search calls.
    assert search["examined"] >= 1, "no Excise leaf was counted"
    assert search["examined"] < search["branches_total"]
    assert search["pruned"] >= 100, (
        f"expected >=100 of {search['branches_total']} branches pruned, "
        f"got {search['pruned']}"
    )


def test_s2d_emit_json():
    results = _measure()
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_parallel.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
