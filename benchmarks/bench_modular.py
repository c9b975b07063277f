"""Ablation: sub-workflow-scoped compilation (Section 7) vs monolithic Apply.

The paper's claim: when dependencies do not span sub-workflow boundaries
and M is the largest number of dependencies in a sub-workflow, the
compiled size drops from O(d^N · |G|) to O(d^M · |G|). The workload has k
sub-workflows, each carrying one width-2 local constraint (so N = k
monolithically, M = 1 per scope); the compiled-size ratio between the two
strategies should grow like 2^k / k.
"""

from conftest import save_table, time_best_of

from repro.analysis.metrics import fit_exponential, render_table
from repro.constraints.algebra import disj, order
from repro.core.compiler import compile_workflow
from repro.core.modular import compile_modular
from repro.ctr.formulas import Atom, goal_size, seq
from repro.ctr.machine import machine_traces
from repro.ctr.rules import Rule, RuleBase


def _workload(n_subs: int):
    rules = RuleBase()
    goal_parts = []
    scoped = {}
    flat = []
    for i in range(n_subs):
        head = f"sub{i}"
        rules.add(Rule(head, Atom(f"x{i}") | Atom(f"y{i}")))
        goal_parts.append(Atom(head))
        constraint = disj(order(f"x{i}", f"y{i}"), order(f"y{i}", f"x{i}"))
        scoped[head] = [constraint]
        flat.append(constraint)
    return seq(*goal_parts), rules, scoped, flat


def test_ablation_modular_vs_monolithic(benchmark):
    rows = []
    ratios = []
    for n_subs in (1, 2, 3, 4, 5, 6):
        goal, rules, scoped, flat = _workload(n_subs)
        modular = compile_modular(goal, rules, scoped)
        monolithic = compile_workflow(goal, flat, rules=rules)
        if n_subs <= 4:  # exact trace comparison stays tractable here
            assert machine_traces(modular.goal) == machine_traces(monolithic.goal)

        modular_ms = time_best_of(
            lambda: compile_modular(goal, rules, scoped), repeats=3
        ) * 1e3
        mono_ms = time_best_of(
            lambda: compile_workflow(goal, flat, rules=rules), repeats=3
        ) * 1e3
        m_size = goal_size(modular.goal)
        g_size = goal_size(monolithic.goal)
        rows.append([n_subs, m_size, g_size, g_size / m_size, modular_ms, mono_ms])
        ratios.append(float(g_size) / m_size)

    base, r2 = fit_exponential([float(n) for n in range(1, 7)], ratios)

    goal, rules, scoped, _flat = _workload(4)
    benchmark(lambda: compile_modular(goal, rules, scoped))

    save_table(
        "E9_modular_ablation",
        render_table(
            "E9 (ablation): scoped vs monolithic compilation, k width-2 scopes",
            ["k scopes", "modular size", "monolithic size", "ratio",
             "modular ms", "monolithic ms"],
            rows,
            note=f"size ratio ∝ {base:.2f}^k (r²={r2:.3f}); Section 7: scoping "
            "confines the d^N blow-up to d^M per sub-workflow.",
        ),
    )
    assert ratios[-1] > ratios[0], "scoping should pay off more with more scopes"
    assert base > 1.4, f"expected exponential separation, got base {base:.2f}"
