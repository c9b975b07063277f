"""E4: Theorem 5.11(2) — Excise runs in time proportional to |Apply(C, G)|.

The sweep grows the compiled goal two ways — larger graphs at fixed
constraints, and more width-2 constraints over a fixed graph (which grows
the output exponentially) — and regresses Excise wall-time against the
size of its input. The paper claims proportionality, i.e. a power-law
exponent ≈ 1 of time versus |Apply(C, G)|. Excise summarises each
distinct (hash-consed) node once and builds each choice-free check's
precedence graph from its token skeleton (its sends and receives and the
``⊙`` blocks around them), so its time may grow slower than the tree
measure; the graph-nodes column (``ExciseStats.graph_nodes``) counts the
graph nodes the pass built.
"""

from conftest import save_table, time_best_of

from repro.analysis.metrics import fit_power_law, render_table
from repro.constraints.algebra import disj, order
from repro.core.apply import apply_all
from repro.core.excise import ExciseStats, excise
from repro.ctr.formulas import event_names as _names
from repro.ctr.formulas import goal_size
from repro.graph.generators import random_goal


def _workloads():
    """(label, applied_goal) pairs spanning two orders of magnitude of size."""
    out = []
    # Graph-size driven growth (d = 1).
    for n in (40, 80, 160, 320, 640):
        goal = random_goal(n, seed=5, p_choice=0.0)
        events = sorted(_names(goal))
        constraints = [order(events[0], events[-1]), order(events[2], events[-3])]
        out.append((f"graph n={n}", apply_all(constraints, goal)))
    # Constraint-count driven growth (d = 2): output doubles per constraint.
    from repro.ctr.formulas import Atom, par, seq

    for n_constraints in (2, 4, 6, 8):
        pairs = [(f"p{i}", f"q{i}") for i in range(n_constraints)]
        goal = seq(par(*(Atom(e) for pair in pairs for e in pair)), Atom("pad"))
        constraints = [disj(order(a, b), order(b, a)) for a, b in pairs]
        out.append((f"width-2 N={n_constraints}", apply_all(constraints, goal)))
    return out


def test_e4_excise_time_proportional_to_apply_size(benchmark):
    rows = []
    xs, ys = [], []
    for label, applied in _workloads():
        size = goal_size(applied)
        stats = ExciseStats()
        excise(applied, stats)
        seconds = time_best_of(lambda: excise(applied), repeats=3)
        rows.append([label, size, stats.graph_nodes, seconds * 1e3])
        xs.append(float(size))
        ys.append(seconds)
    exponent, r2 = fit_power_law(xs, ys)

    representative = _workloads()[3][1]
    benchmark(lambda: excise(representative))

    save_table(
        "E4_excise_time",
        render_table(
            "E4: Excise wall-time vs |Apply(C,G)|",
            ["workload", "|Apply(C,G)|", "graph nodes", "excise ms"],
            rows,
            note=f"power-law fit: time ∝ size^{exponent:.3f} (r²={r2:.4f}); "
            "paper: Excise time is proportional to the size of Apply(C,G).",
        ),
    )
    assert 0.7 < exponent < 1.6, f"expected ~proportional, got exponent {exponent}"
