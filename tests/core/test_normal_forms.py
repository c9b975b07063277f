"""Apply and Excise build only normal forms.

The smart constructors ``seq``, ``par``, ``alt``, ``isolated`` and
``possible`` return a normal form on normal parts, and ``simplify`` is
their bottom-up fold. Apply folds the goal it is handed once and then
builds only with the constructors, and Excise takes a normal form and
does the same, so ``simplify`` returns either output as is. That is also
what lets a compiled prefix carry on node for node (Definition 5.5):
``Apply(¬Φ, Apply(C, G))`` with the prefix's token factory is
``Apply(C ∪ {¬Φ}, G)``.
"""

import random

from repro.constraints.algebra import order
from repro.constraints.normalize import negate
from repro.core.apply import apply_all
from repro.core.compiler import compile_workflow, expand_goal
from repro.core.excise import excise
from repro.core.sync import TokenFactory, sync_order
from repro.ctr.formulas import Isolated, Receive, Send, alt, atoms, event_names, par, seq
from repro.ctr.kernel import lower_goal
from repro.ctr.simplify import simplify
from repro.graph.generators import random_constraints, random_goal

SEEDS = range(1000)


def _spec(seed):
    """``(G, C, Φ)``: a rule-expanded goal with ``⊙``, ``◇`` and conditions
    by seed, and 2–4 constraints drawn after it, the last of them Φ."""
    rng = random.Random(seed)
    goal = expand_goal(random_goal(
        3 + seed % 6,
        rng=rng,
        p_choice=0.3,
        p_parallel=0.35,
        p_isolated=(0, 0.3, 0.6)[seed % 3],
        p_possible=0.2 if seed % 4 == 0 else 0,
        p_condition=0.2 if seed % 5 == 0 else 0,
    ))
    constraints = random_constraints(sorted(event_names(goal)), rng.randint(2, 4), rng=rng)
    return goal, constraints[:-1], constraints[-1]


def test_apply_and_excise_return_their_own_normal_form():
    not_normal = []
    for seed in SEEDS:
        goal, constraints, _ = _spec(seed)
        applied = apply_all(constraints, goal)
        # A token that crosses nested choices sends Excise down its local,
        # entangled and hoisting paths, which Apply's output rarely does.
        first, second = random.Random(seed).sample(sorted(event_names(goal)), 2)
        crossing = sync_order(first, second, goal, "t")
        for built in (applied, excise(applied), excise(crossing)):
            if simplify(built) is not built:
                not_normal.append(seed)
    assert not_normal == []


def test_negated_property_continues_the_compiled_prefix():
    differing = []
    for seed in SEEDS:
        goal, constraints, phi = _spec(seed)
        tokens = TokenFactory()
        continued = apply_all([negate(phi)], apply_all(constraints, goal, tokens), tokens)
        if continued is not apply_all(constraints + [negate(phi)], goal, TokenFactory()):
            differing.append(seed)
    assert differing == []


def test_block_narrowed_to_one_event_collapses_before_the_order_rewrite():
    # Apply(∇b) narrows ⊙(a ∨ b) to ⊙b, which is b itself, so order(c, b)
    # rewrites a bare b; the trace set is the same either way.
    a, b, c = atoms("a b c")
    compiled = compile_workflow(par(Isolated(alt(a, b)), c), [order("c", "b")])
    assert compiled.goal is par(seq(Receive("xi1"), b), seq(c, Send("xi1")))
    assert lower_goal(compiled.goal).traces() == {("c", "b")}
