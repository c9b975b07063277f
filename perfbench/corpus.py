"""Seeded inputs for the four workloads.

A seed changes names, variable labels, polarities and op order; it never
changes the *shape* of a corpus (instance sizes, constraint counts,
request mix), so a second seed gives the same size distribution and the
same amount of work to within the run-to-run spread.  That is what lets a
claim be re-checked on a seed held out while the change was written.

Every generator here returns its corpus in a fixed *base order*, the same
shapes at the same positions for every seed: set-up warms up on the first
items of it, so a seed does not change the warm-up work either.
:func:`pass_order` gives the order in which a pass runs them.

Every generator here is the benchmark's own code: the program under test
receives only what these functions build.
"""

from __future__ import annotations

import itertools
import random
import re
import string


def pass_order(items: list, seed: int) -> list:
    """``items`` in the order one pass runs them under ``seed``."""
    out = list(items)
    random.Random(f"order-{seed}").shuffle(out)
    return out

# -- sat_consistency: Proposition 4.1 ------------------------------------------

#: Per variable count, how many satisfiable and unsatisfiable instances
#: one pass holds.  Every corpus item runs once per pass, so with 35 items
#: p50 and p90 land mid-way through one item's samples rather than on the
#: edge between two (with 36 items, p50 moved 6% between seeds); 5, 15,
#: 25 and 35 items all have this property.
SAT_PER_SIZE = {6: (8, 4), 7: (8, 4), 8: (7, 4)}
SAT_CLAUSES_PER_VAR = 4.26

#: Seed of the base instances.  Random 3-CNFs of one size differ 2-3x
#: in compile cost, so fresh instances per workload seed would make the
#: corpus the largest source of run-to-run spread; a workload seed instead
#: permutes variables and flips polarities of these fixed base instances,
#: which changes every event name and choice but not the work.
SAT_BASE_SEED = 4100


def _satisfiable(n_vars: int, clauses: list[tuple[int, ...]]) -> bool:
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
               for clause in clauses):
            return True
    return False


def _sat_base() -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
    rng = random.Random(SAT_BASE_SEED)
    out = []
    for n_vars, (satisfiable, unsatisfiable) in SAT_PER_SIZE.items():
        n_clauses = round(SAT_CLAUSES_PER_VAR * n_vars)
        wanted = {True: satisfiable, False: unsatisfiable}
        while wanted[True] or wanted[False]:
            clauses = [
                tuple(v if rng.random() < 0.5 else -v
                      for v in rng.sample(range(1, n_vars + 1), 3))
                for _ in range(n_clauses)
            ]
            verdict = _satisfiable(n_vars, clauses)
            if wanted[verdict]:
                wanted[verdict] -= 1
                out.append((n_vars, tuple(clauses)))
    return out


def sat_corpus(seed: int) -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
    """``(n_vars, clauses)`` 3-CNF instances near the satisfiability threshold."""
    rng = random.Random(f"sat-{seed}")
    out = []
    for n_vars, clauses in _sat_base():
        order = list(range(1, n_vars + 1))
        rng.shuffle(order)
        flip = {v: rng.random() < 0.5 for v in order}
        rename = {v: (-1 if flip[v] else 1) * order[v - 1]
                  for v in range(1, n_vars + 1)}
        out.append((n_vars, tuple(
            tuple((1 if lit > 0 else -1) * rename[abs(lit)] for lit in clause)
            for clause in clauses)))
    return out


# -- counterexample: Theorem 5.9 ---------------------------------------------

#: ``(pairs, constraints, property kind)`` of one pass; each entry gets its
#: own fixed name order.  At 7 pairs one object-backend witness takes
#: seconds, so instances stay small.  25 entries, for the reason given at
#: ``SAT_PER_SIZE`` (with 20, p90 moved 12% between seeds).
CX_SHAPES = tuple(
    (pairs, n_constraints, ("order", "klein_order")[variant % 2])
    for pairs, n_constraints in ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1))
    for variant in range(5)
)
CX_PAD = 4

#: Seed of the fixed name order of each shape (see :func:`_names`).
CX_ORDER_SEED = 5900


def _names(rng: random.Random, count: int, ranks=None) -> list[str]:
    """``count`` event names under one random prefix.

    The default witness strategy fires the lexicographically smallest
    eligible event, so the relative order of names decides which path a
    witness takes and how much work it costs (with random names the
    counterexample p90 was 62 ms on one seed and 251 ms on another).  The
    order is therefore fixed by ``ranks`` (structural order by default)
    and a seed only renames.
    """
    prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
    ranks = range(count) if ranks is None else ranks
    return [f"{prefix}{rank:03d}" for rank in ranks]


def cx_corpus(seed: int) -> list[dict]:
    """E3b-shaped goals, each with a property that fails.

    The goal is ``(p1 | q1 | … | pk | qk) ⊗ pad1 ⊗ … ⊗ pad4``; the
    constraints are width-2 order disjunctions ``p⊗q ∨ q⊗p`` on the first
    pairs, and the property orders the next pair, which no constraint
    mentions, so every goal has a counterexample.
    """
    rng = random.Random(f"cx-{seed}")
    out = []
    for shape, (pairs, n_constraints, kind) in enumerate(CX_SHAPES):
        count = 2 * pairs + CX_PAD
        ranks = random.Random(f"{CX_ORDER_SEED}-{shape}").sample(
            range(count), count)
        names = _names(rng, count, ranks)
        events, pad = names[:2 * pairs], names[2 * pairs:]
        pair_list = [tuple(events[2 * i:2 * i + 2]) for i in range(pairs)]
        out.append({
            "events": events,
            "pad": pad,
            "constraints": [("either_order", p, q)
                            for p, q in pair_list[:n_constraints]],
            "property": (kind,) + pair_list[n_constraints],
        })
    return out


# -- batch_fanout: core.parallel ---------------------------------------------

#: Per batch goal: concurrent pair blocks in series, then a serial pad.
#: Five batches per pass, for the reason given at ``SAT_PER_SIZE``.
#: Eight properties keep a batch near 250 ms, so a 24-s run has about a
#: hundred batches, about ten of them past p90; 16-property batches of
#: ~600 ms left four past p90, whose spread was 9.6% over ten seeds.
BATCH_GOALS = 5
BATCH_BLOCKS = 4
BATCH_BLOCK_PAIRS = 2
BATCH_PAD = 40
BATCH_PROPS = 8

#: Seed of the batches' structure: which pad events the pad orders name
#: and the order of properties in a batch, which sets how the pool's two
#: workers share it.  Drawn per workload seed, these moved batch
#: throughput by 24% between two seeds.
BATCH_ORDER_SEED = 7300


def batch_corpus(seed: int) -> list[dict]:
    """Goals whose pickles take about a kilobyte, with 8-property batches.

    Each goal is ``block1 ⊗ … ⊗ block4 ⊗ pad``, a block being two
    concurrent pairs; the first pair of every block is constrained to
    ``p⊗q ∨ q⊗p``.  Half of each batch holds (pad orders, and the
    constraint itself), half fails (free-pair orders, reversed pad orders).
    A seed renames the events.
    """
    rng = random.Random(f"batch-{seed}")
    block_size = 2 * BATCH_BLOCK_PAIRS
    out = []
    for goal in range(BATCH_GOALS):
        shape = random.Random(f"{BATCH_ORDER_SEED}-{goal}")
        names = _names(rng, BATCH_BLOCKS * block_size + BATCH_PAD)
        blocks = []
        for b in range(BATCH_BLOCKS):
            block = names[b * block_size:(b + 1) * block_size]
            blocks.append([tuple(block[2 * i:2 * i + 2])
                           for i in range(BATCH_BLOCK_PAIRS)])
        pad = names[BATCH_BLOCKS * block_size:]
        constraints = [("either_order",) + block[0] for block in blocks]
        props = []
        for i in range(BATCH_PROPS // 4):
            block = blocks[i % BATCH_BLOCKS]
            a, b = sorted(shape.sample(range(BATCH_PAD), 2))
            props.append(("order", pad[a], pad[b]))              # holds
            props.append(("either_order",) + block[0])           # holds
            props.append(("order",) + block[1])                  # fails
            props.append(("order", pad[b], pad[a]))              # fails
        shape.shuffle(props)
        out.append({"blocks": blocks, "pad": pad,
                    "constraints": constraints, "properties": props})
    return out


# -- serve_rw: the six paper workflows -----------------------------------------

#: The two shipped ``examples/specs`` files, verbatim, and the other four
#: paper workflows as spec text: goals are ``ctr.pretty.pretty`` of the
#: library goals (they round-trip through ``parse_goal``), constraints are
#: written in CONSTR text by hand.
SPECS = {
    "claims": """\
# Insurance claim handling (see repro.workflows.claims for the library version)
goal: register * (verify_policy | appraise * (inspect_site + skip_inspection) | (flag_fraud + clear_claim)) * ([authorize_payment * transfer_funds] + deny * send_denial_letter * ((appeal * senior_review) + close))

constraint: never(authorize_payment) or precedes(verify_policy, authorize_payment)
constraint: never(authorize_payment) or precedes(appraise, authorize_payment)
constraint: never(flag_fraud) or never(authorize_payment)
constraint: never(flag_fraud) or precedes(flag_fraud, deny)
constraint: never(inspect_site) or precedes(appraise, inspect_site)

property fraud_never_paid: never(flag_fraud) or never(transfer_funds)
property always_resolved: happens(transfer_funds) or happens(deny)
property everyone_gets_paid: happens(transfer_funds)
""",
    "orders": """\
# Order processing: concurrent checks, then a decision.
goal: receive * (credit_check | stock_check) * (approve + reject) * archive

rule archive_nothing: ()

constraint: precedes(credit_check, approve) or never(approve)
constraint: never(fraud)

property decision_made: happens(approve) or happens(reject)
property credit_first_when_approving: never(approve) or precedes(credit_check, approve)
property always_approves: happens(approve)
""",
    "figure1": """\
# Figure 1 of the paper, with its Klein order and existence constraints.
goal: a * (cond1? * b * (e + d * cond3? * h) * j | cond2? * c * (g * cond5? + f * i * cond4?)) * k

constraint: never(d) or never(g) or precedes(d, g)
constraint: never(f) or happens(h)

property always_ends: happens(k)
property d_before_g: never(d) or never(g) or precedes(d, g)
property h_always: happens(h)
""",
    "trip": """\
# Trip planning, the motivating workflow of the introduction.
goal: plan * ((search_flights * reserve_flight * issue_ticket + book_train) | book_hotel * (upgrade_refundable + keep_fare) | (rent_car + skip_car)) * [charge_card * issue_voucher] * confirm

constraint: never(charge_card) or precedes(book_hotel, charge_card)
constraint: never(rent_car) or happens(reserve_flight)
constraint: never(rent_car) or precedes(reserve_flight, rent_car)
constraint: never(upgrade_refundable) or never(book_train)
constraint: never(issue_ticket) or precedes(issue_ticket, charge_card)

property hotel_before_charge: never(charge_card) or precedes(book_hotel, charge_card)
property always_flies: happens(reserve_flight)
property confirmed_after_charge: precedes(charge_card, confirm)
""",
    "registration": """\
# Student registration, with sub-workflow rules.
goal: advising * (enrollment | funding) * finalize

rule advising: meet_advisor * sign_plan
rule enrollment: pick_courses * enroll_online
rule enrollment: pick_courses * pay_late_fee * enroll_in_person
rule funding: (apply_ta + apply_ra) * accept_offer
rule funding: self_funded
rule finalize: pay_tuition * get_id_card

constraint: never(pay_tuition) or precedes(enroll_online, pay_tuition) or precedes(enroll_in_person, pay_tuition)
constraint: never(accept_offer) or precedes(sign_plan, accept_offer)
constraint: never(pay_late_fee) or never(apply_ra)
constraint: never(apply_ta) or happens(enroll_online)

property gets_id_card: happens(get_id_card)
property always_online: happens(enroll_online)
property plan_before_offer: never(accept_offer) or precedes(sign_plan, accept_offer)
""",
    "release": """\
# Software release pipeline.
goal: merge * build * (unit_tests | integration_tests | review_signoff | (canary * promote + direct_deploy)) * verify_health * (announce + rollback)

constraint: never(canary) or precedes(review_signoff, canary)
constraint: never(direct_deploy) or precedes(review_signoff, direct_deploy)
constraint: never(canary) or precedes(integration_tests, canary)
constraint: never(canary) or never(promote) or precedes(canary, promote)
constraint: never(rollback) or never(announce)
constraint: never(promote) or precedes(promote, verify_health)

property review_gates_canary: never(canary) or precedes(review_signoff, canary)
property always_canary: happens(canary)
property health_checked: happens(verify_health)
""",
}

#: Requests of one pass, per spec: 8 ``/verify``, 1 ``/schedule`` and 1
#: ``/compile`` of unseen text, in one chunk of 10 requests per spec.
SERVE_PER_SPEC = ("verify",) * 8 + ("schedule", "compile")
SERVE_CLIENTS = 2
SERVE_CHUNKS_PER_PASS = len(SPECS) // SERVE_CLIENTS
SERVE_SCHEDULE_LIMIT = 5

#: Seed of the request plan: the kinds' positions in each chunk and the
#: spec in each slot.  A request's latency depends on what the other
#: client sends meanwhile (a write beside a read, two reads of one spec
#: coalescing in the batcher), so the plan is the same for every seed and
#: a workload seed renames the events of every spec (:func:`serve_specs`).
#: With specs permuted among slots per seed, read p50 spread 6.8% over
#: ten seeds.
SERVE_ORDER_SEED = 8800

_KEYWORDS = frozenset({
    "goal", "rule", "constraint", "property", "happens", "never",
    "precedes", "or", "and", "not", "send", "receive", "path", "fail",
})
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def renamed_spec(text: str, prefix: str) -> str:
    """``text`` with every event and rule name prefixed: same shape, unseen text.

    A common prefix keeps the names' relative order, so the compiled goal,
    its sizes and its schedules are those of the original, renamed.
    """
    out = []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            out.append(line)
            continue
        keyword, _, rest = line.partition(":")
        words = keyword.split()
        if words[0] == "rule":
            keyword = f"rule {prefix}{words[1]}"
        rest = _IDENT.sub(
            lambda m: m.group() if m.group() in _KEYWORDS
            else prefix + m.group(), rest)
        out.append(f"{keyword}:{rest}")
    return "\n".join(out) + "\n"


def serve_specs(seed: int) -> dict[str, str]:
    """The six paper specs with every event renamed under one seeded prefix.

    The prefix starts with ``z``, so renamed names sort after the names
    :func:`renamed_spec` keeps (``receive``) whatever the seed, and the
    witness strategy's choices do not depend on it.
    """
    rng = random.Random(f"serve-{seed}")
    prefix = "z" + "".join(rng.choice(string.ascii_lowercase)
                           for _ in range(3)) + "_"
    return {name: renamed_spec(text, prefix) for name, text in SPECS.items()}


def serve_plan() -> list[list[list[tuple]]]:
    """Per client, per chunk of one pass: the request list.

    A request is ``("verify", spec)``, ``("schedule", spec)`` or
    ``("compile", spec, k)`` where ``k`` numbers the unseen rename of
    ``spec`` within the pass (the run adds the pass index).  Each chunk
    holds the kinds of ``SERVE_PER_SPEC``; the two clients' concurrent
    chunks put the same kind at the same position.
    """
    names = sorted(SPECS)
    order = random.Random(SERVE_ORDER_SEED)
    skeleton = []
    for _ in range(SERVE_CHUNKS_PER_PASS):
        kinds = list(SERVE_PER_SPEC)
        order.shuffle(kinds)
        skeleton.append(kinds)
    specs = {kind: [name for name in names
                    for _ in range(SERVE_PER_SPEC.count(kind))]
             for kind in sorted(set(SERVE_PER_SPEC))}
    for pool in specs.values():
        order.shuffle(pool)
    plan = []
    for _ in range(SERVE_CLIENTS):
        chunks = []
        for kinds in skeleton:
            chunk = []
            for kind in kinds:
                name = specs[kind].pop()
                chunk.append((kind, name, len(specs[kind]))
                             if kind == "compile" else (kind, name))
            chunks.append(chunk)
        plan.append(chunks)
    return plan
