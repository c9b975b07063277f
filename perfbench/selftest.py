"""Self-test of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks three things and exits non-zero if any fails:

1. every judge counts one corrupted answer as wrong, through the same
   counting code the runs use;
2. the exact work counters repeat: two traced runs of each workload on
   one seed report identical counts;
3. the serve_rw spec texts still describe the library's paper workflows
   (goals round-trip through ``parse_goal`` to the very same goal object).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import corpus  # noqa: E402
import workloads  # noqa: E402

EXACT = ("apply.dag_nodes", "apply.sharing", "excise.knots",
         "excise.combos_tried", "excise.viable_ratio", "witness.steps",
         "witness.configs_expanded", "sat.satisfiable", "parallel.goal_bytes")

SEED = 5


def _window(index, output):
    return {"records": [(index, 0.0, 0.0, output, None)]}


def check_judges() -> list[str]:
    failures = []

    sat = workloads.SatConsistency(SEED)
    sat.build()
    sat.prepare_judge()
    index = sat.expected.index(True)
    good = sat.op(sat.items[index])
    flipped = {var: not value for var, value in good.items()}
    if sat.items[index].evaluate(flipped):
        flipped = None  # "unsatisfiable" is then the corrupted answer
    for label, answer, wrong in (("right", good, 0), ("corrupted", flipped, 1)):
        if child.wrong_inprocess(sat, _window(index, answer)) != wrong:
            failures.append(f"sat judge miscounted the {label} answer")

    cx = workloads.Counterexample(SEED)
    cx.build()
    cx.prepare_judge()
    result = cx.op(cx.items[0])
    reordered = tuple(reversed(result.witness))
    truncated = result.witness[:-1]
    for label, answer, wrong in (
            ("right", result, 0),
            ("reversed", type(result)(result.property, False, None, reordered), 1),
            ("truncated", type(result)(result.property, False, None, truncated), 1),
            ("holds", type(result)(result.property, True), 1)):
        if child.wrong_inprocess(cx, _window(0, answer)) != wrong:
            failures.append(f"counterexample judge miscounted the {label} answer")

    batch = workloads.BatchFanout(SEED)
    batch.build()
    batch.items = batch.items[:1]
    batch.prepare_judge()
    right = list(batch.expected[0])
    swapped = right[:]
    first_fail = next(i for i, r in enumerate(right) if not r.holds)
    first_hold = next(i for i, r in enumerate(right) if r.holds)
    swapped[first_fail], swapped[first_hold] = right[first_hold], right[first_fail]
    for label, answer, wrong in (("right", right, 0), ("swapped", swapped, 1)):
        if child.wrong_inprocess(batch, _window(0, answer)) != wrong:
            failures.append(f"batch judge miscounted the {label} answer")

    from serve import ServeRW
    from repro.spec import parse_specification

    serve = ServeRW.__new__(ServeRW)
    serve.specs = {name: parse_specification(text)
                   for name, text in corpus.SPECS.items()}
    serve.prepare_judge()
    expected = serve.expected[("verify", "claims")]
    payload = {"results": [{"property": p, "holds": h, "witness": w}
                           for p, h, w in expected]}
    corrupted = json.loads(json.dumps(payload))
    corrupted["results"][0]["holds"] = not corrupted["results"][0]["holds"]
    for label, answer, wrong in (("right", payload, 0),
                                 ("corrupted", corrupted, 1)):
        window = {"records": [(("verify", "claims"), 0, 0.0, 0.0, answer,
                               None)]}
        if serve.wrong_answers(window) != wrong:
            failures.append(f"serve judge miscounted the {label} answer")
    return failures


def check_specs() -> list[str]:
    from repro.spec import parse_specification
    from repro.workflows import figure1, registration, release, trip

    library = {
        "figure1": (figure1.figure1_goal(), figure1.figure1_constraints()),
        "trip": trip.trip_specification(),
        "registration": registration.registration_specification()[:2],
        "release": release.release_specification(),
    }
    failures = []
    for name, (goal, constraints) in library.items():
        spec = parse_specification(corpus.SPECS[name])
        if spec.goal is not goal:
            failures.append(f"{name}: spec goal is not the library goal")
        if [str(c) for c in spec.constraints] != [str(c) for c in constraints]:
            failures.append(f"{name}: spec constraints differ from the library")
    return failures


def check_counters() -> list[str]:
    failures = []
    for name in ("sat_consistency", "counterexample", "serve_rw",
                 "batch_fanout"):
        runs = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", "2", "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if out.returncode != 0:
                failures.append(f"{name}: traced run failed: {out.stderr[-300:]}")
                break
            metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
            runs.append({k: metrics[k]["value"] for k in EXACT})
        if len(runs) == 2 and runs[0] != runs[1]:
            failures.append(f"{name}: counters differ: {runs[0]} != {runs[1]}")
        elif runs:
            print(f"{name}: counters repeat: {runs[0]}")
    return failures


def main() -> int:
    failures = check_judges() + check_specs() + check_counters()
    for failure in failures:
        print("FAIL", failure)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
