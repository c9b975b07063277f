"""The in-process workloads: inputs, set-up, the timed op and its traced form.

Each workload is built so that one layer the roadmap will change does
most of its work there and almost none in another (see README.md):

* ``sat_consistency`` — Apply (``core.apply``);
* ``counterexample`` — witness extraction (``core.scheduler`` /
  ``ctr.kernel``);
* ``serve_rw`` — the serving path (``service.http``, ``service.batcher``,
  ``service.registry``, ``CompileCache``), in :mod:`serve`;
* ``batch_fanout`` — pool fan-out (``core.parallel`` and the
  shared-memory dispatch of ``core.kernel_backend``).

The untraced op calls the program's public entry point.  The traced op
compiles through ``compile_workflow(..., obs=...)``, the program's own
instrumented pipeline (``compile`` → ``expand`` / ``apply`` / ``excise``
spans, and the compile accounting as gauges), and adds one span of its
own around ``CompiledWorkflow.scheduler().run()``.
"""

from __future__ import annotations

import os
import pickle
import resource

import corpus
import judges

from repro.analysis.sat import Cnf, assignment_from_schedule, cnf_to_workflow
from repro.analysis.sat import workflow_consistency_sat
from repro.constraints.algebra import disj, order
from repro.constraints.klein import klein_order
from repro.constraints.normalize import negate
from repro.core.compiler import compile_workflow
from repro.core.verify import (VerificationResult, verify_properties,
                               verify_property)
from repro.ctr.formulas import Atom, par, seq
from repro.obs.config import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

#: Exact per-pass work counters: the same seed gives the same values.
COUNTERS = (
    "apply.dag_nodes", "apply.sharing", "excise.knots", "excise.combos_tried",
    "excise.combos_viable", "witness.steps", "witness.configs_expanded",
    "sat.satisfiable", "parallel.goal_bytes", "compiles",
)

#: Base-order corpus items each set-up warms up on (see ``corpus``).
WARM_ITEMS = 3

#: Span name -> the layer its self time is charged to.  ``compile`` is the
#: program's wrapper span and the fan-out spans are recorded after the
#: batch, so their own time is glue, charged with the ``op`` remainder.
_LAYER = {"apply.constraint": "apply", "compile": "op",
          "parallel.verify_batch": "op", "parallel.worker": "op"}


def layer_of(name: str) -> str:
    return _LAYER.get(name, name)


def new_counts() -> dict[str, float]:
    return dict.fromkeys(COUNTERS, 0)


def new_obs() -> Observability:
    """An in-memory tracer and metrics registry for the traced run."""
    return Observability(tracer=Tracer(), metrics=MetricsRegistry())


def layer_times(totals: dict[str, float], ops: int) -> dict[str, float]:
    """Mean self time per op (ms) of each compile-path layer, from the
    summed span self times (s) of ``ops`` ops."""
    per_op = 1e3 / ops
    return {
        "expand.self_ms": totals.get("expand", 0.0) * per_op,
        "apply.self_ms": totals.get("apply", 0.0) * per_op,
        "excise.self_ms": totals.get("excise", 0.0) * per_op,
        "witness.self_ms": totals.get("witness", 0.0) * per_op,
        "verify.other_ms": totals.get("op", 0.0) * per_op,
    }


def traced_compile(obs, goal, constraints, rules=None, counts=None):
    """``compile_workflow`` on its instrumented path; adds its Apply and
    Excise accounting to ``counts``."""
    compiled = compile_workflow(goal, list(constraints), rules=rules, obs=obs)
    if counts is not None:
        gauge = obs.metrics.gauge
        counts["compiles"] += 1
        counts["apply.dag_nodes"] += gauge("compile.applied_dag_size").value
        counts["apply.sharing"] += gauge("compile.sharing_ratio").value
        counts["excise.knots"] += gauge("excise.knots").value
        counts["excise.combos_tried"] += gauge("excise.combos_tried").value
        counts["excise.combos_viable"] += gauge("excise.combos_viable").value
    return compiled


def traced_witness(obs, compiled, counts=None):
    """``CompiledWorkflow.scheduler().run()`` under the ``witness`` span."""
    with obs.tracer.span("witness"):
        scheduler = compiled.scheduler()
        witness = scheduler.run()
    if counts is not None:
        counts["witness.steps"] += len(witness)
        stats = getattr(scheduler, "stats", None)
        counts["witness.configs_expanded"] += getattr(
            stats, "configs_expanded", 0)
    return witness


def traced_verify(obs, goal, constraints, prop, rules=None, counts=None):
    """``verify_property`` (Theorem 5.9) with the traced compile and witness."""
    violating = traced_compile(obs, goal, list(constraints) + [negate(prop)],
                               rules, counts)
    if not violating.consistent:
        return VerificationResult(property=prop, holds=True)
    return VerificationResult(property=prop, holds=False,
                              counterexample=violating.goal,
                              witness=traced_witness(obs, violating, counts))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_pids() -> list[int]:
    """This process's live child processes (the pool workers), by pid."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            pids.append(int(entry))
    return sorted(pids)


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise ValueError(f"no VmHWM for pid {pid}")


def _constraint(spec):
    kind, a, b = spec
    if kind == "order":
        return order(a, b)
    if kind == "klein_order":
        return klein_order(a, b)
    if kind == "either_order":
        return disj(order(a, b), order(b, a))
    raise ValueError(f"unknown constraint kind {kind!r}")


class InProcess:
    """A workload whose ops are calls into ``repro`` in this process.

    ``base`` is the corpus in its seed-independent base order; ``items``
    is the same corpus in the order one pass runs it.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.base: list = []
        self.items: list = []

    def build(self) -> None:
        self.base = self.make_corpus()
        self.items = corpus.pass_order(self.base, self.seed)

    def start(self) -> None:
        """Start what serves the ops (nothing in-process)."""

    def warm(self) -> None:
        for item in self.base[:WARM_ITEMS]:
            self.op(item)

    def probe(self, meter) -> None:
        meter.probe()

    def prepare_judge(self) -> None:
        """The judge's own precomputation (excluded from set-up time)."""

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def stop(self) -> None:
        """Release what :meth:`start` acquired."""


class SatConsistency(InProcess):
    """Proposition 4.1: one ``workflow_consistency_sat`` per seeded 3-CNF."""

    name = "sat_consistency"

    def make_corpus(self) -> list:
        return [Cnf(n_vars, clauses)
                for n_vars, clauses in corpus.sat_corpus(self.seed)]

    def prepare_judge(self) -> None:
        self.expected = [judges.sat_expected(cnf) for cnf in self.items]

    def op(self, cnf):
        return workflow_consistency_sat(cnf)

    def traced_op(self, obs, cnf, counts=None):
        """``workflow_consistency_sat`` with the traced compile and witness."""
        goal, constraints = cnf_to_workflow(cnf)
        compiled = traced_compile(obs, goal, constraints, counts=counts)
        if not compiled.consistent:
            return None
        schedule = traced_witness(obs, compiled, counts)
        if counts is not None:
            counts["sat.satisfiable"] += 1
        return assignment_from_schedule(schedule, cnf.n_vars)

    def judge(self, index, output) -> bool:
        return judges.sat_ok(self.items[index], self.expected[index], output)


class Counterexample(InProcess):
    """Theorem 5.9: one failing ``verify_property`` per E3b-shaped goal."""

    name = "counterexample"

    def make_corpus(self) -> list:
        items = []
        for spec in corpus.cx_corpus(self.seed):
            goal = seq(par(*(Atom(e) for e in spec["events"])),
                       *(Atom(e) for e in spec["pad"]))
            constraints = [_constraint(c) for c in spec["constraints"]]
            items.append((goal, constraints, _constraint(spec["property"])))
        return items

    def prepare_judge(self) -> None:
        self._verdicts: dict = {}

    def op(self, item):
        goal, constraints, prop = item
        return verify_property(goal, constraints, prop)

    def traced_op(self, obs, item, counts=None):
        goal, constraints, prop = item
        return traced_verify(obs, goal, constraints, prop, counts=counts)

    def judge(self, index, output) -> bool:
        key = (index, output.holds, output.witness)
        if key not in self._verdicts:  # ops repeat every pass
            goal, constraints, prop = self.items[index]
            self._verdicts[key] = judges.counterexample_ok(
                goal, constraints, prop, output.holds, output.witness)
        return self._verdicts[key]


class BatchFanout(InProcess):
    """``verify_properties(..., jobs=2)`` over 8-property batches.

    After warm-up starts the pool, each worker is pinned to its own CPU,
    and the host probe runs on every CPU in turn while the workers idle
    between batches, so the host factor sees the CPUs the batch ran on.
    """

    name = "batch_fanout"
    jobs = 2

    def make_corpus(self) -> list:
        items = []
        for spec in corpus.batch_corpus(self.seed):
            blocks = [par(*(Atom(e) for pair in block for e in pair))
                      for block in spec["blocks"]]
            goal = seq(*blocks, *(Atom(e) for e in spec["pad"]))
            constraints = [_constraint(c) for c in spec["constraints"]]
            props = [_constraint(p) for p in spec["properties"]]
            items.append((goal, constraints, props))
        return items

    def warm(self) -> None:
        # Starts the pool and its workers' imports.
        self.op(self.base[0])
        self.cpus = sorted(os.sched_getaffinity(0))
        for k, pid in enumerate(children_pids()):
            os.sched_setaffinity(pid, {self.cpus[k % len(self.cpus)]})

    def probe(self, meter) -> None:
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})  # this thread only
                meter.probe()
        finally:
            os.sched_setaffinity(0, self.cpus)

    def prepare_judge(self) -> None:
        self.expected = [
            verify_properties(goal, constraints, props, jobs=1)
            for goal, constraints, props in self.items
        ]

    def op(self, item):
        goal, constraints, props = item
        return verify_properties(goal, constraints, props, jobs=self.jobs)

    def traced_op(self, obs, item, counts=None):
        goal, constraints, props = item
        if counts is not None:
            counts["parallel.goal_bytes"] += len(pickle.dumps(goal))
        return verify_properties(goal, constraints, props, jobs=self.jobs,
                                 obs=obs)

    def peak_rss_mb(self) -> float:
        peak = own_peak_rss_mb()
        for pid in children_pids():
            try:
                peak = max(peak, vm_hwm_mb(pid))
            except (OSError, ValueError):  # the child has just exited
                continue
        return peak

    def judge(self, index, output) -> bool:
        return judges.batch_ok(self.expected[index], output)

    def stop(self) -> None:
        from repro.core.parallel import shutdown_pool

        shutdown_pool()
