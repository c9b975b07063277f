"""End-to-end workflow compilation: rules → Apply → Excise.

:func:`compile_workflow` is the main entry point of the library. It takes a
workflow specification — a concurrent-Horn goal (or a control flow graph,
via :mod:`repro.graph.translate`), an optional rule base of sub-workflow
definitions, and a set of CONSTR constraints — and produces a
:class:`CompiledWorkflow`: the "compressed explicit representation of all
allowed executions" of Section 4. From it one can

* test **consistency** (Theorem 5.8): the specification is consistent iff
  compilation did not collapse to ``¬path``;
* obtain a **pro-active scheduler** (:meth:`CompiledWorkflow.scheduler`)
  that knows, at every stage, exactly which events are eligible — no
  run-time constraint checking;
* enumerate allowed executions (each in time linear in the original
  graph).

Compilation is the expensive step (Apply alone is ``O(d^N·|G|)``), and a
workflow specification is a *value*: the same file compiles to the same
result every time. :class:`CompileCache` exploits that with a
content-addressed on-disk cache — the key is a digest of the input as
handed in (goal, rule bodies, constraint set, format version), the value is
the serialized :class:`CompiledWorkflow` — so repeated ``run``/``verify``
invocations of an unchanged spec skip expansion, Apply and Excise
entirely. Deserialized goals are rebuilt through the hash-consing
constructors, so a cache hit yields fully interned, maximally shared goals.
Entries are evicted LRU beyond ``max_entries``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..constraints.algebra import Constraint
from ..ctr.formulas import Goal, dag_size, goal_size
from ..ctr.kernel import KernelProgram, lower_goal
from ..ctr.rules import RuleBase
from ..ctr.simplify import is_failure, simplify
from ..ctr.unique import check_unique_events
from ..errors import InconsistentWorkflowError
from ..obs.tracer import NullTracer
from .apply import apply_all
from .excise import ExciseStats, excise
from .scheduler import Scheduler
from .sync import TokenFactory

__all__ = ["CompiledWorkflow", "CompileCache", "compile_workflow", "expand_goal"]

_NO_TRACER = NullTracer()


@dataclass(frozen=True)
class CompiledWorkflow:
    """The result of compiling ``source ∧ constraints``.

    Attributes
    ----------
    source:
        The original (rule-expanded) goal ``G``.
    constraints:
        The constraint set ``C`` that was compiled in.
    applied:
        ``Apply(C, G)`` before knot removal — kept for size accounting
        (Theorem 5.11 measures this object).
    goal:
        ``Excise(Apply(C, G))`` — the executable compiled goal, or
        ``¬path`` when the specification is inconsistent.
    """

    source: Goal
    constraints: tuple[Constraint, ...]
    applied: Goal
    goal: Goal

    @property
    def consistent(self) -> bool:
        """Theorem 5.8: consistent iff Excise(Apply(C, G)) ≠ ¬path."""
        return not is_failure(self.goal)

    @property
    def applied_size(self) -> int:
        """``|Apply(C, G)|`` — the quantity bounded by Theorem 5.11."""
        return goal_size(self.applied)

    @property
    def compiled_size(self) -> int:
        return goal_size(self.goal)

    @property
    def applied_dag_size(self) -> int:
        """Distinct nodes of ``Apply(C, G)`` — its allocated size under sharing."""
        return dag_size(self.applied)

    @property
    def compiled_dag_size(self) -> int:
        return dag_size(self.goal)

    @property
    def sharing_ratio(self) -> float:
        """``applied_size / applied_dag_size`` — the structural-sharing factor.

        Theorem 5.11's ``d^N`` blow-up lives in the *tree* measure; this
        ratio is how much of it hash-consing absorbed for this compile.
        """
        return self.applied_size / max(self.applied_dag_size, 1)

    def require_consistent(self) -> "CompiledWorkflow":
        """Raise :class:`~repro.errors.InconsistentWorkflowError` if inconsistent."""
        if not self.consistent:
            raise InconsistentWorkflowError(culprit=self.source)
        return self

    @functools.cached_property
    def program(self) -> KernelProgram:
        """The compiled goal lowered to the flat kernel, once per instance.

        The program is immutable, so every scheduler over this compile
        shares it; each scheduler still keeps its own successor and step
        tables.
        """
        return lower_goal(self.goal)

    def scheduler(self, test_hook=None) -> Scheduler:
        """A pro-active scheduler over the compiled goal.

        ``test_hook`` decides transition conditions at run time (see
        :class:`~repro.core.scheduler.Scheduler`).
        """
        self.require_consistent()
        return Scheduler(self.program, test_hook=test_hook)

    def schedules(self, limit: int = 200_000):
        """Iterate over all allowed event sequences (linear time per path)."""
        if not self.consistent:
            return iter(())
        return Scheduler(self.program).enumerate_schedules(limit=limit)


# -- the persistent compile cache ---------------------------------------------

# Bump whenever the compiled representation or the pipeline semantics
# change: stale-format entries then simply miss and get recompiled.
_CACHE_FORMAT = 3


class CompileCache:
    """Content-addressed on-disk cache of :class:`CompiledWorkflow` results.

    The key is a SHA-256 digest of the canonical JSON encoding of the
    *input* as handed in — goal, rule bodies, constraint set, and the cache
    format version — so any change to the specification changes the key,
    and reading it needs no expansion. The value stores the result's goals
    in the shared (DAG) encoding of
    :func:`~repro.ctr.serialize.goal_to_shared_dict` — O(dag_size) bytes
    even for ``d^N``-tree-sized compiled goals — and re-interns on load
    (deserialization runs through the hash-consed constructors), so a hit
    returns maximally shared goals.

    Eviction is LRU by file mtime, bounded by ``max_entries``; loads touch
    the entry. A store past the bound evicts down to an eighth below it,
    so the stores that follow list the directory but stat no entry.
    Corrupt or unreadable entries are treated as misses and removed.
    Specifications whose goal or rule bodies contain
    :class:`~repro.ctr.formulas.Test` nodes with attached predicates are
    *uncacheable* (a callable cannot be content-addressed) and silently
    bypass the cache.

    A cache directory may be shared by many processes at once (a batch on
    the pool of :mod:`repro.core.parallel` hands every worker the cache
    object, which pickles as its directory and bound): entry writes are
    atomic (``mkstemp`` + ``os.replace``), and every stat/unlink tolerates
    a sibling process having evicted or rewritten the entry first — a
    vanished file is simply someone else's eviction, never an error.
    """

    def __init__(self, directory: str | os.PathLike, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.directory = Path(directory)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __reduce__(self):
        # Another process gets its own handle on the same directory, with
        # its own hit and miss counts.
        return type(self), (self.directory, self.max_entries)

    # -- keys -----------------------------------------------------------------

    def key(
        self,
        goal: Goal,
        constraints: tuple[Constraint, ...] | list[Constraint] = (),
        rules: RuleBase | None = None,
    ) -> str | None:
        """Digest of the compilation input, or ``None`` if uncacheable.

        The expanded goal is a function of ``goal`` and the rule bodies,
        so the key digests those, not the expansion.
        """
        from ..ctr.formulas import Test, walk_unique
        from ..ctr.serialize import constraint_to_dict, goal_to_dict, rules_to_dict

        roots = [goal]
        if rules is not None:
            roots.extend(body for head in rules.heads for body in rules.bodies(head))
        for root in roots:
            for node in walk_unique(root):
                if isinstance(node, Test) and node.predicate is not None:
                    return None
        payload = {
            "format": _CACHE_FORMAT,
            "goal": goal_to_dict(goal),
            "rules": rules_to_dict(rules) if rules is not None else {},
            "constraints": [constraint_to_dict(c) for c in constraints],
        }
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    # -- load/store -----------------------------------------------------------

    def load(self, key: str) -> CompiledWorkflow | None:
        """The cached result for ``key``, or ``None`` on a miss."""
        from ..ctr.serialize import constraint_from_dict, goals_from_shared_dict

        path = self._path(key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            goals = goals_from_shared_dict(data["goals"])
            result = CompiledWorkflow(
                source=goals["source"],
                constraints=tuple(
                    constraint_from_dict(c) for c in data["constraints"]
                ),
                applied=goals["applied"],
                goal=goals["goal"],
            )
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupt entry (partial write, foreign file, format drift):
            # drop it and recompile.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        try:
            os.utime(path)  # bump LRU recency
        except OSError:  # pragma: no cover - read-only cache dir
            pass
        self.hits += 1
        return result

    def store(self, key: str, compiled: CompiledWorkflow) -> None:
        """Persist ``compiled`` under ``key`` (atomic write), then evict LRU.

        Goals are written in the shared (DAG) encoding — one node table
        covering source/applied/goal at once — so an entry is O(dag_size)
        on disk even when the compiled tree is ``d^N``-sized, and subterms
        common to the three sections are stored once.
        """
        from ..ctr.serialize import constraint_to_dict, goals_to_shared_dict

        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": _CACHE_FORMAT,
            "constraints": [constraint_to_dict(c) for c in compiled.constraints],
            "goals": goals_to_shared_dict({
                "source": compiled.source,
                "applied": compiled.applied,
                "goal": compiled.goal,
            }),
        }
        encoded = json.dumps(payload, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(encoded)
            os.replace(tmp, self._path(key))
        except BaseException:
            os.unlink(tmp)
            raise
        self._evict()

    def _evict(self) -> None:
        # Listing names costs no stat; entries are stat'ed only once the
        # cap is exceeded, and eviction then goes an eighth below the cap
        # (the cap itself below 8 entries) so the next stores skip it.
        # Concurrent workers race here by design: another process may
        # evict (or rewrite) an entry between our scan, stat, and unlink.
        # Each step tolerates the file vanishing underneath it.
        with os.scandir(self.directory) as scan:
            names = [e.name for e in scan if e.name.endswith(".json")]
        if len(names) <= self.max_entries:
            return
        entries: list[tuple[float, Path]] = []
        for name in names:
            path = self.directory / name
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue  # evicted by a sibling process mid-scan
        entries.sort(key=lambda item: item[0])
        keep = self.max_entries - self.max_entries // 8
        for _, stale in entries[: max(0, len(entries) - keep)]:
            try:
                stale.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - concurrent unlink race
                pass

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    @classmethod
    def coerce(
        cls, cache: "CompileCache | str | os.PathLike | None"
    ) -> "CompileCache | None":
        if cache is None or isinstance(cache, cls):
            return cache
        return cls(cache)


def compile_workflow(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...] = (),
    rules: RuleBase | None = None,
    obs=None,
    cache: CompileCache | str | os.PathLike | None = None,
) -> CompiledWorkflow:
    """Compile a workflow specification ``G ∧ C`` into executable form.

    ``rules`` (sub-workflow definitions) are inlined first; the expanded
    goal must satisfy the unique-event property (Definition 3.1), which is
    verified here and raises :class:`~repro.errors.UniqueEventError`
    otherwise.

    ``obs`` (an :class:`~repro.obs.config.Observability`) times each phase
    of the pipeline as a span (``compile`` → ``expand``/``apply``/
    ``excise``, the ``apply`` and ``excise`` spans annotated with the goal
    size they produced, the ``excise`` span also with the precedence-graph
    nodes it built) and records the size accounting of Theorem 5.11 —
    goal size before and after Apply and Excise (tree *and* DAG measures,
    plus the sharing ratio), knots excised, the constraint count ``N`` and
    arity ``d``, and the measured ``|Apply(C,G)| / (d^N·|G|)`` ratio —
    into the metrics registry on every compile.

    ``cache`` (a :class:`CompileCache` or a directory path) consults the
    persistent compile cache first; hits skip expansion, Apply and Excise.
    The cache key digests the input as handed in, rule bodies included, so
    editing a rule invalidates dependent specifications too. A hit skips
    the unique-event check as well: only a compile that passed it is ever
    stored.

    The compile is one sequential pass, and hash-consing shares the
    subgoals that the ``d^N`` branches of the constraint set have in
    common. Batches of whole questions run one per worker of a process
    pool (:func:`~repro.core.verify.verify_properties`).
    """
    active = obs is not None and obs.active
    metrics = obs.metrics if active else None
    cache = CompileCache.coerce(cache)
    key = None
    if cache is not None:
        key = cache.key(goal, tuple(constraints), rules)
        if key is not None:
            hit = cache.load(key)
            if hit is not None:
                if metrics is not None:
                    metrics.inc("compile.cache_hits")
                    _record_compile_metrics(metrics, hit, None)
                return hit
        if metrics is not None:
            metrics.inc("compile.cache_misses")

    tracer = obs.tracer if active else _NO_TRACER
    traced = tracer.enabled
    stats = ExciseStats() if metrics is not None or traced else None
    with tracer.span("compile", constraints=len(constraints)):
        with tracer.span("expand"):
            expanded = expand_goal(goal, rules)
        tokens = TokenFactory()
        with tracer.span("apply") as apply_span:
            applied = apply_all(list(constraints), expanded, tokens,
                                tracer=tracer if traced else None)
            if traced:  # goal_size walks the whole DAG: only when recorded
                apply_span.annotate(size=goal_size(applied))
        with tracer.span("excise") as excise_span:
            compiled = excise(applied, stats=stats)
            if traced:
                excise_span.annotate(size=goal_size(compiled),
                                     graph_nodes=stats.graph_nodes)
    result = CompiledWorkflow(
        source=expanded,
        constraints=tuple(constraints),
        applied=applied,
        goal=compiled,
    )
    if metrics is not None:
        _record_compile_metrics(metrics, result, stats)
    if cache is not None and key is not None:
        cache.store(key, result)
    return result


def expand_goal(goal: Goal, rules: RuleBase | None = None) -> Goal:
    """``goal`` with ``rules`` inlined and simplified: the ``G`` that Apply
    compiles into.

    Raises :class:`~repro.errors.UniqueEventError` when the expanded goal
    lacks the unique-event property (Definition 3.1), and
    :class:`~repro.errors.SpecificationError` when it holds ``path``.
    """
    expanded = simplify(rules.expand(goal) if rules is not None else goal)
    check_unique_events(expanded)
    return expanded


def _record_compile_metrics(metrics, compiled: CompiledWorkflow, stats) -> None:
    """Record the Theorem 5.11 accounting for one compilation."""
    from ..analysis.metrics import goal_stats
    from ..constraints.normalize import to_dnf

    source_size = goal_size(compiled.source)
    n = len(compiled.constraints)
    d = max((to_dnf(c).width for c in compiled.constraints), default=1)
    bound = (d ** n) * max(source_size, 1)
    metrics.set_gauge("compile.source_size", source_size)
    metrics.set_gauge("compile.applied_size", compiled.applied_size)
    metrics.set_gauge("compile.compiled_size", compiled.compiled_size)
    # DAG-aware accounting: what hash-consing actually allocated, and how
    # much of the d^N tree blow-up it absorbed.
    metrics.set_gauge("compile.applied_dag_size", compiled.applied_dag_size)
    metrics.set_gauge("compile.compiled_dag_size", compiled.compiled_dag_size)
    metrics.set_gauge("compile.sharing_ratio", compiled.sharing_ratio)
    metrics.set_gauge("compile.constraints_N", n)
    metrics.set_gauge("compile.arity_d", d)
    metrics.set_gauge("compile.bound_dN_G", bound)
    # The empirical side of Theorem 5.11: how much of the worst-case
    # O(d^N·|G|) budget this compilation actually used.
    metrics.set_gauge("compile.thm511_ratio", compiled.applied_size / bound)
    metrics.set_gauge("compile.consistent", int(compiled.consistent))
    if stats is not None:
        metrics.set_gauge("excise.knots", stats.knots)
        metrics.set_gauge("excise.local_choices", stats.local_choices)
        metrics.set_gauge("excise.entangled_choices", stats.entangled_choices)
        metrics.set_gauge("excise.combos_tried", stats.combos_tried)
        metrics.set_gauge("excise.combos_viable", stats.combos_viable)
        metrics.set_gauge("excise.graph_nodes", stats.graph_nodes)
    structure = goal_stats(compiled.goal)
    metrics.set_gauge("compiled.events", structure.events)
    metrics.set_gauge("compiled.choices", structure.choices)
    metrics.set_gauge("compiled.tokens", structure.tokens)
    metrics.set_gauge("compiled.parallel_width", structure.max_parallel_width)
