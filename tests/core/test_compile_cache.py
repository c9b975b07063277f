"""Tests for the persistent content-addressed compile cache."""

import json

import pytest

from repro.cli import main
from repro.constraints.algebra import absent, disj, must, order
from repro.core import compiler, verify
from repro.core.compiler import CompileCache, compile_workflow
from repro.core.verify import verify_properties, verify_property
from repro.ctr.formulas import Test, atoms, seq
from repro.ctr.machine import machine_traces
from repro.ctr.rules import Rule, RuleBase

A, B, C, D = atoms("a b c d")


@pytest.fixture
def cache(tmp_path):
    return CompileCache(tmp_path / "cache")


class TestHitAndMiss:
    def test_cold_then_warm(self, cache):
        goal = (A >> B) + (C >> D)
        constraints = [disj(order("a", "c"), absent("d"))]
        cold = compile_workflow(goal, constraints, cache=cache)
        warm = compile_workflow(goal, constraints, cache=cache)
        assert cache.misses == 1 and cache.hits == 1
        assert warm.goal == cold.goal
        assert warm.applied == cold.applied
        assert warm.constraints == cold.constraints
        # Deserialization re-interns, so a hit is not just equal but canonical.
        assert warm.goal is cold.goal
        assert machine_traces(warm.goal) == machine_traces(cold.goal)

    def test_different_specs_get_different_entries(self, cache):
        compile_workflow(A >> B, [must("a")], cache=cache)
        compile_workflow(A >> B, [must("b")], cache=cache)
        compile_workflow(A >> C, [must("a")], cache=cache)
        assert len(cache) == 3
        assert cache.hits == 0

    def test_directory_path_is_accepted_directly(self, tmp_path):
        compile_workflow(A >> B, cache=tmp_path / "bydir")
        again = compile_workflow(A >> B, cache=tmp_path / "bydir")
        assert again.goal == compile_workflow(A >> B).goal

    def test_rule_change_invalidates(self, cache):
        (sub,) = atoms("sub")
        base_one = RuleBase()
        base_one.add(Rule("sub", B >> C))
        base_two = RuleBase()
        base_two.add(Rule("sub", C >> B))
        one = compile_workflow(seq(A, sub), rules=base_one, cache=cache)
        two = compile_workflow(seq(A, sub), rules=base_two, cache=cache)
        assert cache.hits == 0 and cache.misses == 2
        assert machine_traces(one.goal) != machine_traces(two.goal)

    def test_inconsistent_results_are_cached_too(self, cache):
        constraints = [order("b", "a")]
        cold = compile_workflow(A >> B, constraints, cache=cache)
        warm = compile_workflow(A >> B, constraints, cache=cache)
        assert not cold.consistent and not warm.consistent
        assert cache.hits == 1


class TestEviction:
    def test_lru_eviction_beyond_max_entries(self, tmp_path):
        cache = CompileCache(tmp_path, max_entries=2)
        import os

        for i, goal in enumerate([A >> B, B >> C, C >> D, D >> A]):
            compile_workflow(goal, cache=cache)
            # mtime has second granularity on some filesystems; spread the
            # entries artificially so LRU ordering is deterministic.
            for j, entry in enumerate(sorted(tmp_path.glob("*.json"))):
                os.utime(entry, (i + j * 0.001, i + j * 0.001))
        assert len(cache) == 2

    def test_store_under_the_bound_stats_no_other_entry(self, tmp_path,
                                                        monkeypatch):
        # Eviction must not cost a stat per cached entry on every write.
        import os

        cache = CompileCache(tmp_path, max_entries=8)
        for goal in (A >> B, B >> C, C >> D):
            compile_workflow(goal, cache=cache)
        statted = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            if str(path).endswith(".json"):
                statted.append(os.path.basename(path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        compile_workflow(D >> A, cache=cache)
        own = cache._path(cache.key(D >> A)).name
        assert [name for name in statted if name != own] == []
        assert len(cache) == 4

    def test_eviction_past_the_bound_keeps_the_newest(self, tmp_path):
        import os

        cache = CompileCache(tmp_path, max_entries=16)
        goals = [seq(*atoms(f"a{i} b{i}")) for i in range(17)]
        for i, goal in enumerate(goals):
            compile_workflow(goal, cache=cache)
            os.utime(cache._path(cache.key(goal)), (i, i))
        # Over the bound: the oldest go, down to an eighth below it.
        assert len(cache) == 16 - 16 // 8
        assert not cache._path(cache.key(goals[0])).exists()
        assert cache._path(cache.key(goals[-1])).exists()

    def test_max_entries_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CompileCache(tmp_path, max_entries=0)

    def test_repeatedly_hit_entry_survives_eviction(self, tmp_path):
        # Regression guard for the touch-on-read contract: a cache *hit*
        # must refresh the entry's mtime, otherwise the hottest entry —
        # stored first, read constantly — has the oldest write time and is
        # exactly the one mtime-LRU eviction removes when the cap is hit.
        import os
        import time

        cache = CompileCache(tmp_path, max_entries=2)
        hot, warm, cold = A >> B, B >> C, C >> D
        compile_workflow(hot, cache=cache)   # oldest write
        compile_workflow(warm, cache=cache)
        # Backdate both entries, then *hit* the hot one: only the touch
        # performed by load() can save it from eviction below.
        for entry in tmp_path.glob("*.json"):
            os.utime(entry, (1.0, 1.0))
        hot_key = cache.key(hot)
        warm_key = cache.key(warm)
        os.utime(cache._path(warm_key), (2.0, 2.0))
        assert cache.load(hot_key) is not None  # the touch under test
        compile_workflow(cold, cache=cache)     # triggers eviction at cap=2
        assert cache._path(hot_key).exists(), (
            "hot entry was evicted despite being the most recently used"
        )
        assert not cache._path(warm_key).exists()

    def test_touch_tolerates_concurrent_unlink(self, tmp_path, monkeypatch):
        # A sibling process may evict the entry between our read and the
        # recency touch; the hit must still be returned, not raise.
        import os

        cache = CompileCache(tmp_path)
        compile_workflow(A >> B, cache=cache)
        key = cache.key(A >> B)
        real_utime = os.utime

        def racing_utime(path, *args, **kwargs):
            os.unlink(path)  # the "sibling eviction"
            return real_utime(path, *args, **kwargs)

        monkeypatch.setattr(os, "utime", racing_utime)
        assert cache.load(key) is not None


class TestCorruptEntries:
    def test_corrupt_entry_is_treated_as_miss_and_removed(self, cache):
        goal = A >> B
        compile_workflow(goal, cache=cache)
        (entry,) = cache.directory.glob("*.json")
        entry.write_text("{ not json")
        recompiled = compile_workflow(goal, cache=cache)
        assert recompiled.consistent
        assert cache.hits == 0
        # The recompile stored a fresh, loadable entry over the corpse.
        assert compile_workflow(goal, cache=cache).goal == recompiled.goal
        assert cache.hits == 1

    def test_semantically_corrupt_entry_is_tolerated(self, cache):
        goal = A >> B
        compile_workflow(goal, cache=cache)
        (entry,) = cache.directory.glob("*.json")
        pristine = entry.read_text()

        def dangling_root(goals):
            goals["roots"]["goal"] = 99999

        def negative_part(goals):
            # Parts [0, -2] of a ⊗ b would load as b ⊗ b.
            serial = next(n for n in goals["nodes"] if n["kind"] == "serial")
            serial["parts"] = [0, -2]

        for corrupt in (dangling_root, negative_part):
            data = json.loads(pristine)
            corrupt(data["goals"])
            entry.write_text(json.dumps(data))
            misses = cache.misses
            recompiled = compile_workflow(goal, cache=cache)
            assert cache.misses == misses + 1
            assert recompiled.consistent
            assert recompiled.goal is goal


class TestUncacheableSpecs:
    def test_predicated_test_bypasses_the_cache(self, cache):
        goal = seq(Test("guard", predicate=lambda db: True), A)
        compile_workflow(goal, cache=cache)
        compile_workflow(goal, cache=cache)
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_plain_test_is_cacheable(self, cache):
        goal = seq(Test("guard"), A)
        compile_workflow(goal, cache=cache)
        compile_workflow(goal, cache=cache)
        assert cache.hits == 1


class TestVerifyWithCache:
    def test_verify_property_uses_the_cache(self, cache):
        goal = A >> (B + C)
        result = verify_property(goal, [absent("b")], must("c"), cache=cache)
        assert result.holds
        again = verify_property(goal, [absent("b")], must("c"), cache=cache)
        assert again.holds
        assert cache.hits == 1


@pytest.fixture
def expansions(monkeypatch):
    """Counts ``expand_goal`` calls, wherever the pipeline makes them."""
    calls = []
    real = compiler.expand_goal

    def counting(goal, rules=None):
        calls.append(goal)
        return real(goal, rules)

    monkeypatch.setattr(compiler, "expand_goal", counting)
    monkeypatch.setattr(verify, "expand_goal", counting)
    return calls


def _sub_rules(body):
    rules = RuleBase()
    rules.add(Rule("sub", body))
    return rules


class TestKeyOnTheInput:
    def test_warm_verify_properties_expands_once(self, cache, expansions):
        (sub,) = atoms("sub")
        goal, rules = seq(A, sub), _sub_rules(B + C)
        props = [must("a"), must("b"), order("a", "c")]
        cold = verify_properties(goal, [], props, rules=rules, cache=cache)
        expansions.clear()
        warm = verify_properties(goal, [], props, rules=rules, cache=cache)
        assert len(expansions) == 1
        assert cache.hits == 3
        assert warm == cold

    def test_a_miss_expands_once(self, cache, expansions):
        (sub,) = atoms("sub")
        compile_workflow(seq(A, sub), [must("b")], rules=_sub_rules(B + C), cache=cache)
        assert cache.misses == 1
        assert len(expansions) == 1

    def test_editing_a_rule_body_changes_the_key(self, cache):
        (sub,) = atoms("sub")
        goal = seq(A, sub)
        one = cache.key(goal, [must("b")], _sub_rules(B >> C))
        two = cache.key(goal, [must("b")], _sub_rules(C >> B))
        assert None not in (one, two) and one != two
        assert cache.key(goal, [must("b")], _sub_rules(B >> C)) == one

    def test_predicated_test_in_a_rule_body_is_uncacheable(self, cache):
        (sub,) = atoms("sub")
        guarded = _sub_rules(seq(Test("guard", predicate=lambda db: True), B))
        assert cache.key(seq(A, sub), [], guarded) is None
        assert cache.key(seq(A, sub), [], _sub_rules(seq(Test("guard"), B))) is not None


SPEC = """
goal: a * (b | c) * d
constraint: precedes(a, d)
property has_a: happens(a)
"""


class TestCLI:
    def _write_spec(self, tmp_path):
        spec = tmp_path / "wf.spec"
        spec.write_text(SPEC)
        return spec

    def test_cache_dir_flag_populates_and_reuses(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        cache_dir = tmp_path / "cli-cache"
        assert main(["show", str(spec), "--cache-dir", str(cache_dir)]) == 0
        assert len(list(cache_dir.glob("*.json"))) == 1
        assert main(["show", str(spec), "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("compiled:") == 2

    def test_no_cache_flag_wins(self, tmp_path, monkeypatch):
        spec = self._write_spec(tmp_path)
        cache_dir = tmp_path / "cli-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["check", str(spec), "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        spec = self._write_spec(tmp_path)
        cache_dir = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["verify", str(spec)]) == 0
        assert len(list(cache_dir.glob("*.json"))) == 1


def _hammer_cache(args):
    """Worker: compile a sweep of goals against one shared cache directory.

    Module-level so it pickles across the process boundary. A tiny
    ``max_entries`` forces constant eviction, so concurrent workers race
    stat/unlink against each other's writes — the scenario the cache's
    OSError tolerance exists for.
    """
    directory, worker, rounds = args
    from repro.constraints.algebra import must, order
    from repro.core.compiler import CompileCache, compile_workflow
    from repro.ctr.formulas import atoms

    cache = CompileCache(directory, max_entries=3)
    a, b, c = atoms("a b c")
    for i in range(rounds):
        goal = (a | b) >> c
        constraints = [order("a", "c"), must(f"x{(worker + i) % 7}")]
        # Twice back-to-back: the second compile hits the entry the first
        # just wrote (a fresh entry is never the LRU eviction victim).
        for _ in range(2):
            compiled = compile_workflow(goal, constraints, cache=cache)
            if compiled.consistent:  # every spec here demands a missing event
                return ("inconsistent-expected", worker, i)
    return ("ok", cache.hits)


class TestMultiprocessSharing:
    def test_concurrent_workers_share_one_directory(self, tmp_path):
        import multiprocessing as mp

        directory = tmp_path / "shared"
        jobs = [(str(directory), worker, 12) for worker in range(4)]
        with mp.Pool(4) as pool:
            results = pool.map(_hammer_cache, jobs)
        assert all(r[0] == "ok" for r in results)
        # Eviction kept running throughout the stampede.
        assert len(list(directory.glob("*.json"))) <= 3
        # The shared directory actually served cross-round hits.
        assert sum(r[1] for r in results) > 0

    def test_pickles_as_its_directory_and_bound(self, tmp_path):
        # What a pool worker receives: a fresh handle on the same entries.
        import pickle

        cache = CompileCache(tmp_path / "shared", max_entries=5)
        compile_workflow(atoms("a b")[0], [], cache=cache)
        copy = pickle.loads(pickle.dumps(cache))
        assert (copy.directory, copy.max_entries) == (cache.directory, 5)
        assert (copy.hits, copy.misses) == (0, 0)
        compile_workflow(atoms("a b")[0], [], cache=copy)
        assert copy.hits == 1

    def test_eviction_tolerates_concurrent_unlink(self, tmp_path, monkeypatch):
        """A concurrent evictor unlinking between scandir and stat must not
        blow up this process's eviction pass."""
        import pathlib

        cache = CompileCache(tmp_path, max_entries=1)
        a, b = atoms("a b")
        compile_workflow(a >> b, [order("a", "b")], cache=cache)

        real_stat = pathlib.Path.stat

        def racing_stat(self, **kwargs):
            if self.suffix == ".json":
                raise FileNotFoundError(self)
            return real_stat(self, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", racing_stat)
        # Triggers eviction; every stat sees the entry already gone.
        compile_workflow(a >> b, [order("b", "a")], cache=cache)

    def test_unlink_race_is_silent(self, tmp_path, monkeypatch):
        import pathlib

        cache = CompileCache(tmp_path, max_entries=1)
        a, b = atoms("a b")
        compile_workflow(a >> b, [order("a", "b")], cache=cache)

        def racing_unlink(self, *args, **kwargs):
            raise FileNotFoundError(self)

        monkeypatch.setattr(pathlib.Path, "unlink", racing_unlink)
        compile_workflow(a >> b, [order("b", "a")], cache=cache)
