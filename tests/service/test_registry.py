"""SpecRegistry: versioning, memo invalidation, hot reload, inline specs."""

import os

import pytest

from repro.service.registry import SpecRegistry, UnknownSpecError

ORDERS_V1 = """
goal: receive * (credit | stock) * approve
constraint: precedes(credit, approve)
property checked: precedes(credit, approve)
"""

ORDERS_V2 = """
goal: receive * (credit | stock) * approve
constraint: precedes(stock, approve)
property checked: precedes(stock, approve)
"""


class TestRegistration:
    def test_register_and_get(self):
        registry = SpecRegistry()
        entry = registry.register("orders", ORDERS_V1)
        assert entry.version == 1
        assert entry.key == "orders@1"
        assert registry.get("orders") is entry
        assert "orders" in registry
        assert registry.names() == ["orders"]

    def test_identical_text_is_a_noop(self):
        registry = SpecRegistry()
        first = registry.register("orders", ORDERS_V1)
        again = registry.register("orders", ORDERS_V1)
        assert again is first
        assert again.version == 1

    def test_changed_text_bumps_version(self):
        registry = SpecRegistry()
        registry.register("orders", ORDERS_V1)
        updated = registry.register("orders", ORDERS_V2)
        assert updated.version == 2
        assert updated.key == "orders@2"

    def test_unknown_spec_raises_with_known_names(self):
        registry = SpecRegistry()
        registry.register("orders", ORDERS_V1)
        with pytest.raises(UnknownSpecError) as excinfo:
            registry.get("claims")
        assert "orders" in str(excinfo.value)
        # Also a KeyError, so dict-minded callers can catch it naturally.
        assert isinstance(excinfo.value, KeyError)

    def test_parse_error_leaves_registry_unchanged(self):
        from repro.errors import ParseError

        registry = SpecRegistry()
        registry.register("orders", ORDERS_V1)
        with pytest.raises(ParseError):
            registry.register("orders", "goal: ((((\n")
        assert registry.get("orders").version == 1

    def test_unregister(self):
        registry = SpecRegistry()
        registry.register("orders", ORDERS_V1)
        assert registry.unregister("orders") is True
        assert registry.unregister("orders") is False
        assert len(registry) == 0

    def test_versions_only_grow_across_unregister(self):
        # A key is never reused: the batcher and both memos rely on it.
        registry = SpecRegistry()
        keys = []
        for text in (ORDERS_V1, ORDERS_V2, ORDERS_V1):
            keys.append(registry.register("orders", text).key)
            registry.unregister("orders")
        assert keys == ["orders@1", "orders@2", "orders@3"]


class TestCompiledMemo:
    def test_compile_is_memoized_per_version(self):
        registry = SpecRegistry()
        entry = registry.register("orders", ORDERS_V1)
        first = registry.compiled(entry)
        assert registry.compiled(entry) is first

    def test_reregistration_invalidates_the_memo(self):
        registry = SpecRegistry()
        old = registry.register("orders", ORDERS_V1)
        compiled_old = registry.compiled(old)
        new = registry.register("orders", ORDERS_V2)
        compiled_new = registry.compiled(new)
        assert compiled_new is not compiled_old
        assert compiled_new.constraints != compiled_old.constraints
        # The superseded version's memo entry is gone.
        assert old.key not in registry._compiled

    def test_stale_entry_compile_is_not_memoized(self):
        # A compile racing a re-registration must not resurrect the old
        # version's result under a key nobody will invalidate again.
        registry = SpecRegistry()
        old = registry.register("orders", ORDERS_V1)
        registry.register("orders", ORDERS_V2)
        registry.compiled(old)  # still returns a correct result...
        assert old.key not in registry._compiled  # ...but is not memoized

    def test_disk_cache_is_threaded_through(self, tmp_path):
        registry = SpecRegistry(cache=tmp_path / "cache")
        entry = registry.register("orders", ORDERS_V1)
        registry.compiled(entry)
        assert registry.cache.misses == 1
        # A fresh registry (new process, same cache dir) hits the disk.
        other = SpecRegistry(cache=tmp_path / "cache")
        other_entry = other.register("orders", ORDERS_V1)
        other.compiled(other_entry)
        assert other.cache.hits == 1


class TestAnswerMemo:
    def test_concurrent_answers_keep_the_bound_exact(self, tmp_path,
                                                     monkeypatch):
        import sys
        import threading

        from repro.constraints.algebra import must
        from repro.core.verify import VerificationResult
        from repro.service import registry as registry_module

        monkeypatch.setattr(registry_module, "_ANSWER_MEMO_EVENTS", 40)
        registry = SpecRegistry(cache=tmp_path)
        entry = registry.register("orders", ORDERS_V1)
        results = [VerificationResult(must(f"e{i}"), holds=i % 3 == 0,
                                      witness=None if i % 3 == 0
                                      else ("receive",) * (i % 5))
                   for i in range(64)]

        def worker(offset):
            for round_ in range(200):
                result = results[(offset * 7 + round_) % len(results)]
                registry.answers(entry, [result.property], None)
                registry.remember(entry, None, result)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stored = registry._answers.values()
        weight = sum(1 + len(witness or ()) for _, _, witness in stored)
        assert registry._answer_events == weight <= 40


class TestHotReload:
    def _write(self, path, text, mtime):
        path.write_text(text)
        os.utime(path, (mtime, mtime))

    def test_directory_preload(self, tmp_path):
        self._write(tmp_path / "orders.workflow", ORDERS_V1, 100.0)
        self._write(tmp_path / "claims.spec",
                    "goal: submit * review\n", 100.0)
        (tmp_path / "notes.txt").write_text("not a spec")
        registry = SpecRegistry(specs_dir=tmp_path)
        assert registry.names() == ["claims", "orders"]

    def test_unparseable_file_is_skipped_at_startup(self, tmp_path):
        self._write(tmp_path / "orders.workflow", ORDERS_V1, 100.0)
        self._write(tmp_path / "broken.workflow", "goal: ((((\n", 100.0)
        registry = SpecRegistry(specs_dir=tmp_path)
        assert registry.names() == ["orders"]

    def test_mtime_change_reloads(self, tmp_path):
        path = tmp_path / "orders.workflow"
        self._write(path, ORDERS_V1, 100.0)
        registry = SpecRegistry(specs_dir=tmp_path)
        assert registry.get("orders").version == 1
        self._write(path, ORDERS_V2, 200.0)
        reloaded = registry.get("orders")
        assert reloaded.version == 2
        assert "stock" in str(reloaded.spec.constraints[0])

    def test_unchanged_mtime_does_not_reload(self, tmp_path):
        path = tmp_path / "orders.workflow"
        self._write(path, ORDERS_V1, 100.0)
        registry = SpecRegistry(specs_dir=tmp_path)
        entry = registry.get("orders")
        # Rewrite content but keep the mtime: the stat check must not fire.
        self._write(path, ORDERS_V2, 100.0)
        assert registry.get("orders") is entry

    def test_file_appearing_after_startup_is_found(self, tmp_path):
        registry = SpecRegistry(specs_dir=tmp_path)
        with pytest.raises(UnknownSpecError):
            registry.get("orders")
        self._write(tmp_path / "orders.workflow", ORDERS_V1, 100.0)
        assert registry.get("orders").version == 1

    def test_vanished_file_keeps_serving_last_good_parse(self, tmp_path):
        path = tmp_path / "orders.workflow"
        self._write(path, ORDERS_V1, 100.0)
        registry = SpecRegistry(specs_dir=tmp_path)
        entry = registry.get("orders")
        path.unlink()
        assert registry.get("orders") is entry

    def test_mid_edit_garbage_keeps_serving_last_good_parse(self, tmp_path):
        path = tmp_path / "orders.workflow"
        self._write(path, ORDERS_V1, 100.0)
        registry = SpecRegistry(specs_dir=tmp_path)
        entry = registry.get("orders")
        self._write(path, "goal: ((((\n", 200.0)
        assert registry.get("orders") is entry


class TestDirectoryVanish:
    """Hot reload survives the specs directory itself disappearing —
    a deploy mid-swap or an unmounted volume must not take the daemon
    down with it."""

    def _write(self, path, text, mtime):
        path.write_text(text)
        os.utime(path, (mtime, mtime))

    def test_deleted_directory_keeps_serving_last_good(self, tmp_path):
        import shutil

        specs = tmp_path / "specs"
        specs.mkdir()
        self._write(specs / "orders.workflow", ORDERS_V1, 100.0)
        registry = SpecRegistry(specs_dir=specs)
        entry = registry.get("orders")
        shutil.rmtree(specs)
        # Lookups still answer from the last good parse...
        assert registry.get("orders") is entry
        # ...and a rescan reports nothing rather than raising.
        assert registry.load_directory() == []
        assert registry._dir_missing is True

    def test_recreated_directory_resumes_hot_reload(self, tmp_path):
        import shutil

        specs = tmp_path / "specs"
        specs.mkdir()
        self._write(specs / "orders.workflow", ORDERS_V1, 100.0)
        registry = SpecRegistry(specs_dir=specs)
        assert registry.get("orders").version == 1
        shutil.rmtree(specs)
        registry.load_directory()
        assert registry._dir_missing is True
        # The volume comes back with updated content: reload picks it up.
        specs.mkdir()
        self._write(specs / "orders.workflow", ORDERS_V2, 200.0)
        assert registry.load_directory() == ["orders"]
        assert registry._dir_missing is False
        assert registry.get("orders").version == 2

    def test_vanish_is_logged_once_not_per_lookup(self, tmp_path, caplog):
        import logging
        import shutil

        specs = tmp_path / "specs"
        specs.mkdir()
        self._write(specs / "orders.workflow", ORDERS_V1, 100.0)
        registry = SpecRegistry(specs_dir=specs)
        registry.get("orders")
        shutil.rmtree(specs)
        with caplog.at_level(logging.WARNING, logger="repro.service.registry"):
            for _ in range(5):
                registry.get("orders")
        assert sum("vanished" in r.message for r in caplog.records) == 1

    def test_startup_with_missing_directory_is_tolerated(self, tmp_path):
        registry = SpecRegistry(specs_dir=tmp_path / "never-created")
        assert registry.load_directory() == []
        with pytest.raises(UnknownSpecError):
            registry.get("orders")


class TestTenantView:
    def test_registrations_are_scoped(self):
        registry = SpecRegistry()
        acme = registry.namespaced("acme")
        rival = registry.namespaced("rival")
        entry = acme.register("orders", ORDERS_V1)
        assert entry.name == "acme::orders"
        assert acme.get("orders") is entry
        assert "orders" in acme
        assert "orders" not in rival
        with pytest.raises(UnknownSpecError):
            rival.get("orders")

    def test_shared_catalog_fallback(self):
        registry = SpecRegistry()
        shared = registry.register("orders", ORDERS_V1)
        acme = registry.namespaced("acme")
        # No tenant-scoped entry: the unprefixed catalog answers.
        assert acme.get("orders") is shared
        assert acme.names() == ["orders"]
        # A tenant registration shadows the shared entry for that tenant.
        own = acme.register("orders", ORDERS_V2)
        assert acme.get("orders") is own
        assert registry.namespaced("rival").get("orders") is shared

    def test_separator_in_name_cannot_escape_namespace(self):
        registry = SpecRegistry()
        registry.namespaced("other").register("secret", ORDERS_V1)
        acme = registry.namespaced("acme")
        with pytest.raises(UnknownSpecError):
            acme.get("other::secret")
        assert "other::secret" not in acme
        assert acme.names() == []

    def test_public_name_strips_only_own_prefix(self):
        registry = SpecRegistry()
        acme = registry.namespaced("acme")
        own = acme.register("orders", ORDERS_V1)
        assert acme.public_name(own) == "orders"
        shared = registry.register("claims", ORDERS_V1)
        assert acme.public_name(shared) == "claims"

    def test_tenant_name_validation(self):
        registry = SpecRegistry()
        with pytest.raises(ValueError):
            registry.namespaced("a::b")

    def test_inline_memo_is_shared_across_tenants(self):
        registry = SpecRegistry()
        a = registry.namespaced("acme").resolve_inline("goal: a * b\n")
        b = registry.namespaced("rival").resolve_inline("goal: a * b\n")
        assert a is b  # identical text, identical work


class TestInline:
    def test_identical_text_resolves_to_identical_entry(self):
        registry = SpecRegistry()
        a = registry.resolve_inline("goal: a * b\n")
        b = registry.resolve_inline("goal: a * b\n")
        assert a is b
        assert a.name.startswith("inline:")

    def test_different_text_gets_a_different_key(self):
        registry = SpecRegistry()
        a = registry.resolve_inline("goal: a * b\n")
        b = registry.resolve_inline("goal: b * a\n")
        assert a.key != b.key

    def test_inline_memo_is_bounded(self):
        from repro.service import registry as registry_module

        registry = SpecRegistry()
        for i in range(registry_module._INLINE_MEMO + 10):
            registry.resolve_inline(f"goal: a{i} * b{i}\n")
        assert len(registry._inline) == registry_module._INLINE_MEMO
