"""Named workflow specifications for the verification service.

A :class:`SpecRegistry` is the service's catalog: workflow specifications
registered by name (over HTTP or preloaded from a specs directory) and
served to the request handlers as parsed, *versioned* entries. Versioning
is what keeps the batching and caching layers honest:

* every registration that changes a specification's text bumps its
  version, and the batch key the :class:`~repro.service.batcher`
  groups requests under embeds that version — so requests racing a
  re-registration can never be coalesced with requests for the old text.
  Versions only grow: a name keeps its last version across
  :meth:`SpecRegistry.unregister`, so no key is ever reused;
* the in-memory memo of compiled workflows is keyed by the same
  ``name@version`` pair and dropped on re-registration, while the
  persistent :class:`~repro.core.compiler.CompileCache` underneath is
  content-addressed and needs no invalidation at all (the old entry
  simply stops being asked for).

A registry with a compile cache also keeps a bounded *answer memo*:
what ``/verify`` answers for one property of one specification under
one witness seed — the property's canonical text, whether it holds and
the witness, never the counterexample goal. By Theorem 5.9 (and, for
the witness, its seed) that answer is fixed by the specification's text,
so the memo is content-addressed by :attr:`SpecEntry.digest` and needs
no invalidation either: an edited spec gets a new digest, switching back
to old text finds its answers again, and the least recently used answers
are evicted past :data:`_ANSWER_MEMO_EVENTS`. The daemon answers a
request the memo covers without reaching the batcher. A registry without
a cache (the default, and ``--no-cache``) keeps no answers: whatever it
serves, it computed.

Entries loaded from a specs directory *hot-reload*: every lookup stats
the backing file and re-registers it when its mtime changed, so editing
``orders.workflow`` on disk is visible to the next request without
restarting the daemon. A file that vanishes keeps serving its last good
parse — a deploy atomically replacing files must never 404 mid-swap.
The same applies one level up: the whole specs *directory* being deleted
and recreated mid-scan (an rsync-style deploy, a remounted volume) is
survived by serving last-good entries, logging the disappearance once,
and resuming hot-reload when the directory reappears — never by letting
``FileNotFoundError`` escape the mtime walk into a request handler.

Multi-tenant routers scope the catalog with :meth:`SpecRegistry.namespaced`:
a :class:`TenantView` prefixes registrations with ``tenant::`` so two
tenants' specs of the same name never collide nor coalesce, while
directory-loaded (unprefixed) entries stay visible to every tenant as a
shared read-only catalog. Inline text stays content-addressed globally —
verification is pure, so identical text may safely share one compile.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from ..errors import ReproError
from ..spec import Specification, parse_specification

__all__ = ["SpecEntry", "SpecRegistry", "TenantView", "UnknownSpecError"]

log = logging.getLogger("repro.service.registry")

#: Separator between a tenant namespace and the spec's own name.
TENANT_SEP = "::"

#: File suffixes the directory scan recognises as specifications.
SPEC_SUFFIXES = (".workflow", ".spec")

#: How many anonymous (inline-text) entries to remember; content-addressed,
#: so eviction only costs a re-parse.
_INLINE_MEMO = 64

#: How many witness events the answer memo holds before it evicts the least
#: recently used answers. An answer weighs one plus its witness's length, so
#: a property that holds (no witness) still counts.
_ANSWER_MEMO_EVENTS = 1 << 16


class UnknownSpecError(ReproError, KeyError):
    """A request named a specification the registry does not hold."""

    def __init__(self, name: str, known: tuple[str, ...] = ()):
        self.name = name
        self.known = known
        message = f"unknown specification {name!r}"
        if known:
            message += "; registered: " + ", ".join(sorted(known))
        ReproError.__init__(self, message)


@dataclass(frozen=True)
class SpecEntry:
    """One registered specification at one version."""

    name: str
    version: int
    text: str
    spec: Specification
    source: Path | None = None
    mtime: float | None = None

    @property
    def key(self) -> str:
        """The batch/memo key: stable for a (name, text) pair, never reused
        across re-registrations with different text."""
        return f"{self.name}@{self.version}"

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the text, computed once: the answer memo's address."""
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


class SpecRegistry:
    """Thread-safe catalog of named specifications with compiled memos.

    The registry is touched from the event-loop thread (registration,
    lookups) *and* from executor threads (compiles), so every access to
    the internal maps takes ``_lock``. Compilation itself runs outside
    the lock — two threads racing to compile the same entry do redundant
    work at worst, and the content-addressed disk cache makes even that
    mostly a cache hit.
    """

    def __init__(self, specs_dir: str | Path | None = None, cache=None):
        from ..core.compiler import CompileCache

        self.cache = CompileCache.coerce(cache)
        self.specs_dir = Path(specs_dir) if specs_dir is not None else None
        self._lock = threading.Lock()
        self._entries: dict[str, SpecEntry] = {}
        self._versions: dict[str, int] = {}  # name -> last version, kept on unregister
        self._compiled: dict[str, object] = {}  # SpecEntry.key -> CompiledWorkflow
        self._inline: OrderedDict[str, SpecEntry] = OrderedDict()
        # (digest, property, seed) -> (canonical text, holds, witness)
        self._answers: OrderedDict | None = (
            OrderedDict() if self.cache is not None else None
        )
        self._answer_events = 0
        self._dir_missing = False  # log the disappearance once, not per lookup
        if self.specs_dir is not None:
            self.load_directory()

    # -- registration ---------------------------------------------------------

    def register(self, name: str, text: str, source: Path | None = None,
                 mtime: float | None = None) -> SpecEntry:
        """Parse and register ``text`` under ``name``; returns the entry.

        Re-registering identical text is a no-op returning the existing
        entry (same version, memo intact). Different text bumps the
        version and drops the old version's compiled memo; so does a
        registration after :meth:`unregister`, whose version follows the
        name's last one.
        """
        spec = parse_specification(text)  # parse errors propagate pre-mutation
        with self._lock:
            previous = self._entries.get(name)
            if previous is not None and previous.text == text:
                if mtime is not None and previous.mtime != mtime:
                    # Same content, fresher file: remember the new mtime so
                    # the hot-reload stat check quiesces.
                    entry = SpecEntry(name, previous.version, text, previous.spec,
                                      source=source, mtime=mtime)
                    self._entries[name] = entry
                    return entry
                return previous
            version = self._versions.get(name, 0) + 1
            self._versions[name] = version
            entry = SpecEntry(name, version, text, spec, source=source, mtime=mtime)
            self._entries[name] = entry
            if previous is not None:
                self._compiled.pop(previous.key, None)
            return entry

    def unregister(self, name: str) -> bool:
        """Drop ``name``; returns whether it was registered. The name keeps
        its last version, so registering it again starts a new one."""
        with self._lock:
            entry = self._entries.pop(name, None)
            if entry is not None:
                self._compiled.pop(entry.key, None)
            return entry is not None

    def load_directory(self) -> list[str]:
        """(Re)load every spec file in ``specs_dir``; returns loaded names.

        The stem is the registered name: ``orders.workflow`` → ``orders``.
        Unparseable files are skipped (a daemon must come up even when one
        spec in the directory is mid-edit); they surface on explicit lookup.
        A directory that vanished (deploy mid-swap, unmounted volume)
        yields ``[]`` and keeps the already-registered entries serving.
        """
        if self.specs_dir is None:
            return []
        loaded = []
        try:
            listing = sorted(self.specs_dir.iterdir())
        except OSError:
            # The directory itself is gone — even is_dir() then iterdir()
            # races a deletion, so catch rather than pre-check.
            self._note_dir_missing()
            return []
        self._note_dir_present()
        for path in listing:
            if path.suffix not in SPEC_SUFFIXES or not path.is_file():
                continue
            try:
                stat = path.stat()
                self.register(path.stem, path.read_text(encoding="utf-8"),
                              source=path, mtime=stat.st_mtime)
                loaded.append(path.stem)
            except (OSError, ReproError):
                continue
        return loaded

    def _note_dir_missing(self) -> None:
        if not self._dir_missing:
            self._dir_missing = True
            log.warning(
                "specs directory %s vanished; serving last-good entries "
                "until it reappears", self.specs_dir,
            )

    def _note_dir_present(self) -> None:
        if self._dir_missing:
            self._dir_missing = False
            log.info("specs directory %s reappeared; hot-reload resumed",
                     self.specs_dir)

    # -- lookup ---------------------------------------------------------------

    def get(self, name: str) -> SpecEntry:
        """The current entry for ``name``, hot-reloading from disk if stale."""
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            entry = self._load_from_dir(name)
            if entry is None:
                with self._lock:
                    known = tuple(self._entries)
                raise UnknownSpecError(name, known)
            return entry
        if entry.source is not None:
            try:
                mtime = entry.source.stat().st_mtime
            except OSError:
                # File (or the whole directory) vanished: keep serving the
                # last good parse and say so once.
                if self.specs_dir is not None and not self.specs_dir.is_dir():
                    self._note_dir_missing()
                return entry
            self._note_dir_present()
            if mtime != entry.mtime:
                try:
                    text = entry.source.read_text(encoding="utf-8")
                    return self.register(name, text, source=entry.source,
                                         mtime=mtime)
                except (OSError, ReproError):
                    return entry  # mid-edit or unreadable: last good parse
        return entry

    def _load_from_dir(self, name: str) -> SpecEntry | None:
        """A file that appeared in ``specs_dir`` after startup."""
        if self.specs_dir is None:
            return None
        for suffix in SPEC_SUFFIXES:
            path = self.specs_dir / f"{name}{suffix}"
            try:
                stat = path.stat()
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue
            return self.register(name, text, source=path, mtime=stat.st_mtime)
        return None

    def resolve_inline(self, text: str) -> SpecEntry:
        """An anonymous entry for inline request text, content-addressed.

        Identical text always resolves to the identical entry (and hence
        the same batch key), so concurrent inline requests for the same
        specification coalesce exactly like named ones.
        """
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        name = f"inline:{digest}"
        with self._lock:
            entry = self._inline.get(name)
            if entry is not None:
                self._inline.move_to_end(name)
                return entry
        spec = parse_specification(text)
        entry = SpecEntry(name, 1, text, spec)
        with self._lock:
            self._inline[name] = entry
            self._inline.move_to_end(name)
            while len(self._inline) > _INLINE_MEMO:
                evicted, _ = self._inline.popitem(last=False)
                self._compiled.pop(f"{evicted}@1", None)
        return entry

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    # -- tenant namespaces -----------------------------------------------------

    def namespaced(self, tenant: str) -> "TenantView":
        """A :class:`TenantView` scoping this catalog to ``tenant``.

        Views share the underlying maps, compile memo, answer memo and
        disk cache — a namespace is a key prefix, not a copy.
        """
        return TenantView(self, tenant)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- compilation ----------------------------------------------------------

    def compiled(self, entry: SpecEntry, obs=None):
        """``compile_workflow`` for ``entry``, memoized on ``entry.key``.

        The memo holds compiles of the *current* versions only (superseded
        keys are dropped at registration time); the disk cache underneath
        persists every version content-addressed, so flapping between two
        texts stays cheap.
        """
        with self._lock:
            hit = self._compiled.get(entry.key)
        if hit is not None:
            return hit
        from ..core.compiler import compile_workflow

        spec = entry.spec
        compiled = compile_workflow(spec.goal, list(spec.constraints),
                                    rules=spec.rules, cache=self.cache, obs=obs)
        with self._lock:
            # Don't memoize under a superseded key: a concurrent
            # re-registration (or inline-memo eviction) may have already
            # dropped this version.
            if entry.name.startswith("inline:"):
                if entry.name in self._inline:
                    self._compiled[entry.key] = compiled
            else:
                current = self._entries.get(entry.name)
                if current is not None and current.key == entry.key:
                    self._compiled[entry.key] = compiled
        return compiled

    # -- answers --------------------------------------------------------------

    def answers(self, entry: SpecEntry, props, seed: int | None) -> list:
        """The memoized answers for ``props`` of ``entry`` under witness
        ``seed``, in order, ``None`` for each one the memo lacks (every one,
        without a compile cache). A hit becomes the most recently used."""
        if self._answers is None:
            return [None] * len(props)
        digest = entry.digest  # hashed once per entry, outside the lock
        found = []
        with self._lock:
            for prop in props:
                key = (digest, prop, seed)
                answer = self._answers.get(key)
                if answer is not None:
                    self._answers.move_to_end(key)
                found.append(answer)
        return found

    def remember(self, entry: SpecEntry, seed: int | None, result) -> tuple:
        """The answer ``/verify`` gives for ``result`` — a
        :class:`~repro.core.verify.VerificationResult` computed for
        ``entry`` under witness ``seed`` — as ``(canonical text, holds,
        witness)``, memoized when the registry has a compile cache."""
        answer = (str(result.property), result.holds, result.witness)
        if self._answers is None:
            return answer
        key = (entry.digest, result.property, seed)
        with self._lock:
            if key in self._answers:  # a concurrent request stored it first
                self._answers.move_to_end(key)
                return answer
            self._answers[key] = answer
            self._answer_events += _weight(answer)
            while self._answer_events > _ANSWER_MEMO_EVENTS:
                _, evicted = self._answers.popitem(last=False)
                self._answer_events -= _weight(evicted)
        return answer


def _weight(answer: tuple) -> int:
    """An answer's share of :data:`_ANSWER_MEMO_EVENTS`."""
    return 1 + len(answer[2] or ())


class TenantView:
    """A per-tenant window onto a :class:`SpecRegistry`.

    Registrations are keyed ``tenant::name``, so tenants can neither
    shadow nor read each other's specs; lookups fall back to the
    registry's *unprefixed* entries (the specs-directory preload), which
    act as a catalog shared by every tenant. Inline text resolves through
    the shared content-addressed memo — identical text is identical work,
    whoever asks.
    """

    def __init__(self, registry: SpecRegistry, tenant: str):
        if TENANT_SEP in tenant:
            raise ValueError(f"tenant name may not contain {TENANT_SEP!r}")
        self.registry = registry
        self.tenant = tenant

    def _scoped(self, name: str) -> str:
        if TENANT_SEP in name:
            # Never let "other::secret" escape the namespace via the
            # shared-catalog fallback in :meth:`get`.
            raise UnknownSpecError(name, tuple(self.names()))
        return f"{self.tenant}{TENANT_SEP}{name}"

    def public_name(self, entry: SpecEntry) -> str:
        """The client-facing name: the entry's name minus this namespace."""
        prefix = f"{self.tenant}{TENANT_SEP}"
        if entry.name.startswith(prefix):
            return entry.name[len(prefix):]
        return entry.name

    def register(self, name: str, text: str) -> SpecEntry:
        return self.registry.register(self._scoped(name), text)

    def unregister(self, name: str) -> bool:
        return self.registry.unregister(self._scoped(name))

    def get(self, name: str) -> SpecEntry:
        scoped = self._scoped(name)  # outside the try: its refusal of
        # "other::secret" must not be mistaken for a plain miss below.
        try:
            return self.registry.get(scoped)
        except UnknownSpecError:
            pass
        try:
            return self.registry.get(name)  # the shared (directory) catalog
        except UnknownSpecError:
            raise UnknownSpecError(name, tuple(self.names())) from None

    def resolve_inline(self, text: str) -> SpecEntry:
        return self.registry.resolve_inline(text)

    def compiled(self, entry: SpecEntry, obs=None):
        return self.registry.compiled(entry, obs=obs)

    def names(self) -> list[str]:
        prefix = f"{self.tenant}{TENANT_SEP}"
        out = set()
        for name in self.registry.names():
            if name.startswith(prefix):
                out.add(name[len(prefix):])
            elif TENANT_SEP not in name:
                out.add(name)  # shared catalog entry
        return sorted(out)

    def __contains__(self, name: str) -> bool:
        if TENANT_SEP in name:
            return False
        return (f"{self.tenant}{TENANT_SEP}{name}" in self.registry
                or name in self.registry)
