"""The campaign hot-path caching plane: one switch, shared accounting.

The paper's observation-at-scale claim rests on the apparatus being
cheap to produce and run; this module is the control point for every
cache that amortizes apparatus cost across a campaign — the Mulini
chassis cache, the shellvm parse and compile caches and the tarball
extraction-plan memo all register here.  The caches are pure
memoization: **they must never be observable** in results, traces or
fault injection.  A campaign run with caches disabled stores a
byte-identical database to one run with caches on
(``benchmarks/test_bench_hotpath.py`` enforces this), which is why the
switch exists at all — the identity tests need an honest cache-free
leg to diff against.

Use :func:`caches_disabled` to run a code block cache-free::

    with hotpath.caches_disabled():
        report = run_campaign(tbl)        # every artifact built fresh

Disabling clears every registered cache, so re-enabling starts cold;
:func:`stats` exposes per-cache hit/miss counters for the benchmark's
report (never for control flow).

The caches are also *tenant-shared*: a ``repro serve`` daemon
multiplexes many concurrent campaigns over one cache plane, and each
campaign wants its own hit/miss attribution.  :func:`tenant` scopes
the current thread to one campaign::

    with hotpath.tenant("campaign-7"):
        mulini.generate(...)              # hits/misses attributed

``stats(tenant="campaign-7")`` then reports exactly that campaign's
lookups.  The switch stays global: there is no per-tenant disable.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

_state_lock = threading.Lock()
_enabled = True
_caches = {}                # name -> MemoCache
_scope = threading.local()  # .tenant — this thread's campaign identity


def enabled():
    """Whether the hot-path caches are active (the global switch)."""
    return _enabled


def set_enabled(flag):
    """Flip the global cache switch; disabling drops cached entries.

    Meant for test/benchmark setup, not for flipping mid-campaign —
    workers observe the switch at their next cache lookup, and inside a
    daemon the switch is shared by every campaign.
    """
    global _enabled
    with _state_lock:
        _enabled = bool(flag)
        if not _enabled:
            for cache in _caches.values():
                cache.clear()


@contextmanager
def tenant(name):
    """Scope the calling thread to campaign *name* for attribution.

    Every cache lookup inside the scope is counted against *name* (see
    :func:`stats`).  Scopes nest; the inner tenant wins.  Worker
    threads don't inherit the scope — the fleet re-enters it around
    every task it runs on a campaign's behalf.
    """
    previous = getattr(_scope, "tenant", None)
    _scope.tenant = name
    try:
        yield
    finally:
        _scope.tenant = previous


@contextmanager
def caches_disabled():
    """Run a block with the hot-path caches off: every cache is emptied
    and every thread builds fresh until the block exits."""
    with _state_lock:
        previous = _enabled
    set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


def clear():
    """Empty every registered cache (counters included, all tenants) —
    the cold start the benchmark's caches-on leg measures from."""
    with _state_lock:
        for cache in _caches.values():
            cache.clear()


def forget_tenant(name):
    """Drop campaign *name*'s attribution counters from every cache
    (once its run card holds them); the plane-wide totals keep them."""
    with _state_lock:
        for cache in _caches.values():
            cache.forget_tenant(name)


def stats(tenant=None):
    """``{cache name: {"entries": n, "hits": h, "misses": m}}``.

    Without *tenant*, the counters aggregate every lookup since the
    last :func:`clear` (the historical shape).  With *tenant*, hits and
    misses are that campaign's alone; ``entries`` stays the shared
    table size, since entries belong to the plane, not to a tenant.
    """
    with _state_lock:
        return {name: cache.snapshot_stats(tenant=tenant)
                for name, cache in sorted(_caches.items())}


class MemoCache:
    """A bounded, thread-safe memo table honouring the global switch.

    Values must be immutable (or treated as such by every consumer):
    a hit returns the stored object itself, shared across threads.
    When the table reaches *capacity* the oldest entry is evicted
    (FIFO, by insertion order) — campaign working sets are far below
    any sane capacity, so eviction is a backstop against unbounded
    growth, not a tuning knob.

    Lookups made inside a :func:`tenant` scope are additionally
    attributed to that tenant, so a shared daemon can report per-
    campaign effectiveness from one table.
    """

    def __init__(self, name, capacity=4096):
        self.name = name
        self.capacity = capacity
        self._lock = threading.Lock()
        self._table = {}
        self._hits = 0
        self._misses = 0
        self._tenant_hits = {}      # tenant -> hits
        self._tenant_misses = {}    # tenant -> misses
        with _state_lock:
            _caches[name] = self

    def get(self, key, build):
        """The cached value for *key*, building (and storing) on miss.

        *build* runs outside the table lock; two threads racing the
        same key both build, and the later store wins — safe because
        values are pure functions of their key.
        """
        # The tenant lookup is inline: get() is the hottest call in a
        # warm campaign (every script compile, extraction plan and
        # chassis lookup lands here).
        if not _enabled:
            return build()
        tenant = getattr(_scope, "tenant", None)
        with self._lock:
            try:
                value = self._table[key]
                self._hits += 1
                if tenant is not None:
                    self._tenant_hits[tenant] = \
                        self._tenant_hits.get(tenant, 0) + 1
                return value
            except KeyError:
                self._misses += 1
                if tenant is not None:
                    self._tenant_misses[tenant] = \
                        self._tenant_misses.get(tenant, 0) + 1
        value = build()
        with self._lock:
            while len(self._table) >= self.capacity:
                # Evict the oldest entry (dict preserves insertion
                # order) rather than flushing: a flush would wipe every
                # concurrent tenant's hot entries the moment one
                # campaign overflows the table.
                del self._table[next(iter(self._table))]
            self._table[key] = value
        return value

    def clear(self):
        with self._lock:
            self._table.clear()
            self._hits = 0
            self._misses = 0
            self._tenant_hits.clear()
            self._tenant_misses.clear()

    def forget_tenant(self, tenant):
        with self._lock:
            self._tenant_hits.pop(tenant, None)
            self._tenant_misses.pop(tenant, None)

    def snapshot_stats(self, tenant=None):
        with self._lock:
            if tenant is not None:
                return {"entries": len(self._table),
                        "hits": self._tenant_hits.get(tenant, 0),
                        "misses": self._tenant_misses.get(tenant, 0)}
            return {"entries": len(self._table), "hits": self._hits,
                    "misses": self._misses}
