"""Plan-keyed result cache for repeated read-only queries.

ObliDB's leakage contract makes a result cache unusually clean to reason
about: a query's adversary-visible behaviour is exactly its compiled
:class:`~repro.planner.compile.QueryPlan` plus public sizes, and with the
catalog unchanged the compile is deterministic — the same statement against
the same table revisions always produces the same plan, the same trace,
and the same rows.  So repeated read-only statements can be answered from
enclave memory:

* **Hit:** the probe runs entirely on enclave-side state (a statement
  fingerprint plus the catalog's revision epochs) and returns a copy of
  the cached rows — **zero untrusted-memory accesses**.  The adversary
  observes only that *no* query trace occurred, which reveals repetition;
  this is the classic deduplication leakage trade-off, which is why the
  cache is **opt-in** (``ObliDB(result_cache_entries=...)``) and off by
  default.

* **Miss:** the probe touches nothing observable, then compilation and
  execution proceed exactly as without a cache — the trace is bit-
  identical to the uncached run (asserted by the security suite).

Keying.  Entries are indexed by ``(fingerprint, epochs)`` where the
fingerprint digests the canonical logical statement (including hidden
predicate parameters — two queries with equal *plans* but different
parameters must not collide) plus the engine configuration, and ``epochs``
snapshots each referenced table's :attr:`~repro.storage.table.Table.
revision`.  Because compilation is deterministic, this pair identifies
exactly one compiled plan; each stored entry also records that plan's
:attr:`~repro.planner.compile.QueryPlan.cache_key` — the plan-identity
digest the analysis layer uses — so the mapping *(entry → leaked plan)* is
explicit and testable.

Invalidation.  Every write path bumps the target table's revision epoch
(typed API and SQL/WAL statements alike), so stale entries can never be
returned; the write path additionally drops entries touching the written
table eagerly to keep the bounded LRU from filling with dead entries.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from .ast import QueryResult, SelectStatement


def statement_fingerprint(
    statement: SelectStatement,
    padding: object | None,
    allow_continuous: bool,
) -> str | None:
    """Digest of the full logical statement plus engine configuration.

    Statements are frozen dataclass trees (predicates included) whose
    ``repr`` is canonical, so equal queries — parameters and all — map to
    equal fingerprints and *only* equal queries do.  The fingerprint
    never leaves the enclave; computing it touches no untrusted memory.

    Returns ``None`` — statement not cacheable — when any component falls
    back to the address-based default ``object.__repr__`` (e.g. a
    user-defined :class:`~repro.operators.predicate.Predicate` subclass
    without a structural repr): an address is not an identity, and after
    allocator reuse two different predicates could collide on it.
    """
    text = f"{statement!r}|padding={padding!r}|continuous={allow_continuous}"
    if " object at 0x" in text:
        return None
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@dataclass
class CachedResult:
    """One cached read-only result plus the identity that justifies it."""

    epochs: tuple
    plan: object  # the compiled QueryPlan (the leaked value)
    plan_key: str  # QueryPlan.cache_key, the plan-identity digest
    tables: tuple[str, ...]
    rows: list
    column_names: list[str]
    affected: int

    def to_result(self) -> QueryResult:
        """A fresh QueryResult the caller may mutate freely.

        ``cost`` records the hit itself: no block accesses were consumed.
        """
        return QueryResult(
            rows=list(self.rows),
            column_names=list(self.column_names),
            affected=self.affected,
            cost={"cache_hits": 1},
            plan=self.plan,
        )


class PlanCache:
    """Bounded LRU result cache keyed on (statement fingerprint, epochs).

    Thread-safe: the serving layer probes and stores from concurrent
    sessions, so every LRU mutation (lookup's move-to-end and stale-entry
    eviction included — ``OrderedDict`` is not safe to reorder under
    concurrent iteration) happens under one reentrant lock.  Counters are
    bumped under the same lock so ``hits + misses`` always equals the
    number of lookups.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, CachedResult] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, fingerprint: str, epochs: tuple) -> CachedResult | None:
        """The cached result, if its table revisions are still current."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            if entry.epochs != epochs:
                # The catalog moved under the entry: it can never hit again.
                del self._entries[fingerprint]
                self.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            return entry

    def store(
        self, fingerprint: str, epochs: tuple, result: QueryResult
    ) -> None:
        """Record a freshly computed read-only result (LRU-evicting)."""
        plan = result.plan
        entry = CachedResult(
            epochs=epochs,
            plan=plan,
            plan_key=plan.cache_key if plan is not None else "",
            tables=tuple(plan.tables) if plan is not None else (),
            rows=list(result.rows),
            column_names=list(result.column_names),
            affected=result.affected,
        )
        with self._lock:
            self._entries[fingerprint] = entry
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def invalidate_table(self, table: str) -> None:
        """Drop every entry whose plan reads ``table`` (the write path)."""
        with self._lock:
            stale = [
                fingerprint
                for fingerprint, entry in self._entries.items()
                if table in entry.tables
            ]
            for fingerprint in stale:
                del self._entries[fingerprint]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
