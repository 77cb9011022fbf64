"""Access-pattern traces over untrusted memory.

The adversary of Section 2.2 controls the OS and observes every access the
enclave makes to untrusted memory: which region, which block index, and
whether it was a read or a write (contents are encrypted, so values are not
part of the observable trace).  :class:`AccessTrace` records exactly that
observable sequence, and is the object our security tests compare.

Obliviousness in ObliDB means: for any two databases/queries with identical
*leakage* (table sizes, result sizes, chosen physical plan), the traces are
identical.  ``AccessTrace`` supports cheap structural comparison via an
incremental digest so property-based tests can compare thousands of runs
without holding full event lists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Sequence

#: Upper bound on memoized batch patterns before the memo is reset.
_PATTERN_CACHE_MAX = 512


@dataclass(frozen=True)
class AccessEvent:
    """One observable access: ``op`` is ``'R'`` or ``'W'``.

    ``region`` names the untrusted allocation (e.g. a table's flat area or an
    ORAM tree); ``index`` is the block offset within it.  This matches what a
    malicious OS sees: the physical address and the direction of transfer.
    """

    op: str
    region: str
    index: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.op} {self.region}[{self.index}]"


class AccessTrace:
    """An append-only log of :class:`AccessEvent` with an incremental digest.

    Recording full event lists is useful for debugging but costs memory, so
    recording of the event list can be disabled (``keep_events=False``) while
    the digest — a running BLAKE2 hash over the event stream — is always
    maintained.  Two traces are *indistinguishable* exactly when their digests
    and lengths agree.
    """

    def __init__(self, keep_events: bool = True) -> None:
        self._keep_events = keep_events
        self._events: list[AccessEvent] = []
        self._hash = hashlib.blake2b(digest_size=16)
        self._length = 0
        # Memo of encoded batch patterns keyed by (kind, region, start, count):
        # oblivious passes repeat the same fixed patterns (full scans, the
        # merge levels of a sorting network), so the concatenated event string
        # is built once per distinct pattern and replayed thereafter.  Region
        # names are fresh per table, so the memo is bounded (reset when full)
        # to keep long-lived enclaves from accumulating patterns for regions
        # that have since been freed.
        self._pattern_cache: dict[tuple[str, str, int, int], bytes] = {}

    def record(self, op: str, region: str, index: int) -> None:
        """Append one access event to the trace."""
        self._hash.update(f"{op}|{region}|{index};".encode())
        self._length += 1
        if self._keep_events:
            self._events.append(AccessEvent(op, region, index))

    # ------------------------------------------------------------------
    # Batched recording.  BLAKE2b is a streaming hash, so hashing the
    # concatenation of N per-event strings in one ``update`` yields exactly
    # the digest of N :meth:`record` calls — these helpers amortize Python
    # overhead without changing the observable sequence by a single event.
    # ------------------------------------------------------------------
    def _remember_pattern(self, key: tuple[str, str, int, int], encoded: bytes) -> None:
        if len(self._pattern_cache) >= _PATTERN_CACHE_MAX:
            self._pattern_cache.clear()
        self._pattern_cache[key] = encoded

    def record_range(self, op: str, region: str, start: int, count: int) -> None:
        """Record ``count`` accesses to ``[start, start+count)``, in order.

        Digest-identical to ``record(op, region, i)`` for each ``i`` in the
        range.
        """
        if count <= 0:
            return
        cache_key = (op, region, start, count)
        encoded = self._pattern_cache.get(cache_key)
        if encoded is None:
            prefix = f"{op}|{region}|"
            encoded = "".join(
                f"{prefix}{i};" for i in range(start, start + count)
            ).encode()
            self._remember_pattern(cache_key, encoded)
        self._hash.update(encoded)
        self._length += count
        if self._keep_events:
            self._events.extend(
                AccessEvent(op, region, i) for i in range(start, start + count)
            )

    def record_at(self, op: str, region: str, indices: Sequence[int]) -> None:
        """Record one access per index, in the given (arbitrary) order.

        The gather/scatter analogue of :meth:`record_range` for
        non-contiguous slot sets — ORAM tree paths are heap-ordered, so a
        root→leaf read touches indices like ``0, 2, 5, 12``.  Digest-identical
        to ``record(op, region, i)`` for each ``i`` in ``indices``.  No
        pattern memoization: paths are short (tree depth) and their index
        sets are drawn from a large space, so caching would only churn the
        memo that the long contiguous patterns rely on.
        """
        if not indices:
            return
        # One %-format over the whole path: "%d" renders an int as str() does.
        event = f"{op}|{region}|".replace("%", "%%") + "%d;"
        self._hash.update(((event * len(indices)) % tuple(indices)).encode())
        self._length += len(indices)
        if self._keep_events:
            self._events.extend(AccessEvent(op, region, i) for i in indices)

    def record_interleaved(self, steps: Sequence[tuple[str, str, int]]) -> None:
        """Record a client-planned schedule of ``(op, region, index)`` steps.

        The cross-region analogue of :meth:`record_at`: operator passes that
        interleave reads and writes across *two* regions (a hash-join probe
        reads T2 and writes the output table; a sort-merge union reads a
        source table and writes the scratch) record their whole schedule with
        one call.  Digest-identical to ``record(op, region, i)`` per step, in
        the given order — the op, the region, and the index of every step are
        preserved exactly, so the adversary-visible sequence is bit-identical
        to the per-row loop.  No pattern memoization: schedules pair indices
        from two regions and shift per chunk, so their key space is too large
        to cache usefully.
        """
        if not steps:
            return
        self._hash.update(
            "".join(f"{op}|{region}|{index};" for op, region, index in steps).encode()
        )
        self._length += len(steps)
        if self._keep_events:
            self._events.extend(AccessEvent(op, region, index) for op, region, index in steps)

    def record_rw_range(self, region: str, start: int, count: int) -> None:
        """Record ``count`` interleaved (read, write) pairs over a range.

        The sequence is ``R start, W start, R start+1, W start+1, ...`` —
        the pattern of an oblivious read-modify-write pass (insert, update,
        delete over flat storage).
        """
        if count <= 0:
            return
        cache_key = ("rw", region, start, count)
        encoded = self._pattern_cache.get(cache_key)
        if encoded is None:
            read_prefix = f"R|{region}|"
            write_prefix = f"W|{region}|"
            encoded = "".join(
                f"{read_prefix}{i};{write_prefix}{i};"
                for i in range(start, start + count)
            ).encode()
            self._remember_pattern(cache_key, encoded)
        self._hash.update(encoded)
        self._length += 2 * count
        if self._keep_events:
            events = self._events
            for i in range(start, start + count):
                events.append(AccessEvent("R", region, i))
                events.append(AccessEvent("W", region, i))

    def record_pair_exchanges(self, region: str, start: int, half: int) -> None:
        """Record one compare-exchange pass at distance ``half``.

        For each ``i`` in ``[start, start+half)`` the sequence is
        ``R i, R i+half, W i, W i+half`` — the access pattern of one level of
        a bitonic merge over ``[start, start+2*half)``.
        """
        if half <= 0:
            return
        cache_key = ("px", region, start, half)
        encoded = self._pattern_cache.get(cache_key)
        if encoded is None:
            read_prefix = f"R|{region}|"
            write_prefix = f"W|{region}|"
            encoded = "".join(
                f"{read_prefix}{i};{read_prefix}{i + half};"
                f"{write_prefix}{i};{write_prefix}{i + half};"
                for i in range(start, start + half)
            ).encode()
            self._remember_pattern(cache_key, encoded)
        self._hash.update(encoded)
        self._length += 4 * half
        if self._keep_events:
            events = self._events
            for i in range(start, start + half):
                events.append(AccessEvent("R", region, i))
                events.append(AccessEvent("R", region, i + half))
                events.append(AccessEvent("W", region, i))
                events.append(AccessEvent("W", region, i + half))

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[AccessEvent]:
        if not self._keep_events:
            raise ValueError("trace was recorded without keeping events")
        return iter(self._events)

    @property
    def events(self) -> list[AccessEvent]:
        """The recorded events (requires ``keep_events=True``)."""
        if not self._keep_events:
            raise ValueError("trace was recorded without keeping events")
        return list(self._events)

    def digest(self) -> str:
        """Hex digest summarising the entire observable access sequence."""
        return self._hash.hexdigest()

    def matches(self, other: "AccessTrace") -> bool:
        """True when the two observable sequences are identical."""
        return self._length == other._length and self.digest() == other.digest()

    def clear(self) -> None:
        """Reset the trace to empty."""
        self._events.clear()
        self._hash = hashlib.blake2b(digest_size=16)
        self._length = 0
        self._pattern_cache.clear()

    def region_histogram(self) -> dict[str, int]:
        """Access counts per region (requires ``keep_events=True``)."""
        histogram: dict[str, int] = {}
        for event in self.events:
            histogram[event.region] = histogram.get(event.region, 0) + 1
        return histogram
