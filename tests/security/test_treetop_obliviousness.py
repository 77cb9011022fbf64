"""Leakage and fault detection with the ORAM treetop cached in the enclave.

Caching the top ``k`` levels deletes accesses from the trace — every access
to a bucket index ``< 2^k - 1`` — and adds none, so what is left is still
one uniform leaf per access, whatever block was touched.  These tests hold
that from the outside: traces of equal public shape are indistinguishable,
the leaf an access reveals is uniform, ``k`` itself is a function of public
sizes, and a host that misbehaves on a bucket it still stores is caught by
the same typed errors, with no access beyond the honest run's.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import FaultPlan, ObliDB
from repro.analysis import assert_indistinguishable, canonicalize, oram_regions_of
from repro.enclave import Enclave, IntegrityError
from repro.oram import PathORAM
from repro.oram.path_oram import _HEADER, treetop_levels_for

CREATE = "CREATE TABLE t (k INT, v INT, s STR(8)) CAPACITY 200 METHOD both KEY k"


class TestOramTraces:
    CAPACITY = 512  # 128 leaves, 8 levels; the default rule caches 5

    def _oram(self, seed: int) -> tuple[Enclave, PathORAM]:
        enclave = Enclave(cipher="null", keep_trace_events=True)
        oram = PathORAM(enclave, self.CAPACITY, 32, rng=random.Random(seed))
        assert (oram.levels, oram.treetop_levels) == (8, 5)
        return enclave, oram

    def test_different_contents_and_sequences_same_trace(self) -> None:
        """Equal capacity, equal length; different blocks, payloads, mix of
        reads, writes and dummies, and randomness ⇒ equal canonical traces,
        none of them reaching above the cached levels."""
        traces = []
        for seed in (1, 2, 3):
            enclave, oram = self._oram(seed)
            rng = random.Random(100 + seed)
            for block in rng.sample(range(self.CAPACITY), 40 * seed):
                oram.write(block, bytes([rng.randrange(256)] * rng.randrange(1, 32)))
            enclave.trace.clear()
            for _ in range(120):
                block = rng.randrange(self.CAPACITY)
                kind = rng.randrange(3)
                if kind == 0:
                    oram.read(block)
                elif kind == 1:
                    oram.write(block, bytes([seed]) * 7)
                else:
                    oram.dummy_access()
            events = enclave.trace.events
            assert len(events) == 120 * 2 * (oram.levels - oram.treetop_levels)
            assert min(oram.bucket_level(e.index) for e in events) == 5
            traces.append(canonicalize(events, {oram.region_name}))
        assert_indistinguishable(traces)

    @pytest.mark.parametrize("hot", [True, False])
    def test_revealed_leaf_is_uniform_whatever_is_touched(self, hot: bool) -> None:
        """Hammering one block or sweeping all of them, the leaf each
        access reveals covers the leaves evenly."""
        enclave = Enclave(cipher="null", keep_trace_events=True)
        oram = PathORAM(enclave, 64, 16, rng=random.Random(9))
        assert (oram.levels, oram.treetop_levels) == (5, 4)  # leaves only
        for block in range(64):
            oram.write(block, b"x")
        enclave.trace.clear()
        accesses = 3200
        for step in range(accesses):
            oram.read(0 if hot else step % 64)
        reads = [e.index for e in enclave.trace.events if e.op == "R"]
        assert len(reads) == accesses
        counts = Counter(reads)
        assert sorted(counts) == list(range(15, 31))  # the 16 leaf buckets
        expected = accesses / 16
        assert all(0.7 * expected < n < 1.3 * expected for n in counts.values())


class TestEngineTraces:
    """Two databases of equal public shape and different rows."""

    @staticmethod
    def _db(seed: int) -> ObliDB:
        db = ObliDB(cipher="null", keep_trace_events=True, seed=1)
        db.sql(CREATE)
        rng = random.Random(seed)
        for key in rng.sample(range(400), 60) + [500, 501, 502, 503]:
            db.sql(f"INSERT INTO t VALUES ({key}, {rng.randrange(10**6)}, 's{key % 97}')")
        return db

    @pytest.mark.parametrize(
        "statements",
        [
            ["SELECT * FROM t WHERE k = 500", "SELECT * FROM t WHERE k = 503"],
            [
                "SELECT * FROM t WHERE k >= 500 AND k <= 502",
                "SELECT * FROM t WHERE k >= 501 AND k <= 503",
            ],
            ["INSERT INTO t VALUES (2000, 1, 'a')", "INSERT INTO t VALUES (-7, 99, 'zz')"],
            ["DELETE FROM t WHERE k = 500", "DELETE FROM t WHERE k = 503"],
        ],
        ids=["point", "range", "insert", "delete"],
    )
    def test_equal_shape_different_rows_same_trace(self, statements) -> None:
        traces = []
        for seed, sql in zip((11, 12), statements):
            db = self._db(seed)
            oram = db.table("t").indexed.oram
            assert oram.treetop_levels == 5
            db.enclave.trace.clear()
            db.sql(sql)
            events = db.enclave.trace.events
            assert all(
                e.index >= 31 for e in events if e.region == oram.region_name
            )
            traces.append(canonicalize(events, oram_regions_of(db.enclave)))
        assert_indistinguishable(traces)


class TestTreetopSizeIsPublic:
    def test_k_is_the_closed_form_in_public_sizes(self) -> None:
        """Capacity, block size, bucket size, stash limit and the free
        oblivious bytes fix ``k``; the rng and the contents do not enter."""
        for capacity, block_size, bucket_size, stash_limit, budget in [
            (2000, 501, 4, 256, 1 << 20),
            (2000, 501, 4, 64, 1 << 20),
            (2000, 16, 4, 256, 1 << 20),
            (2000, 501, 2, 256, 1 << 20),
            (2000, 501, 4, 256, 160_000),
            (40, 501, 4, 256, 1 << 20),
        ]:
            seen = set()
            for seed in (1, 2):
                enclave = Enclave(oblivious_memory_bytes=budget, cipher="null")
                oram = PathORAM(
                    enclave,
                    capacity,
                    block_size,
                    bucket_size=bucket_size,
                    rng=random.Random(seed),
                    stash_limit=stash_limit,
                )
                for block in range(0, capacity, 7 * seed):
                    oram.write(block, bytes([seed]))
                seen.add((oram.treetop_levels, oram.oblivious_memory_bytes()))
            (k, charged), = seen
            stash_bytes = stash_limit * block_size
            spare = budget - 8 * capacity - stash_bytes
            assert k == treetop_levels_for(
                oram.levels,
                bucket_size * (_HEADER.size + block_size),
                min(stash_bytes, spare),
            )
            assert charged <= budget


class TestFaultsOnUncachedBuckets:
    """The host still stores every bucket below the treetop; tampering
    with, rolling back or dropping one is detected by the next access that
    opens it, and the faulty run's trace is a prefix of the honest run's."""

    LOOKUPS = [f"SELECT * FROM t WHERE k = {key}" for key in range(0, 60, 3)]

    @staticmethod
    def _db(plan: FaultPlan | None) -> ObliDB:
        db = ObliDB(fault_plan=plan, retry=None, keep_trace_events=True, seed=3)
        db.sql(CREATE)
        db.insert_many("t", [(key, key * key, f"s{key}") for key in range(60)])
        return db

    @pytest.mark.parametrize("fault", ["tamper", "serve_stale", "drop_write"])
    def test_typed_error_and_prefix_trace(self, fault: str) -> None:
        honest = self._db(None)
        for sql in self.LOOKUPS:
            honest.sql(sql)
        plan = FaultPlan()
        faulty = self._db(plan)
        oram = faulty.table("t").indexed.oram
        first_uncached = (1 << oram.treetop_levels) - 1
        assert 0 < first_uncached < oram.num_buckets
        for index in range(first_uncached, oram.num_buckets):
            getattr(plan, fault)(oram.region_name, index)
        with pytest.raises(IntegrityError):
            for sql in self.LOOKUPS:
                faulty.sql(sql)
        honest_events = [(e.op, e.region, e.index) for e in honest.enclave.trace.events]
        faulty_events = [(e.op, e.region, e.index) for e in faulty.enclave.trace.events]
        assert faulty_events == honest_events[: len(faulty_events)]
        assert len(faulty_events) < len(honest_events)
