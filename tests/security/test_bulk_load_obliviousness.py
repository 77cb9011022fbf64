"""Leakage of the bottom-up index build.

The load must show an observer nothing the per-row path does not: its
trace and cost counters are functions of the row count and the capacity
(never of keys, values or input order), and whether a batch is bulk-built
or inserted row by row is itself decided from public sizes alone.
"""

from __future__ import annotations

import random

import pytest

from repro import ObliDB
from repro.enclave import Enclave
from repro.storage import Schema, int_column, str_column
from repro.storage.indexed import IndexedStorage

SCHEMA = Schema([int_column("k"), int_column("v"), str_column("s", 8)])
CREATE = "CREATE TABLE t (k INT, v INT, s STR(8)) CAPACITY 64 METHOD both KEY k"
N = 40


def dataset(seed: int) -> list[tuple]:
    """``N`` rows whose keys (with duplicates), values and order all depend
    on ``seed``."""
    rng = random.Random(seed)
    return [
        (rng.randrange(-500, 500), rng.randrange(10**6), f"s{rng.randrange(99)}")
        for _ in range(N)
    ]


def loaded_db(rows: list[tuple], cipher: str = "null") -> ObliDB:
    db = ObliDB(cipher=cipher, keep_trace_events=True, seed=1)
    db.sql(CREATE)
    db.enclave.trace.clear()
    db.insert_many("t", rows)
    return db


def index_over(oram_kind: str, capacity: int = 64) -> tuple[Enclave, IndexedStorage]:
    enclave = Enclave(cipher="null", keep_trace_events=True)
    index = IndexedStorage(
        enclave, SCHEMA, "k", capacity, rng=random.Random(5), oram_kind=oram_kind
    )
    return enclave, index


def cached_buckets(oram) -> int:
    """Buckets of the tree's top ``k`` levels, which live in the enclave."""
    return (1 << oram.treetop_levels) - 1


class TestLoadIsDataIndependent:
    @pytest.mark.parametrize("cipher", ["null", "authenticated"])
    def test_same_trace_and_counters_for_different_data(self, cipher: str) -> None:
        """Through the engine: two batches of equal size leave the same
        trace digest, event for event, and the same cost counters."""
        runs = []
        for seed in (1, 2, 3):
            db = loaded_db(dataset(seed), cipher)
            assert db.table("t").indexed.tree.count == N
            runs.append((db.enclave.trace.digest(), db.enclave.cost.snapshot()))
        assert runs[0] == runs[1] == runs[2]

    def test_path_oram_trace_is_one_write_per_bucket(self) -> None:
        db = loaded_db(dataset(4))
        oram = db.table("t").indexed.oram
        on_oram = [
            (event.op, event.index)
            for event in db.enclave.trace.events
            if event.region == oram.region_name
        ]
        assert oram.treetop_levels == 5  # of 6 levels
        assert on_oram == [
            ("W", index) for index in range(cached_buckets(oram), oram.num_buckets)
        ]

    @pytest.mark.parametrize("oram_kind", ["ring", "recursive"])
    def test_default_load_is_data_independent(self, oram_kind: str) -> None:
        """One ordinary write per block: with the store's randomness fixed,
        the trace does not depend on what the blocks hold."""
        digests = []
        for seed in (1, 2):
            enclave, index = index_over(oram_kind)
            enclave.trace.clear()
            index.load(dataset(seed))
            digests.append((enclave.trace.digest(), enclave.cost.snapshot()))
        assert digests[0] == digests[1]

    def test_fewer_rows_same_path_oram_trace(self) -> None:
        """The sealing pass is a function of the capacity alone."""
        digests = []
        for rows in (dataset(1), dataset(2)[:9]):
            enclave, index = index_over("path")
            enclave.trace.clear()
            index.load(rows)
            digests.append(enclave.trace.digest())
        assert digests[0] == digests[1]


class TestLoadCostPins:
    """Counts, not clocks."""

    @pytest.mark.parametrize("oram_kind,k", [("path", 5), ("paper", 0)])
    def test_path_oram_load_is_one_write_per_uncached_bucket_and_no_access(
        self, oram_kind: str, k: int
    ) -> None:
        enclave, index = index_over(oram_kind)
        assert index.oram.treetop_levels == k
        before = enclave.cost.snapshot()
        index.load(dataset(6))
        delta = enclave.cost.delta_since(before).snapshot()
        assert delta["oram_accesses"] == 0
        assert delta["untrusted_writes"] == index.oram.num_buckets - (2**k - 1)
        assert delta["untrusted_reads"] == 0

    @pytest.mark.parametrize("oram_kind,factor", [("ring", 1), ("recursive", 2)])
    def test_default_load_is_one_access_per_block(self, oram_kind, factor) -> None:
        enclave, index = index_over(oram_kind)
        before = enclave.cost.oram_accesses
        index.load(dataset(6))
        nodes, _ = index.tree._packed_shape(N)
        assert enclave.cost.oram_accesses - before == factor * (N + nodes)


class TestPathChoiceIsPublic:
    @pytest.mark.parametrize("oram_kind", ["path", "paper"])
    def test_choice_is_a_function_of_row_count_and_capacity(self, oram_kind) -> None:
        """Same (n, capacity) ⇒ same choice, whatever the rows hold; the
        rule compares two closed forms in those public numbers: the blocks
        one sealing pass writes, and the blocks ``n`` padded inserts move."""
        choices = set()
        for capacity, n in [(64, 40), (64, 1), (4096, 1), (4096, 3), (4096, 64)]:
            _, index = index_over(oram_kind, capacity)
            tree, oram = index.tree, index.oram
            _, height = tree._packed_shape(n)
            access_blocks = 2 * (oram.levels - oram.treetop_levels)
            expected = (
                oram.num_buckets - cached_buckets(oram)
                < n * (3 * height + 4) * access_blocks
            )
            assert oram.load_accesses(n) * access_blocks == (
                oram.num_buckets - cached_buckets(oram)
            )
            assert tree.prefers_bulk_load(n) == expected, (capacity, n)
            choices.add(expected)
        assert choices == {True, False}

    def test_one_row_into_a_huge_empty_index_is_a_padded_burst(self) -> None:
        enclave = Enclave(cipher="null", keep_trace_events=True)
        index = IndexedStorage(enclave, SCHEMA, "k", 4096, rng=random.Random(5))
        assert not index.tree.prefers_bulk_load(1)
        before = enclave.cost.snapshot()
        index.insert_many([(7, 7, "seven")])
        delta = enclave.cost.delta_since(before).snapshot()
        assert delta["oram_accesses"] == 3 * 1 + 4  # the insert's padding target
        path_blocks = 7 * (index.oram.levels - index.oram.treetop_levels)
        assert delta["untrusted_writes"] == delta["untrusted_reads"] == path_blocks

    def test_non_empty_index_takes_the_per_row_path(self) -> None:
        """Bit for bit: ``insert_many`` on a non-empty index is the loop of
        padded inserts it always was."""
        traces = []
        for batched in (True, False):
            enclave, index = index_over("path")
            index.insert((0, 0, "first"))
            enclave.trace.clear()
            before = enclave.cost.snapshot()
            rows = dataset(8)[:10]
            if batched:
                assert not index.tree.prefers_bulk_load(len(rows))
                index.insert_many(rows)
            else:
                for row in rows:
                    index.insert(row)
            traces.append(
                (enclave.trace.digest(), enclave.cost.delta_since(before).snapshot())
            )
        assert traces[0] == traces[1]

    def test_no_room_for_the_directory_falls_back(self) -> None:
        enclave, index = index_over("path")
        enclave.oblivious.allocate(enclave.oblivious.free_bytes - 64)
        assert not index.tree.prefers_bulk_load(N)
        index.insert_many(dataset(9))  # row by row; needs no directory
        assert index.used_rows == N
        assert enclave.cost.oram_accesses > 0
