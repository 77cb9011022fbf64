"""Security experiments: operator traces must depend only on declared leakage.

Each test runs the same operator over *different data and/or different query
parameters* chosen so the declared leakage (input size, output size, chosen
plan) is identical, then asserts the canonical untrusted-memory traces are
indistinguishable.  This is the executable form of the per-operator security
arguments in Section 4.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import assert_indistinguishable, canonicalize, oram_regions_of
from repro.enclave import Enclave
from repro.operators import (
    AggregateFunction,
    AggregateSpec,
    Comparison,
    aggregate,
    continuous_select,
    group_by_aggregate,
    hash_join,
    hash_select,
    large_select,
    opaque_join,
    small_select,
    zero_om_join,
)
from repro.storage import FlatStorage, Schema, int_column

SCHEMA = Schema([int_column("x"), int_column("payload")])


def build_table(enclave: Enclave, capacity: int, match_positions: set[int], seed: int) -> FlatStorage:
    """A table where rows at ``match_positions`` satisfy x = 1."""
    rng = random.Random(seed)
    table = FlatStorage(enclave, SCHEMA, capacity)
    for index in range(capacity):
        value = 1 if index in match_positions else rng.randrange(2, 1000)
        table.fast_insert((value, rng.randrange(10_000)))
    return table


def trace_of(run, positions: set[int], seed: int, capacity: int = 24):
    enclave = Enclave(
        oblivious_memory_bytes=1 << 16, cipher="null", keep_trace_events=True
    )
    table = build_table(enclave, capacity, positions, seed)
    enclave.trace.clear()
    run(table)
    return canonicalize(enclave.trace.events, oram_regions_of(enclave))


PREDICATE = Comparison("x", "=", 1)


class TestSelectObliviousness:
    def test_small_select_data_independent(self) -> None:
        """Same |T|, |R|: different matching positions, different payloads."""
        runs = [
            ({0, 5, 9}, 1),
            ({2, 11, 23}, 2),
            ({21, 22, 23}, 3),
        ]
        traces = [
            trace_of(lambda t: small_select(t, PREDICATE, 3, 4), pos, seed)
            for pos, seed in runs
        ]
        assert_indistinguishable(traces)

    def test_large_select_data_independent(self) -> None:
        runs = [({i for i in range(20)}, 1), ({i for i in range(2, 22)}, 9)]
        traces = [
            trace_of(lambda t: large_select(t, PREDICATE), pos, seed)
            for pos, seed in runs
        ]
        assert_indistinguishable(traces)

    def test_continuous_select_data_independent(self) -> None:
        """Different contiguous segments of equal length."""
        runs = [(set(range(0, 6)), 1), (set(range(10, 16)), 2), (set(range(18, 24)), 3)]
        traces = [
            trace_of(lambda t: continuous_select(t, PREDICATE, 6), pos, seed)
            for pos, seed in runs
        ]
        assert_indistinguishable(traces)

    def test_hash_select_data_independent(self) -> None:
        runs = [({1, 8, 15, 22}, 4), ({0, 3, 17, 23}, 5)]
        traces = [
            trace_of(lambda t: hash_select(t, PREDICATE, 4), pos, seed)
            for pos, seed in runs
        ]
        assert_indistinguishable(traces)

    def test_different_output_sizes_are_distinguishable(self) -> None:
        """Sanity check of the methodology: output size IS leaked, so traces
        with different |R| must differ."""
        small_output = trace_of(lambda t: small_select(t, PREDICATE, 2, 4), {0, 1}, 1)
        large_output = trace_of(
            lambda t: small_select(t, PREDICATE, 5, 4), {0, 1, 2, 3, 4}, 1
        )
        assert not small_output.matches(large_output)


class TestAggregateObliviousness:
    def test_plain_aggregate_data_independent(self) -> None:
        specs = [AggregateSpec(AggregateFunction.SUM, "payload")]
        traces = [
            trace_of(lambda t: aggregate(t, specs), pos, seed)
            for pos, seed in [({1, 2}, 1), ({5, 9}, 7)]
        ]
        assert_indistinguishable(traces)

    def test_fused_aggregate_hides_selectivity(self) -> None:
        """The fused operator's trace is identical whether the predicate
        matches nothing or everything — selectivity is NOT leaked."""
        specs = [AggregateSpec(AggregateFunction.COUNT)]
        none_match = trace_of(lambda t: aggregate(t, specs, PREDICATE), set(), 1)
        all_match = trace_of(
            lambda t: aggregate(t, specs, PREDICATE), set(range(24)), 2
        )
        assert none_match.matches(all_match)

    def test_group_by_data_independent_same_group_count(self) -> None:
        def run(table: FlatStorage) -> None:
            out = group_by_aggregate(
                table, "x", [AggregateSpec(AggregateFunction.COUNT)]
            )
            out.free()

        traces = []
        for seed in (1, 2):
            enclave = Enclave(
                oblivious_memory_bytes=1 << 16, cipher="null", keep_trace_events=True
            )
            table = FlatStorage(enclave, SCHEMA, 16)
            rng = random.Random(seed)
            # Always exactly 4 groups of 3 rows; group ids differ by seed.
            groups = rng.sample(range(100), 4)
            for group in groups:
                for _ in range(3):
                    table.fast_insert((group, rng.randrange(1000)))
            enclave.trace.clear()
            run(table)
            traces.append(canonicalize(enclave.trace.events, oram_regions_of(enclave)))
        assert_indistinguishable(traces)


class TestJoinObliviousness:
    @pytest.mark.parametrize(
        "join_fn,kwargs",
        [
            (hash_join, {"oblivious_memory_bytes": 256}),
            (opaque_join, {"oblivious_memory_bytes": 1024}),
            (zero_om_join, {}),
        ],
    )
    def test_join_trace_depends_only_on_sizes(self, join_fn, kwargs) -> None:
        """Joins of equal-sized inputs with different contents/selectivity
        produce identical traces (the Section 5 property the join planner
        relies on)."""
        traces = []
        for seed in (1, 2, 3):
            enclave = Enclave(
                oblivious_memory_bytes=1 << 16, cipher="null", keep_trace_events=True
            )
            rng = random.Random(seed)
            left = FlatStorage(enclave, SCHEMA, 8)
            right = FlatStorage(enclave, SCHEMA, 16)
            for i, key in enumerate(rng.sample(range(50), 8)):  # primary side
                left.fast_insert((key, i))
            for i in range(16):
                right.fast_insert((rng.randrange(50), i))
            enclave.trace.clear()
            out = join_fn(left, right, "x", "x", **kwargs)
            traces.append(canonicalize(enclave.trace.events, oram_regions_of(enclave)))
            out.free()
        assert_indistinguishable(traces)


class TestWriteObliviousness:
    def test_flat_insert_trace_fixed(self) -> None:
        """Inserting into a full-ish vs empty-ish table: same trace."""
        traces = []
        for fill, seed in ((2, 1), (20, 2)):
            enclave = Enclave(cipher="null", keep_trace_events=True)
            table = FlatStorage(enclave, SCHEMA, 24)
            rng = random.Random(seed)
            for _ in range(fill):
                table.fast_insert((rng.randrange(1000), rng.randrange(1000)))
            enclave.trace.clear()
            table.insert((999, 0))
            traces.append(canonicalize(enclave.trace.events))
        assert_indistinguishable(traces)

    def test_flat_update_trace_independent_of_matches(self) -> None:
        traces = []
        for positions, seed in ((set(), 1), (set(range(24)), 2)):
            enclave = Enclave(cipher="null", keep_trace_events=True)
            table = build_table(enclave, 24, positions, seed)
            enclave.trace.clear()
            table.update(lambda row: row[0] == 1, lambda row: (row[0], 0))
            traces.append(canonicalize(enclave.trace.events))
        assert_indistinguishable(traces)

    def test_flat_delete_trace_independent_of_matches(self) -> None:
        traces = []
        for positions, seed in (({3}, 1), (set(range(10)), 2)):
            enclave = Enclave(cipher="null", keep_trace_events=True)
            table = build_table(enclave, 24, positions, seed)
            enclave.trace.clear()
            table.delete(lambda row: row[0] == 1)
            traces.append(canonicalize(enclave.trace.events))
        assert_indistinguishable(traces)

    def test_btree_insert_trace_shape_independent_of_key(self) -> None:
        """Index inserts at fixed height: same canonical (level) shape."""
        from repro.storage import index_tree

        traces = []
        for key, seed in ((0, 1), (500, 1), (123456, 1)):
            enclave = Enclave(
                oblivious_memory_bytes=1 << 22, cipher="null", keep_trace_events=True
            )
            schema = Schema([int_column("key"), int_column("v")])
            index = index_tree(enclave, schema, "key", 300, rng=random.Random(seed))
            for base_key in range(64):
                index.insert((base_key * 2 + 1, 0))
            height = index.height
            enclave.trace.clear()
            index.insert((key * 2, 0))  # even keys: never duplicates
            assert index.height == height
            traces.append(
                canonicalize(enclave.trace.events, oram_regions_of(enclave))
            )
        assert_indistinguishable(traces)

    def test_btree_point_lookup_hit_vs_miss(self) -> None:
        from repro.storage import index_tree

        traces = []
        for key in (10, 11):  # 10 exists, 11 does not
            enclave = Enclave(
                oblivious_memory_bytes=1 << 22, cipher="null", keep_trace_events=True
            )
            schema = Schema([int_column("key"), int_column("v")])
            index = index_tree(enclave, schema, "key", 200, rng=random.Random(5))
            for base_key in range(0, 100, 2):
                index.insert((base_key, 0))
            enclave.trace.clear()
            index.search(key)
            traces.append(
                canonicalize(enclave.trace.events, oram_regions_of(enclave))
            )
        assert_indistinguishable(traces)
