"""Unit tests for the three oblivious JOIN algorithms."""

from __future__ import annotations

import random

import pytest

from repro.enclave import Enclave, QueryError, SchemaError
from repro.operators import (
    And,
    Comparison,
    hash_join,
    joined_schema,
    opaque_join,
    zero_om_join,
)
from repro.storage import FlatStorage, Schema, int_column, str_column

PRIMARY_SCHEMA = Schema([int_column("pk"), str_column("name", 8)])
FOREIGN_SCHEMA = Schema([int_column("fk"), int_column("amount")])


@pytest.fixture
def tables(fast_enclave: Enclave) -> tuple[FlatStorage, FlatStorage, list]:
    primary = FlatStorage(fast_enclave, PRIMARY_SCHEMA, 16)
    foreign = FlatStorage(fast_enclave, FOREIGN_SCHEMA, 32)
    rng = random.Random(21)
    primary_rows = [(i, f"p{i}") for i in range(12)]
    foreign_rows = [(rng.randrange(12), 100 + j) for j in range(25)]
    for row in primary_rows:
        primary.fast_insert(row)
    for row in foreign_rows:
        foreign.fast_insert(row)
    expected = sorted(
        (pk, name, fk, amount)
        for (pk, name) in primary_rows
        for (fk, amount) in foreign_rows
        if pk == fk
    )
    return primary, foreign, expected


class TestJoinedSchema:
    def test_concatenates(self) -> None:
        schema = joined_schema(PRIMARY_SCHEMA, FOREIGN_SCHEMA)
        assert schema.column_names() == ["pk", "name", "fk", "amount"]

    def test_collision_prefixed(self) -> None:
        left = Schema([int_column("id"), int_column("x")])
        right = Schema([int_column("id"), int_column("y")])
        schema = joined_schema(left, right)
        assert schema.column_names() == ["id", "x", "r_id", "y"]


class TestHashJoin:
    def test_correct_large_memory(self, tables) -> None:
        primary, foreign, expected = tables
        out = hash_join(primary, foreign, "pk", "fk", 1 << 20)
        assert sorted(out.rows()) == expected

    def test_correct_chunked(self, tables) -> None:
        """Tiny oblivious memory forces multiple chunks over T1."""
        primary, foreign, expected = tables
        out = hash_join(primary, foreign, "pk", "fk", 128)
        assert sorted(out.rows()) == expected

    def test_output_structure_size_formula(self, tables, fast_enclave) -> None:
        primary, foreign, _ = tables
        out = hash_join(primary, foreign, "pk", "fk", 1 << 20)
        # One chunk: output structure is 1 x |T2|.
        assert out.capacity == foreign.capacity

    def test_cost_scales_with_chunks(self, tables, fast_enclave: Enclave) -> None:
        primary, foreign, _ = tables
        costs = []
        for budget in (1 << 20, 128):
            before = fast_enclave.cost.block_ios
            out = hash_join(primary, foreign, "pk", "fk", budget)
            costs.append(fast_enclave.cost.block_ios - before)
            out.free()
        assert costs[1] > costs[0]

    def test_no_matches(self, fast_enclave: Enclave) -> None:
        primary = FlatStorage(fast_enclave, PRIMARY_SCHEMA, 4)
        foreign = FlatStorage(fast_enclave, FOREIGN_SCHEMA, 4)
        primary.fast_insert((1, "a"))
        foreign.fast_insert((2, 100))
        out = hash_join(primary, foreign, "pk", "fk", 1 << 20)
        assert out.rows() == []


class TestOpaqueJoin:
    def test_correct(self, tables) -> None:
        primary, foreign, expected = tables
        out = opaque_join(primary, foreign, "pk", "fk", 2048)
        assert sorted(out.rows()) == expected

    @pytest.mark.parametrize("budget", [512, 4096, 1 << 16])
    def test_correct_across_budgets(self, tables, budget: int) -> None:
        primary, foreign, expected = tables
        out = opaque_join(primary, foreign, "pk", "fk", budget)
        assert sorted(out.rows()) == expected

    def test_mismatched_join_types_rejected(self, fast_enclave: Enclave) -> None:
        left = FlatStorage(fast_enclave, PRIMARY_SCHEMA, 2)
        right = FlatStorage(
            fast_enclave, Schema([str_column("fk", 8), int_column("v")]), 2
        )
        with pytest.raises(QueryError):
            opaque_join(left, right, "pk", "fk", 1024)


class TestZeroOMJoin:
    def test_correct(self, tables) -> None:
        primary, foreign, expected = tables
        out = zero_om_join(primary, foreign, "pk", "fk")
        assert sorted(out.rows()) == expected

    def test_correct_with_enclave_cutover(self, tables) -> None:
        primary, foreign, expected = tables
        out = zero_om_join(primary, foreign, "pk", "fk", enclave_rows=16)
        assert sorted(out.rows()) == expected

    def test_uses_no_oblivious_memory(self, tables, fast_enclave: Enclave) -> None:
        primary, foreign, _ = tables
        before = fast_enclave.oblivious.peak_bytes
        zero_om_join(primary, foreign, "pk", "fk")
        assert fast_enclave.oblivious.peak_bytes == before

    def test_string_join_keys(self, fast_enclave: Enclave) -> None:
        left = FlatStorage(
            fast_enclave, Schema([str_column("url", 12), int_column("rank")]), 4
        )
        right = FlatStorage(
            fast_enclave, Schema([str_column("dest", 12), int_column("visits")]), 8
        )
        left.fast_insert(("a.com", 10))
        left.fast_insert(("b.com", 20))
        for row in [("a.com", 1), ("b.com", 2), ("a.com", 3), ("c.com", 4)]:
            right.fast_insert(row)
        out = zero_om_join(left, right, "url", "dest")
        assert sorted(out.rows()) == [
            ("a.com", 10, "a.com", 1),
            ("a.com", 10, "a.com", 3),
            ("b.com", 20, "b.com", 2),
        ]


class TestJoinObliviousness:
    def test_trace_independent_of_match_rate(self) -> None:
        """Joins of equal-size inputs with different key overlap must have
        identical traces (performance depends only on input sizes, §5)."""
        digests = []
        for overlap_seed in (1, 2):
            enclave = Enclave(cipher="null", keep_trace_events=True)
            primary = FlatStorage(enclave, PRIMARY_SCHEMA, 8)
            foreign = FlatStorage(enclave, FOREIGN_SCHEMA, 8)
            rng = random.Random(overlap_seed)
            for i in range(8):
                primary.fast_insert((i, "p"))
                foreign.fast_insert((rng.randrange(100), i))
            enclave.trace.clear()
            out = zero_om_join(primary, foreign, "pk", "fk")
            digests.append(enclave.trace.digest())
            out.free()
        assert digests[0] == digests[1]


class TestCompactJoinOutput:
    """``compact_output=True`` tightens every join to the |T2| FK bound."""

    @pytest.mark.parametrize(
        "join,kwargs",
        [
            (hash_join, {"oblivious_memory_bytes": 1 << 20}),
            (hash_join, {"oblivious_memory_bytes": 256}),  # multi-chunk probe
            (opaque_join, {"oblivious_memory_bytes": 1 << 16}),
            (zero_om_join, {}),
        ],
    )
    def test_tight_capacity_same_rows(self, tables, join, kwargs) -> None:
        primary, foreign, expected = tables
        out = join(primary, foreign, "pk", "fk", compact_output=True, **kwargs)
        assert out.capacity == foreign.capacity  # the public FK bound
        assert sorted(out.rows()) == expected
        assert out.used_rows == len(expected)
        out.free()

    def test_trace_is_data_independent(self) -> None:
        """All-match and no-match joins leave identical compacted traces."""
        traces = []
        for offset in (0, 1000):  # second run: no foreign key ever matches
            enclave = Enclave(cipher="null", keep_trace_events=True)
            primary = FlatStorage(enclave, PRIMARY_SCHEMA, 8)
            foreign = FlatStorage(enclave, FOREIGN_SCHEMA, 16)
            for i in range(8):
                primary.fast_insert((offset + i, f"p{i}"))
            for j in range(14):
                foreign.fast_insert((j % 8, j))
            enclave.trace.clear()
            hash_join(
                primary, foreign, "pk", "fk", 1 << 20, compact_output=True
            ).free()
            traces.append(enclave.trace)
        assert traces[0].matches(traces[1])


class TestRepeatedLeftKeyRejected:
    """T1 is the primary-key side.  A left table that repeats a join key
    used to lose rows silently (the hash build and the merge scan each kept
    only the last duplicate); every algorithm now raises, naming the
    column, once its passes are done."""

    JOINS = [
        (hash_join, {"oblivious_memory_bytes": 1 << 20}),  # repeat inside a chunk
        (hash_join, {"oblivious_memory_bytes": 1}),  # 1-row chunks: across chunks
        (opaque_join, {"oblivious_memory_bytes": 1 << 12}),
        (zero_om_join, {}),
    ]

    @pytest.mark.parametrize("join,kwargs", JOINS)
    @pytest.mark.parametrize("compact_output", [False, True])
    def test_raises_after_the_full_trace_and_frees_output(
        self, join, kwargs, compact_output: bool
    ) -> None:
        digests = []
        for left_keys in ([1, 2, 3, 4], [1, 2, 2, 4]):
            enclave = Enclave(cipher="null", keep_trace_events=True)
            primary = FlatStorage(enclave, PRIMARY_SCHEMA, 4)
            foreign = FlatStorage(enclave, FOREIGN_SCHEMA, 8)
            for position, key in enumerate(left_keys):
                primary.fast_insert((key, f"p{position}"))
            for j in range(6):
                foreign.fast_insert((1 + j % 4, j))
            regions = enclave.untrusted.region_names()
            enclave.trace.clear()
            if len(set(left_keys)) == len(left_keys):
                join(
                    primary, foreign, "pk", "fk", compact_output=compact_output, **kwargs
                ).free()
            else:
                with pytest.raises(QueryError, match="'pk' repeats a key"):
                    join(
                        primary,
                        foreign,
                        "pk",
                        "fk",
                        compact_output=compact_output,
                        **kwargs,
                    )
            digests.append(enclave.trace.digest())
            assert enclave.untrusted.region_names() == regions  # nothing left behind
        assert digests[0] == digests[1]  # the failure is not visible in the trace

    def test_repeat_among_dummies_and_unmatched_keys_still_raises(self) -> None:
        """The contract is about T1 alone: no T2 row needs to hit the repeat."""
        enclave = Enclave(cipher="null", keep_trace_events=False)
        primary = FlatStorage(enclave, PRIMARY_SCHEMA, 8)
        foreign = FlatStorage(enclave, FOREIGN_SCHEMA, 4)
        for row in [(7, "a"), (3, "b"), (7, "c")]:
            primary.fast_insert(row)
        foreign.fast_insert((3, 0))
        for join, kwargs in self.JOINS:
            with pytest.raises(QueryError, match="'pk'"):
                join(primary, foreign, "pk", "fk", **kwargs)


class TestFusedEmit:
    """``predicate`` / ``columns``: WHERE and the column list applied where a
    joined row is first materialised."""

    JOINS = TestRepeatedLeftKeyRejected.JOINS

    @pytest.mark.parametrize("join,kwargs", JOINS)
    def test_filters_and_projects(self, tables, join, kwargs) -> None:
        primary, foreign, expected = tables
        out = join(
            primary,
            foreign,
            "pk",
            "fk",
            predicate=And(Comparison("amount", ">=", 110), Comparison("pk", "<", 9)),
            columns=("name", "amount"),
            **kwargs,
        )
        assert out.schema.column_names() == ["name", "amount"]
        want = sorted(
            (name, amount)
            for (pk, name, _, amount) in expected
            if amount >= 110 and pk < 9
        )
        assert sorted(out.rows()) == want
        assert out.used_rows == len(want)
        out.free()

    @pytest.mark.parametrize("join,kwargs", JOINS)
    def test_shape_and_trace_independent_of_selectivity(self, join, kwargs) -> None:
        """A pair the predicate rejects is written as the dummy a key miss
        is: same slots, same trace, whatever the WHERE keeps."""
        seen = []
        for threshold in (0, 112, 10_000):  # keeps all / about half / none
            enclave = Enclave(cipher="null", keep_trace_events=True)
            primary = FlatStorage(enclave, PRIMARY_SCHEMA, 8)
            foreign = FlatStorage(enclave, FOREIGN_SCHEMA, 16)
            for i in range(8):
                primary.fast_insert((i, f"p{i}"))
            for j in range(16):
                foreign.fast_insert((j % 8, 100 + j))
            enclave.trace.clear()
            before = enclave.cost_snapshot()
            out = join(
                primary,
                foreign,
                "pk",
                "fk",
                predicate=Comparison("amount", ">=", threshold),
                columns=("amount",),
                **kwargs,
            )
            seen.append(
                (
                    enclave.trace.digest(),
                    enclave.cost.delta_since(before).snapshot(),
                    out.capacity,
                )
            )
            out.free()
        assert seen[0] == seen[1] == seen[2]

    def test_defaults_are_the_unfused_bytes(self, tables) -> None:
        primary, foreign, _ = tables
        plain = hash_join(primary, foreign, "pk", "fk", 1 << 20)
        explicit = hash_join(
            primary,
            foreign,
            "pk",
            "fk",
            1 << 20,
            columns=joined_schema(PRIMARY_SCHEMA, FOREIGN_SCHEMA).column_names(),
        )
        assert plain.schema == explicit.schema
        assert list(plain.scan_framed()) == list(explicit.scan_framed())

    def test_unknown_column_rejected_before_any_allocation(self, tables) -> None:
        primary, foreign, _ = tables
        enclave = primary.enclave
        regions = enclave.untrusted.region_names()
        for join, kwargs in self.JOINS:
            with pytest.raises(SchemaError):
                join(primary, foreign, "pk", "fk", columns=("ghost",), **kwargs)
            with pytest.raises(SchemaError):
                join(
                    primary,
                    foreign,
                    "pk",
                    "fk",
                    predicate=Comparison("ghost", "=", 1),
                    **kwargs,
                )
        assert enclave.untrusted.region_names() == regions
