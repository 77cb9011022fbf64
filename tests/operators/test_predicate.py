"""Unit tests for the predicate AST."""

from __future__ import annotations

import pytest

from repro.enclave import QueryError
from repro.operators import And, Comparison, Interval, Not, Or, TruePredicate, conjunction
from repro.storage import Schema


class TestComparison:
    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("=", 5, True),
            ("=", 6, False),
            ("!=", 6, True),
            ("<", 6, True),
            ("<", 5, False),
            ("<=", 5, True),
            (">", 4, True),
            (">=", 5, True),
            (">=", 6, False),
        ],
    )
    def test_int_comparisons(self, kv_schema: Schema, op: str, value: int, expected: bool) -> None:
        predicate = Comparison("key", op, value).compile(kv_schema)
        assert predicate((5, "x")) is expected

    def test_string_comparison(self, kv_schema: Schema) -> None:
        predicate = Comparison("value", ">", "2018-01-01").compile(kv_schema)
        assert predicate((0, "2018-08-14"))
        assert not predicate((0, "2017-12-31"))

    def test_unknown_operator_rejected(self) -> None:
        with pytest.raises(QueryError):
            Comparison("key", "~", 1)

    def test_columns(self) -> None:
        assert Comparison("key", "=", 1).columns() == {"key"}


class TestCombinators:
    def test_and(self, kv_schema: Schema) -> None:
        predicate = And(
            Comparison("key", ">=", 2), Comparison("key", "<", 5)
        ).compile(kv_schema)
        assert [predicate((k, "")) for k in range(6)] == [
            False, False, True, True, True, False,
        ]

    def test_or(self, kv_schema: Schema) -> None:
        predicate = Or(
            Comparison("key", "=", 1), Comparison("key", "=", 3)
        ).compile(kv_schema)
        assert [predicate((k, "")) for k in range(4)] == [False, True, False, True]

    def test_not(self, kv_schema: Schema) -> None:
        predicate = Not(Comparison("key", "=", 1)).compile(kv_schema)
        assert predicate((0, ""))
        assert not predicate((1, ""))

    def test_nested(self, kv_schema: Schema) -> None:
        predicate = And(
            Or(Comparison("key", "<", 2), Comparison("key", ">", 8)),
            Not(Comparison("key", "=", 9)),
        ).compile(kv_schema)
        matching = [k for k in range(11) if predicate((k, ""))]
        assert matching == [0, 1, 10]

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_any_operand_count_short_circuits(self, kv_schema: Schema, count: int) -> None:
        """The operand after the deciding one is never evaluated: comparing
        a STR value with an int would raise."""
        raises = Comparison("value", "<", 0)
        deciding = [Comparison("key", ">=", 0)] * (count - 1)
        every = And(*deciding, Comparison("key", "<", 0), raises).compile(kv_schema)
        some = Or(*deciding, Comparison("key", ">", 0), raises).compile(kv_schema)
        assert not every((1, "x"))
        assert some((1, "x"))
        assert And(*deciding, Comparison("key", "=", 1)).compile(kv_schema)((1, "x"))
        assert not Or(*[Comparison("key", "<", 0)] * count).compile(kv_schema)((1, "x"))

    def test_true_predicate(self, kv_schema: Schema) -> None:
        assert TruePredicate().compile(kv_schema)((1, "x"))
        assert TruePredicate().columns() == set()

    def test_conjunction_helper(self, kv_schema: Schema) -> None:
        assert isinstance(conjunction([]), TruePredicate)
        single = Comparison("key", "=", 1)
        assert conjunction([single]) is single
        combined = conjunction([single, Comparison("key", "<", 5)])
        assert isinstance(combined, And)


class TestKeyInterval:
    def test_equality_interval(self) -> None:
        interval = Comparison("key", "=", 5).key_interval("key")
        assert interval == Interval(low=5, high=5)

    def test_range_operators(self) -> None:
        assert Comparison("key", ">", 5).key_interval("key") == Interval(
            low=5, low_open=True
        )
        assert Comparison("key", ">=", 5).key_interval("key") == Interval(low=5)
        assert Comparison("key", "<", 5).key_interval("key") == Interval(
            high=5, high_open=True
        )
        assert Comparison("key", "<=", 5).key_interval("key") == Interval(high=5)

    def test_not_equal_has_no_interval(self) -> None:
        assert Comparison("key", "!=", 5).key_interval("key") is None

    def test_other_column_has_no_interval(self) -> None:
        assert Comparison("value", "=", "x").key_interval("key") is None

    def test_and_intersects(self) -> None:
        predicate = And(Comparison("key", ">=", 2), Comparison("key", "<=", 9))
        assert predicate.key_interval("key") == Interval(low=2, high=9)

    def test_and_with_residual_on_other_column(self) -> None:
        """Conjuncts on other columns must not block index use."""
        predicate = And(
            Comparison("key", "=", 5), Comparison("value", ">", "2018")
        )
        assert predicate.key_interval("key") == Interval(low=5, high=5)

    def test_and_without_key_mention(self) -> None:
        predicate = And(Comparison("value", "=", "x"))
        assert predicate.key_interval("key") is None

    def test_and_with_uninvertible_conjunct(self) -> None:
        predicate = And(Comparison("key", "=", 5), Comparison("key", "!=", 3))
        assert predicate.key_interval("key") is None

    def test_or_has_no_interval(self) -> None:
        predicate = Or(Comparison("key", "=", 1), Comparison("key", "=", 9))
        assert predicate.key_interval("key") is None

    def test_interval_contains(self) -> None:
        interval = Interval(low=2, high=5, low_open=True)
        assert not interval.contains(2)
        assert interval.contains(3)
        assert interval.contains(5)
        assert not interval.contains(6)
