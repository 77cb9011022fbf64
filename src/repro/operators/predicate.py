"""Predicate AST for selection conditions.

ObliDB supports selections "with conditions composed of arbitrary logical
combinations of equality or range queries" (Section 4).  Predicates are
small immutable trees compiled against a schema into plain row callables;
they also expose the structural analysis the planner and index need:

* :func:`key_interval` — if a predicate constrains one column to a single
  contiguous key interval, return it, so the engine can serve the query from
  the B+ tree (and the planner can leak only the segment size, Section 4.1).

Predicate *structure* is part of the physical plan (leaked); the *constants*
inside comparisons are query parameters (hidden — they only influence which
ciphertexts hold real rows, never the access pattern).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..enclave.errors import QueryError
from ..storage.schema import Row, Schema, Value

RowPredicate = Callable[[Row], bool]

# One closure factory per operator, so a compiled comparison is a single
# Python frame: ``row[i] < v``, not a lambda calling an operator lambda.
_OPS: dict[str, Callable[[int, Value], RowPredicate]] = {
    "=": lambda i, v: lambda row: row[i] == v,
    "!=": lambda i, v: lambda row: row[i] != v,
    "<": lambda i, v: lambda row: row[i] < v,  # type: ignore[operator]
    "<=": lambda i, v: lambda row: row[i] <= v,  # type: ignore[operator]
    ">": lambda i, v: lambda row: row[i] > v,  # type: ignore[operator]
    ">=": lambda i, v: lambda row: row[i] >= v,  # type: ignore[operator]
}


@dataclass(frozen=True)
class Interval:
    """A contiguous key interval; ``None`` bounds are unbounded.

    Bounds are inclusive — open bounds are normalised by the caller where
    the key domain allows it, otherwise kept via ``low_open``/``high_open``.
    """

    low: Value | None = None
    high: Value | None = None
    low_open: bool = False
    high_open: bool = False

    def contains(self, value: Value) -> bool:
        if self.low is not None:
            if value < self.low or (self.low_open and value == self.low):  # type: ignore[operator]
                return False
        if self.high is not None:
            if value > self.high or (self.high_open and value == self.high):  # type: ignore[operator]
                return False
        return True


class Predicate:
    """Base class for predicate nodes."""

    def compile(self, schema: Schema) -> RowPredicate:
        """A fast callable evaluating this predicate on rows of ``schema``."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of every column the predicate references."""
        raise NotImplementedError

    def key_interval(self, column: str) -> Interval | None:
        """The single contiguous interval this predicate implies for
        ``column``, or ``None`` if it cannot be expressed as one interval.

        Conservative: returns an interval only when the predicate *restricted
        to that column* is exactly an interval and the rest of the predicate
        is a conjunct that can be applied as a residual filter.
        """
        return None


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches every row (SELECT without WHERE)."""

    def compile(self, schema: Schema) -> RowPredicate:
        return lambda row: True

    def columns(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> constant`` for op in =, !=, <, <=, >, >=."""

    column: str
    op: str
    value: Value

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def compile(self, schema: Schema) -> RowPredicate:
        return _OPS[self.op](schema.column_index(self.column), self.value)

    def columns(self) -> set[str]:
        return {self.column}

    def key_interval(self, column: str) -> Interval | None:
        if column != self.column:
            return None
        if self.op == "=":
            return Interval(low=self.value, high=self.value)
        if self.op == "<":
            return Interval(high=self.value, high_open=True)
        if self.op == "<=":
            return Interval(high=self.value)
        if self.op == ">":
            return Interval(low=self.value, low_open=True)
        if self.op == ">=":
            return Interval(low=self.value)
        return None  # != is not a single interval


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of sub-predicates."""

    operands: tuple[Predicate, ...]

    def __init__(self, *operands: Predicate) -> None:
        object.__setattr__(self, "operands", tuple(operands))
        if len(self.operands) < 1:
            raise QueryError("And needs at least one operand")

    def compile(self, schema: Schema) -> RowPredicate:
        checks = [operand.compile(schema) for operand in self.operands]
        if len(checks) == 1:
            return checks[0]
        if len(checks) == 2:
            first, second = checks
            return lambda row: first(row) and second(row)

        def every(row: Row) -> bool:
            for check in checks:
                if not check(row):
                    return False
            return True

        return every

    def columns(self) -> set[str]:
        return set().union(*(operand.columns() for operand in self.operands))

    def key_interval(self, column: str) -> Interval | None:
        """Intersect the intervals of conjuncts that mention ``column``.

        Conjuncts on other columns act as residual filters and do not block
        index use, so they are ignored here (the engine applies the full
        predicate to the rows the index returns).
        """
        interval = Interval()
        saw_column = False
        for operand in self.operands:
            if column not in operand.columns():
                continue
            sub = operand.key_interval(column)
            if sub is None:
                return None
            saw_column = True
            interval = _intersect(interval, sub)
        return interval if saw_column else None


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of sub-predicates."""

    operands: tuple[Predicate, ...]

    def __init__(self, *operands: Predicate) -> None:
        object.__setattr__(self, "operands", tuple(operands))
        if len(self.operands) < 1:
            raise QueryError("Or needs at least one operand")

    def compile(self, schema: Schema) -> RowPredicate:
        checks = [operand.compile(schema) for operand in self.operands]
        if len(checks) == 1:
            return checks[0]
        if len(checks) == 2:
            first, second = checks
            return lambda row: first(row) or second(row)

        def some(row: Row) -> bool:
            for check in checks:
                if check(row):
                    return True
            return False

        return some

    def columns(self) -> set[str]:
        return set().union(*(operand.columns() for operand in self.operands))


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a sub-predicate."""

    operand: Predicate

    def compile(self, schema: Schema) -> RowPredicate:
        check = self.operand.compile(schema)
        return lambda row: not check(row)

    def columns(self) -> set[str]:
        return self.operand.columns()


def _intersect(a: Interval, b: Interval) -> Interval:
    """Intersection of two intervals (inclusive-bound bookkeeping)."""
    low, low_open = a.low, a.low_open
    if b.low is not None and (low is None or b.low > low or (b.low == low and b.low_open)):
        low, low_open = b.low, b.low_open
    high, high_open = a.high, a.high_open
    if b.high is not None and (
        high is None or b.high < high or (b.high == high and b.high_open)
    ):
        high, high_open = b.high, b.high_open
    return Interval(low=low, high=high, low_open=low_open, high_open=high_open)


def conjunction(predicates: Sequence[Predicate]) -> Predicate:
    """AND together a sequence, simplifying the 0/1-element cases."""
    if not predicates:
        return TruePredicate()
    if len(predicates) == 1:
        return predicates[0]
    return And(*predicates)
