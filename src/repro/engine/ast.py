"""Logical query AST.

The engine separates *what* a query asks (these dataclasses) from *how* it
runs (the planner's physical plan).  The SQL parser produces these nodes;
programmatic users can build them directly for a typed API.

The logical plan is part of ObliDB's declared leakage — an observer learns
e.g. "a join then an aggregation ran against tables A and B" — while the
parameters inside predicates remain hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..enclave.errors import QueryError
from ..operators.aggregate import AggregateSpec
from ..operators.predicate import Predicate
from ..storage.schema import Value


@dataclass(frozen=True)
class JoinClause:
    """``JOIN right_table ON left_column = right_column``.

    The left side is the primary-key side for the sort-merge algorithms.
    """

    right_table: str
    left_column: str
    right_column: str


@dataclass(frozen=True)
class SelectStatement:
    """A read query: projection, optional join, filter, grouping, aggregates.

    ``columns`` lists plain output columns (empty means ``*`` when there are
    no aggregates).  ``aggregates`` holds aggregate expressions; with
    ``group_by`` set they are computed per group, otherwise over the whole
    filtered input.
    """

    table: str
    columns: tuple[str, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()
    join: JoinClause | None = None
    where: Predicate | None = None
    group_by: str | None = None
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 0:
            raise QueryError("LIMIT must be non-negative")
        if self.group_by is not None and not self.aggregates:
            raise QueryError("GROUP BY requires at least one aggregate")
        if self.order_by is not None and self.aggregates and self.group_by is None:
            raise QueryError("ORDER BY is meaningless for a scalar aggregate")
        if self.columns and self.aggregates and self.group_by is None:
            raise QueryError(
                "plain columns alongside aggregates require GROUP BY"
            )
        if self.group_by is not None and self.columns:
            extra = [c for c in self.columns if c != self.group_by]
            if extra:
                raise QueryError(
                    f"non-grouped columns {extra} in a GROUP BY query"
                )


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO table VALUES (...)``."""

    table: str
    values: tuple[Value, ...]
    fast: bool = False  # use flat storage's constant-time insert


@dataclass(frozen=True)
class UpdateStatement:
    """``UPDATE table SET column = value, ... WHERE ...``."""

    table: str
    assignments: tuple[tuple[str, Value], ...]
    where: Predicate | None = None


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM table WHERE ...``."""

    table: str
    where: Predicate | None = None


@dataclass(frozen=True)
class CreateTableStatement:
    """``CREATE TABLE`` with capacity, storage method, and optional index."""

    table: str
    columns: tuple[tuple[str, str, int], ...]  # (name, type, size)
    capacity: int
    method: str = "flat"  # flat | indexed | both
    key_column: str | None = None


@dataclass(frozen=True)
class ExplainStatement:
    """``EXPLAIN <statement>``: compile the target, run nothing.

    The result rows are the rendered lines of the compiled
    :class:`~repro.planner.compile.QueryPlan` — i.e. exactly the query's
    declared leakage, shown to the (trusted) client.
    """

    target: "Statement"


Statement = (
    SelectStatement
    | InsertStatement
    | UpdateStatement
    | DeleteStatement
    | CreateTableStatement
    | ExplainStatement
)


@dataclass
class QueryResult:
    """What a statement execution returns to the client.

    ``rows`` are the real result rows (dummies stripped — the client is
    trusted; only untrusted memory sees padded structures).  ``plan`` is
    the compiled :class:`~repro.planner.compile.QueryPlan` — the query's
    leaked value, and the only plan representation; ``cost`` the modeled
    block-access counters consumed.
    """

    rows: list[tuple[Value, ...]] = field(default_factory=list)
    column_names: list[str] = field(default_factory=list)
    affected: int = 0
    cost: dict[str, int] = field(default_factory=dict)
    plan: object | None = None  # QueryPlan (typed loosely: no engine→planner import cycle at runtime)

    def scalar(self) -> Value:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise QueryError("result is not a scalar")
        return self.rows[0][0]
