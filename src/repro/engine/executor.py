"""Plan execution: compiled :class:`~repro.planner.compile.QueryPlan` trees
→ physical operators.

The executor no longer plans anything.  Every access-method, algorithm,
fusion, and padding decision is made by :mod:`repro.planner.compile`, which
turns a logical statement into a typed plan tree; this module is two thin
layers on top of it:

* :class:`Executor` — the statement entry point: compile, run, attach the
  leaked plan and cost counters to the result.

* :class:`PlanRunner` — a structural walk of the plan tree that invokes
  the existing batched operators.  The only "logic" here is mechanical,
  and it sits in one place: :meth:`PlanRunner._source` resolves any node
  to its output — a table or a :class:`~repro.planner.compile.HeldSegment`
  — running the join, selection or compaction the node names with the
  sizes it carries, binding the output to the node in the compiled
  query's one binding map and freeing it when the consumer is done.  Each
  consumer (selection shape, aggregate, GROUP BY) branches on that value
  once.  The compiled plan is the executed plan; the one thing the runner
  adds is a grouped aggregate's *observed* output size, recorded into the
  final plan attached to the result as ``QueryResult.plan``.

The module-level :func:`run_select_algorithm` / :func:`run_join_algorithm`
are the enum → operator dispatch tables (no decisions).  Code that plans
one operator by hand — the workloads, the figure benchmarks — calls them
with the fields of a :class:`~repro.planner.select_planner.SelectDecision`
or :class:`~repro.planner.join_planner.JoinDecision`.  :func:`run_write` is
the write statement's operator call, which the executor and Theorem 1's
simulator (:mod:`repro.analysis.simulator`) share, as they share
:class:`PlanRunner`.
"""

from __future__ import annotations

import random
from contextlib import closing, contextmanager
from dataclasses import replace
from typing import Callable, Iterator, Sequence

from ..enclave.errors import ObliviousMemoryError, PlannerError, QueryError
from ..operators.aggregate import (
    _sorted_group_aggregate,
    aggregate,
    aggregate_rows,
    check_group_count,
    group_by_aggregate,
    group_rows,
    hash_group_rows,
)
from ..operators.join import hash_join, held_hash_join, opaque_join, zero_om_join
from ..operators.predicate import Predicate, TruePredicate
from ..operators.select import (
    continuous_select,
    hash_select,
    large_select,
    naive_select,
    small_passes,
    small_select,
)
from ..operators.sort import bitonic_sort, padded_scratch
from ..operators.write import oblivious_delete, oblivious_insert, oblivious_update
from ..planner.compile import (
    AggregateNode,
    CompactNode,
    CompiledQuery,
    GroupByNode,
    HeldSegment,
    JoinNode,
    PlanNode,
    QueryPlan,
    SelectNode,
    SortNode,
    WriteNode,
    compile_statement,
)
from ..planner.plan import JoinAlgorithm, SelectAlgorithm
from ..storage.flat import FlatStorage
from ..storage.rows import framed_bytes
from ..storage.schema import ColumnType, Row, Schema, Value
from ..storage.table import Table
from .ast import (
    DeleteStatement,
    InsertStatement,
    QueryResult,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from .padding import PaddingConfig


# ----------------------------------------------------------------------
# Algorithm dispatch (no decisions — pure enum → operator mapping)
# ----------------------------------------------------------------------
def run_select_algorithm(
    source: FlatStorage,
    predicate: Predicate,
    algorithm: SelectAlgorithm,
    output_size: int,
    buffer_rows: int = 0,
    rng: random.Random | None = None,
    compact_output: bool = False,
    first: tuple[list[bytes], int] | None = None,
) -> FlatStorage:
    """Invoke one Section 4.1 selection operator with planned sizes;
    ``first`` is the statistics pass's buffer a resumed Small starts from."""
    if algorithm is SelectAlgorithm.SMALL:
        return small_select(source, predicate, output_size, buffer_rows, first=first)
    if algorithm is SelectAlgorithm.LARGE:
        return large_select(source, predicate)
    if algorithm is SelectAlgorithm.CONTINUOUS:
        return continuous_select(source, predicate, output_size)
    if algorithm is SelectAlgorithm.HASH:
        return hash_select(
            source, predicate, output_size, compact_output=compact_output
        )
    if algorithm is SelectAlgorithm.NAIVE:
        return naive_select(source, predicate, output_size, rng=rng)
    raise PlannerError(f"unknown select algorithm {algorithm}")


def run_join_algorithm(
    left: FlatStorage,
    right: FlatStorage,
    left_column: str,
    right_column: str,
    algorithm: JoinAlgorithm,
    oblivious_memory_bytes: int,
    compact_output: bool = False,
    predicate: Predicate | None = None,
    columns: Sequence[str] | None = None,
) -> FlatStorage:
    """Invoke one Section 4.3 join operator with planned sizes.

    ``predicate`` / ``columns`` are the WHERE and column list every join
    fuses into its emit.
    """
    if algorithm is JoinAlgorithm.HASH:
        return hash_join(
            left,
            right,
            left_column,
            right_column,
            oblivious_memory_bytes,
            compact_output=compact_output,
            predicate=predicate,
            columns=columns,
        )
    if algorithm is JoinAlgorithm.OPAQUE:
        return opaque_join(
            left,
            right,
            left_column,
            right_column,
            oblivious_memory_bytes,
            compact_output=compact_output,
            predicate=predicate,
            columns=columns,
        )
    if algorithm is JoinAlgorithm.ZERO_OM:
        return zero_om_join(
            left,
            right,
            left_column,
            right_column,
            compact_output=compact_output,
            predicate=predicate,
            columns=columns,
        )
    raise PlannerError(f"unknown join algorithm {algorithm}")


def run_write(
    table: Table, compiled: CompiledQuery, assign: Callable[[Row], Row] | None
) -> int:
    """Run a compiled INSERT, UPDATE or DELETE over ``table``, the rows it
    affected; ``assign`` rewrites each row an UPDATE affects."""
    statement = compiled.statement
    if isinstance(statement, InsertStatement):
        oblivious_insert(table, statement.values, fast=statement.fast)
        return 1
    where = statement.where or TruePredicate()
    if isinstance(statement, UpdateStatement):
        node = compiled.plan.root
        assert isinstance(node, WriteNode) and assign is not None
        return oblivious_update(
            table, where, assign, compiled.key_interval, assigns_key=node.assigns_key
        )
    return oblivious_delete(table, where, compiled.key_interval)


def _sort_rows(rows: list[Row], order_index: int, descending: bool) -> None:
    """ORDER BY over decrypted rows inside the enclave, in place: ascending
    on the key, then reversed for DESC (ties come out reversed too)."""
    rows.sort(key=lambda row: row[order_index])
    if descending:
        rows.reverse()


# ----------------------------------------------------------------------
# The plan runner
# ----------------------------------------------------------------------
class PlanRunner:
    """Walks a compiled plan tree and invokes the batched operators."""

    def __init__(
        self,
        padding: PaddingConfig | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self._padding = padding
        self._rng = rng if rng is not None else random.Random()

    # -- entry ----------------------------------------------------------
    def run(self, compiled: CompiledQuery) -> QueryResult:
        """Execute a compiled SELECT; returns the result with its final
        plan attached."""
        statement = compiled.statement
        assert isinstance(statement, SelectStatement)
        root = compiled.plan.root
        if isinstance(root, GroupByNode):
            result, root = self._run_group_by(root, statement, compiled)
        elif isinstance(root, AggregateNode):
            result = self._run_aggregate(root, statement, compiled)
        else:
            result = self._run_selection_shape(root, statement, compiled)
        result.plan = replace(compiled.plan, root=root)
        return result

    # -- sources --------------------------------------------------------
    @staticmethod
    def _shape_where(statement: SelectStatement) -> Predicate:
        """The WHERE an aggregate or group-by still has to apply: a join
        source has already applied it at its emit."""
        if statement.join is not None or statement.where is None:
            return TruePredicate()
        return statement.where

    @contextmanager
    def _source(
        self, node: PlanNode, statement: SelectStatement, compiled: CompiledQuery
    ) -> Iterator[FlatStorage | HeldSegment]:
        """``node``'s output, taken from its binding: a table, or rows held
        in the enclave.

        Compilation bound a scan, an index lookup and a held selection.  A
        join, a selection or a compaction runs here first, over its own
        sources, and its output is bound to it.  What the binding owns is
        freed on exit: a flat output or scratch freed, a held segment's
        reservation released.
        """
        inner = node.source if isinstance(node, CompactNode) else node
        if isinstance(inner, JoinNode):
            with self._source(inner.left, statement, compiled) as left, self._source(
                inner.right, statement, compiled
            ) as right:
                if inner.in_enclave:
                    schema, frames = held_hash_join(
                        left,
                        right,
                        inner.left_column,
                        inner.right_column,
                        inner.oblivious_bytes,
                        predicate=statement.where,
                        columns=inner.columns,
                    )
                    nbytes = framed_bytes(inner.capacity, schema)
                    held = HeldSegment(schema, left.enclave.oblivious, nbytes, frames=frames)
                    compiled.hold(node, held)
                else:
                    compiled.bind(
                        node,
                        run_join_algorithm(
                            left,
                            right,
                            inner.left_column,
                            inner.right_column,
                            inner.algorithm,
                            inner.oblivious_bytes,
                            compact_output=inner is not node,
                            predicate=statement.where,
                            columns=inner.columns,
                        ),
                    )
        elif isinstance(inner, SelectNode) and not inner.in_enclave:
            where = statement.where or TruePredicate()
            # A resumed Small starts from its statistics pass's buffer,
            # which Small's own buffer reservation covers.
            first = compiled.take(inner)[0] if inner.resumed else None
            resume = None if first is None else (first.frames, first.cursor)
            with self._source(inner.source, statement, compiled) as table:
                if inner.streamed:
                    # Each pass's buffer is handed to the result as the pass
                    # ends: no output table.  The frames are the answer,
                    # bound for the client, so they take no reservation
                    # beyond Small's buffer.
                    passes = small_passes(
                        table, where, inner.output_rows, inner.buffer_rows, first=resume
                    )
                    with closing(passes):
                        frames = [framed for buffer in passes for framed in buffer]
                    output = HeldSegment(table.schema, table.enclave.oblivious, 0, frames=frames)
                else:
                    output = run_select_algorithm(
                        table,
                        where,
                        inner.algorithm,
                        inner.output_rows,
                        buffer_rows=inner.buffer_rows,
                        rng=self._rng,
                        compact_output=inner is not node,
                        first=resume,
                    )
            compiled.bind(node, output)
        bound, owned = compiled.take(node)
        try:
            yield bound
        finally:
            if owned:
                bound.free()

    # -- selection ------------------------------------------------------
    def _run_selection_shape(
        self,
        root: PlanNode,
        statement: SelectStatement,
        compiled: CompiledQuery,
    ) -> QueryResult:
        """Plain selection (or filtering join), optionally topped by Sort,
        then LIMIT.  The result is read through the reader of the select
        list (and the ORDER BY column), so the projection happens at decode;
        ``SELECT *`` reads every column.  Held rows are answered where they
        are, touching nothing: an index segment is filtered and sorted, a
        held selection's frames — every match, kept by the statistics
        pass — and a held join's emitted frames are decoded and sorted.  A
        streamed selection's frames, which its passes handed over, are
        decoded the same way."""
        sort = root if isinstance(root, SortNode) else None

        def read_columns(schema: Schema) -> tuple[list[str], set[str]]:
            names = list(statement.columns or schema.column_names())
            return names, {*names, sort.order_by} if sort is not None else set(names)

        with self._source(
            sort.source if sort is not None else root, statement, compiled
        ) as source:
            names, read = read_columns(source.schema)
            if isinstance(source, HeldSegment):
                if source.frames is not None:
                    if self._padding is not None:
                        # Only a join is held under padding mode.
                        self._padding.check_fits(len(source.frames))
                    schema, decode = source.schema.reader(read)
                    rows = decode(source.frames)
                else:
                    schema = source.schema
                    matches = (statement.where or TruePredicate()).compile(schema)
                    rows = [row for row in source.rows if matches(row)]
                if sort is not None:
                    order_index = schema.column_index(sort.order_by)
                    _sort_rows(rows, order_index, sort.descending)
            else:
                if self._padding is not None:
                    # An over-full padded result is an expected error.
                    self._padding.check_fits(source.used_rows)
                schema = source.schema.reader(read)[0]
                rows = (
                    self._run_sort(sort, source, read)
                    if sort is not None
                    else source.rows(read)
                )
        if compiled.plan.limit is not None:
            rows = rows[: compiled.plan.limit]
        if names != schema.column_names():
            # The select list is out of schema order, repeats a column, or
            # leaves out the ORDER BY column the rows were read with.
            indexes = [schema.column_index(name) for name in names]
            rows = [tuple(row[i] for i in indexes) for row in rows]
        return QueryResult(rows=rows, column_names=names, affected=len(rows))

    def _run_sort(
        self, node: SortNode, output: FlatStorage, columns: set[str]
    ) -> list[Row]:
        """ORDER BY over a selection's output table; the rows returned hold
        ``columns`` (which include the ORDER BY column), in schema order.

        The in-enclave/bitonic decision was made at compile time from
        public sizes, so the trace depends only on sizes and the public
        ORDER BY clause.
        """
        schema = output.schema
        if node.in_enclave:
            order_index = schema.reader(columns)[0].column_index(node.order_by)
            try:
                with output.enclave.oblivious_buffer(framed_bytes(node.capacity, schema)):
                    rows = output.rows(columns)
                    _sort_rows(rows, order_index, node.descending)
            except ObliviousMemoryError as error:  # pragma: no cover
                raise PlannerError(
                    "compiled in-enclave sort no longer fits oblivious memory"
                ) from error
            return rows
        scratch = output.copy_to(capacity=padded_scratch(max(1, output.capacity)))
        order_index = schema.column_index(node.order_by)
        column = schema.columns[order_index]
        bitonic_sort(
            scratch,
            key=lambda row: (column.sort_key(row[order_index]),)
            if column.type is not ColumnType.FLOAT
            else (row[order_index],),
        )
        rows = scratch.rows(columns)
        scratch.free()
        if node.descending:
            rows.reverse()
        return rows

    # -- aggregates -----------------------------------------------------
    def _run_aggregate(
        self,
        node: AggregateNode,
        statement: SelectStatement,
        compiled: CompiledQuery,
    ) -> QueryResult:
        specs = list(statement.aggregates)
        where = self._shape_where(statement)
        with self._source(node.source, statement, compiled) as source:
            if isinstance(source, HeldSegment):
                values = aggregate_rows(
                    source.schema, source.decoded(), specs, predicate=where
                )
            else:
                values = aggregate(source, specs, predicate=where)
        names = [spec.label() for spec in statement.aggregates]
        return QueryResult(rows=[tuple(values)], column_names=names, affected=1)

    def _run_group_by(
        self,
        node: GroupByNode,
        statement: SelectStatement,
        compiled: CompiledQuery,
    ) -> tuple[QueryResult, PlanNode]:
        specs = list(statement.aggregates)
        where = self._shape_where(statement)
        names = list(node.labels)
        final: PlanNode = node
        with self._source(node.source, statement, compiled) as source:
            if isinstance(source, HeldSegment):
                # The groups never leave the enclave: nothing to observe.
                output = None
                rows = group_rows(
                    source.schema, source.decoded(), node.group_column, specs, where
                )
            elif node.in_enclave:
                # The groups are the answer when they fit; an overflow
                # falls back to the sort over untrusted memory.
                rows = hash_group_rows(source, node.group_column, specs, where)
                output = (
                    None
                    if rows is not None
                    else _sorted_group_aggregate(source, node.group_column, specs, where)
                )
            else:
                # A padded plan's output_rows is pad_groups: the table's size.
                output = group_by_aggregate(
                    source,
                    node.group_column,
                    specs,
                    predicate=where,
                    output_groups=node.output_rows,
                )
        if output is not None:
            # The one observed (not planned) size: recorded, leaked either
            # way.
            final = replace(node, output_rows=output.capacity)
            try:
                if self._padding is not None:
                    self._padding.check_fits(output.used_rows)
                rows = output.rows()
            finally:
                output.free()
        if node.output_rows is not None:
            # A padded GROUP BY holds at most pad_groups groups on every
            # path: held, into its output table, or the sorted fallback.
            check_group_count(len(rows), node.output_rows)
        if statement.order_by is not None:
            # Group results are small (one row per group) and already
            # decrypted in the enclave: sort them there.  ORDER BY names
            # the group column or an aggregate label (checked at compile).
            order_index = names.index(statement.order_by)
            rows.sort(key=lambda row: row[order_index], reverse=statement.descending)
        if statement.limit is not None:
            rows = rows[: statement.limit]
        return (
            QueryResult(rows=rows, column_names=names, affected=len(rows)),
            final,
        )


# ----------------------------------------------------------------------
# The statement entry point
# ----------------------------------------------------------------------
class Executor:
    """Executes statements against a catalog of tables in one enclave.

    Pipeline per statement: :func:`compile_statement` →
    :class:`PlanRunner`.  Writes additionally bump the target table's
    revision epoch.
    """

    def __init__(
        self,
        tables: dict[str, Table],
        padding: PaddingConfig | None = None,
        allow_continuous: bool = True,
        rng: random.Random | None = None,
    ) -> None:
        self._tables = tables
        self._padding = padding
        self._allow_continuous = allow_continuous
        self._runner = PlanRunner(padding=padding, rng=rng)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(self, statement: Statement) -> QueryResult:
        if isinstance(statement, SelectStatement):
            return self._execute_select(statement)
        if isinstance(statement, (InsertStatement, UpdateStatement, DeleteStatement)):
            return self._execute_write(statement)
        raise QueryError(f"executor cannot run {type(statement).__name__}")

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"no table named {name!r}") from None

    def check_insert(self, statement: InsertStatement) -> None:
        """Raise what running the INSERT would refuse cleanly — unknown
        table, schema, capacity — touching no storage; the engine runs it
        before the statement is logged."""
        self._table(statement.table).check_insert([statement.values], statement.fast)

    def _compile(self, statement: Statement) -> CompiledQuery:
        return compile_statement(
            self._tables,
            statement,
            padding=self._padding,
            allow_continuous=self._allow_continuous,
        )

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _execute_select(self, statement: SelectStatement) -> QueryResult:
        enclave = self._table(statement.table).enclave
        start = enclave.cost_snapshot()
        compiled = self._compile(statement)
        try:
            result = self._runner.run(compiled)
        finally:
            compiled.free()  # releases sources left behind by an error
        result.cost = enclave.cost.delta_since(start).snapshot()
        return result

    # ------------------------------------------------------------------
    # EXPLAIN: compilation without execution
    # ------------------------------------------------------------------
    def explain(self, statement: Statement) -> QueryPlan:
        """The :class:`QueryPlan` a statement *would* leak, without running
        it.

        Compilation performs the same planner work execution would — the
        statistics pass over a flat source; the index lookup's ORAM
        accesses, plus a flat scratch only when the segment spills — and
        frees every intermediate and oblivious-memory reservation; nothing
        user-visible is materialised or modified.
        """
        compiled = self._compile(statement)
        compiled.free()
        return compiled.plan

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _execute_write(self, statement: Statement) -> QueryResult:
        compiled = self._compile(statement)
        table = self._table(compiled.plan.tables[0])
        start = table.enclave.cost_snapshot()
        assign = (
            self._assigner(table, statement)
            if isinstance(statement, UpdateStatement)
            else None
        )
        affected = run_write(table, compiled, assign)
        table.bump_revision()
        return QueryResult(
            affected=affected,
            cost=table.enclave.cost.delta_since(start).snapshot(),
            plan=compiled.plan,
        )

    @staticmethod
    def _assigner(table: Table, statement: UpdateStatement):
        schema = table.schema
        assignment_indexes = [
            (schema.column_index(column), value)
            for column, value in statement.assignments
        ]

        def assign(row: Row) -> Row:
            values: list[Value] = list(row)
            for index, value in assignment_indexes:
                values[index] = value
            return tuple(values)

        return assign
