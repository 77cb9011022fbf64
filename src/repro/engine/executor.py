"""Plan execution: compiled :class:`~repro.planner.compile.QueryPlan` trees
→ physical operators.

The executor no longer plans anything.  Every access-method, algorithm,
fusion, and padding decision is made by :mod:`repro.planner.compile`, which
turns a logical statement into a typed plan tree; this module is two thin
layers on top of it:

* :class:`Executor` — the statement entry point: compile, run, attach the
  leaked plan and cost counters to the result.

* :class:`PlanRunner` — a structural walk of the plan tree that invokes
  the existing batched operators.  The only "logic" here is mechanical:
  resolve a node's materialized source, call the operator the node names
  with the sizes the node carries, free intermediates.  The compiled plan
  is the executed plan; the one thing the runner adds is a grouped
  aggregate's *observed* output size, recorded into the final plan attached
  to the result as ``QueryResult.plan``.

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
    group_by_aggregate,
    group_rows,
    hash_group_rows,
)
from ..operators.join import (
    hash_join,
    held_hash_join,
    held_join_bytes,
    opaque_join,
    zero_om_join,
)
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
    IndexLookupNode,
    JoinNode,
    PlanNode,
    QueryPlan,
    ScanNode,
    SelectNode,
    SortNode,
    WriteNode,
    compile_statement,
    holds_segment,
)
from ..planner.plan import JoinAlgorithm, SelectAlgorithm
from ..storage.flat import FlatStorage
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

    def _materialize(
        self, node: PlanNode, statement: SelectStatement, compiled: CompiledQuery
    ) -> tuple[FlatStorage, bool]:
        """(storage, caller_owns_it) for any source subtree."""
        if isinstance(node, (ScanNode, IndexLookupNode)):
            return compiled.take(node)
        if isinstance(node, JoinNode):
            return self._run_join(node, statement, compiled, compact_output=False)
        if isinstance(node, CompactNode) and isinstance(node.source, JoinNode):
            return self._run_join(
                node.source, statement, compiled, compact_output=True
            )
        if isinstance(node, (SelectNode, CompactNode)):
            return self._run_selection(node, statement, compiled)
        raise QueryError(f"cannot materialize plan node {node.kind!r}")

    @staticmethod
    @contextmanager
    def _join_inputs(
        node: JoinNode, compiled: CompiledQuery
    ) -> Iterator[tuple[FlatStorage, FlatStorage]]:
        """A join's two sources, the owned ones freed afterwards."""
        left, left_owned = compiled.take(node.left)
        right, right_owned = compiled.take(node.right)
        try:
            yield left, right
        finally:
            if left_owned:
                left.free()
            if right_owned:
                right.free()

    def _run_join(
        self,
        node: JoinNode,
        statement: SelectStatement,
        compiled: CompiledQuery,
        compact_output: bool,
    ) -> tuple[FlatStorage, bool]:
        with self._join_inputs(node, compiled) as (left, right):
            joined = run_join_algorithm(
                left,
                right,
                node.left_column,
                node.right_column,
                node.algorithm,
                node.oblivious_bytes,
                compact_output=compact_output,
                predicate=statement.where,
                columns=node.columns,
            )
        return joined, True

    def _held(
        self, node: PlanNode, statement: SelectStatement, compiled: CompiledQuery
    ) -> HeldSegment:
        """What a held source holds.  A held join runs here, and its
        emitted frames are held like a held selection's until the
        executor frees the compiled query."""
        if isinstance(node, JoinNode):
            with self._join_inputs(node, compiled) as (left, right):
                schema, frames = held_hash_join(
                    left,
                    right,
                    node.left_column,
                    node.right_column,
                    node.oblivious_bytes,
                    predicate=statement.where,
                    columns=node.columns,
                )
            compiled.hold(
                node,
                HeldSegment(
                    schema,
                    left.enclave.oblivious,
                    held_join_bytes(node.t2, schema),
                    frames=frames,
                ),
            )
        return compiled.segment(node)

    def _streamed(
        self, node: SelectNode, statement: SelectStatement, compiled: CompiledQuery
    ) -> HeldSegment:
        """A streamed Small's passes, each buffer handed to the result as
        its pass ends: no output table.  The frames are the answer, bound
        for the client, so they take no reservation beyond Small's buffer."""
        source, owned = compiled.take(node.source)
        try:
            with closing(
                small_passes(
                    source,
                    statement.where or TruePredicate(),
                    node.output_rows,
                    node.buffer_rows,
                    first=compiled.first_passes.pop(id(node)),
                )
            ) as passes:
                frames = [framed for buffer in passes for framed in buffer]
        finally:
            if owned:
                source.free()
        return HeldSegment(source.schema, source.enclave.oblivious, 0, frames=frames)

    # -- selection ------------------------------------------------------
    def _run_selection(
        self,
        node: PlanNode,
        statement: SelectStatement,
        compiled: CompiledQuery,
    ) -> tuple[FlatStorage, bool]:
        """Execute a Select / Compact(Select) subtree."""
        compact = isinstance(node, CompactNode)
        select = node.source if compact else node
        assert isinstance(select, SelectNode)
        source, owned = compiled.take(select.source)
        try:
            output = run_select_algorithm(
                source,
                statement.where or TruePredicate(),
                select.algorithm,
                select.output_rows,
                buffer_rows=select.buffer_rows,
                rng=self._rng,
                compact_output=compact,
                first=compiled.first_passes.pop(id(select), None),
            )
        finally:
            if owned:
                source.free()
        return output, True

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
        source = sort.source if sort is not None else root

        def read_columns(schema: Schema) -> tuple[list[str], set[str]]:
            names = list(statement.columns or schema.column_names())
            return names, {*names, sort.order_by} if sort is not None else set(names)

        streamed = isinstance(source, SelectNode) and source.streamed
        if streamed or holds_segment(source):
            held = (
                self._streamed(source, statement, compiled)
                if streamed
                else self._held(source, statement, compiled)
            )
            names, read = read_columns(held.schema)
            if held.frames is not None:
                if self._padding is not None:
                    # Only a join is held under padding mode.
                    self._padding.check_fits(len(held.frames))
                schema, decode = held.schema.reader(read)
                rows = decode(held.frames)
            else:
                schema = held.schema
                matches = (statement.where or TruePredicate()).compile(schema)
                rows = [row for row in held.rows if matches(row)]
            if sort is not None:
                order_index = schema.column_index(sort.order_by)
                _sort_rows(rows, order_index, sort.descending)
        else:
            output, _ = self._materialize(source, statement, compiled)
            try:
                if self._padding is not None:
                    # An over-full padded result is an expected error.
                    self._padding.check_fits(output.used_rows)
                names, read = read_columns(output.schema)
                schema = output.schema.reader(read)[0]
                rows = (
                    self._run_sort(sort, output, read)
                    if sort is not None
                    else output.rows(read)
                )
            finally:
                output.free()
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
            result_bytes = output.capacity * (schema.row_size + 1)
            try:
                with output.enclave.oblivious_buffer(result_bytes):
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
        if holds_segment(node.source):
            held = self._held(node.source, statement, compiled)
            values = aggregate_rows(held.schema, held.decoded(), specs, predicate=where)
        else:
            source, owned = self._materialize(node.source, statement, compiled)
            try:
                values = aggregate(source, specs, predicate=where)
            finally:
                if owned:
                    source.free()
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
        if holds_segment(node.source):
            # The groups never leave the enclave: nothing to observe.
            held = self._held(node.source, statement, compiled)
            rows = group_rows(
                held.schema, held.decoded(), node.group_column, specs, where
            )
        else:
            source, owned = self._materialize(node.source, statement, compiled)
            try:
                if node.in_enclave:
                    # The groups are the answer when they fit; an overflow
                    # falls back to the sort over untrusted memory.
                    rows = hash_group_rows(source, node.group_column, specs, where)
                    output = (
                        None
                        if rows is not None
                        else _sorted_group_aggregate(
                            source, node.group_column, specs, where
                        )
                    )
                else:
                    output_groups = self._padding.pad_groups if self._padding else None
                    output = group_by_aggregate(
                        source,
                        node.group_column,
                        specs,
                        predicate=where,
                        output_groups=output_groups,
                    )
            finally:
                if owned:
                    source.free()
            if output is not None:
                # The one observed (not planned) size: recorded, leaked
                # either way.
                final = replace(node, output_rows=output.capacity)
                try:
                    if self._padding is not None:
                        self._padding.check_fits(output.used_rows)
                    rows = output.rows()
                finally:
                    output.free()
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
