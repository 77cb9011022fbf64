"""The Appendix A simulator, made executable.

Theorem 1 states a poly-time simulator SIM exists that, given only the
declared leakage — data size |D|, schema S, the planner's choices OPT(D,Q),
and trace sizes — produces memory traces indistinguishable from real runs.
Appendix A constructs SIM by "simulating the access pattern described in
the body of the paper for the selected operator".

We implement SIM the way the proof does: run the engine's own code over a
dummy database whose only relationship to the real one is the leaked
sizes, with the plan forced.  If the canonical trace of the simulated run
matches the canonical trace of the real run, then everything the adversary
saw was computable from the leakage alone — which is precisely the
theorem's claim, checked per-query.

:func:`simulate` is given a compiled :class:`~repro.planner.compile.
QueryPlan` — ``OPT(D, Q)`` in its reified form — and a
:class:`PublicState`, the catalog's public facts.  For a SELECT it builds
dummy storage of the sizes the plan leaks in a fresh enclave, runs
compile's I/O steps — the index lookup, the copy of an index scanned as a
flat table and the statistics pass — forced to the plan's nodes through
the binding code the compiler runs (:func:`~repro.planner.compile.
bind_segment`, :func:`~repro.planner.compile.bind_index_copy`,
:func:`~repro.planner.compile.bind_statistics`) into the compiled query's
one binding map, and then the unmodified
:meth:`~repro.engine.executor.PlanRunner.run`, whose one source resolver
takes every node's output from that map.  For a write it runs
:func:`~repro.engine.executor.run_write`, the executor's own call, over a
dummy table.  SIM reaches no operator except through the engine, so it
cannot drift from it, and any node the runner handles gets a SIM with no
SIM code.

The dummy data, one per table (a self-join reads one table twice): every
column of row i holds i (a GROUP BY's column i modulo the groups), so a
flat table's first |R| rows match SIM's WHERE, a GROUP BY's table holds
the g groups its plan recorded (none where the plan admits g = 0), a
join's inputs hold g joinable rows under a GROUP BY (and none otherwise: a
join's trace depends on no stored value), a dummy index of the leaked
geometry holds the leaked segment under its smallest keys, and the copy of
an index scanned as a flat table holds what the flat table would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..enclave.enclave import Enclave
from ..enclave.errors import PlannerError
from ..engine.ast import (
    DeleteStatement,
    InsertStatement,
    JoinClause,
    SelectStatement,
    UpdateStatement,
)
from ..engine.executor import PlanRunner, run_write
from ..engine.padding import PaddingConfig
from ..operators.aggregate import AggregateFunction, AggregateSpec
from ..operators.predicate import Comparison, Interval, Predicate
from ..oram.path_oram import PathORAM
from ..planner.compile import (
    AggregateNode,
    CompiledQuery,
    GroupByNode,
    IndexLookupNode,
    JoinNode,
    QueryPlan,
    ScanNode,
    SelectNode,
    SortNode,
    WriteNode,
    bind_index_copy,
    bind_segment,
    bind_statistics,
    holds_segment,
    selection,
)
from ..planner.plan import AccessMethod
from ..planner.select_planner import SelectDecision
from ..planner.stats import scan_statistics
from ..storage.btree import ObliviousBPlusTree
from ..storage.flat import FlatStorage
from ..storage.schema import Column, ColumnType, Row, Schema, Value
from ..storage.table import StorageMethod, Table
from .obliviousness import CanonicalTrace, canonicalize, oram_regions_of


@dataclass(frozen=True)
class PublicTable:
    """One table's public facts: its schema, capacity, storage method and
    ``oram_kind``, and its index's geometry — key column, order, the ORAM's
    treetop levels k, the tree's resident levels and the height any lookup
    reveals (all 0 without an index)."""

    schema: Schema
    capacity: int
    method: StorageMethod
    oram_kind: str
    key_column: str | None = None
    order: int = 0
    treetop_levels: int = 0
    resident_levels: int = 0
    height: int = 0

    @classmethod
    def of(cls, table: Table) -> "PublicTable":
        if table.indexed is None:
            return cls(table.schema, table.capacity, table.method, table.oram_kind)
        tree = table.indexed.tree
        return cls(
            table.schema,
            table.capacity,
            table.method,
            table.oram_kind,
            key_column=tree.key_column,
            order=tree.order,
            # Only Path ORAM caches a treetop; SIM covers the Path kinds.
            treetop_levels=getattr(tree.oram, "treetop_levels", 0),
            resident_levels=tree.resident_levels,
            height=tree.height,
        )


@dataclass(frozen=True)
class PublicState:
    """The catalog's public facts, all SIM is given besides the plan and a
    write's trace sizes: each table's :class:`PublicTable`, the free
    oblivious-memory bytes a statement runs under and padding mode."""

    tables: Mapping[str, PublicTable]
    free_bytes: int
    padding: PaddingConfig | None = None

    @classmethod
    def of(cls, db) -> "PublicState":
        """The public state of an :class:`~repro.engine.database.ObliDB`;
        it reads no stored row and touches no untrusted memory."""
        tables = {name: PublicTable.of(db.table(name)) for name in db.table_names()}
        return cls(tables, db.enclave.oblivious.free_bytes, db.padding)


def simulate(
    plan: QueryPlan,
    public: PublicState,
    *,
    affected: int = 0,
    segment_rows: int = 0,
) -> CanonicalTrace:
    """SIM: the canonical trace of ``plan`` rebuilt from leakage alone.

    ``public`` is read before a SELECT (its free budget is the one the
    statement ran under) and after a write (its index height is the one the
    write left).  ``affected`` and ``segment_rows`` are the two trace sizes
    an index reveals of a write, which Theorem 1 hands SIM: the rows an
    UPDATE / DELETE rewrote there (one padded burst each), and the rows an
    ``index_range`` lookup returned.  A SELECT needs the *executed* plan
    when it groups into an output table: the runner records g there.

    Out of scope: an index that is not a Path ORAM; of writes, the
    write-ahead log's append, ``INSERT ... FAST`` and a statement that
    changes the index's height part-way.
    """
    enclave = Enclave(oblivious_memory_bytes=1 << 40, cipher="null", keep_trace_events=True)
    if isinstance(plan.root, WriteNode):
        _simulate_write(enclave, plan, public, affected, segment_rows)
    else:
        _simulate_select(enclave, plan, public)
    return _canonical(enclave)


def real_select_trace(
    table: FlatStorage, predicate: Predicate, decision: SelectDecision
) -> tuple[CanonicalTrace, QueryPlan, PublicState]:
    """A hand-planned selection over ``table``, run the way the engine runs
    a compiled one.

    The decision becomes a one-operator plan over a table named ``t`` (a
    :class:`SelectNode` over its scan, compacted when the decision says
    so); its statistics pass runs again, then the runner, so real and
    simulated traces cover the same operation window.  Returns the
    canonical trace, the plan and the table's public state, which
    :func:`simulate` takes.
    """
    public = PublicState(
        {"t": PublicTable(table.schema, table.capacity, StorageMethod.FLAT, "path")},
        table.enclave.oblivious.free_bytes,
    )
    scan = ScanNode(table="t", access_method=AccessMethod.FLAT_SCAN, rows=table.capacity)
    plan = QueryPlan(
        root=selection(scan, decision, streams=True), statement_kind="select", tables=("t",)
    )
    compiled = CompiledQuery(plan, SelectStatement("t", where=predicate))
    compiled.bind(scan, table, owned=False)
    table.enclave.trace.clear()
    _run(compiled, None)
    return _canonical(table.enclave), plan, public


def real_query_trace(db, sql: str) -> tuple[CanonicalTrace, QueryPlan]:
    """Canonical trace + compiled plan of one SQL statement end to end.

    Runs the statement through ``ObliDB.sql`` with a cleared trace and
    returns the canonicalized events alongside the leaked
    :class:`QueryPlan`, so callers can assert the Appendix-A contract —
    equal plans (equal ``cache_key``) must imply indistinguishable traces,
    and the trace equals :func:`simulate` over the plan and the database's
    :meth:`PublicState.of`.
    """
    db.enclave.trace.clear()
    result = db.sql(sql)
    trace = canonicalize(db.enclave.trace.events, oram_regions_of(db.enclave))
    return trace, result.plan


def _canonical(enclave: Enclave) -> CanonicalTrace:
    return canonicalize(enclave.trace.events, oram_regions_of(enclave))


def _run(compiled: CompiledQuery, padding: PaddingConfig | None) -> None:
    """The statement's statistics pass forced to each selection the plan
    leaked — keeping Small's first buffer when the node says the pass held
    every match or resumed Small, and skipped under padding (§7.1) — bound
    as the compiler binds it; then the engine's runner."""
    where = compiled.statement.where
    try:
        for node in compiled.plan.root.walk():
            if isinstance(node, SelectNode) and not node.padded:
                assert where is not None
                storage = compiled.bound(node.source)
                keep = node.buffer_rows if node.in_enclave or node.resumed else 0
                stats = scan_statistics(storage, where, keep=keep)
                bind_statistics(compiled, node, storage, stats)
        PlanRunner(padding=padding).run(compiled)
    finally:
        compiled.free()


def _simulate_select(enclave: Enclave, plan: QueryPlan, public: PublicState) -> None:
    """Dummy storage per table, compile's I/O forced to the leaked sizes —
    the index lookup to its segment, the index copy to its capacity — then
    :func:`_run` with SIM's WHERE: the plan's source column below |R| when
    there is a selection, none otherwise."""
    stored = _stored_rows(plan)
    root = plan.root
    group = root.group_column if isinstance(root, GroupByNode) else None

    def rows(schema: Schema, count: int) -> list[Row]:
        return [_dummy_row(schema, i, group, stored) for i in range(count)]

    select = plan.find(SelectNode)
    where = None
    if isinstance(select, SelectNode):
        first = public.tables[plan.tables[0]].schema.columns[0]
        where = Comparison(first.name, "<", _dummy_value(first, stored))
    compiled = CompiledQuery(plan, _statement(plan, where))
    # One dummy per table name: a self-join reads one table twice.
    flats: dict[str, FlatStorage] = {}
    trees: dict[str, ObliviousBPlusTree] = {}
    indexed: list[tuple[ScanNode | IndexLookupNode, ObliviousBPlusTree]] = []
    for node in root.walk():
        if isinstance(node, ScanNode) and node.access_method is AccessMethod.FLAT_SCAN:
            if node.table not in flats:
                schema = public.tables[node.table].schema
                flats[node.table] = FlatStorage(enclave, schema, node.rows)
                flats[node.table].fast_insert_many(rows(schema, min(stored, node.rows)))
            compiled.bind(node, flats[node.table], owned=False)
        elif isinstance(node, (ScanNode, IndexLookupNode)):
            facts = public.tables[node.table]
            if node.table not in trees:
                # Filler rows above a segment's keys give the tree its height.
                least = _least_rows(facts.order, facts.height)
                segment = node.segment_rows if isinstance(node, IndexLookupNode) else 0
                trees[node.table] = _dummy_tree(
                    enclave, facts, rows(facts.schema, max(least, segment))
                )
            indexed.append((node, trees[node.table]))
    enclave.oblivious.allocate(enclave.oblivious.free_bytes - public.free_bytes)
    enclave.trace.clear()
    for node, tree in indexed:
        schema = tree.schema
        if isinstance(node, IndexLookupNode):
            high = _dummy_value(schema.column(tree.key_column), node.segment_rows - 1)
            bind_segment(compiled, node, enclave, schema, tree.range_scan(None, high))
        else:
            scan = _scanned(tree, rows(schema, min(stored, node.rows)))
            bind_index_copy(compiled, node, enclave, schema, scan)
    _run(compiled, public.padding)


def _scanned(tree: ObliviousBPlusTree, rows: list[Row]) -> Iterator[Row]:
    """The dummy index's linear scan, whose reads are every bucket's
    whatever the tree holds, yielding SIM's flat dummy ``rows``: the copy
    writes every slot, so it holds them as a flat table would."""
    for _ in tree.linear_scan():
        pass
    yield from rows


def _stored_rows(plan: QueryPlan) -> int:
    """Rows SIM's flat sources hold: a GROUP BY's g — one group per slot
    when its group table overflowed into the sorted fallback, none when
    max(1, g) = 1 or g never left the enclave (zero groups fit any budget,
    and g = 0 and g = 1 leave one trace) — or a selection's |R| (none when
    padding hides it), else none."""
    root = plan.root
    if isinstance(root, GroupByNode):
        if root.output_rows is None:
            if not (root.in_enclave or holds_segment(root.source)):
                raise PlannerError("plan has no executed GROUP BY to simulate")
            return 0
        if root.output_rows > root.input_rows:
            return root.input_rows
        return 0 if root.output_rows == 1 else root.output_rows
    select = plan.find(SelectNode)
    if not isinstance(select, SelectNode) or select.padded:
        return 0
    return select.output_rows


def _statement(plan: QueryPlan, where: Predicate | None) -> SelectStatement:
    """The statement shape the plan shows — select list, LIMIT, join
    columns, aggregates, group column, ORDER BY — with SIM's WHERE."""
    root = plan.root
    join = plan.find(JoinNode)
    labels: tuple[str, ...] = ()
    if isinstance(root, GroupByNode):
        labels = root.labels[1:]
    elif isinstance(root, AggregateNode):
        labels = root.labels
    return SelectStatement(
        table=plan.tables[0],
        columns=plan.columns,
        aggregates=tuple(_spec(label) for label in labels),
        join=None
        if not isinstance(join, JoinNode)
        else JoinClause(plan.tables[1], join.left_column, join.right_column),
        where=where,
        group_by=root.group_column if isinstance(root, GroupByNode) else None,
        order_by=root.order_by if isinstance(root, SortNode) else None,
        descending=isinstance(root, SortNode) and root.descending,
        limit=plan.limit,
    )


def _spec(label: str) -> AggregateSpec:
    """The aggregate a plan's label names (``count(*)``, ``sum(amount)``)."""
    function, column = label[:-1].split("(", 1)
    return AggregateSpec(AggregateFunction(function), None if column == "*" else column)


def _simulate_write(
    enclave: Enclave, plan: QueryPlan, public: PublicState, affected: int, segment_rows: int
) -> None:
    """The executor's write call over a dummy table of the leaked schema,
    capacity and storage method.

    The flat copy stays empty: its pass reads and writes every slot
    whatever they hold.  The dummy index has the leaked geometry and holds
    keys 0, 1, ... in a packed tree of the leaked height: before an INSERT
    the fewest rows of that height, which take the next key without a root
    split; before an UPDATE / DELETE as many as the height holds, up to the
    capacity, so removing rows never lowers it.  The ``affected`` smallest
    keys match SIM's WHERE, an ``index_range`` lookup returns the
    ``segment_rows`` smallest, and SIM's UPDATE rewrites each row as it
    was: whether a row keeps its key never shows.
    """
    node = plan.root
    assert isinstance(node, WriteNode)
    facts = public.tables[node.table]
    schema, key = facts.schema, facts.key_column
    insert = node.operation == "insert"
    table = Table(
        enclave,
        node.table,
        schema,
        node.rows,
        method=facts.method,
        key_column=key,
        oram_kind="paper",
    )
    stored = 0
    if table.indexed is not None:
        order, height = facts.order, facts.height
        most = min(node.rows, (order - 1) * order ** max(0, height - 1))
        stored = _least_rows(order, height) if insert else most
        table.indexed.tree.free()  # the constructor's; SIM's has the leaked geometry
        table.indexed.tree = _dummy_tree(
            enclave, facts, [_dummy_row(schema, i, None, 1) for i in range(stored)]
        )
    enclave.oblivious.allocate(enclave.oblivious.free_bytes - public.free_bytes)
    enclave.trace.clear()

    column = schema.column(key or schema.columns[0].name)
    where = Comparison(column.name, "<", _dummy_value(column, affected))
    interval = None
    if node.access_method is AccessMethod.INDEX_RANGE:
        # A miss looks past every key.
        low, high = (0, segment_rows - 1) if segment_rows else (stored, stored)
        interval = Interval(_dummy_value(column, low), _dummy_value(column, high))
    if insert:
        statement = InsertStatement(node.table, _dummy_row(schema, stored, None, 1))
    elif node.operation == "update":
        statement = UpdateStatement(node.table, (), where)
    else:
        statement = DeleteStatement(node.table, where)
    compiled = CompiledQuery(plan, statement, key_interval=interval)
    run_write(table, compiled, lambda row: row)


def _least_rows(order: int, height: int) -> int:
    """The fewest rows a packed tree of ``height`` levels holds."""
    return height if height < 2 else (order - 1) * order ** (height - 2) + 1


def _dummy_tree(enclave: Enclave, facts: PublicTable, rows: list[Row]) -> ObliviousBPlusTree:
    """An index of ``facts``' geometry, bulk-loaded with ``rows``, which
    must give it the leaked height."""
    if facts.oram_kind not in ("path", "paper"):
        raise PlannerError(f"SIM covers Path ORAM indexes, not {facts.oram_kind!r}")
    assert facts.key_column is not None
    tree = ObliviousBPlusTree(
        enclave,
        facts.schema,
        facts.key_column,
        facts.capacity,
        order=facts.order,
        oram_factory=lambda enclave, capacity, block_size, rng: PathORAM(
            enclave, capacity, block_size, rng=rng, treetop_levels=facts.treetop_levels
        ),
        resident_levels=facts.resident_levels,
    )
    if facts.height:
        tree.bulk_load(rows)
    if tree.height != facts.height:
        raise PlannerError(f"SIM built a tree of height {tree.height}, not {facts.height}")
    return tree


def _dummy_row(schema: Schema, i: int, group: str | None, groups: int) -> Row:
    """Row i of a dummy table: ``i`` in every column but ``group``, which
    holds i modulo ``groups`` (at least one)."""
    return tuple(
        _dummy_value(column, i % max(1, groups) if column.name == group else i)
        for column in schema.columns
    )


def _dummy_value(column: Column, i: int) -> Value:
    """``i`` as a value of ``column``'s type; strings are zero-padded to the
    column's width, so they sort as the integers do."""
    if column.type is ColumnType.STR:
        return str(i).zfill(column.byte_width)
    if column.type is ColumnType.FLOAT:
        return float(i)
    return i
