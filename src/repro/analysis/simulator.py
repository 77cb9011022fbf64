"""The Appendix A simulator, made executable.

Theorem 1 states a poly-time simulator SIM exists that, given only the
declared leakage — data size |D|, schema S, the planner's choices OPT(D,Q),
and trace sizes — produces memory traces indistinguishable from real runs.
Appendix A constructs SIM by "simulating the access pattern described in
the body of the paper for the selected operator".

We implement SIM the way the proof does: run the *same physical operators*
over a dummy database whose only relationship to the real one is the leaked
sizes, with the same plan forced.  If the canonical trace of the simulated
run matches the canonical trace of the real run, then everything the
adversary saw was computable from the leakage alone — which is precisely
the theorem's claim, checked per-query.

SIM exists for six node types: a selection (:func:`simulate_select`), a
join (:func:`simulate_join`), an ungrouped aggregate over a flat table or a
join (:func:`simulate_aggregate`), a GROUP BY over a flat table
(:func:`simulate_group_by`), an index lookup with the statement over its
segment (:func:`simulate_index_lookup`) and a write
(:func:`simulate_write`).  Each ``*Leakage`` reads plan fields and public
catalog facts only (``from_plan``).  A join's and an aggregate's inputs are
empty dummy tables of the leaked capacities: their traces do not depend on
a single stored value.  A GROUP BY's dummy table holds exactly the leaked
number of groups.  An index lookup's or a write's dummy index has the real
one's geometry and height and holds the leaked segment.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..enclave.enclave import Enclave
from ..enclave.errors import PlannerError
from ..engine.executor import run_join_algorithm, run_select_algorithm
from ..operators.aggregate import (
    AggregateFunction,
    AggregateSpec,
    _sorted_group_aggregate,
    aggregate,
    group_by_aggregate,
    hash_group_rows,
)
from ..operators.join import held_hash_join
from ..operators.predicate import Comparison, Interval, Predicate
from ..operators.select import small_passes, spill_index_segment
from ..operators.write import oblivious_delete, oblivious_insert, oblivious_update
from ..oram.path_oram import PathORAM
from ..planner.compile import (
    AggregateNode,
    CompactNode,
    GroupByNode,
    IndexLookupNode,
    JoinNode,
    PlanNode,
    QueryPlan,
    ScanNode,
    SelectNode,
    WriteNode,
)
from ..planner.plan import AccessMethod, JoinAlgorithm, SelectAlgorithm
from ..planner.select_planner import SelectDecision
from ..planner.stats import scan_statistics
from ..storage.btree import ObliviousBPlusTree
from ..storage.flat import FlatStorage
from ..storage.schema import Column, ColumnType, Row, Schema, Value, int_column
from ..storage.table import StorageMethod, Table
from .obliviousness import CanonicalTrace, canonicalize, oram_regions_of


@dataclass(frozen=True)
class SelectLeakage:
    """The leakage SIM receives for one selection: sizes + chosen plan.

    ``compact_output`` records whether the plan routed the selection
    through the oblivious-compaction back end (a
    :class:`~repro.planner.compile.CompactNode` wrap in the IR, or
    :attr:`SelectDecision.compact_output` for a hand-planned selection).
    ``in_enclave`` / ``resumed`` say the statistics pass was Small's first
    pass, and kept every match or handed Small its full buffer; ``streamed``
    that a resumed Small handed each pass's buffer to the result, with no
    output table (a plan field only: a hand-planned selection never
    streams).
    """

    input_capacity: int
    output_size: int
    algorithm: SelectAlgorithm
    buffer_rows: int
    row_size: int  # schema row width is public (schema S is given to SIM)
    compact_output: bool = False
    in_enclave: bool = False
    resumed: bool = False
    streamed: bool = False

    @classmethod
    def from_decision(cls, schema_row_size: int, decision: "SelectDecision") -> "SelectLeakage":
        return cls(
            input_capacity=decision.stats.input_capacity,
            output_size=decision.stats.matching_rows,
            algorithm=decision.algorithm,
            buffer_rows=decision.buffer_rows,
            row_size=schema_row_size,
            compact_output=decision.compact_output,
            in_enclave=decision.in_enclave,
            resumed=decision.resumed,
        )

    @classmethod
    def from_plan(cls, schema_row_size: int, plan: QueryPlan) -> "SelectLeakage":
        """Extract the selection leakage from a compiled query plan.

        This is SIM consuming ``OPT(D, Q)`` in its reified form: the
        first (post-order) SelectNode in the tree, plus whether a
        CompactNode tightens its output.
        """
        select = plan.find(SelectNode)
        if not isinstance(select, SelectNode):
            raise PlannerError("plan has no selection to simulate")
        compact = any(
            isinstance(node, CompactNode) and node.source is select
            for node in plan.root.walk()
        )
        return cls(
            input_capacity=select.input_rows,
            output_size=select.output_rows,
            algorithm=select.algorithm,
            buffer_rows=select.buffer_rows,
            row_size=schema_row_size,
            compact_output=compact,
            in_enclave=select.in_enclave,
            resumed=select.resumed,
            streamed=select.streamed,
        )


def _select(table: FlatStorage, predicate: Predicate, leakage: SelectLeakage) -> None:
    """A plain selection statement over ``table``: the statistics pass,
    then — unless the pass kept every match — Small's remaining passes when
    they stream, or else the leaked algorithm (resumed from the pass's
    buffer when it says so) and the runner's read of its output."""
    keeps = leakage.in_enclave or leakage.resumed
    stats = scan_statistics(table, predicate, keep=leakage.buffer_rows if keeps else 0)
    if leakage.streamed:
        first = (stats.kept or [], stats.cursor)
        with closing(
            small_passes(
                table, predicate, leakage.output_size, leakage.buffer_rows, first
            )
        ) as passes:
            for _ in passes:
                pass
    elif not leakage.in_enclave:
        output = run_select_algorithm(
            table,
            predicate,
            leakage.algorithm,
            leakage.output_size,
            buffer_rows=leakage.buffer_rows,
            compact_output=leakage.compact_output,
            first=(stats.kept or [], stats.cursor) if leakage.resumed else None,
        )
        output.rows()
        output.free()


def _selection_trace(
    table: FlatStorage, predicate: Predicate, leakage: SelectLeakage
) -> CanonicalTrace:
    """The canonical trace of :func:`_select` alone."""
    table.enclave.trace.clear()
    _select(table, predicate, leakage)
    return _canonical(table.enclave)


def simulate_select(
    leakage: SelectLeakage,
    oblivious_memory_bytes: int = 1 << 24,
) -> CanonicalTrace:
    """SIM for a selection: rebuild the access pattern from leakage alone.

    Constructs a dummy table of the leaked capacity whose first
    ``output_size`` rows match a dummy predicate (any arrangement works for
    non-Continuous algorithms; Continuous needs contiguity, which is part of
    its leaked choice), forces the leaked algorithm, and records the trace.
    SIM first reproduces the planner's statistics scan (one read pass) —
    the paper's SIM "uses this information to simulate the access pattern
    of one scan over D" — keeping Small's first buffer when the leakage
    says the scan was Small's first pass: for a held selection that scan is
    the whole trace.
    """
    enclave = Enclave(
        oblivious_memory_bytes=oblivious_memory_bytes,
        cipher="null",
        keep_trace_events=True,
    )
    schema = Schema([int_column("x"), int_column("pad")])
    table = FlatStorage(enclave, schema, leakage.input_capacity)
    for index in range(leakage.input_capacity):
        marker = 1 if index < leakage.output_size else 0
        table.write_row(index, (marker, 0))
    return _selection_trace(table, Comparison("x", "=", 1), leakage)


def real_select_trace(
    table: FlatStorage,
    predicate,
    decision: "SelectDecision",
) -> CanonicalTrace:
    """Capture the canonical trace of a real planned selection.

    Re-runs the statistics scan (so real and simulated traces cover the
    same operation window) and the decision's algorithm the way the engine
    would, matching :func:`simulate_select`.
    """
    leakage = SelectLeakage.from_decision(table.schema.row_size, decision)
    return _selection_trace(table, predicate, leakage)


def real_query_trace(db, sql: str) -> tuple[CanonicalTrace, QueryPlan]:
    """Canonical trace + compiled plan of one SQL statement end to end.

    The engine-level analogue of :func:`real_select_trace`: runs the
    statement through ``ObliDB.sql`` with a cleared trace and returns the
    canonicalized events alongside the leaked :class:`QueryPlan`, so
    callers can assert the Appendix-A contract — equal plans (equal
    ``cache_key``) must imply indistinguishable traces.  For a plain
    selection (no ``ORDER BY``) it equals :func:`simulate_select` over the
    plan's :meth:`SelectLeakage.from_plan`.
    """
    db.enclave.trace.clear()
    result = db.sql(sql)
    trace = canonicalize(db.enclave.trace.events, oram_regions_of(db.enclave))
    return trace, result.plan


# ----------------------------------------------------------------------
# Joins, aggregates and GROUP BY over flat sources
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlatSource:
    """A flat table an operator reads: its public schema and capacity."""

    schema: Schema
    rows: int


def _flat_source(node: PlanNode, schemas: Mapping[str, Schema]) -> FlatSource:
    """A flat table scan, or the flat scratch a spilled index segment fills
    (:func:`simulate_index_lookup` runs the lookup that fills it)."""
    if isinstance(node, ScanNode) and node.access_method is AccessMethod.FLAT_SCAN:
        return FlatSource(schemas[node.table], node.rows)
    if isinstance(node, IndexLookupNode) and not node.in_enclave:
        return FlatSource(schemas[node.table], node.segment_rows)
    raise PlannerError(f"SIM covers flat sources only, not {node.label()!r}")


def _specs(labels: Sequence[str]) -> tuple[AggregateSpec, ...]:
    """The aggregates a plan's labels name (``count(*)``, ``sum(amount)``)."""
    specs = []
    for label in labels:
        function, column = label[:-1].split("(", 1)
        specs.append(
            AggregateSpec(AggregateFunction(function), None if column == "*" else column)
        )
    return tuple(specs)


@dataclass(frozen=True)
class JoinLeakage:
    """The leakage SIM receives for one join: the :class:`JoinNode`'s fields
    and the public schemas of its two flat inputs.

    ``compact_output`` says a :class:`CompactNode` tightens the output to
    |T2|, and ``in_enclave`` that the hash join holds its output in the
    enclave (no output table).  The fused WHERE (``JoinNode.filtered``) is
    not here: the output keeps one slot per probed or scanned row whatever
    the WHERE keeps, and a held probe reads T2 whatever it emits, so SIM
    runs without one.
    """

    left: FlatSource
    right: FlatSource
    left_column: str
    right_column: str
    algorithm: JoinAlgorithm
    oblivious_bytes: int
    columns: tuple[str, ...]
    compact_output: bool = False
    in_enclave: bool = False

    @classmethod
    def from_node(cls, node: PlanNode, schemas: Mapping[str, Schema]) -> "JoinLeakage":
        """From a :class:`JoinNode`, or a :class:`CompactNode` wrapping one."""
        compact = isinstance(node, CompactNode)
        join = node.source if compact else node
        if not isinstance(join, JoinNode):
            raise PlannerError(f"no join to simulate at {node.label()!r}")
        return cls(
            left=_flat_source(join.left, schemas),
            right=_flat_source(join.right, schemas),
            left_column=join.left_column,
            right_column=join.right_column,
            algorithm=join.algorithm,
            oblivious_bytes=join.oblivious_bytes,
            columns=join.columns,
            compact_output=compact,
            in_enclave=join.in_enclave,
        )

    @classmethod
    def from_plan(cls, plan: QueryPlan, schemas: Mapping[str, Schema]) -> "JoinLeakage":
        """A join statement's leakage: the plan's root is the join."""
        return cls.from_node(plan.root, schemas)


@dataclass(frozen=True)
class AggregateLeakage:
    """The leakage of an ungrouped aggregate: its source (a flat table or a
    join) and the aggregates its labels name.  The fused WHERE leaks
    nothing: the pass reads every block once either way."""

    source: FlatSource | JoinLeakage
    specs: tuple[AggregateSpec, ...]

    @classmethod
    def from_plan(
        cls, plan: QueryPlan, schemas: Mapping[str, Schema]
    ) -> "AggregateLeakage":
        node = plan.root
        if not isinstance(node, AggregateNode):
            raise PlannerError("plan has no aggregate to simulate")
        source = node.source
        if isinstance(source, (JoinNode, CompactNode)):
            return cls(JoinLeakage.from_node(source, schemas), _specs(node.labels))
        return cls(_flat_source(source, schemas), _specs(node.labels))


@dataclass(frozen=True)
class GroupByLeakage:
    """The leakage of a GROUP BY over a flat table, read off the *executed*
    plan, where the runner records the group structure's size.

    ``output_rows`` is the sort-based fallback's padded size — larger than
    the input — when the g groups' accumulators overflow free oblivious
    memory.  When they fit it is max(1, g), the output table's size, or
    ``None`` when the plan holds the groups in the enclave
    (``in_enclave``): no output table, and g is not leaked.
    """

    source: FlatSource
    group_column: str
    specs: tuple[AggregateSpec, ...]
    output_rows: int | None
    in_enclave: bool = False

    @classmethod
    def from_plan(cls, plan: QueryPlan, schemas: Mapping[str, Schema]) -> "GroupByLeakage":
        node = plan.root
        if not isinstance(node, GroupByNode) or (
            node.output_rows is None and not node.in_enclave
        ):
            raise PlannerError("plan has no executed GROUP BY to simulate")
        return cls(
            source=_flat_source(node.source, schemas),
            group_column=node.group_column,
            specs=_specs(node.labels[1:]),
            output_rows=node.output_rows,
            in_enclave=node.in_enclave,
        )

    @property
    def sorted_fallback(self) -> bool:
        return self.output_rows is not None and self.output_rows > self.source.rows


def _prepared(
    source: FlatSource,
    oblivious_memory_bytes: int = 0,
    rows: Sequence[Row] = (),
) -> FlatStorage:
    """What an operator reads, in a fresh SIM enclave whose trace then
    starts: a dummy flat table holding ``rows`` under
    ``oblivious_memory_bytes``."""
    enclave = Enclave(
        oblivious_memory_bytes=oblivious_memory_bytes,
        cipher="null",
        keep_trace_events=True,
    )
    table = FlatStorage(enclave, source.schema, source.rows)
    table.fast_insert_many(rows)
    enclave.trace.clear()
    return table


def _joined(leakage: JoinLeakage) -> tuple[Enclave, FlatStorage | None]:
    """A join over empty inputs of the leaked capacities, in a fresh SIM
    enclave of the budget its plan declares whose trace starts at the join:
    the enclave and the join's output table — ``None`` for a held join,
    whose output stays in the enclave."""
    enclave = Enclave(
        oblivious_memory_bytes=leakage.oblivious_bytes,
        cipher="null",
        keep_trace_events=True,
    )
    left = FlatStorage(enclave, leakage.left.schema, leakage.left.rows)
    right = FlatStorage(enclave, leakage.right.schema, leakage.right.rows)
    enclave.trace.clear()
    if leakage.in_enclave:
        held_hash_join(
            left,
            right,
            leakage.left_column,
            leakage.right_column,
            leakage.oblivious_bytes,
            columns=leakage.columns,
        )
        return enclave, None
    return enclave, run_join_algorithm(
        left,
        right,
        leakage.left_column,
        leakage.right_column,
        leakage.algorithm,
        leakage.oblivious_bytes,
        compact_output=leakage.compact_output,
        columns=leakage.columns,
    )


def _canonical(enclave: Enclave) -> CanonicalTrace:
    return canonicalize(enclave.trace.events, oram_regions_of(enclave))


def simulate_join(leakage: JoinLeakage) -> CanonicalTrace:
    """SIM for a join statement: the plan's algorithm, budget and column
    list over empty inputs of the leaked capacities, then the runner's read
    of the output unless it is held."""
    enclave, output = _joined(leakage)
    if output is not None:
        output.rows()
    return _canonical(enclave)


def simulate_aggregate(leakage: AggregateLeakage) -> CanonicalTrace:
    """SIM for an ungrouped aggregate: its source, then one fold over it
    (in the enclave, over a held join's rows)."""
    if isinstance(leakage.source, JoinLeakage):
        enclave, table = _joined(leakage.source)
    else:
        table = _prepared(leakage.source)
        enclave = table.enclave
    if table is not None:
        aggregate(table, list(leakage.specs))
    return _canonical(enclave)


def simulate_group_by(
    leakage: GroupByLeakage, oblivious_memory_bytes: int
) -> CanonicalTrace:
    """SIM for a GROUP BY over a flat table, then the runner's read of its
    output — none when the groups fit and the plan holds them: the hash
    build's read pass is then the whole trace.

    ``oblivious_memory_bytes`` is public state, not plan: the free budget
    the statement ran under, which sets the fallback's sort chunk (the hash
    pass reads every block whether or not the group table overflows).  The
    dummy table holds max(1, g) groups (one when g is not leaked), or one
    group per slot when the plan says the group table overflowed.
    """
    source = leakage.source
    rows = [
        _dummy_row(source.schema, {leakage.group_column: group})
        for group in range(_groups(leakage))
    ]
    table = _prepared(source, oblivious_memory_bytes, rows)
    _group_by(table, leakage)
    return _canonical(table.enclave)


def _groups(leakage: GroupByLeakage) -> int:
    """Distinct groups SIM's input holds: enough to overflow when the real
    group table did, else the leaked max(1, g), or one group that fits."""
    if leakage.sorted_fallback:
        return leakage.source.rows
    return leakage.output_rows or 1


def _group_by(table: FlatStorage, leakage: GroupByLeakage) -> None:
    """The runner's GROUP BY: a held hash build (the sorted fallback on
    overflow), or the operator with its output table; then the read of
    any output table."""
    column, specs = leakage.group_column, list(leakage.specs)
    if not leakage.in_enclave:
        output = group_by_aggregate(table, column, specs)
    elif hash_group_rows(table, column, specs) is None:
        output = _sorted_group_aggregate(table, column, specs, None)
    else:
        return
    output.rows()


# ----------------------------------------------------------------------
# Index lookups
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IndexLookupLeakage:
    """The leakage of a statement over an index lookup: the
    :class:`IndexLookupNode`'s ``segment_rows`` and ``in_enclave``, the
    index's public geometry — capacity, order, ``oram_kind``, the ORAM's
    treetop levels k, the tree's resident levels, and the height any lookup
    reveals — and, when the segment spilled, the leakage of the selection,
    aggregate or GROUP BY over its flat scratch (``over``)."""

    schema: Schema
    key_column: str
    capacity: int
    order: int
    oram_kind: str
    treetop_levels: int
    resident_levels: int
    height: int
    segment_rows: int
    in_enclave: bool
    over: SelectLeakage | AggregateLeakage | GroupByLeakage | None = None

    @classmethod
    def from_plan(
        cls, plan: QueryPlan, tables: Mapping[str, Table]
    ) -> "IndexLookupLeakage":
        """From the *executed* plan (a spilled GROUP BY records g there) and
        the catalog's tables, of which it reads only public facts."""
        node = plan.find(IndexLookupNode)
        if not isinstance(node, IndexLookupNode):
            raise PlannerError("plan has no index lookup to simulate")
        table = tables[node.table]
        tree = table.require_index().tree
        over: SelectLeakage | AggregateLeakage | GroupByLeakage | None = None
        if not node.in_enclave:
            schemas = {node.table: table.schema}
            if isinstance(plan.root, GroupByNode):
                over = GroupByLeakage.from_plan(plan, schemas)
            elif isinstance(plan.root, AggregateNode):
                over = AggregateLeakage.from_plan(plan, schemas)
            else:
                over = SelectLeakage.from_plan(table.schema.row_size, plan)
        return cls(
            schema=table.schema,
            key_column=tree.key_column,
            capacity=tree.capacity,
            order=tree.order,
            oram_kind=table.oram_kind,
            treetop_levels=tree.oram.treetop_levels,
            resident_levels=tree.resident_levels,
            height=tree.height,
            segment_rows=node.segment_rows,
            in_enclave=node.in_enclave,
            over=over,
        )


def simulate_index_lookup(
    leakage: IndexLookupLeakage, oblivious_memory_bytes: int
) -> CanonicalTrace:
    """SIM for a statement over an index lookup.

    A dummy index of the leaked geometry and height holds ``segment_rows``
    rows under the smallest keys, and filler rows above them that give it
    the height; its padded range lookup returns the segment.  A held
    segment is the whole trace.  A spilled one goes to a flat scratch of
    ``segment_rows`` slots, and the statement's selection, aggregate or
    GROUP BY SIM runs over that scratch with ``oblivious_memory_bytes`` —
    the free budget the statement ran under, public state — left free.
    """
    if leakage.oram_kind not in ("path", "paper"):
        raise PlannerError(f"SIM covers Path ORAM indexes, not {leakage.oram_kind!r}")
    schema, key, over = leakage.schema, leakage.key_column, leakage.over
    # Keys 0, 1, ...: the first |R| rows match SIM's selection predicate,
    # and a GROUP BY's column cycles through the leaked groups.
    groups = _groups(over) if isinstance(over, GroupByLeakage) else 0
    segment = []
    for i in range(leakage.segment_rows):
        values = {key: i}
        if groups:
            values[over.group_column] = i % groups
        segment.append(_dummy_row(schema, values))
    filler = [
        _dummy_row(schema, {key: leakage.segment_rows + i})
        for i in range(max(0, _least_rows(leakage.order, leakage.height) - len(segment)))
    ]
    enclave = _sim_enclave()
    tree = _dummy_tree(enclave, leakage, segment + filler)
    enclave.oblivious.allocate(enclave.oblivious.free_bytes - oblivious_memory_bytes)
    enclave.trace.clear()
    key_index = schema.column_index(key)
    rows = tree.range_scan(None, max((row[key_index] for row in segment), default=None))
    if not leakage.in_enclave:
        scratch = spill_index_segment(enclave, schema, rows)
        if isinstance(over, SelectLeakage):
            threshold = _dummy_value(schema.column(key), over.output_size)
            _select(scratch, Comparison(key, "<", threshold), over)
        elif isinstance(over, AggregateLeakage):
            aggregate(scratch, list(over.specs))
        else:
            _group_by(scratch, over)
    return _canonical(enclave)


def _sim_enclave() -> Enclave:
    return Enclave(oblivious_memory_bytes=1 << 40, cipher="null", keep_trace_events=True)


def _least_rows(order: int, height: int) -> int:
    """The fewest rows a packed tree of ``height`` levels holds."""
    return height if height < 2 else (order - 1) * order ** (height - 2) + 1


def _dummy_tree(
    enclave: Enclave, leakage: "IndexLookupLeakage | WriteLeakage", rows: Sequence[Row]
) -> ObliviousBPlusTree:
    """An index of the leaked geometry, bulk-loaded with ``rows``, which
    must give it the leaked height."""
    tree = ObliviousBPlusTree(
        enclave,
        leakage.schema,
        leakage.key_column,
        leakage.capacity,
        order=leakage.order,
        oram_factory=lambda enclave, capacity, block_size, rng: PathORAM(
            enclave, capacity, block_size, rng=rng, treetop_levels=leakage.treetop_levels
        ),
        resident_levels=leakage.resident_levels,
    )
    if leakage.height:
        tree.bulk_load(rows)
    if tree.height != leakage.height:
        raise PlannerError(f"SIM built a tree of height {tree.height}, not {leakage.height}")
    return tree


# ----------------------------------------------------------------------
# Writes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WriteLeakage:
    """The leakage of an INSERT, UPDATE or DELETE: the :class:`WriteNode`'s
    operation, capacity and ``access_method``; the table's schema, storage
    method and ``oram_kind``; its index's geometry as in
    :class:`IndexLookupLeakage` (the height the statement left); and two
    trace sizes, which Theorem 1 hands SIM: ``affected``, the rows an
    UPDATE / DELETE rewrote in the index (one padded burst each, or a
    padded delete and insert when the UPDATE ``assigns_key``), and
    ``segment_rows``, the rows an ``index_range`` lookup returned.  A flat
    pass reads and writes every slot, so a flat-only table leaks neither.

    Out of scope: the write-ahead log's append, which a durable database
    makes before the statement runs; ``INSERT ... FAST``, which writes the
    table's next slot; and a statement that changes the index's height
    part-way.
    """

    operation: str
    schema: Schema
    capacity: int
    method: StorageMethod
    access_method: AccessMethod | None
    oram_kind: str
    key_column: str | None = None
    order: int = 0
    treetop_levels: int = 0
    resident_levels: int = 0
    height: int = 0
    affected: int = 0
    segment_rows: int = 0
    assigns_key: bool = False

    @classmethod
    def from_plan(
        cls,
        plan: QueryPlan,
        tables: Mapping[str, Table],
        affected: int = 0,
        segment_rows: int = 0,
    ) -> "WriteLeakage":
        """From the write's plan and the catalog's tables after it ran, of
        which it reads only public facts."""
        node = plan.root
        if not isinstance(node, WriteNode):
            raise PlannerError("plan has no write to simulate")
        table = tables[node.table]
        geometry = {}
        if table.indexed is not None:
            tree = table.indexed.tree
            geometry = dict(
                key_column=tree.key_column,
                order=tree.order,
                treetop_levels=tree.oram.treetop_levels,
                resident_levels=tree.resident_levels,
                height=tree.height,
            )
        return cls(
            operation=node.operation,
            schema=table.schema,
            capacity=node.rows,
            method=table.method,
            access_method=node.access_method,
            oram_kind=table.oram_kind,
            affected=affected,
            segment_rows=segment_rows,
            assigns_key=node.assigns_key,
            **geometry,
        )


def simulate_write(leakage: WriteLeakage) -> CanonicalTrace:
    """SIM for a write: the engine's write operator over a dummy table of
    the leaked schema, capacity and storage method.

    The flat copy stays empty: its pass reads and writes every slot
    whatever they hold.  The dummy index has the leaked geometry and holds
    keys 0, 1, ... in a packed tree of the leaked height: before an INSERT
    the fewest rows of that height, which take the next key without a root
    split; before an UPDATE / DELETE as many as the height holds, up to the
    capacity, so removing rows never lowers it.  The ``affected`` smallest
    keys match SIM's predicate, and an ``index_range`` lookup returns the
    ``segment_rows`` smallest.
    """
    if leakage.method is not StorageMethod.FLAT and leakage.oram_kind not in ("path", "paper"):
        raise PlannerError(f"SIM covers Path ORAM indexes, not {leakage.oram_kind!r}")
    schema, key, height = leakage.schema, leakage.key_column, leakage.height
    insert = leakage.operation == "insert"
    enclave = _sim_enclave()
    table = Table(
        enclave,
        "sim",
        schema,
        leakage.capacity,
        method=leakage.method,
        key_column=key,
        oram_kind="paper",
    )
    column = key or schema.columns[0].name
    rows = 0
    if table.indexed is not None:
        order = leakage.order
        most = min(leakage.capacity, (order - 1) * order ** max(0, height - 1))
        rows = _least_rows(order, height) if insert else most
        table.indexed.tree.free()  # the constructor's; SIM's has the leaked geometry
        table.indexed.tree = _dummy_tree(
            enclave, leakage, [_dummy_row(schema, {key: i}) for i in range(rows)]
        )
    enclave.trace.clear()

    def value(i: int) -> Value:
        return _dummy_value(schema.column(column), i)

    matches = Comparison(column, "<", value(leakage.affected))
    interval = None
    if leakage.access_method is AccessMethod.INDEX_RANGE:
        segment = leakage.segment_rows
        low, high = (0, segment - 1) if segment else (rows, rows)  # a miss: past every key
        interval = Interval(value(low), value(high))
    if insert:
        oblivious_insert(table, _dummy_row(schema, {column: rows}))
    elif leakage.operation == "update":
        oblivious_update(
            table, matches, lambda row: row, interval, assigns_key=leakage.assigns_key
        )
    else:
        oblivious_delete(table, matches, interval)
    return _canonical(enclave)


def _dummy_row(schema: Schema, values: Mapping[str, int]) -> Row:
    """A row of ``schema``: ``values[name]`` in the named columns, 0 elsewhere,
    each as a value of its column's type."""
    return tuple(
        _dummy_value(column, values.get(column.name, 0)) for column in schema.columns
    )


def _dummy_value(column: Column, i: int) -> Value:
    """``i`` as a value of ``column``'s type; strings are zero-padded to the
    column's width, so they sort as the integers do."""
    if column.type is ColumnType.STR:
        return str(i).zfill(column.byte_width)
    if column.type is ColumnType.FLOAT:
        return float(i)
    return i
