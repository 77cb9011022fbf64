"""Statement → physical-plan compilation: the query-level leaked value.

Under the security theorem (Appendix A) a query leaks exactly ``OPT(D, Q)``
— the planner's operator choices plus public sizes.  Before this module,
those choices were smeared across the executor's dispatch branches and two
per-operator planners; here they are reified as one canonical, typed,
hashable IR:

* :class:`PlanNode` subclasses — Scan / IndexLookup / Select / Compact /
  Join / Aggregate / GroupBy / Sort / Write — each carrying *only* public
  fields (access method, algorithm enums, padding mode, sizes).  Secret
  query parameters (predicate constants, inserted values) never enter a
  node; they stay on the logical statement, which the runner consults at
  execution time.

* :class:`QueryPlan` — the whole query's plan tree plus statement-level
  public metadata, with a canonical serialization (:meth:`QueryPlan.
  to_dict`), a stable digest (:attr:`QueryPlan.cache_key`) and a rendered
  tree (:meth:`QueryPlan.describe` — what ``EXPLAIN`` prints).  It is the
  only plan representation: ``QueryResult.plan`` carries it, and callers
  read it with :meth:`QueryPlan.find` / ``root.walk()``.

* :func:`compile_statement` — turns a logical :class:`~repro.engine.ast.
  Statement` into a :class:`CompiledQuery`: the plan, plus one binding map
  from a node to what its output is bound to — a flat table, or a
  :class:`HeldSegment` of rows held in the enclave.  Compilation performs
  the planner's statistics pass — which, on every table but the paper's,
  is also the Small algorithm's first pass: it holds a result of at most
  one buffer in oblivious memory, or hands its full buffer to Small — and
  the index lookup, whose rows it holds in oblivious memory when the
  segment fits, or spills to a flat scratch otherwise.  So compile
  immediately precedes run and their concatenated trace is the
  statement's.

Every source node answers one size, :attr:`PlanNode.capacity` — the slots
of its output — and an in-enclave node holds ``framed_bytes(capacity,
schema)`` of oblivious memory (:func:`~repro.storage.rows.framed_bytes`):
a held lookup its segment, a held selection its |R| matches, a held join
|T2| emitted rows and an in-enclave sort its rows.  The fit rules here and
the runner's reservations both read it.

Every decision is made here, at compile time.  A join consumes the
statement's WHERE and the columns the rest of the plan reads at its emit
(:class:`JoinNode` ``filtered`` / ``columns``), so no selection runs over a
join output and nothing about a join statement's plan waits for data.  One
field is *observed* rather than decided: a grouped aggregate's output size,
which the runner records into the final plan after execution.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from ..enclave.enclave import Enclave, ObliviousMemoryAccount
from ..enclave.errors import QueryError
from ..operators.join import joined_schema
from ..operators.predicate import Interval, Predicate, TruePredicate
from ..operators.select import HASH_CHAIN_SLOTS, spill_index_segment
from ..operators.sort import padded_scratch
from ..storage.flat import FlatStorage
from ..storage.rows import framed_bytes
from ..storage.schema import Row, Schema
from ..storage.table import Table
from .join_planner import JoinDecision, plan_join
from .plan import AccessMethod, JoinAlgorithm, SelectAlgorithm
from .select_planner import SelectDecision, plan_select
from .stats import SelectionStats

if TYPE_CHECKING:  # statement types only; engine imports planner at runtime
    from ..engine.ast import SelectStatement, Statement
    from ..engine.padding import PaddingConfig


# ----------------------------------------------------------------------
# Plan nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanNode:
    """Base class: one operator-level planning decision in the tree."""

    kind = "node"

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def public_fields(self) -> dict[str, object]:
        """The node's leaked scalars (no children, no secrets)."""
        return {}

    @property
    def capacity(self) -> int:
        """Slots in the node's output structure, a function of its public
        fields: what a consumer scans, and what an in-enclave node holds
        ``framed_bytes(capacity, schema)`` of oblivious memory for."""
        raise TypeError(f"a {self.kind} node is not a source")

    def label(self) -> str:
        """One-line rendering used by :meth:`QueryPlan.describe`."""
        parts = [self.kind]
        for key, value in self.public_fields().items():
            if value is None:
                value = "?"
            elif isinstance(value, tuple):
                value = f"({', '.join(value)})"
            parts.append(f"{key}={value}")
        return " ".join(parts)

    def to_dict(self) -> dict[str, object]:
        """Canonical nested-dict serialization (enums as their values)."""
        return {
            "kind": self.kind,
            **self.public_fields(),
            "children": [child.to_dict() for child in self.children()],
        }

    def walk(self) -> Iterator["PlanNode"]:
        """Post-order traversal (children before the node itself)."""
        for child in self.children():
            yield from child.walk()
        yield self


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """Read a table's flat representation front to back.

    ``access_method`` is :attr:`AccessMethod.FLAT_SCAN` for a real flat
    table or :attr:`AccessMethod.INDEX_LINEAR` for the "scan the index like
    a flat table" fallback, which first copies the index into an owned
    scratch of ``rows`` = its capacity (:func:`bind_index_copy`).
    """

    table: str
    access_method: AccessMethod
    rows: int

    kind = "scan"

    def public_fields(self) -> dict[str, object]:
        return {
            "table": self.table,
            "access_method": self.access_method.value,
            "rows": self.rows,
        }

    @property
    def capacity(self) -> int:
        return self.rows


@dataclass(frozen=True)
class IndexLookupNode(PlanNode):
    """Look up the index segment T' the WHERE clause pins (point/range).

    Leaks the segment size — an intermediate table size the threat model
    already concedes — never the key values themselves.  ``segment_rows``
    is ``max(1, |T'|)``, the size the lookup's ORAM padding already
    reveals, so a miss and a one-row hit share one plan.

    ``in_enclave`` is the compile-time decision between answering the
    statement over the looked-up rows where they are — held in oblivious
    memory, filtered, projected, sorted and aggregated there, no access to
    untrusted memory beyond the lookup's ORAM paths, so no selection node
    above this one — and spilling them to a flat scratch that a
    :class:`SelectNode`, aggregate or group-by scans.  The rule reads
    public values only: the index is not the paper's (``oram_kind=
    "paper"``, measured as the paper builds it) and ``segment_rows`` framed
    rows fit free oblivious memory — the form of :attr:`SortNode.in_enclave`.
    """

    table: str
    segment_rows: int
    in_enclave: bool

    kind = "index_lookup"

    def public_fields(self) -> dict[str, object]:
        return {
            "table": self.table,
            "access_method": AccessMethod.INDEX_RANGE.value,
            "segment_rows": self.segment_rows,
            "in_enclave": self.in_enclave,
        }

    @property
    def capacity(self) -> int:
        return self.segment_rows


@dataclass(frozen=True)
class SelectNode(PlanNode):
    """One Section 4.1 selection over ``source`` (a scan or index segment;
    a join applies the WHERE itself).

    ``padded`` records Section 7.1 padding mode: fixed Hash algorithm at
    the padded output size, no statistics pass.

    On a table that is not ``oram_kind="paper"``, the statistics pass is
    Small's first pass too: it keeps the first ``buffer_rows`` matching
    frames when that buffer fits free oblivious memory.  ``in_enclave``
    says it kept every match (|R| ≤ ``buffer_rows``, 0 included): the kept
    rows are the answer, held in oblivious memory — no output table, no
    further pass, no read-back — and ``algorithm`` is Small.  ``resumed``
    says Small runs and starts from the pass's full buffer, so its own
    first pass is gone.  ``streamed`` says a resumed Small is the root of
    a plain selection (no ORDER BY): each pass hands its buffer to the
    result, so no output table is allocated, flushed or read back.  All
    three read public values only, the form of
    :attr:`IndexLookupNode.in_enclave`.
    """

    source: PlanNode
    algorithm: SelectAlgorithm
    input_rows: int
    output_rows: int
    buffer_rows: int = 0
    padded: bool = False
    in_enclave: bool = False
    resumed: bool = False
    streamed: bool = False

    kind = "select"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def public_fields(self) -> dict[str, object]:
        return {
            "algorithm": self.algorithm.value,
            "input_rows": self.input_rows,
            "output_rows": self.output_rows,
            "buffer_rows": self.buffer_rows,
            "padded": self.padded,
            "in_enclave": self.in_enclave,
            "resumed": self.resumed,
            "streamed": self.streamed,
        }

    @property
    def capacity(self) -> int:
        if self.algorithm is SelectAlgorithm.LARGE:
            return self.input_rows
        if self.algorithm is SelectAlgorithm.HASH:
            # Raw chain table (the compacted case is wrapped in CompactNode,
            # whose bound supersedes this).
            return max(1, self.output_rows) * HASH_CHAIN_SLOTS
        if self.algorithm is SelectAlgorithm.CONTINUOUS:
            return max(1, self.output_rows)
        return self.output_rows  # SMALL (and NAIVE) allocate exactly |R|


@dataclass(frozen=True)
class CompactNode(PlanNode):
    """Oblivious-compaction back end tightening ``source``'s output.

    Wraps a Hash selection (chain table → |R| rows) or a join (sparse
    output → the |T2| foreign-key bound).  ``bound`` is the public row
    bound the output is tightened to.
    """

    source: PlanNode
    bound: int

    kind = "compact"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def public_fields(self) -> dict[str, object]:
        return {"bound": self.bound}

    @property
    def capacity(self) -> int:
        return self.bound


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """One Section 4.3 join; sizes are the two flat-view capacities.

    The join consumes the statement's WHERE and column list at the place
    it emits a joined row: ``filtered`` says a WHERE is applied there (its
    constants stay on the statement), ``columns`` names the emitted columns
    — the ones the rest of the plan reads, in joined-schema order.  Both
    come off the public query text, and the output keeps one slot per
    probed / scanned row whatever the WHERE keeps, so the join's trace is
    a function of this node's fields alone.

    ``in_enclave`` says a hash join's output is held in the enclave — no
    output table, no probe writes, no read-back, so no compaction or
    selection above it: the consumers answer over the held rows.  The rule
    reads public values only: neither table is the paper's (``oram_kind=
    "paper"``), and the hash table the join reserves plus ``t2`` frames of
    the emitted row fit free oblivious memory
    (:func:`~repro.operators.join.hash_join_reservation`); a foreign-key
    join emits at most |T2| rows.
    """

    left: PlanNode
    right: PlanNode
    left_column: str
    right_column: str
    algorithm: JoinAlgorithm
    t1: int
    t2: int
    oblivious_rows: int
    oblivious_bytes: int
    filtered: bool
    columns: tuple[str, ...]
    in_enclave: bool = False

    kind = "join"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def public_fields(self) -> dict[str, object]:
        return {
            "algorithm": self.algorithm.value,
            "on": f"{self.left_column}={self.right_column}",
            "t1": self.t1,
            "t2": self.t2,
            "oblivious_rows": self.oblivious_rows,
            "oblivious_bytes": self.oblivious_bytes,
            "filtered": self.filtered,
            "columns": self.columns,
            "in_enclave": self.in_enclave,
        }

    @property
    def capacity(self) -> int:
        """One slot per probe of each hash chunk, or one per row of the
        padded sort-merge union; a held join holds at most |T2| rows."""
        if self.in_enclave:
            return self.t2
        if self.algorithm is JoinAlgorithm.HASH:
            return -(-self.t1 // self.oblivious_rows) * self.t2
        return padded_scratch(self.t1 + self.t2)


@dataclass(frozen=True)
class AggregateNode(PlanNode):
    """Fused select+aggregate over the whole input (no GROUP BY)."""

    source: PlanNode
    input_rows: int
    labels: tuple[str, ...]

    kind = "aggregate"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def public_fields(self) -> dict[str, object]:
        return {"labels": list(self.labels), "input_rows": self.input_rows}


@dataclass(frozen=True)
class GroupByNode(PlanNode):
    """Grouped aggregation.

    ``in_enclave`` says the hash build's group table is the answer when it
    fits oblivious memory: no output table is swept, written or read back.
    The rule reads public values only: the source is a flat table scan
    (:class:`ScanNode`, ``flat_scan``), not the paper's (``oram_kind=
    "paper"``), and padding mode is off.  Whether the groups fit shows
    only after the read pass, as it always has: on overflow the sorted
    fallback runs over untrusted memory, unchanged.

    ``output_rows`` is the padded bound under padding mode, otherwise the
    observed group-structure size recorded into the final plan after
    execution (it is leaked either way): the sorted fallback's padded size
    on overflow, and max(1, g) when an output table holds the g groups.
    It is ``None`` when the groups never leave the enclave — a held GROUP
    BY that fit, or one over rows already held (an in-enclave index
    segment or join).
    """

    source: PlanNode
    group_column: str
    labels: tuple[str, ...]
    input_rows: int
    output_rows: int | None
    in_enclave: bool = False

    kind = "group_by"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def public_fields(self) -> dict[str, object]:
        return {
            "group_column": self.group_column,
            "labels": list(self.labels),
            "input_rows": self.input_rows,
            "output_rows": self.output_rows,
            "in_enclave": self.in_enclave,
        }


@dataclass(frozen=True)
class SortNode(PlanNode):
    """ORDER BY over a selection's (or compacted join's) output table.

    ``in_enclave`` is the compile-time decision between sorting decrypted
    rows inside the enclave (result fits the oblivious-memory budget;
    invisible to the adversary) and the padded bitonic network (visible,
    but a pure function of ``rows``).
    """

    source: PlanNode
    order_by: str
    descending: bool
    rows: int
    in_enclave: bool

    kind = "sort"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def public_fields(self) -> dict[str, object]:
        return {
            "order_by": self.order_by,
            "descending": self.descending,
            "rows": self.rows,
            "in_enclave": self.in_enclave,
        }

    @property
    def capacity(self) -> int:
        return self.rows


@dataclass(frozen=True)
class WriteNode(PlanNode):
    """INSERT / UPDATE / DELETE: one uniform pass, size-only leakage.

    ``access_method`` says how an UPDATE / DELETE finds the rows it
    affects in the table's index: :attr:`AccessMethod.INDEX_RANGE` (one
    padded range lookup over the key interval the WHERE pins) or
    :attr:`AccessMethod.INDEX_LINEAR` (every bucket of the ORAM); ``None``
    when no index is searched (INSERT, a flat-only table).

    ``assigns_key`` says an UPDATE's SET list names the index's key column,
    public in the statement's text: every row it affects is then deleted
    from the index and re-inserted (both padded), whatever its new key, so
    whether a row keeps its key never shows.  An UPDATE that leaves the key
    alone rewrites each row in place.
    """

    operation: str  # "insert" | "update" | "delete"
    table: str
    rows: int
    access_method: AccessMethod | None = None
    assigns_key: bool = False

    kind = "write"

    def label(self) -> str:
        label = f"{self.operation} {self.table} capacity={self.rows}"
        if self.access_method is not None:
            label += f" access_method={self.access_method.value}"
        if self.assigns_key:
            label += " assigns_key=True"
        return label

    def public_fields(self) -> dict[str, object]:
        fields: dict[str, object] = {
            "operation": self.operation,
            "table": self.table,
            "rows": self.rows,
        }
        if self.access_method is not None:
            fields["access_method"] = self.access_method.value
        if self.assigns_key:
            fields["assigns_key"] = True
        return fields


# ----------------------------------------------------------------------
# The query-level plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryPlan:
    """The whole query's compiled physical plan — exactly what is leaked.

    ``columns`` / ``limit`` are statement-level public metadata (the query
    text is public under the threat model; only literal parameters inside
    predicates and VALUES are hidden, and those never appear here).
    """

    root: PlanNode
    statement_kind: str  # "select" | "insert" | "update" | "delete"
    tables: tuple[str, ...]
    columns: tuple[str, ...] = ()
    limit: int | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "statement": self.statement_kind,
            "tables": list(self.tables),
            "columns": list(self.columns),
            "limit": self.limit,
            "root": self.root.to_dict(),
        }

    @property
    def cache_key(self) -> str:
        """Stable digest of the canonical serialization.

        Two runs leak the same value iff their plans' cache keys match;
        the obliviousness checker requires their canonical traces to be
        identical in that case.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()

    def describe(self) -> str:
        """Render the plan as an indented tree (the ``EXPLAIN`` output)."""
        header = f"plan[{self.statement_kind}] tables={','.join(self.tables)}"
        if self.columns:
            header += f" columns={','.join(self.columns)}"
        if self.limit is not None:
            header += f" limit={self.limit}"
        lines = [header]

        def render(node: PlanNode, prefix: str, last: bool) -> None:
            branch = "`-- " if last else "|-- "
            lines.append(prefix + branch + node.label())
            child_prefix = prefix + ("    " if last else "|   ")
            children = node.children()
            for position, child in enumerate(children):
                render(child, child_prefix, position == len(children) - 1)

        render(self.root, "", True)
        return "\n".join(lines)

    def find(self, node_type: type) -> PlanNode | None:
        """First node of ``node_type`` in post-order, or None."""
        for node in self.root.walk():
            if isinstance(node, node_type):
                return node
        return None


# ----------------------------------------------------------------------
# Compiled query: plan + what each node's output is bound to
# ----------------------------------------------------------------------
@dataclass
class HeldSegment:
    """Rows held in the enclave and the oblivious memory they hold.  An
    in-enclave lookup holds the decoded ``rows`` of its segment; a held
    selection holds the ``frames`` of its matches, as its statistics pass
    kept them, and a held join the frames it emitted; ``rows`` stays empty
    for both.  A resumed Small's first pass is held the same way, with the
    ``cursor`` after its last match and no memory of its own (``nbytes``
    0): Small's buffer reservation covers it.  The runner also wraps a
    streamed selection's frames, as its passes handed them to the result,
    in one that holds no memory: like rows read back for the client, they
    are the answer."""

    schema: Schema
    account: ObliviousMemoryAccount
    nbytes: int
    rows: list[Row] = field(default_factory=list)
    frames: list[bytes] | None = None
    cursor: int = -1

    def decoded(self) -> list[Row]:
        """Every held row with every column of ``schema``."""
        if self.frames is None:
            return self.rows
        return self.schema.decode_framed_rows(self.frames)

    def free(self) -> None:
        """Release the reservation."""
        self.account.release(self.nbytes)


@dataclass
class CompiledQuery:
    """A plan ready to run: the IR plus what compilation bound to its nodes.

    ``bindings`` is the one map from a node to what its output is bound to,
    and whether the query owns it: a scan to the table's own flat storage
    (borrowed) or an index copy; an index lookup to its spilled scratch or,
    ``in_enclave``, to its held rows; a held selection to the matches its
    statistics pass kept, and a resumed one to that pass's buffer and
    cursor.  The runner *takes* a binding as it consumes it and binds what
    the operators it runs return the same way.  :meth:`free` releases
    every owned entry left — flat storage freed, oblivious memory released
    — in one loop; the executor calls it after each run, and the EXPLAIN
    and error paths call it too.  ``key_interval`` is the index-key interval
    of a write whose :class:`WriteNode` says ``index_range``: its bounds
    are the statement's constants, so it rides beside the plan, never in
    it.
    """

    plan: QueryPlan
    statement: Statement
    bindings: dict[int, tuple[FlatStorage | HeldSegment, bool]] = field(
        default_factory=dict
    )
    key_interval: Interval | None = None

    def bind(
        self, node: PlanNode, bound: FlatStorage | HeldSegment, owned: bool = True
    ) -> None:
        self.bindings[id(node)] = (bound, owned)

    def bound(self, node: PlanNode) -> FlatStorage | HeldSegment:
        """What ``node`` is bound to, left bound."""
        return self.bindings[id(node)][0]

    def take(self, node: PlanNode) -> tuple[FlatStorage | HeldSegment, bool]:
        """What ``node`` is bound to and whether the taker owns it now."""
        return self.bindings.pop(id(node))

    def hold(self, node: PlanNode, held: HeldSegment) -> None:
        """Reserve ``held.nbytes`` of oblivious memory for what ``held``
        holds and bind it to ``node``."""
        held.account.allocate(held.nbytes)
        self.bind(node, held)

    def free(self) -> None:
        """Free every owned binding left."""
        for bound, owned in self.bindings.values():
            if owned:
                bound.free()
        self.bindings.clear()


# ----------------------------------------------------------------------
# Compile-time I/O bound to its node
# ----------------------------------------------------------------------
def bind_statistics(
    compiled: CompiledQuery,
    node: SelectNode,
    storage: FlatStorage,
    stats: SelectionStats,
) -> None:
    """Bind what the statistics pass over ``storage`` kept to ``node``: every
    match, held in the enclave when the node is ``in_enclave``; Small's
    first pass, buffer and cursor, when it is ``resumed``."""
    if node.in_enclave or node.resumed:
        nbytes = framed_bytes(node.capacity, storage.schema) if node.in_enclave else 0
        compiled.hold(
            node,
            HeldSegment(
                storage.schema,
                storage.enclave.oblivious,
                nbytes,
                frames=stats.kept or [],
                cursor=stats.cursor,
            ),
        )


def bind_segment(
    compiled: CompiledQuery,
    node: IndexLookupNode,
    enclave: Enclave,
    schema: Schema,
    rows: list[Row],
) -> None:
    """Bind an index lookup's ``rows`` to ``node``: held in the enclave
    when the node is ``in_enclave``, else spilled to a flat scratch of
    ``segment_rows`` slots."""
    if node.in_enclave:
        nbytes = framed_bytes(node.capacity, schema)
        compiled.hold(node, HeldSegment(schema, enclave.oblivious, nbytes, rows=rows))
    else:
        compiled.bind(node, spill_index_segment(enclave, schema, rows))


def bind_index_copy(
    compiled: CompiledQuery,
    node: ScanNode,
    enclave: Enclave,
    schema: Schema,
    scan: Iterable[Row],
) -> None:
    """Bind a flat copy of an index to an ``index_linear`` ``node``: a
    scratch of ``node.rows`` slots (its allocation pass), then ``scan`` —
    the index's linear scan, drawn only now — copied in with
    ``W 0..node.rows-1``, so how many rows are live does not show."""
    scratch = FlatStorage(enclave, schema, node.rows)
    try:
        scratch.write_all(list(scan))
    except Exception:
        scratch.free()  # not bound yet: ``compiled.free()`` would miss it
        raise
    compiled.bind(node, scratch)


# ----------------------------------------------------------------------
# Decision helpers
# ----------------------------------------------------------------------
def holds_segment(node: PlanNode) -> bool:
    """True for an index lookup, a selection or a join answered over rows
    held in the enclave."""
    return (
        isinstance(node, (IndexLookupNode, SelectNode, JoinNode)) and node.in_enclave
    )


def selection(source: PlanNode, decision: SelectDecision, streams: bool) -> PlanNode:
    """The selection subtree a planner decision makes over ``source``: a
    :class:`SelectNode` — Small whenever the statistics pass kept every
    match — wrapped in a :class:`CompactNode` when the decision compacts a
    table output.  ``streams`` says no ORDER BY sits above it, so a
    resumed Small hands its passes to the result."""
    stats = decision.stats
    small = decision.in_enclave or decision.algorithm is SelectAlgorithm.SMALL
    node = SelectNode(
        source=source,
        algorithm=SelectAlgorithm.SMALL if small else decision.algorithm,
        input_rows=stats.input_capacity,
        output_rows=stats.matching_rows,
        buffer_rows=decision.buffer_rows if small else 0,
        in_enclave=decision.in_enclave,
        resumed=decision.resumed,
        streamed=decision.resumed and streams,
    )
    if decision.compact_output and not node.in_enclave:
        return CompactNode(source=node, bound=max(1, stats.matching_rows))
    return node


def _check_columns(statement: SelectStatement, schema: Schema) -> None:
    """Refuse a statement that names a column its source rows lack, before
    anything is read: the select list, the WHERE's columns, the aggregate
    arguments, the GROUP BY column and a plain ORDER BY column against
    ``schema`` (:class:`~repro.enclave.errors.SchemaError`), and a grouped
    ORDER BY against the output labels (:class:`QueryError`)."""
    names = [*statement.columns, statement.group_by]
    names += [spec.column for spec in statement.aggregates]
    if statement.where is not None:
        names += sorted(statement.where.columns())
    if statement.group_by is None:
        names.append(statement.order_by)
    for name in names:
        if name is not None:
            schema.column_index(name)
    if statement.group_by is not None and statement.order_by is not None:
        labels = [statement.group_by, *(spec.label() for spec in statement.aggregates)]
        if statement.order_by not in labels:
            raise QueryError(
                f"ORDER BY column {statement.order_by!r} is not in the "
                f"GROUP BY output {labels}"
            )


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
def compile_statement(
    tables: dict[str, Table],
    statement: Statement,
    *,
    padding: PaddingConfig | None = None,
    allow_continuous: bool = True,
) -> CompiledQuery:
    """Compile one logical statement into a :class:`CompiledQuery`."""
    # Imported lazily: repro.engine imports repro.planner at module load,
    # so a module-level import here would close an import cycle.
    from ..engine.ast import (
        DeleteStatement,
        InsertStatement,
        SelectStatement,
        UpdateStatement,
    )

    compiler = _Compiler(tables, padding, allow_continuous)
    if isinstance(statement, SelectStatement):
        return compiler.compile_select(statement)
    if isinstance(statement, InsertStatement):
        return compiler.compile_write(statement, "insert")
    if isinstance(statement, UpdateStatement):
        return compiler.compile_write(statement, "update")
    if isinstance(statement, DeleteStatement):
        return compiler.compile_write(statement, "delete")
    raise QueryError(f"cannot compile {type(statement).__name__}")


class _Compiler:
    def __init__(
        self,
        tables: dict[str, Table],
        padding: PaddingConfig | None,
        allow_continuous: bool,
    ) -> None:
        self._tables = tables
        self._padding = padding
        self._allow_continuous = allow_continuous

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"no table named {name!r}") from None

    # -- writes ---------------------------------------------------------
    def compile_write(self, statement, operation: str) -> CompiledQuery:
        table = self._table(statement.table)
        access_method = interval = None
        assigns_key = False
        if operation != "insert" and table.indexed is not None:
            interval = self._keyed_interval(table, statement.where)
            access_method = (
                AccessMethod.INDEX_LINEAR if interval is None else AccessMethod.INDEX_RANGE
            )
            assigns_key = operation == "update" and any(
                column == table.indexed.key_column for column, _ in statement.assignments
            )
        node = WriteNode(
            operation=operation,
            table=table.name,
            rows=table.capacity,
            access_method=access_method,
            assigns_key=assigns_key,
        )
        plan = QueryPlan(
            root=node, statement_kind=operation, tables=(table.name,)
        )
        return CompiledQuery(plan=plan, statement=statement, key_interval=interval)

    # -- selects --------------------------------------------------------
    def compile_select(self, statement: SelectStatement) -> CompiledQuery:
        table = self._table(statement.table)
        joined = None
        if statement.join is not None:
            right = self._table(statement.join.right_table)
            joined = joined_schema(table.schema, right.schema)
        _check_columns(statement, joined or table.schema)
        compiled = CompiledQuery(
            plan=None,  # type: ignore[arg-type]  # assigned below
            statement=statement,
        )
        try:
            if joined is not None:
                source, schema = self._compile_join(statement, table, joined, compiled)
            else:
                source = self._compile_scan_source(table, statement, compiled)
                schema = table.schema
            root = self._compile_shape(statement, table, schema, source, compiled)
        except BaseException:
            compiled.free()
            raise
        names = [statement.table]
        if statement.join is not None:
            names.append(statement.join.right_table)
        compiled.plan = QueryPlan(
            root=root,
            statement_kind="select",
            tables=tuple(names),
            columns=tuple(statement.columns),
            limit=statement.limit,
        )
        return compiled

    def _compile_shape(
        self,
        statement: SelectStatement,
        table: Table,
        schema: Schema,
        source: PlanNode,
        compiled: CompiledQuery,
    ) -> PlanNode:
        """Group-by / fused-aggregate / plain-selection shape over a source
        whose rows have ``schema``."""
        if statement.group_by is not None:
            labels = (statement.group_by,) + tuple(
                spec.label() for spec in statement.aggregates
            )
            return GroupByNode(
                source=source,
                group_column=statement.group_by,
                labels=labels,
                input_rows=source.capacity,
                output_rows=self._padding.pad_groups if self._padding else None,
                in_enclave=isinstance(source, ScanNode)
                and source.access_method is AccessMethod.FLAT_SCAN
                and table.oram_kind != "paper"
                and self._padding is None,
            )
        if statement.aggregates:
            return AggregateNode(
                source=source,
                input_rows=source.capacity,
                labels=tuple(spec.label() for spec in statement.aggregates),
            )
        selection = self._compile_selection(statement, table, source, compiled)
        if statement.order_by is None:
            return selection
        # Decide where ORDER BY runs: inside the enclave when the decrypted
        # result fits the oblivious-memory budget (held rows already do:
        # they are sorted in place), else the padded bitonic network over
        # untrusted scratch.  Every input is public.
        return SortNode(
            source=selection,
            order_by=statement.order_by,
            descending=statement.descending,
            rows=selection.capacity,
            in_enclave=holds_segment(selection)
            or framed_bytes(selection.capacity, schema)
            <= table.enclave.oblivious.free_bytes,
        )

    def _compile_selection(
        self,
        statement: SelectStatement,
        table: Table,
        source: PlanNode,
        compiled: CompiledQuery,
    ) -> PlanNode:
        """The selection subtree over a materialized source.

        A join already applies the WHERE at its emit, and the runner applies
        it to a held index segment where the rows are, so either *is* the
        selection.  Padding mode (Section 7.1) skips the statistics pass
        and fixes the Hash algorithm at the padded size (raw chain table,
        no compaction).  Otherwise this runs the planner's statistics scan
        and cost model (:func:`~repro.planner.select_planner.plan_select`),
        the scan keeping Small's first buffer unless the table is the
        paper's.  A scan that kept every match holds them for the runner
        (``in_enclave``); a full buffer goes to Small (``resumed``), whose
        passes stream to the result when no ORDER BY sits above them
        (``streamed``: this is only ever called for a plain selection); an
        output the decision says to compact (:attr:`~repro.planner.
        select_planner.SelectDecision.compact_output`) is reified as a
        :class:`CompactNode` wrap.
        """
        if statement.join is not None or holds_segment(source):
            return source
        storage = compiled.bound(source)
        if self._padding is not None:
            return SelectNode(
                source=source,
                algorithm=SelectAlgorithm.HASH,
                input_rows=storage.capacity,
                output_rows=self._padding.pad_rows,
                buffer_rows=0,
                padded=True,
            )
        decision: SelectDecision = plan_select(
            storage,
            statement.where or TruePredicate(),
            allow_continuous=self._allow_continuous,
            keep=table.oram_kind != "paper",
        )
        node = selection(source, decision, streams=statement.order_by is None)
        select = node.source if isinstance(node, CompactNode) else node
        assert isinstance(select, SelectNode)
        bind_statistics(compiled, select, storage, decision.stats)
        return node

    # -- sources --------------------------------------------------------
    def _index_interval(
        self, table: Table, where: Predicate | None
    ) -> Interval | None:
        """The key interval if the query can be served from the index."""
        if where is None or table.indexed is None:
            return None
        interval = where.key_interval(table.indexed.key_column)
        if interval is None:
            return None
        if interval.low is None and interval.high is None:
            return None
        return interval

    def _keyed_interval(
        self, table: Table, where: Predicate | None
    ) -> Interval | None:
        """:meth:`_index_interval`, unless padding mode is on: it never uses
        indexes, whose benefit comes from knowing query selectivity —
        exactly what padding hides (§7.1)."""
        if self._padding is not None:
            return None
        return self._index_interval(table, where)

    def _compile_scan_source(
        self,
        table: Table,
        statement: SelectStatement,
        compiled: CompiledQuery,
    ) -> PlanNode:
        interval = self._keyed_interval(table, statement.where)
        if interval is not None:
            return self._index_lookup_node(table, interval, compiled)
        return self._flat_view_node(table, compiled)

    def _index_lookup_node(
        self, table: Table, interval: Interval, compiled: CompiledQuery
    ) -> IndexLookupNode:
        """One padded range lookup, its rows held in the enclave when the
        segment fits free oblivious memory (not on the paper's index),
        else spilled to a flat scratch."""
        index = table.require_index()
        rows = index.range_lookup(interval.low, interval.high)
        segment_rows = max(1, len(rows))
        node = IndexLookupNode(
            table=table.name,
            segment_rows=segment_rows,
            in_enclave=table.oram_kind != "paper"
            and framed_bytes(segment_rows, table.schema)
            <= table.enclave.oblivious.free_bytes,
        )
        bind_segment(compiled, node, table.enclave, table.schema, rows)
        return node

    def _flat_view_node(self, table: Table, compiled: CompiledQuery) -> ScanNode:
        """A flat representation to scan, materialized and bound."""
        if table.flat is not None:
            node = ScanNode(
                table=table.name,
                access_method=AccessMethod.FLAT_SCAN,
                rows=table.flat.capacity,
            )
            compiled.bind(node, table.flat, owned=False)
            return node
        index = table.require_index()
        node = ScanNode(
            table=table.name,
            access_method=AccessMethod.INDEX_LINEAR,
            rows=max(1, index.capacity),
        )
        bind_index_copy(compiled, node, table.enclave, table.schema, index.linear_scan())
        return node

    # -- joins ----------------------------------------------------------
    def _compile_join(
        self,
        statement: SelectStatement,
        left_table: Table,
        joined: Schema,
        compiled: CompiledQuery,
    ) -> tuple[PlanNode, Schema]:
        """The join subtree and the schema of the rows it emits, out of the
        ``joined`` schema of the two tables' rows."""
        assert statement.join is not None
        right_table = self._table(statement.join.right_table)
        left = self._flat_view_node(left_table, compiled)
        right = self._flat_view_node(right_table, compiled)
        left_storage = compiled.bound(left)
        right_storage = compiled.bound(right)
        # The columns the rest of the plan reads, off the query text alone:
        # select list, GROUP BY column, aggregate arguments, and the ORDER BY
        # column of a plain selection (a grouped ORDER BY names an output
        # label).  ``SELECT *`` reads everything; a bare ``COUNT(*)`` reads
        # nothing, so it carries the left join key.
        if statement.columns or statement.aggregates:
            needed = {*statement.columns, statement.group_by}
            needed.update(spec.column for spec in statement.aggregates)
            if not statement.aggregates:
                needed.add(statement.order_by)
            columns = tuple(
                name for name in joined.column_names() if name in needed
            ) or (statement.join.left_column,)
        else:
            columns = tuple(joined.column_names())
        emitted = joined.project(columns)
        paper = "paper" in (left_table.oram_kind, right_table.oram_kind)
        decision: JoinDecision = plan_join(
            left_storage, right_storage, held=None if paper else emitted
        )
        node = JoinNode(
            left=left,
            right=right,
            left_column=statement.join.left_column,
            right_column=statement.join.right_column,
            algorithm=decision.algorithm,
            t1=left_storage.capacity,
            t2=right_storage.capacity,
            oblivious_rows=decision.oblivious_rows,
            oblivious_bytes=decision.oblivious_memory_bytes,
            filtered=statement.where is not None,
            columns=columns,
            in_enclave=decision.in_enclave,
        )
        # Tighten to the |T2| foreign-key bound via the oblivious
        # compaction network when a downstream ORDER BY will sort the
        # output table: the oblivious sort then runs over |T2| blocks
        # instead of the probe/scratch-sized structure, which more than
        # repays the O(C log C) compaction.  A plain result scan reads
        # the output exactly once, so compacting first would be a net
        # loss there.  A held join has no output table: its rows are
        # sorted where they are held.
        if statement.order_by is not None and not node.in_enclave:
            return CompactNode(source=node, bound=right_storage.capacity), emitted
        return node, emitted
