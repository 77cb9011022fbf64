"""The ObliDB database facade.

One :class:`ObliDB` owns a simulated enclave, a catalog of tables, and an
executor.  It is the public entry point downstream code uses::

    from repro import ObliDB

    db = ObliDB()
    db.sql("CREATE TABLE checkins (uid INT, date STR(10))"
           " CAPACITY 1000 METHOD both KEY uid")
    db.sql("INSERT INTO checkins VALUES (3172, '2018-08-14')")
    result = db.sql("SELECT * FROM checkins WHERE uid = 3172")
    result.rows  # [(3172, '2018-08-14')]

Construction parameters mirror the paper's experimental knobs: the
oblivious-memory budget (Figure 8), padding mode (Section 7.1), and whether
the Continuous selection algorithm — with its extra adjacency leakage — is
permitted (disabled in the Opaque comparison).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from ..enclave.counters import CostModel
from ..enclave.enclave import DEFAULT_OBLIVIOUS_MEMORY_BYTES, Enclave
from ..enclave.errors import (
    ObliDBError,
    QueryError,
    StorageError,
    TransientStorageError,
)
from ..faults import FaultPlan, FaultyUntrustedMemory
from ..operators.predicate import Predicate
from ..planner.compile import QueryPlan
from ..storage.schema import Column, ColumnType, Row, Schema, Value
from ..storage.table import StorageMethod, Table
from .ast import (
    CreateTableStatement,
    ExplainStatement,
    InsertStatement,
    QueryResult,
    SelectStatement,
    Statement,
)
from .executor import Executor
from .padding import PaddingConfig
from .sql import parse
from .wal import RecoveryReport, WriteAheadLog


def _sql_literal(value: Value) -> str:
    """Render one row value as a literal the SQL tokenizer round-trips.

    Strings use single quotes with ``''`` escaping (the only form the
    grammar accepts — ``repr`` would emit double quotes or backslash
    escapes that break or corrupt replay); numbers print via ``repr``.
    """
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _insert_statement_sql(table: str, row: Row) -> str:
    """The replayable SQL form of one typed insert (for WAL logging)."""
    return f"INSERT INTO {table} VALUES ({', '.join(_sql_literal(v) for v in row)})"


@dataclass
class RetryPolicy:
    """Bounded retry-with-backoff for :class:`TransientStorageError`.

    Applied at the statement boundary (:meth:`ObliDB.execute`): a transient
    host failure is retried only while **no table mutated during the failed
    attempt** — a transient that strikes after a write pass started must
    surface, because re-running the statement would double-apply its
    surviving prefix.  ``sleep`` is injectable so tests can record the
    backoff schedule instead of waiting it out.
    """

    attempts: int = 3
    backoff_s: float = 0.001  # doubled after each failed attempt
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)


_DEFAULT_RETRY = RetryPolicy()

#: Region-name prefixes of per-statement scratch (``fresh_region_name``):
#: none outlives the statement that allocated it.
_SCRATCH_PREFIXES = ("flat#",)


@dataclass(frozen=True)
class VerifyReport:
    """Result of :meth:`ObliDB.verify` — the fsck-style invariant sweep."""

    issues: list[str]
    tables_checked: int
    blocks_verified: int

    @property
    def ok(self) -> bool:
        return not self.issues


class ObliDB:
    """An oblivious database engine instance inside one simulated enclave."""

    def __init__(
        self,
        oblivious_memory_bytes: int = DEFAULT_OBLIVIOUS_MEMORY_BYTES,
        cipher: str = "authenticated",
        padding: PaddingConfig | None = None,
        allow_continuous: bool = True,
        keep_trace_events: bool = False,
        seed: int | None = None,
        wal: bool = False,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = _DEFAULT_RETRY,
    ) -> None:
        # ``fault_plan`` swaps the honest untrusted host for the adversarial
        # one (tests and the crash sweep); ``retry=None`` disables the
        # transient-failure retry at the statement boundary.
        untrusted_factory = None
        if fault_plan is not None:
            def untrusted_factory(trace, cost):
                return FaultyUntrustedMemory(trace, cost, fault_plan)
        self.enclave = Enclave(
            oblivious_memory_bytes=oblivious_memory_bytes,
            cipher=cipher,
            keep_trace_events=keep_trace_events,
            untrusted_factory=untrusted_factory,
        )
        self.retry = retry
        self.padding = padding
        self.allow_continuous = allow_continuous
        self._rng = random.Random(seed)
        self._tables: dict[str, Table] = {}
        self._creation_ids = itertools.count(1)
        self._executor = Executor(
            self._tables,
            padding=padding,
            allow_continuous=allow_continuous,
            rng=self._rng,
        )
        # Optional write-ahead log (the Section 3 durability extension):
        # every DDL/write statement is sealed and appended before it runs.
        self.wal: WriteAheadLog | None = WriteAheadLog(self.enclave) if wal else None

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema,
        capacity: int,
        method: StorageMethod = StorageMethod.FLAT,
        key_column: str | None = None,
        oram_kind: str = "path",
    ) -> Table:
        """Create a table; the storage method choice is the administrator's
        (Section 3), like deciding whether to build an index.

        ``oram_kind`` selects the index's block store: "path" (default),
        "paper" (Path ORAM without the treetop cache, as the paper builds
        it), "recursive" (smaller position map, Appendix B), or "ring"
        (Ring ORAM, the Section 8 upgrade).  The table records it whatever
        the storage method, and an unknown name raises ``StorageError``.
        "paper" means the paper's algorithms end to end, not only its ORAM,
        on a flat table too: a selection over its index always copies the
        segment out to a flat scratch and runs the flat selection there
        (§4.1 as written), and a flat selection runs its statistics pass
        and then the chosen algorithm in full.  Every other kind answers an
        index segment that fits oblivious memory inside the enclave
        (:class:`~repro.planner.compile.IndexLookupNode`), makes a flat
        selection's statistics pass Small's first pass
        (:class:`~repro.planner.compile.SelectNode` ``in_enclave`` /
        ``resumed``) and hands a plain selection's Small passes to the
        result (``streamed``), and answers a flat GROUP BY from its group
        table when the groups fit
        (:class:`~repro.planner.compile.GroupByNode` ``in_enclave``).
        """
        if name in self._tables:
            raise StorageError(f"table {name!r} already exists")
        table = Table(
            self.enclave,
            name,
            schema,
            capacity,
            method=method,
            key_column=key_column,
            rng=random.Random(self._rng.randrange(2**63)),
            oram_kind=oram_kind,
            creation_id=next(self._creation_ids),
        )
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table and free its untrusted regions."""
        table = self._tables.pop(name, None)
        if table is None:
            raise StorageError(f"no table named {name!r}")
        table.free()

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"no table named {name!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def close(self) -> None:
        """Release the database; it holds nothing that needs releasing, so
        this does nothing and is safe to call more than once."""

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def execute(self, statement: Statement) -> QueryResult:
        """Execute a logical statement built programmatically.

        :class:`TransientStorageError` raised by the untrusted host is
        retried with bounded backoff per :class:`RetryPolicy`, but only
        while the failed attempt mutated nothing (catalog and every table
        revision unchanged) — a transient mid-mutation surfaces unchanged,
        since re-execution would double-apply the surviving prefix.  The
        ``flat#`` scratch regions a failed attempt allocated are freed
        either way: an operator that dies mid-pass has no handle left to
        free its output through.  Oblivious memory needs no such sweep: a
        held index segment's reservation belongs to the compiled statement,
        which the executor frees on every exit.
        """
        if isinstance(statement, CreateTableStatement):
            return self._create_from_statement(statement)
        if isinstance(statement, ExplainStatement):
            return self._explain_result(statement.target)
        policy = self.retry
        if policy is None or policy.attempts <= 1:
            return self._executor.execute(statement)
        backoff = policy.backoff_s
        untrusted = self.enclave.untrusted
        for attempt in range(policy.attempts):
            epochs = {
                name: table.revision for name, table in self._tables.items()
            }
            regions = set(untrusted.region_names())
            try:
                return self._executor.execute(statement)
            except TransientStorageError:
                for name in untrusted.region_names():
                    if name.startswith(_SCRATCH_PREFIXES) and name not in regions:
                        untrusted.free_region(name)
                mutated = set(self._tables) != set(epochs) or any(
                    self._tables[name].revision != revision
                    for name, revision in epochs.items()
                )
                if mutated or attempt + 1 >= policy.attempts:
                    raise
                policy.sleep(backoff)
                backoff *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def sql(self, text: str) -> QueryResult:
        """Parse and execute one SQL statement.

        With WAL enabled, write statements (CREATE/INSERT/UPDATE/DELETE)
        are appended to the encrypted log *before* execution, as the paper
        prescribes — one sequential log write, no new leakage.  Read-only
        statements (SELECT, EXPLAIN) are never logged.
        """
        return self.execute_sql(parse(text), text)

    def execute_sql(self, statement: Statement, text: str) -> QueryResult:
        """Execute a pre-parsed statement with SQL-surface semantics.

        The WAL-logging entry point for callers that already parsed
        ``text`` (the serving front end classifies statements before
        admission): write statements are appended to the log *before*
        execution exactly as :meth:`sql` would, so durability semantics do
        not depend on which surface submitted the statement.
        """
        if self.wal is not None and not isinstance(
            statement, (SelectStatement, ExplainStatement)
        ):
            if isinstance(statement, InsertStatement):
                # Validation before logging keeps the log replayable: a row
                # the engine refuses (schema, capacity) must not be durable.
                self._executor.check_insert(statement)
            self.wal.append(text)
        return self.execute(statement)

    def explain(self, text: str) -> QueryPlan:
        """The compiled :class:`QueryPlan` a statement would leak, without
        executing it.  ``plan.describe()`` renders the tree;
        ``plan.find(NodeType)`` / ``plan.root.walk()`` read its nodes."""
        statement = parse(text)
        if isinstance(statement, ExplainStatement):  # EXPLAIN EXPLAIN via API
            statement = statement.target
        if isinstance(statement, CreateTableStatement):
            raise QueryError("CREATE TABLE has no physical plan to explain")
        return self._executor.explain(statement)

    def _explain_result(self, target: Statement) -> QueryResult:
        """``EXPLAIN <stmt>`` through the SQL surface: one row per rendered
        plan line.  The statement is compiled, not run — and compiling does
        the planner's untrusted accesses (the statistics pass over a flat
        source, the index lookup's ORAM accesses; a flat region only for a
        segment that spills — see :meth:`Executor.explain`), so nothing is
        modified but the trace and cost counters do move."""
        if isinstance(target, CreateTableStatement):
            raise QueryError("CREATE TABLE has no physical plan to explain")
        plan = self._executor.explain(target)
        return QueryResult(
            rows=[(line,) for line in plan.describe().splitlines()],
            column_names=["plan"],
            affected=0,
            plan=plan,
        )

    def recover_from(self, wal: "WriteAheadLog") -> int:
        """Rebuild this (empty) database by replaying a write-ahead log.

        The strict live-replication variant: expects the log's enclave-side
        count to match its rollback-protected head (no torn tail).  After a
        crash, use :meth:`recover`.
        """
        return wal.replay_into(self)

    def recover(self, wal: "WriteAheadLog") -> RecoveryReport:
        """Crash-consistent rebuild from a write-ahead log.

        Replays exactly the committed prefix (the records covered by the
        rollback-protected ledger head) into this empty database and
        reports any detected-and-dropped torn tail — sealed records a crash
        stranded beyond the head.  Statements past the commit point were
        never acknowledged, so dropping them is correct, not data loss.
        """
        return wal.recover_into(self)

    def verify(self) -> VerifyReport:
        """Fsck-style invariant sweep over the whole database.

        Checks, per table: the flat region exists at its declared capacity
        and every block opens against the revision ledger (tampered or
        rolled-back slots are reported, not raised); the enclave-side row
        count matches the stored rows; an index on a Path ORAM passes its
        tree's :meth:`~repro.storage.btree.ObliviousBPlusTree.check`, read
        in the same one bucket pass; a BOTH table's two representations
        hold the same multiset of rows.  Globally: the WAL's committed
        records verify and its head matches the enclave count, and no
        anonymous ``flat#`` scratch region — the only scratch a statement
        allocates — lingers after statement execution, a leak of a failed
        operator's cleanup path.

        Everything reads through the normal verified data path, so the
        sweep is itself oblivious: full scans and sequential log reads.
        """
        issues: list[str] = []
        tables_checked = 0
        blocks_verified = 0
        untrusted = self.enclave.untrusted
        for name in self.table_names():
            table = self._tables[name]
            tables_checked += 1
            flat_rows: list[Row] | None = None
            if table.flat is not None:
                flat = table.flat
                if not untrusted.has_region(flat.region_name):
                    issues.append(
                        f"table {name!r}: flat region {flat.region_name} missing"
                    )
                else:
                    region = untrusted.region(flat.region_name)
                    if region.capacity != flat.capacity:
                        issues.append(
                            f"table {name!r}: region capacity {region.capacity} "
                            f"!= declared {flat.capacity}"
                        )
                    try:
                        flat_rows = flat.rows()
                        blocks_verified += flat.capacity
                    except ObliDBError as error:
                        issues.append(
                            f"table {name!r}: flat verification failed: {error}"
                        )
                    else:
                        if len(flat_rows) != flat.used_rows:
                            issues.append(
                                f"table {name!r}: flat holds {len(flat_rows)} "
                                f"rows, metadata says {flat.used_rows}"
                            )
            if table.indexed is not None:
                try:
                    index_rows = table.indexed.check()
                except StorageError:
                    index_rows = None  # no flat-style audit pass (non-Path ORAM)
                except ObliDBError as error:
                    index_rows = None
                    issues.append(
                        f"table {name!r}: index verification failed: {error}"
                    )
                # Dual-copy coherence: same multiset of rows.
                if (
                    index_rows is not None
                    and flat_rows is not None
                    and sorted(map(repr, flat_rows)) != sorted(map(repr, index_rows))
                ):
                    issues.append(
                        f"table {name!r}: flat and indexed copies diverge"
                    )
        if self.wal is not None:
            if self.wal.committed_count != self.wal.count:
                issues.append(
                    f"WAL head {self.wal.committed_count} != enclave count "
                    f"{self.wal.count}"
                )
            try:
                _, dropped = self.wal.read_committed()
                blocks_verified += self.wal.committed_count
            except ObliDBError as error:
                issues.append(f"WAL verification failed: {error}")
            else:
                if dropped:
                    issues.append(
                        f"WAL holds {dropped} uncommitted trailing record(s)"
                    )
        for region_name in untrusted.region_names():
            if region_name.startswith(_SCRATCH_PREFIXES):
                issues.append(f"leaked scratch region {region_name}")
        return VerifyReport(
            issues=issues,
            tables_checked=tables_checked,
            blocks_verified=blocks_verified,
        )

    def _create_from_statement(self, statement: CreateTableStatement) -> QueryResult:
        columns = [
            Column(name, ColumnType(type_name), size)
            for name, type_name, size in statement.columns
        ]
        try:
            method = StorageMethod(statement.method)
        except ValueError:
            raise QueryError(f"unknown storage method {statement.method!r}") from None
        self.create_table(
            statement.table,
            Schema(columns),
            capacity=statement.capacity,
            method=method,
            key_column=statement.key_column,
        )
        return QueryResult(affected=0)

    # ------------------------------------------------------------------
    # Typed convenience API
    # ------------------------------------------------------------------
    def insert(self, table: str, row: Row, fast: bool = False) -> None:
        """Insert one row (``fast`` = flat storage's constant-time path).

        WAL-logged like the SQL path, so typed inserts survive recovery.
        """
        target = self.table(table)
        (row,) = target.check_insert([row], fast)  # refuse before logging
        if self.wal is not None:
            self.wal.append(_insert_statement_sql(target.name, row))
        target.insert(row, fast=fast)

    def insert_many(self, table: str, rows: list[Row], fast: bool = False) -> None:
        """Bulk insert: one batched flat pass instead of one pass per row.

        With WAL enabled the batch is logged with one group commit
        (:meth:`~repro.engine.wal.WriteAheadLog.append_many`): every row's
        replay statement is sealed, then the rollback-protected head
        advances once.  The batch is one durable epoch — a crash before the
        head commit drops all of it, never half an ingest burst.  A batch
        the table refuses (schema, capacity) is refused before it is
        logged.  An initial load into an empty index is built bottom-up
        (see :meth:`Table.insert_many <repro.storage.table.Table.
        insert_many>`); replay re-inserts it row by row.
        """
        target = self.table(table)
        rows = target.check_insert(rows, fast)  # refuse before logging
        if self.wal is not None and rows:
            self.wal.append_many(
                [_insert_statement_sql(target.name, row) for row in rows]
            )
        target.insert_many(rows, fast=fast)

    def select(
        self,
        table: str,
        where: Predicate | None = None,
        columns: tuple[str, ...] = (),
    ) -> QueryResult:
        """Typed SELECT without SQL text."""
        return self.execute(
            SelectStatement(table=table, columns=columns, where=where)
        )

    def point_lookup(self, table: str, key: Value) -> list[Row]:
        """Index point lookup (or flat fallback) on the table's key column."""
        return self.table(table).point_lookup(key)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def cost_snapshot(self) -> dict[str, int]:
        return self.enclave.cost_snapshot()

    def cost_delta(self, snapshot: dict[str, int]) -> CostModel:
        return self.enclave.cost_delta(snapshot)
