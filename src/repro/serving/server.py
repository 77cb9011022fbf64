"""The session-based concurrent front end over one :class:`ObliDB`.

Concurrency model
-----------------
The engine below this layer is single-caller: one enclave, one canonical
trace, one catalog.  The server therefore funnels every engine execution
through **one engine lock**, and every statement — read, write or DDL —
runs there on its own.  The server never answers a statement from another
statement's execution, so the untrusted-memory trace is exactly the trace
of the same statements run one after another in the order the lock
admitted them: the server adds no leakage to the engine's.

* **Reads** take the engine lock directly.

* **Writes serialize per table.**  Each write statement enters a FIFO
  queue keyed on its target table before taking the engine lock, so one
  session's writes to a table execute (and WAL-commit) in submission
  order, and the :attr:`~repro.storage.table.Table.revision` epoch
  advances in exactly that order.  The WAL append still precedes
  execution inside the engine lock, so acked-durable semantics are
  preserved unchanged: a statement is acknowledged only after its log
  record committed.  DDL queues on its target table like a write.

Linearizability: every engine execution happens atomically under the
engine lock, inside its request's in-flight window.

Crash discipline: a :class:`~repro.faults.SimulatedCrash` (the fault
layer's host kill) tears through the executing session, marks the server
crashed, and every subsequent or queued statement raises
:class:`~repro.serving.policy.ServerCrashed`.  Recovery is exactly the
single-caller story: ``ObliDB.recover`` on a fresh database.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from ..enclave.errors import QueryError
from ..engine.ast import (
    CreateTableStatement,
    DeleteStatement,
    ExplainStatement,
    InsertStatement,
    QueryResult,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from ..engine.database import ObliDB
from ..engine.sql import parse
from ..faults import SimulatedCrash
from ..storage.schema import Row
from .policy import AdmissionError, AdmissionPolicy, ServerCrashed, TenantState
from .stats import ServingStats

#: Threads in the worker pool behind :meth:`Session.submit`.
_MAX_WORKERS = 8


@dataclass
class ServerHooks:
    """Test/instrumentation seam (optional, called enclave-side).

    ``on_statement_executed(text, result)`` fires under the engine lock
    after each execution, in serialization order — the property suite's
    oracle replays this log, and a test can park a statement in it.
    """

    on_statement_executed: Callable[[str, QueryResult], None] | None = None


class _WriteQueues:
    """Per-table FIFO admission queues for write/DDL statements."""

    def __init__(self, stats: ServingStats) -> None:
        self._cond = threading.Condition()
        self._queues: dict[str, deque] = {}
        self._stats = stats

    def enter(self, table: str) -> object:
        """Queue behind earlier writes to ``table``; returns the ticket."""
        ticket = object()
        with self._cond:
            queue = self._queues.setdefault(table, deque())
            queue.append(ticket)
            self._stats.record_write_queue_depth(len(queue))
            while queue[0] is not ticket:
                self._cond.wait()
        return ticket

    def leave(self, table: str, ticket: object) -> None:
        with self._cond:
            queue = self._queues[table]
            assert queue[0] is ticket, "write queue corrupted"
            queue.popleft()
            if not queue:
                del self._queues[table]
            self._cond.notify_all()

    def depths(self) -> dict[str, int]:
        with self._cond:
            return {table: len(queue) for table, queue in self._queues.items()}


class ObliDBServer:
    """Thread-safe multi-session front end over one database."""

    def __init__(
        self,
        db: ObliDB,
        policy: AdmissionPolicy | None = None,
        tenant_policies: dict[str, AdmissionPolicy] | None = None,
        hooks: ServerHooks | None = None,
    ) -> None:
        self.db = db
        self.stats = ServingStats()
        self.hooks = hooks or ServerHooks()
        self._default_policy = policy or AdmissionPolicy()
        self._tenant_policies = dict(tenant_policies or {})
        self._tenants: dict[str, TenantState] = {}
        self._tenants_lock = threading.Lock()
        self._engine_lock = threading.RLock()
        self._write_queues = _WriteQueues(self.stats)
        self._crashed = False
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Sessions and lifecycle
    # ------------------------------------------------------------------
    def session(self, tenant: str = "default") -> "Session":
        return Session(self, self._tenant(tenant))

    def _tenant(self, name: str) -> TenantState:
        with self._tenants_lock:
            state = self._tenants.get(name)
            if state is None:
                policy = self._tenant_policies.get(name, self._default_policy)
                state = self._tenants[name] = TenantState(name, policy)
            return state

    @property
    def crashed(self) -> bool:
        return self._crashed

    def write_queue_depths(self) -> dict[str, int]:
        return self._write_queues.depths()

    def pool(self) -> ThreadPoolExecutor:
        """The shared worker pool behind ``submit``, lazily built."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=_MAX_WORKERS,
                    thread_name_prefix="oblidb-serving",
                )
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "ObliDBServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Engine critical section
    # ------------------------------------------------------------------
    @contextmanager
    def _engine(self):
        """The single-caller boundary: one statement at a time, with crash
        fencing on both sides."""
        with self._engine_lock:
            if self._crashed:
                raise ServerCrashed("serving front end observed a host kill")
            try:
                yield
            except SimulatedCrash:
                self._crashed = True
                self.stats.record_crash()
                raise

    def _run_engine(
        self, statement_class: str, text: str, fn: Callable[[], QueryResult]
    ) -> QueryResult:
        with self._engine():
            result = fn()
            self.stats.record_executed(statement_class)
            if self.hooks.on_statement_executed is not None:
                self.hooks.on_statement_executed(text, result)
            return result

    # ------------------------------------------------------------------
    # Statement routing
    # ------------------------------------------------------------------
    @staticmethod
    def classify(statement: Statement) -> str:
        """Statement class for quotas/queues: read, write, or ddl."""
        if isinstance(statement, (SelectStatement, ExplainStatement)):
            return "read"
        if isinstance(statement, CreateTableStatement):
            return "ddl"
        if isinstance(
            statement, (InsertStatement, UpdateStatement, DeleteStatement)
        ):
            return "write"
        raise QueryError(f"serving layer cannot route {type(statement).__name__}")

    def _execute_classified(
        self, statement: Statement, text: str, statement_class: str
    ) -> QueryResult:
        if statement_class == "read":
            return self._run_engine("read", text, lambda: self.db.execute(statement))
        # Writes and DDL: FIFO per target table, then the engine lock.
        # The queue — not lock-acquisition luck — fixes the serialization
        # order of same-table writes, so revision epochs and WAL order
        # match submission order per session.
        table = statement.table
        ticket = self._write_queues.enter(table)
        try:
            return self._run_engine(
                statement_class,
                text,
                lambda: self.db.execute_sql(statement, text),
            )
        finally:
            self._write_queues.leave(table, ticket)

    def _insert_many(self, table: str, rows: list[Row], fast: bool) -> None:
        """Typed bulk insert: queues like a write, group-commits like one."""
        ticket = self._write_queues.enter(table)
        try:
            with self._engine():
                self.db.insert_many(table, rows, fast=fast)
                self.stats.record_executed("write")
                if self.hooks.on_statement_executed is not None:
                    self.hooks.on_statement_executed(
                        f"<insert_many {table} x{len(rows)}>",
                        QueryResult(affected=len(rows)),
                    )
        finally:
            self._write_queues.leave(table, ticket)


class Session:
    """One client's handle on the server (cheap; create per client)."""

    def __init__(self, server: ObliDBServer, tenant: TenantState) -> None:
        self._server = server
        self._tenant = tenant

    @property
    def tenant(self) -> str:
        return self._tenant.name

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def execute(self, text: str) -> QueryResult:
        """Parse, admit, and execute one SQL statement (blocking)."""
        statement = parse(text)
        return self.execute_statement(statement, text)

    def execute_statement(
        self, statement: Statement, text: str | None = None
    ) -> QueryResult:
        """Typed-statement entry point (``text`` backs WAL logging)."""
        statement_class = ObliDBServer.classify(statement)
        if text is None:
            text = repr(statement)
        self._admit(statement_class)
        try:
            self._server.stats.record_admitted()
            return self._server._execute_classified(
                statement, text, statement_class
            )
        finally:
            self._tenant.release(statement_class)

    def _admit(self, statement_class: str) -> None:
        try:
            self._tenant.admit(statement_class)
        except AdmissionError:
            self._server.stats.record_rejected()
            raise

    def insert_many(self, table: str, rows: list[Row], fast: bool = False) -> None:
        """Bulk insert through the write queue (one group-committed batch)."""
        self._admit("write")
        try:
            self._server.stats.record_admitted()
            self._server._insert_many(table, rows, fast)
        finally:
            self._tenant.release("write")

    # ------------------------------------------------------------------
    # Non-blocking submission
    # ------------------------------------------------------------------
    def submit(self, text: str) -> Future:
        """Run :meth:`execute` on the server's worker pool."""
        return self._server.pool().submit(self.execute, text)
