"""Concurrent serving front end over :class:`~repro.engine.database.ObliDB`.

The engine below this package is single-caller by design (one enclave, one
trace, one catalog); this package is the production-shaped layer that lets
many clients share it safely:

* :class:`ObliDBServer` / :class:`Session` — thread-safe sessions over one
  database.  The compiled plan's identity is the **admission unit**:
  concurrent identical read statements coalesce onto one in-flight
  execution (:mod:`repro.planner.admission` normalizes the key), writes
  serialize per :attr:`~repro.storage.table.Table.revision` epoch through
  per-table FIFO queues, and every statement ultimately executes under one
  engine lock — the engine itself never sees concurrency.

* :class:`LookupBatcher` — a micro-batching scheduler that groups
  compatible point lookups arriving within a window into one padded ORAM
  burst (one engine critical section, duplicates deduplicated).

* :class:`AdmissionPolicy` / :class:`ServingStats` — per-tenant admission
  hooks (max in-flight, statement-class quotas, bounded result pagination)
  and the observability counters surface.

* :class:`AsyncSession` — an ``asyncio``-friendly facade that drives a
  session on the server's thread pool.  Resolved on first access, so a
  process that never awaits anything never loads ``asyncio``.

``docs/serving.md`` covers the design and what coalescing does (and does
not) leak.
"""

from typing import TYPE_CHECKING

from .policy import AdmissionError, AdmissionPolicy, ServerCrashed
from .scheduler import LookupBatcher
from .server import ObliDBServer, ResultPage, ServerHooks, Session
from .stats import ServingStats

if TYPE_CHECKING:  # what linters and type checkers see; __getattr__ at run time
    from .aio import AsyncSession

__all__ = [
    "AdmissionError",
    "AdmissionPolicy",
    "AsyncSession",
    "LookupBatcher",
    "ObliDBServer",
    "ResultPage",
    "ServerCrashed",
    "ServerHooks",
    "ServingStats",
    "Session",
]


def __getattr__(name: str):
    # ``asyncio`` is ~2 MB resident; only importers of AsyncSession pay it.
    if name == "AsyncSession":
        from .aio import AsyncSession

        return AsyncSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
