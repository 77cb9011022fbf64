"""Concurrent serving front end over :class:`~repro.engine.database.ObliDB`.

The engine below this package is single-caller by design (one enclave, one
trace, one catalog); this package is the production-shaped layer that lets
many clients share it safely:

* :class:`ObliDBServer` / :class:`Session` — thread-safe sessions over one
  database.  Every statement executes on its own under one engine lock —
  the engine itself never sees concurrency, and the server adds no
  leakage to the engine's — and writes serialize per
  :attr:`~repro.storage.table.Table.revision` epoch through per-table FIFO
  queues before taking it.

* :class:`AdmissionPolicy` / :class:`ServingStats` — per-tenant fail-fast
  admission limits (max in-flight, statement-class quotas) and the
  observability counters surface.

``docs/serving.md`` covers the design and its leakage argument.
"""

from .policy import AdmissionError, AdmissionPolicy, ServerCrashed
from .server import ObliDBServer, ServerHooks, Session
from .stats import ServingStats

__all__ = [
    "AdmissionError",
    "AdmissionPolicy",
    "ObliDBServer",
    "ServerCrashed",
    "ServerHooks",
    "ServingStats",
    "Session",
]
