"""Observability counters for the serving front end.

One :class:`ServingStats` per server, mutated under its own lock (never
under the engine lock — counting must not extend the engine critical
section).  Everything here is enclave-side bookkeeping about *admission*
decisions; none of it is written to untrusted memory.
"""

from __future__ import annotations

import threading


class ServingStats:
    """Thread-safe admission/execution/queue counters.

    * ``admitted`` — statements that passed admission control.
    * ``rejected`` — statements refused by an :class:`~repro.serving.
      policy.AdmissionPolicy` (never executed).
    * ``executed`` — engine executions, by class (``read``/``write``/
      ``ddl``): every admitted statement that completed runs once.
    * ``write_queue_peak`` — deepest per-table write queue observed.
    * ``crashes`` — simulated host kills the server absorbed.

    :meth:`snapshot` also reports ``coalesced``, always 0: the server
    answers every read with its own execution, and the key stays for
    readers of earlier snapshots.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.admitted = 0
        self.rejected = 0
        self.crashes = 0
        self.write_queue_peak = 0
        self.executed = {"read": 0, "write": 0, "ddl": 0}

    # ------------------------------------------------------------------
    # Recording (one method per event keeps call sites greppable)
    # ------------------------------------------------------------------
    def record_admitted(self) -> None:
        with self._lock:
            self.admitted += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_executed(self, statement_class: str) -> None:
        with self._lock:
            self.executed[statement_class] += 1

    def record_crash(self) -> None:
        with self._lock:
            self.crashes += 1

    def record_write_queue_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self.write_queue_peak:
                self.write_queue_peak = depth

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """A consistent copy of every counter (for logs and benchmarks)."""
        with self._lock:
            return {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "coalesced": 0,
                "crashes": self.crashes,
                "write_queue_peak": self.write_queue_peak,
                "executed": dict(self.executed),
            }
