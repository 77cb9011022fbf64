"""Observability counters for the serving front end.

One :class:`ServingStats` per server, mutated under its own lock (never
under the engine lock — counting must not extend the engine critical
section).  Everything here is enclave-side bookkeeping about *admission*
decisions; none of it is written to untrusted memory.
"""

from __future__ import annotations

import threading


class ServingStats:
    """Thread-safe admission/coalescing/queue counters.

    * ``admitted`` — statements that passed admission control.
    * ``rejected`` — statements refused by an :class:`~repro.serving.
      policy.AdmissionPolicy` (never executed).
    * ``executed`` — engine executions, by class (``read``/``write``/
      ``ddl``).  Coalescing makes ``executed["read"]`` strictly less than
      admitted reads on repeated workloads.
    * ``coalesced`` — read statements answered by joining an in-flight
      leader (zero extra engine work, zero extra untrusted accesses).
    * ``write_queue_peak`` — deepest per-table write queue observed.
    * ``crashes`` — simulated host kills the server absorbed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.admitted = 0
        self.rejected = 0
        self.coalesced = 0
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

    def record_coalesced(self) -> None:
        with self._lock:
            self.coalesced += 1

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
    def coalescing_hit_rate(self) -> float:
        """Fraction of admitted statements answered by coalescing."""
        with self._lock:
            if not self.admitted:
                return 0.0
            return self.coalesced / self.admitted

    def snapshot(self) -> dict[str, object]:
        """A consistent copy of every counter (for logs and benchmarks)."""
        with self._lock:
            return {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "coalesced": self.coalesced,
                "crashes": self.crashes,
                "write_queue_peak": self.write_queue_peak,
                "executed": dict(self.executed),
            }
