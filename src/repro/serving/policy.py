"""Per-tenant admission policy for the serving front end.

Admission control is the first thing a request meets: before a statement
is classified, queued, or executed, its tenant must have
capacity for it.  The policy is deliberately enclave-side-only — checking
and rejecting touches no untrusted memory, so an admission decision leaks
nothing beyond what the adversary already observes (whether a query trace
happens at all).

Two limits, both per tenant:

* ``max_in_flight`` — total concurrently admitted statements.
* ``class_quotas`` — per statement class (``"read"`` / ``"write"`` /
  ``"ddl"``) concurrent admission caps; e.g. a reporting tenant can be
  held to one in-flight write while fanning out reads.

Admission fails fast: a request over either limit raises
:class:`AdmissionError` at once, naming the limit, and counts in
:class:`~repro.serving.stats.ServingStats` as ``rejected``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..enclave.errors import ObliDBError


class AdmissionError(ObliDBError):
    """A tenant exceeded its admission policy; the statement never ran."""


class ServerCrashed(ObliDBError):
    """The server observed a (simulated) host kill and refuses new work.

    Raised for statements submitted after the crash; the session that
    triggered the kill sees the original
    :class:`~repro.faults.SimulatedCrash` instead.  Recovery goes through
    :meth:`ObliDB.recover` on a fresh database, exactly as without the
    serving layer.
    """


#: Statement classes the policy can quota individually.
STATEMENT_CLASSES = ("read", "write", "ddl")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-tenant limits (0 means unlimited)."""

    max_in_flight: int = 0
    class_quotas: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = set(self.class_quotas) - set(STATEMENT_CLASSES)
        if unknown:
            raise ValueError(f"unknown statement classes in quotas: {sorted(unknown)}")


class TenantState:
    """In-flight accounting for one tenant (internal to the server)."""

    def __init__(self, name: str, policy: AdmissionPolicy) -> None:
        self.name = name
        self.policy = policy
        self._slots = threading.Lock()
        self._in_flight = 0
        self._by_class = dict.fromkeys(STATEMENT_CLASSES, 0)

    def _blocked_by(self, statement_class: str) -> str | None:
        """The limit currently blocking this class, or None if admissible."""
        policy = self.policy
        if 0 < policy.max_in_flight <= self._in_flight:
            return f"max_in_flight={policy.max_in_flight} reached"
        quota = policy.class_quotas.get(statement_class, 0)
        if 0 < quota <= self._by_class[statement_class]:
            return f"{statement_class} quota={quota} reached"
        return None

    def admit(self, statement_class: str) -> None:
        """Reserve one admission slot or raise :class:`AdmissionError`
        naming the limit that blocks it."""
        with self._slots:
            reason = self._blocked_by(statement_class)
            if reason is not None:
                raise AdmissionError(f"tenant {self.name!r}: {reason}")
            self._in_flight += 1
            self._by_class[statement_class] += 1

    def release(self, statement_class: str) -> None:
        with self._slots:
            self._in_flight -= 1
            self._by_class[statement_class] -= 1
