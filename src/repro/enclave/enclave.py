"""The simulated hardware enclave.

An :class:`Enclave` bundles the pieces the paper's trusted code base relies
on: the encryption keys (never leave the enclave), the untrusted memory it
pages blocks through, the access trace the adversary observes, the cost
model, and — crucially — the *oblivious memory* budget.

Oblivious memory (Section 2.2) is the limited enclave-private region whose
access patterns the OS cannot see.  ObliDB's algorithms are parameterised by
its size: the Small select buffers selected rows there, the hash join builds
hash tables there, Path ORAM keeps its position map there.  The simulator
enforces the budget strictly: allocations beyond it raise
:class:`~repro.enclave.errors.ObliviousMemoryError`, so every experiment's
stated budget (e.g. Figure 8's 6–20 MB sweep) is honoured by construction.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from .counters import CostModel, CostWeights
from .crypto import AuthenticatedCipher, CipherSuite, NullCipher, SealedBlock
from .errors import ObliviousMemoryError
from .memory import UntrustedMemory
from .trace import AccessTrace

DEFAULT_OBLIVIOUS_MEMORY_BYTES = 20 * 1024 * 1024  # the paper's 20 MB ceiling


class ObliviousMemoryAccount:
    """Tracks oblivious-memory residency against a fixed budget."""

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 0:
            raise ValueError("budget must be non-negative")
        self.budget_bytes = budget_bytes
        self.in_use_bytes = 0
        self.peak_bytes = 0

    def allocate(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("allocation must be non-negative")
        if self.in_use_bytes + nbytes > self.budget_bytes:
            raise ObliviousMemoryError(
                f"oblivious memory exhausted: requested {nbytes} B with "
                f"{self.budget_bytes - self.in_use_bytes} B free "
                f"(budget {self.budget_bytes} B)"
            )
        self.in_use_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.in_use_bytes)

    def release(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("release must be non-negative")
        if nbytes > self.in_use_bytes:
            raise ValueError("releasing more oblivious memory than allocated")
        self.in_use_bytes -= nbytes

    @property
    def free_bytes(self) -> int:
        return self.budget_bytes - self.in_use_bytes


class Enclave:
    """The trusted code base's execution environment.

    Parameters
    ----------
    oblivious_memory_bytes:
        Size of the enclave-private oblivious region.  The paper uses at most
        20 MB; microbenchmarks sweep it down to a few hundred rows' worth.
    cipher:
        ``"authenticated"`` (real encryption, default) or ``"null"``
        (cost-only; used by large benchmarks).  A pre-built
        :class:`CipherSuite` instance may also be passed.
    keep_trace_events:
        Whether the access trace retains the full event list (tests) or only
        a running digest (benchmarks).
    untrusted_factory:
        Hook building the untrusted-memory host from ``(trace, cost)``.
        Defaults to the honest :class:`UntrustedMemory`; the fault-injection
        harness passes a factory producing
        :class:`~repro.faults.FaultyUntrustedMemory` so any workload can run
        against Section 3's malicious OS without touching enclave code.
    """

    def __init__(
        self,
        oblivious_memory_bytes: int = DEFAULT_OBLIVIOUS_MEMORY_BYTES,
        cipher: str | CipherSuite = "authenticated",
        key: bytes | None = None,
        keep_trace_events: bool = True,
        cost_weights: CostWeights | None = None,
        untrusted_factory: Callable[[AccessTrace, CostModel], UntrustedMemory]
        | None = None,
    ) -> None:
        if isinstance(cipher, str):
            if key is None:
                key = os.urandom(32)
            if cipher == "authenticated":
                self.cipher: CipherSuite = AuthenticatedCipher(key)
            elif cipher == "null":
                self.cipher = NullCipher()
            else:
                raise ValueError(f"unknown cipher {cipher!r}")
        else:
            self.cipher = cipher
        self.trace = AccessTrace(keep_events=keep_trace_events)
        self.cost = CostModel(weights=cost_weights or CostWeights())
        if untrusted_factory is None:
            self.untrusted = UntrustedMemory(self.trace, self.cost)
        else:
            self.untrusted = untrusted_factory(self.trace, self.cost)
        self.oblivious = ObliviousMemoryAccount(oblivious_memory_bytes)
        self._region_counter = 0

    # ------------------------------------------------------------------
    # Sealed block helpers
    # ------------------------------------------------------------------
    def seal(self, plaintext: bytes, associated_data: bytes = b"") -> SealedBlock:
        """Encrypt plaintext for storage outside the enclave."""
        return self.cipher.seal(plaintext, associated_data)

    def open(self, block: SealedBlock, associated_data: bytes = b"") -> bytes:
        """Decrypt and verify a block read from outside the enclave."""
        return self.cipher.open(block, associated_data)

    def seal_many(
        self, plaintexts: Sequence[bytes], associated_data: Sequence[bytes]
    ) -> list[SealedBlock]:
        """Batch :meth:`seal` over a run of blocks (shared setup cost).

        Falls back to per-block sealing for cipher suites that do not
        implement the batch API.
        """
        seal_many = getattr(self.cipher, "seal_many", None)
        if seal_many is not None:
            return seal_many(plaintexts, associated_data)
        if len(associated_data) != len(plaintexts):
            raise ValueError("seal_many needs one associated_data per plaintext")
        seal = self.cipher.seal
        return [seal(p, a) for p, a in zip(plaintexts, associated_data)]

    def open_many(
        self, blocks: Sequence[SealedBlock], associated_data: Sequence[bytes]
    ) -> list[bytes]:
        """Batch :meth:`open` over a run of blocks (shared setup cost)."""
        open_many = getattr(self.cipher, "open_many", None)
        if open_many is not None:
            return open_many(blocks, associated_data)
        if len(associated_data) != len(blocks):
            raise ValueError("open_many needs one associated_data per block")
        open_ = self.cipher.open
        return [open_(b, a) for b, a in zip(blocks, associated_data)]

    # ------------------------------------------------------------------
    # Oblivious memory
    # ------------------------------------------------------------------
    @contextmanager
    def oblivious_buffer(self, nbytes: int) -> Iterator[None]:
        """Reserve ``nbytes`` of oblivious memory for the duration of a block.

        Raises :class:`ObliviousMemoryError` if the budget cannot cover it.
        """
        self.oblivious.allocate(nbytes)
        try:
            yield
        finally:
            self.oblivious.release(nbytes)

    # ------------------------------------------------------------------
    # Region naming
    # ------------------------------------------------------------------
    def fresh_region_name(self, prefix: str) -> str:
        """Deterministic unique name for a new untrusted region.

        Names are derived from a counter, not from data, so the sequence of
        region names leaks nothing beyond the number of structures created —
        information the adversary already has from watching allocations.
        """
        self._region_counter += 1
        return f"{prefix}#{self._region_counter}"

    # ------------------------------------------------------------------
    # Measurement helpers for benchmarks
    # ------------------------------------------------------------------
    def cost_snapshot(self) -> dict[str, int]:
        return self.cost.snapshot()

    def cost_delta(self, snapshot: dict[str, int]) -> CostModel:
        return self.cost.delta_since(snapshot)
