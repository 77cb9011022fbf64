"""Cost model counters for the simulated enclave.

The paper evaluates ObliDB on real SGX hardware and reports wall-clock time.
A Python simulator cannot reproduce absolute times, so we count the events
that dominate enclave query cost and combine them into a deterministic
*modeled time*:

* ``untrusted_reads`` / ``untrusted_writes`` — encrypted blocks crossing the
  enclave boundary.  Each transfer implies one decryption or encryption plus
  one MAC operation, the dominant per-block cost in ObliDB's measurements.
* ``oram_accesses`` — logical ORAM reads/writes.  Each expands into
  O(log N) block transfers, which are *also* counted above, so the weight on
  this counter models only the ORAM client bookkeeping (stash scan, position
  map update).
* ``ocalls`` — enclave/OS boundary crossings (one per batch of block IO).
* ``comparisons`` — oblivious comparisons inside sorting networks.

Every counter accepts a block/event count, so the batched range primitives in
:mod:`repro.enclave.memory` record N transfers with one call — the totals are
identical to N single-block recordings; only Python overhead is amortized.

Weights (``CostWeights``) are calibrated so that the relative costs of the
paper's operators — e.g. an ORAM access costing roughly 2·log2(N) block IOs,
a bitonic sort costing N·log²N comparisons — mirror the published figures.
Benchmarks report the modeled time alongside wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostWeights:
    """Microsecond-scale weights for each counted event.

    The defaults approximate the paper's testbed: ~1.5 us to transfer and
    decrypt/encrypt one 512 B block across the SGX boundary, ~0.6 us of ORAM
    client bookkeeping per logical access, ~2 us per ocall, and ~0.05 us per
    oblivious comparison.
    """

    untrusted_read_us: float = 1.5
    untrusted_write_us: float = 1.5
    oram_access_us: float = 0.6
    ocall_us: float = 2.0
    comparison_us: float = 0.05


@dataclass
class CostModel:
    """Mutable event counters plus the weights that price them.

    A single ``CostModel`` is owned by an :class:`~repro.enclave.enclave.Enclave`
    and shared by every storage method and operator running inside it, so the
    totals reflect end-to-end query cost.
    """

    weights: CostWeights = field(default_factory=CostWeights)
    untrusted_reads: int = 0
    untrusted_writes: int = 0
    oram_accesses: int = 0
    ocalls: int = 0
    comparisons: int = 0

    def record_read(self, blocks: int = 1) -> None:
        self.untrusted_reads += blocks

    def record_write(self, blocks: int = 1) -> None:
        self.untrusted_writes += blocks

    def record_oram_access(self, count: int = 1) -> None:
        self.oram_accesses += count

    def record_ocall(self, count: int = 1) -> None:
        self.ocalls += count

    def record_comparisons(self, count: int = 1) -> None:
        self.comparisons += count

    @property
    def block_ios(self) -> int:
        """Total encrypted blocks moved across the enclave boundary."""
        return self.untrusted_reads + self.untrusted_writes

    def modeled_time_us(self) -> float:
        """Deterministic modeled execution time in microseconds."""
        w = self.weights
        return (
            self.untrusted_reads * w.untrusted_read_us
            + self.untrusted_writes * w.untrusted_write_us
            + self.oram_accesses * w.oram_access_us
            + self.ocalls * w.ocall_us
            + self.comparisons * w.comparison_us
        )

    def modeled_time_ms(self) -> float:
        """Modeled execution time in milliseconds."""
        return self.modeled_time_us() / 1000.0

    def snapshot(self) -> dict[str, int]:
        """Copy of the raw counters, for before/after deltas in benchmarks."""
        return {
            "untrusted_reads": self.untrusted_reads,
            "untrusted_writes": self.untrusted_writes,
            "oram_accesses": self.oram_accesses,
            "ocalls": self.ocalls,
            "comparisons": self.comparisons,
        }

    def delta_since(self, snapshot: dict[str, int]) -> "CostModel":
        """New ``CostModel`` holding the difference from ``snapshot``."""
        delta = CostModel(weights=self.weights)
        delta.untrusted_reads = self.untrusted_reads - snapshot["untrusted_reads"]
        delta.untrusted_writes = self.untrusted_writes - snapshot["untrusted_writes"]
        delta.oram_accesses = self.oram_accesses - snapshot["oram_accesses"]
        delta.ocalls = self.ocalls - snapshot["ocalls"]
        delta.comparisons = self.comparisons - snapshot["comparisons"]
        return delta

    def absorb(self, other: "CostModel") -> None:
        """Add another model's counters into this one.

        Accumulates separately measured deltas (e.g. one
        :meth:`delta_since` per benchmark phase) into one running total.
        """
        self.untrusted_reads += other.untrusted_reads
        self.untrusted_writes += other.untrusted_writes
        self.oram_accesses += other.oram_accesses
        self.ocalls += other.ocalls
        self.comparisons += other.comparisons

    def reset(self) -> None:
        """Zero every counter (weights are preserved)."""
        self.untrusted_reads = 0
        self.untrusted_writes = 0
        self.oram_accesses = 0
        self.ocalls = 0
        self.comparisons = 0
