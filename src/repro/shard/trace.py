"""Composable per-shard access traces.

A sharded pipeline records each shard's untrusted-memory accesses into its
own :class:`ShardTraceRecorder` (attached to the shard's regions via
:meth:`UntrustedMemory.attach_region_recorder`) instead of the enclave's
global trace.  The recorder does not hash events as they happen — it stores
the *segment descriptors* (the exact ``record*`` calls, arguments and all)
grouped into **epochs**, plus a per-shard :class:`CostModel`.

Composition is the subsystem's trace-equivalence rule: after a pipeline
finishes, :func:`compose` replays the recorded segments into the main trace
in **fixed round-robin epoch order** — epoch 0 of shard 0, epoch 0 of shard
1, …, epoch 1 of shard 0, … — so the composed observable sequence is a pure
function of public sizes (row counts, shard count, chunk geometry).  Two
consequences the tests pin:

* a pipeline that runs its shards one-epoch-each (whole-pipeline-per-shard,
  e.g. per-shard shuffle) composes to the plain concatenation of the shard
  sequences — identical to running the shards sequentially;
* a pipeline that interleaves epochs (e.g. the scan front reading one
  chunk per shard per round) composes to the canonical round-robin
  interleaving.

Costs compose by absorption: each shard's counters are added into the main
model (totals equal the sequential run), while the per-shard models remain
available for critical-path measurement (the slowest shard bounds the
modeled parallel wall-clock).
"""

from __future__ import annotations

from typing import Sequence

from ..enclave.counters import CostModel, CostWeights
from ..enclave.trace import AccessTrace


class ShardTraceRecorder:
    """Records one shard's access segments for later canonical replay.

    Implements the subset of the :class:`AccessTrace` recording API the
    untrusted-memory primitives call, so it can stand in as a region's trace
    sink.  Segments accumulate into the current epoch until
    :meth:`end_epoch` is called.
    """

    def __init__(self, shard_index: int, cost_weights: CostWeights | None = None) -> None:
        self.shard_index = shard_index
        self.cost = CostModel(weights=cost_weights or CostWeights())
        self._epochs: list[list[tuple]] = []
        self._current: list[tuple] = []

    # -- AccessTrace-compatible recording API --------------------------
    def record(self, op: str, region: str, index: int) -> None:
        self._current.append(("record", op, region, index))

    def record_range(self, op: str, region: str, start: int, count: int) -> None:
        if count > 0:
            self._current.append(("record_range", op, region, start, count))

    def record_at(self, op: str, region: str, indices: Sequence[int]) -> None:
        if indices:
            self._current.append(("record_at", op, region, list(indices)))

    def record_interleaved(self, steps: Sequence[tuple[str, str, int]]) -> None:
        if steps:
            self._current.append(("record_interleaved", list(steps)))

    def record_rw_range(self, region: str, start: int, count: int) -> None:
        if count > 0:
            self._current.append(("record_rw_range", region, start, count))

    def record_pair_exchanges(self, region: str, start: int, half: int) -> None:
        if half > 0:
            self._current.append(("record_pair_exchanges", region, start, half))

    # -- epochs --------------------------------------------------------
    def end_epoch(self) -> None:
        """Close the current epoch (even if empty — epochs are positional)."""
        self._epochs.append(self._current)
        self._current = []

    @property
    def epochs(self) -> list[list[tuple]]:
        """Closed epochs plus the open one if it holds any segments."""
        if self._current:
            return self._epochs + [self._current]
        return list(self._epochs)

    def segment_count(self) -> int:
        return sum(len(epoch) for epoch in self._epochs) + len(self._current)


def compose(
    trace: AccessTrace,
    recorders: Sequence[ShardTraceRecorder],
    cost: CostModel | None = None,
) -> None:
    """Replay per-shard recordings into ``trace`` in canonical order.

    Round-robin by epoch: for each epoch position, every shard's segments
    for that epoch replay in shard order (shards whose recording is shorter
    simply contribute nothing to later epochs).  When ``cost`` is given,
    each shard's counters are absorbed into it, so end-to-end totals match
    the sequential run exactly.
    """
    depth = max((len(rec.epochs) for rec in recorders), default=0)
    epoch_lists = [rec.epochs for rec in recorders]
    for position in range(depth):
        for epochs in epoch_lists:
            if position < len(epochs):
                for segment in epochs[position]:
                    trace.replay_segment(segment)
    if cost is not None:
        for rec in recorders:
            cost.absorb(rec.cost)


def critical_path_ms(
    total_ms: float, recorders: Sequence[ShardTraceRecorder]
) -> float:
    """Modeled parallel wall-clock of one sharded pipeline.

    ``total_ms`` is the pipeline's full modeled time (what a sequential
    run pays); the parallel model keeps the serial remainder — everything
    the composing parent did outside the shard recorders — plus the
    slowest shard: ``serial + max(per-shard)``.
    """
    per_shard = [rec.cost.modeled_time_ms() for rec in recorders]
    if not per_shard:
        return total_ms
    serial = max(0.0, total_ms - sum(per_shard))
    return serial + max(per_shard)
