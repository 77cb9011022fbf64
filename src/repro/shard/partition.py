"""Region-partitioned tables: deterministic partitioners and ShardedTable.

A :class:`ShardedTable` splits one logical table into ``N`` independent
untrusted-memory regions — one :class:`~repro.storage.flat.FlatStorage` per
shard, each with its *own* :class:`~repro.enclave.integrity.RevisionLedger`
segment and its own derived cipher stream (the shard's region name is its
cipher label, so the enclave re-derives the stream from the root key and
the label alone).  Placement is decided by a deterministic
:class:`ShardSpec` over the key column — ``hash`` (keyed on a canonical
byte encoding of the key, stable across processes and runs) or ``range``
(sorted cut points) — so re-partitioning the same rows always reproduces
the same layout.

Pipelines run shard by shard in the enclave, recording each shard's
accesses into a :class:`~repro.shard.trace.ShardTraceRecorder` attached to
the shard's regions.  After the pipeline,
:func:`~repro.shard.trace.compose` replays the recordings into the
enclave's trace in fixed round-robin epoch order, so the composed
observable sequence is a pure function of public sizes; the per-shard cost
models give the modeled critical path a W-way parallel run would have.

What the adversary learns from sharding: the shard count, each shard's
(public, uniform) capacity, and which region each access touches — all
pure functions of ``(capacity, shards)``, never of row values.  Shard
capacities are uniform (the max partition load, padded across all shards)
so the region sizes do not encode the key histogram beyond its maximum.
"""

from __future__ import annotations

import hashlib
import random
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from ..enclave.enclave import Enclave
from ..enclave.errors import StorageError
from ..enclave.integrity import RevisionLedger
from ..oblivious.compact import oblivious_compact
from ..oblivious.shuffle import oblivious_shuffle
from ..operators.join import hash_join
from ..storage.flat import _CHUNK_BLOCKS, FlatStorage
from ..storage.schema import Row, Schema, Value
from .trace import ShardTraceRecorder, compose

_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")


def encode_key(value: Value) -> bytes:
    """Canonical type-tagged byte encoding of a partition key.

    Stable across runs and processes (unlike Python ``hash()``), and
    injective across types, so ``1`` and ``"1"`` land independently.
    """
    if isinstance(value, bool):
        raise StorageError("bool is not a partition key type")
    if isinstance(value, int):
        return b"i" + _INT.pack(value)
    if isinstance(value, float):
        return b"f" + _FLOAT.pack(value)
    if isinstance(value, str):
        return b"s" + value.encode()
    raise StorageError(f"cannot partition on key {value!r}")


@dataclass(frozen=True)
class ShardSpec:
    """How a table's rows map to shards: a pure function of the key column.

    ``hash`` shards by a keyed-less BLAKE2b of the canonical key encoding;
    ``range`` shards by ``shards - 1`` sorted cut points (``bounds``), shard
    ``i`` owning keys in ``(bounds[i-1], bounds[i]]``-style half-open runs
    via ``bisect_right``.
    """

    kind: str
    shards: int
    key_column: str
    bounds: tuple[Value, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hash", "range"):
            raise StorageError(f"unknown partition kind {self.kind!r}")
        if self.shards < 1:
            raise StorageError("a sharded table needs at least one shard")
        if self.kind == "range":
            if self.bounds is None or len(self.bounds) != self.shards - 1:
                raise StorageError(
                    f"range partitioning over {self.shards} shards needs "
                    f"exactly {self.shards - 1} bounds"
                )
            if list(self.bounds) != sorted(self.bounds):
                raise StorageError("range bounds must be sorted")
        elif self.bounds is not None:
            raise StorageError("hash partitioning takes no bounds")

    def shard_of(self, key: Value) -> int:
        """The shard a key lands in — deterministic and process-stable."""
        if self.kind == "hash":
            digest = hashlib.blake2b(encode_key(key), digest_size=8).digest()
            return int.from_bytes(digest, "little") % self.shards
        return bisect_right(self.bounds, key)


def partition_rows(
    spec: ShardSpec, schema: Schema, rows: Sequence[Row]
) -> list[list[Row]]:
    """Split ``rows`` into ``spec.shards`` lists; every row lands in exactly
    one shard, preserving input order within each shard."""
    key_index = schema.column_index(spec.key_column)
    parts: list[list[Row]] = [[] for _ in range(spec.shards)]
    for row in rows:
        parts[spec.shard_of(row[key_index])].append(row)
    return parts


class ShardedTable:
    """``N`` independent flat regions behaving as one logical table.

    Each shard owns a region named ``table:{name}:shard{i}`` (regenerated
    with a ``:g{generation}`` suffix when a shuffle replaces it), a private
    ledger segment, and a derived cipher labelled by the region name.  A
    ``composite_ledger`` (e.g. the database's) may absorb every shard
    region so one verification walk covers the whole logical table.

    Pipelines — :meth:`scan_rows`, :meth:`shuffle`, :meth:`compact` — run
    in-process, one shard after another.  ``last_recorders`` holds the
    per-shard recorders of the most recent pipeline, whose
    :class:`CostModel`\\ s give the modeled per-shard critical path the
    benchmarks measure.
    """

    def __init__(
        self,
        enclave: Enclave,
        name: str,
        schema: Schema,
        spec: ShardSpec,
        rows: Sequence[Row],
        capacity: int | None = None,
        composite_ledger: RevisionLedger | None = None,
        generation: int = 0,
    ) -> None:
        self.enclave = enclave
        self.name = name
        self.schema = schema
        self.spec = spec
        self._composite = composite_ledger
        self._generation = [generation] * spec.shards
        self.last_recorders: list[ShardTraceRecorder] = []
        parts = partition_rows(spec, schema, rows)
        # Uniform per-shard capacity: the max partition load, floored by an
        # even split of any requested total — a public function of sizes,
        # so region shapes leak at most the key histogram's maximum.
        per_shard = max(len(part) for part in parts)
        if capacity is not None:
            per_shard = max(per_shard, -(-capacity // spec.shards))
        per_shard = max(1, per_shard)
        self._ledgers = [RevisionLedger() for _ in range(spec.shards)]
        self._flats: list[FlatStorage] = []
        for index, part in enumerate(parts):
            region = self._region_name(index)
            flat = FlatStorage(
                enclave,
                schema,
                per_shard,
                name=region,
                ledger=self._ledgers[index],
                cipher_label=region,
            )
            if part:
                flat.fast_insert_many(part)
            self._flats.append(flat)
            if self._composite is not None:
                self._composite.absorb_region(self._ledgers[index], region)

    @classmethod
    def from_table(
        cls,
        table,
        kind: str = "hash",
        shards: int = 2,
        bounds: Sequence[Value] | None = None,
        composite_ledger: RevisionLedger | None = None,
        key_column: str | None = None,
        generation: int = 0,
    ) -> "ShardedTable":
        """Partition a catalog :class:`~repro.storage.table.Table`.

        ``key_column`` overrides the partition key (e.g. a join column for
        co-partitioned pairs); it defaults to the table's index key (first
        column otherwise).  The source table is read with one full
        oblivious scan and left untouched — callers drop or free it once
        the sharded copy is live.
        """
        flat = table.require_flat()
        if key_column is None:
            key_column = table.key_column or table.schema.columns[0].name
        spec = ShardSpec(
            kind,
            shards,
            key_column,
            tuple(bounds) if bounds is not None else None,
        )
        return cls(
            table.enclave,
            table.name,
            table.schema,
            spec,
            flat.rows(),
            capacity=flat.capacity,
            composite_ledger=composite_ledger,
            generation=generation,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return self.spec.shards

    @property
    def capacity(self) -> int:
        return sum(flat.capacity for flat in self._flats)

    @property
    def used_rows(self) -> int:
        return sum(flat.used_rows for flat in self._flats)

    def shard(self, index: int) -> FlatStorage:
        return self._flats[index]

    def region_names(self) -> list[str]:
        return [flat.region_name for flat in self._flats]

    def _region_name(self, index: int) -> str:
        generation = self._generation[index]
        suffix = f":g{generation}" if generation else ""
        return f"table:{self.name}:shard{index}{suffix}"

    # ------------------------------------------------------------------
    # Recorder plumbing
    # ------------------------------------------------------------------
    def _attach(self, regions_per_shard: list[list[str]]) -> list[ShardTraceRecorder]:
        recorders = []
        for index, regions in enumerate(regions_per_shard):
            recorder = ShardTraceRecorder(index)
            for region in regions:
                self.enclave.untrusted.attach_region_recorder(
                    region, recorder, recorder.cost
                )
            recorders.append(recorder)
        return recorders

    def _detach_and_compose(
        self,
        recorders: list[ShardTraceRecorder],
        regions_per_shard: list[list[str]],
    ) -> None:
        for regions in regions_per_shard:
            for region in regions:
                self.enclave.untrusted.detach_region_recorder(region)
        compose(self.enclave.trace, recorders, self.enclave.cost)
        self.last_recorders = recorders

    # ------------------------------------------------------------------
    # Pipelines
    # ------------------------------------------------------------------
    def scan_rows(self, where: Callable[[Row], bool] | None = None) -> list[Row]:
        """Sharded full scan (the linear_scan / select front).

        Epoch-pipelined: each round reads one chunk per shard (recorded into
        the shard's recorder) and decodes it.  Composed trace: round-robin
        over shards, ``R`` one chunk each — a pure function of
        ``(capacity, shards)``.  Rows come back shard-major, scan order
        within each shard.
        """
        regions = [[flat.region_name] for flat in self._flats]
        recorders = self._attach(regions)
        per_shard_rows: list[list[Row]] = [[] for _ in self._flats]
        try:
            chunk_counts = [
                -(-flat.capacity // _CHUNK_BLOCKS) for flat in self._flats
            ]
            for round_index in range(max(chunk_counts)):
                for index, flat in enumerate(self._flats):
                    if round_index >= chunk_counts[index]:
                        continue
                    start = round_index * _CHUNK_BLOCKS
                    count = min(_CHUNK_BLOCKS, flat.capacity - start)
                    frames = flat.read_range_framed(start, count)
                    per_shard_rows[index].extend(
                        row
                        for row in self.schema.decode_framed_rows(frames)
                        if row is not None
                    )
                    recorders[index].end_epoch()
        finally:
            self._detach_and_compose(recorders, regions)
        rows = [row for part in per_shard_rows for row in part]
        if where is not None:
            rows = [row for row in rows if where(row)]
        return rows

    def shuffle(self, rng: random.Random | None = None) -> None:
        """Sharded oblivious shuffle: each shard's region is replaced by a
        freshly permuted image of itself.

        Each shard runs the full two-pass bucket shuffle as one epoch, with
        its recorder attached to the shard's input, scratch, and output
        regions — so the composed trace is the concatenation of the shard
        pipelines, identical to running them sequentially.  Each shard's
        permutation seed is drawn from ``rng`` (default-seeded if omitted),
        so a seeded ``rng`` replays the shuffle.
        """
        if rng is None:
            rng = random.Random()
        old_flats = list(self._flats)
        regions: list[list[str]] = []
        plans: list[tuple[str, str, random.Random]] = []
        for index, flat in enumerate(old_flats):
            out_region = (
                f"table:{self.name}:shard{index}:g{self._generation[index] + 1}"
            )
            scratch = flat.region_name + ":shufscratch"
            regions.append([flat.region_name, scratch, out_region])
            plans.append((out_region, scratch, random.Random(rng.getrandbits(64))))
        recorders = self._attach(regions)
        try:
            for index, flat in enumerate(old_flats):
                out_region, scratch, shard_rng = plans[index]
                output = oblivious_shuffle(
                    flat,
                    rng=shard_rng,
                    name=out_region,
                    scratch_name=scratch,
                    cipher_label=out_region,
                    output_ledger=self._ledgers[index],
                )
                old_region = flat.region_name
                flat.free()
                if self._composite is not None:
                    self._composite.forget_region(old_region)
                    self._composite.absorb_region(self._ledgers[index], out_region)
                self._flats[index] = output
                self._generation[index] += 1
                recorders[index].end_epoch()
        finally:
            self._detach_and_compose(recorders, regions)

    def compact(self) -> int:
        """Sharded oblivious compaction: keepers slide to each shard's
        prefix; returns the total keeper count.

        One epoch per shard (concatenation composition).
        """
        regions = [[flat.region_name] for flat in self._flats]
        recorders = self._attach(regions)
        kept = 0
        try:
            for index, flat in enumerate(self._flats):
                kept += oblivious_compact(flat)
                recorders[index].end_epoch()
        finally:
            self._detach_and_compose(recorders, regions)
        return kept

    # ------------------------------------------------------------------
    # Reassembly and verification
    # ------------------------------------------------------------------
    def reassemble(self, name: str | None = None) -> FlatStorage:
        """Materialise one flat table holding every shard's rows."""
        output = FlatStorage(self.enclave, self.schema, max(1, self.capacity), name=name)
        rows = self.scan_rows()
        if rows:
            output.fast_insert_many(rows)
        return output

    def verify_shards(self) -> list[int]:
        """Walk every shard, verifying MACs and revision bindings.

        Returns per-shard in-use row counts; any tampered, stale, or
        missing block raises the storage layer's typed integrity errors.
        Also cross-checks each shard's decoded count against its
        enclave-side ``used_rows``.
        """
        counts = []
        for index, flat in enumerate(self._flats):
            rows = flat.rows()
            if len(rows) != flat.used_rows:
                raise StorageError(
                    f"shard {index} decodes {len(rows)} rows but tracks "
                    f"{flat.used_rows}"
                )
            counts.append(len(rows))
        return counts

    def free(self) -> None:
        """Release every shard region (and composite ledger segments)."""
        for flat in self._flats:
            region = flat.region_name
            flat.free()
            if self._composite is not None:
                self._composite.forget_region(region)


# ----------------------------------------------------------------------
# Co-partitioned pairs and the sharded hash join
# ----------------------------------------------------------------------
def partition_pair(
    left_table,
    right_table,
    column1: str,
    column2: str,
    kind: str = "hash",
    shards: int = 2,
    bounds: Sequence[Value] | None = None,
    composite_ledger: RevisionLedger | None = None,
) -> tuple[ShardedTable, ShardedTable]:
    """Partition two catalog tables on their join columns with one
    partitioner, so shard ``i`` of each side holds exactly the rows whose
    join key lands in shard ``i`` — the precondition for
    :func:`sharded_hash_join`.  ``encode_key`` is type-tagged, so
    same-typed join columns (a join requirement anyway) hash identically
    on both sides."""
    left = ShardedTable.from_table(
        left_table,
        kind=kind,
        shards=shards,
        bounds=bounds,
        composite_ledger=composite_ledger,
        key_column=column1,
    )
    right = ShardedTable.from_table(
        right_table,
        kind=kind,
        shards=shards,
        bounds=bounds,
        composite_ledger=composite_ledger,
        key_column=column2,
    )
    return left, right


def sharded_hash_join(
    left: ShardedTable,
    right: ShardedTable,
    column1: str,
    column2: str,
    oblivious_memory_bytes: int,
) -> list[Row]:
    """Sharded oblivious hash join over a co-partitioned pair.

    Both sides are partitioned on their join columns by the same
    partitioner, so every joinable pair of rows lives in the same shard
    index and the logical join is exactly the union of ``shards``
    independent :func:`~repro.operators.join.hash_join` runs.  Each shard
    joins as one epoch with the shard's recorder attached to its left,
    right, and output regions; composition is therefore the plain
    concatenation of the per-shard join pipelines — bit-identical to
    running the same ``hash_join`` calls sequentially (pinned in
    ``tests/shard/test_sharded_join.py``).  Returns the matched rows,
    shard-major, each row left columns then right columns
    (:func:`~repro.operators.join.joined_schema`).
    """
    if left.enclave is not right.enclave:
        raise StorageError("sharded join requires both tables in one enclave")
    lspec, rspec = left.spec, right.spec
    if (
        lspec.kind != rspec.kind
        or lspec.shards != rspec.shards
        or lspec.bounds != rspec.bounds
    ):
        raise StorageError(
            "sharded hash join requires co-partitioned inputs: "
            f"{lspec.kind}/{lspec.shards} shards vs "
            f"{rspec.kind}/{rspec.shards} shards"
        )
    if lspec.key_column != column1 or rspec.key_column != column2:
        raise StorageError(
            "sharded hash join requires partitioning on the join columns: "
            f"partitioned on ({lspec.key_column!r}, {rspec.key_column!r}), "
            f"joining on ({column1!r}, {column2!r})"
        )
    enclave = left.enclave
    out_regions = [enclave.fresh_region_name("join") for _ in range(lspec.shards)]
    regions = [
        [left.shard(i).region_name, right.shard(i).region_name, out_regions[i]]
        for i in range(lspec.shards)
    ]
    recorders = left._attach(regions)
    rows: list[Row] = []
    try:
        for index in range(lspec.shards):
            output = hash_join(
                left.shard(index),
                right.shard(index),
                column1,
                column2,
                oblivious_memory_bytes,
                output_name=out_regions[index],
            )
            rows.extend(output.rows())
            output.free()
            recorders[index].end_epoch()
    finally:
        left._detach_and_compose(recorders, regions)
        right.last_recorders = recorders
    return rows
