"""Trace-equivalence tests for the batched sealed-block data path.

The range/batch APIs (``read_range_framed``, ``write_range_framed``,
``exchange_framed``, ``exchange_pairs_framed`` and everything built on them:
scans, insert/update/delete passes, the bitonic sorters) exist purely to
amortize simulator overhead.  The obliviousness argument of the paper rests
on the *observable access sequence*, so batching must be invisible to the
adversary: same regions, same indices, same order, same read/write
interleaving as the per-block loops.

Every test here replays an operation once through the batched production
code and once through a hand-rolled per-block reference loop (using only the
single-block primitives ``read_framed``/``write_framed``/``read_row``/
``write_row``, each of which records exactly one trace event), then asserts
the two enclaves' traces are identical event for event.  These are the
regression guard for the paper's security property.

The ORAM sections extend the guard to the batched path pipeline: reference
Path/Ring ORAM subclasses re-implement the seed's per-bucket (per-slot)
loops — scalar reads/writes, scalar seal/open, the O(stash×levels) greedy
eviction rescan — and every access kind (real read, real write, dummy,
read-modify-write, scheduled eviction, early reshuffle) must emit an
adversary-visible sequence bit-identical to the batched gather/scatter
production code, while returning the same payloads and leaving the same
client state.
"""

from __future__ import annotations

import random

import pytest

from repro.enclave import Enclave
from repro.operators.predicate import Comparison
from repro.operators.sort import bitonic_sort, external_oblivious_sort
from repro.oram.path_oram import PathORAM, _pack_bucket, _unpack_bucket
from repro.oram.recursive import RecursivePathORAM
from repro.oram.ring_oram import _SLOT_HEADER, RingORAM, _BucketMeta
from repro.planner.stats import SelectionStats, scan_statistics
from repro.storage import FlatStorage, Schema
from repro.storage.rows import frame_row_validated, is_dummy, unframe_row
from repro.storage.schema import int_column, str_column


SCHEMA = Schema([int_column("k"), str_column("v", 8)])


def fresh_pair(capacity: int, rows: list[tuple]) -> tuple[FlatStorage, FlatStorage]:
    """Two identically-populated tables in two fresh enclaves.

    Fresh enclaves share region-name counters (both tables are ``flat#1``),
    so identical operations must yield byte-identical traces.
    """
    tables = []
    for _ in range(2):
        enclave = Enclave(cipher="authenticated", keep_trace_events=True)
        table = FlatStorage(enclave, SCHEMA, capacity)
        for row in rows:
            table.fast_insert(row)
        tables.append(table)
    return tables[0], tables[1]


def assert_traces_match(a: FlatStorage, b: FlatStorage) -> None:
    trace_a, trace_b = a.enclave.trace, b.enclave.trace
    assert len(trace_a) == len(trace_b)
    assert [(e.op, e.region, e.index) for e in trace_a.events] == [
        (e.op, e.region, e.index) for e in trace_b.events
    ]
    assert trace_a.matches(trace_b)


ROWS = [(i * 13 % 7, f"r{i}") for i in range(5)]


class TestScanEquivalence:
    def test_batched_scan_matches_per_block_reads(self) -> None:
        batched, reference = fresh_pair(8, ROWS)
        got = [unframe_row(SCHEMA, framed) for _, framed in batched.scan_framed()]
        want = [reference.read_row(i) for i in range(reference.capacity)]
        assert got == want
        assert_traces_match(batched, reference)

    def test_rows_matches_per_block_scan(self) -> None:
        batched, reference = fresh_pair(8, ROWS)
        assert batched.rows() == [
            row for _, row in reference.scan() if row is not None
        ]
        assert_traces_match(batched, reference)

    def test_range_read_is_n_single_reads(self) -> None:
        batched, reference = fresh_pair(8, ROWS)
        frames = batched.read_range_framed(2, 4)
        want = [reference.read_framed(i) for i in range(2, 6)]
        assert [is_dummy(f) for f in frames] == [is_dummy(f) for f in want]
        assert_traces_match(batched, reference)

    def test_range_write_is_n_single_writes(self) -> None:
        batched, reference = fresh_pair(8, ROWS)
        frames = [frame_row_validated(SCHEMA, (9, "x"))] * 3
        batched.write_range_framed(1, frames)
        for i, framed in enumerate(frames, 1):
            reference.write_framed(i, framed)
        assert_traces_match(batched, reference)


class TestPassEquivalence:
    def test_insert_pass(self) -> None:
        batched, reference = fresh_pair(8, ROWS)
        batched.insert((42, "new"))
        # Reference: the seed's per-block read/write pass.
        framed_new = frame_row_validated(SCHEMA, (42, "new"))
        inserted = False
        for index in range(reference.capacity):
            framed = reference.read_framed(index)
            if not inserted and is_dummy(framed):
                reference.write_framed(index, framed_new)
                inserted = True
            else:
                reference.write_framed(index, framed)
        assert inserted
        assert_traces_match(batched, reference)
        assert sorted(batched.rows()) == sorted(reference.rows())

    def test_update_pass(self) -> None:
        batched, reference = fresh_pair(8, ROWS)
        predicate = lambda row: row[0] % 2 == 0  # noqa: E731
        assign = lambda row: (row[0], "upd")  # noqa: E731
        batched.update(predicate, assign)
        for index in range(reference.capacity):
            framed = reference.read_framed(index)
            row = unframe_row(SCHEMA, framed)
            if row is not None and predicate(row):
                reference.write_framed(index, frame_row_validated(SCHEMA, assign(row)))
            else:
                reference.write_framed(index, framed)
        assert_traces_match(batched, reference)
        assert sorted(batched.rows()) == sorted(reference.rows())

    def test_update_trace_is_data_independent(self) -> None:
        """Zero matches and all matches must leave identical traces."""
        none_match, all_match = fresh_pair(8, ROWS)
        none_match.update(lambda row: False, lambda row: row)
        all_match.update(lambda row: True, lambda row: (row[0], "y"))
        assert_traces_match(none_match, all_match)

    def test_delete_pass(self) -> None:
        batched, reference = fresh_pair(8, ROWS)
        predicate = lambda row: row[0] < 3  # noqa: E731
        batched.delete(predicate)
        for index in range(reference.capacity):
            framed = reference.read_framed(index)
            row = unframe_row(SCHEMA, framed)
            if row is not None and predicate(row):
                reference.write_row(index, None)
            else:
                reference.write_framed(index, framed)
        assert_traces_match(batched, reference)
        assert sorted(batched.rows()) == sorted(reference.rows())

    def test_copy_to_keeps_interleaved_pattern(self) -> None:
        batched, reference = fresh_pair(4, ROWS[:3])
        batched.copy_to(capacity=8)
        # Reference: allocate the target (its init writes one dummy pass),
        # then the per-block interleaved read-source/write-target loop.
        target = FlatStorage(
            reference.enclave, SCHEMA, 8, ledger=reference._ledger
        )
        for index in range(reference.capacity):
            target.write_framed(index, reference.read_framed(index))
        assert_traces_match(batched, reference)


def reference_bitonic_sort(table: FlatStorage, key, enclave_rows: int = 1) -> None:
    """The seed's per-block bitonic sort: one trace event per access."""

    def lifted(row):
        return (1,) if row is None else (0,) + key(row)

    n = table.capacity
    enclave = table.enclave

    def load_sort_store(lo: int, length: int, ascending: bool) -> None:
        rows = [table.read_row(lo + i) for i in range(length)]
        rows.sort(key=lifted, reverse=not ascending)
        enclave.cost.record_comparisons(length * max(1, length.bit_length()))
        for i, row in enumerate(rows):
            table.write_row(lo + i, row)

    def compare_exchange(i: int, j: int, ascending: bool) -> None:
        a = table.read_row(i)
        b = table.read_row(j)
        enclave.cost.record_comparisons(1)
        if (lifted(a) > lifted(b)) == ascending:
            a, b = b, a
        table.write_row(i, a)
        table.write_row(j, b)

    def merge(lo: int, length: int, ascending: bool) -> None:
        if length <= 1:
            return
        if length <= enclave_rows:
            load_sort_store(lo, length, ascending)
            return
        half = length // 2
        for i in range(lo, lo + half):
            compare_exchange(i, i + half, ascending)
        merge(lo, half, ascending)
        merge(lo + half, half, ascending)

    def sort(lo: int, length: int, ascending: bool) -> None:
        if length <= 1:
            return
        if length <= enclave_rows:
            load_sort_store(lo, length, ascending)
            return
        half = length // 2
        sort(lo, half, True)
        sort(lo + half, half, False)
        merge(lo, length, ascending)

    sort(0, n, True)


class TestSortEquivalence:
    KEY = staticmethod(lambda row: (row[0], row[1]))

    def test_bitonic_network_trace_and_result(self) -> None:
        rows = [(i * 7 % 11, f"r{i}") for i in range(11)]
        batched, reference = fresh_pair(16, rows)
        bitonic_sort(batched, self.KEY)
        reference_bitonic_sort(reference, self.KEY)
        assert_traces_match(batched, reference)
        # Cost model must agree too (comparisons, block transfers).
        assert batched.enclave.cost.snapshot() == reference.enclave.cost.snapshot()
        got = batched.rows()
        assert got == reference.rows()
        assert [row[0] for row in got] == sorted(row[0] for row in got)

    def test_bitonic_cutover_trace_and_result(self) -> None:
        rows = [(i * 5 % 9, f"r{i}") for i in range(9)]
        batched, reference = fresh_pair(16, rows)
        bitonic_sort(batched, self.KEY, enclave_rows=4)
        reference_bitonic_sort(reference, self.KEY, enclave_rows=4)
        assert_traces_match(batched, reference)
        assert batched.enclave.cost.snapshot() == reference.enclave.cost.snapshot()
        assert batched.rows() == reference.rows()

    def test_bitonic_trace_is_data_independent(self) -> None:
        """Two different datasets of equal size: identical sort traces."""
        a, _ = fresh_pair(16, [(i, "a") for i in range(12)])
        b, _ = fresh_pair(16, [(100 - i, "b") for i in range(12)])
        bitonic_sort(a, self.KEY)
        bitonic_sort(b, self.KEY)
        assert a.enclave.trace.matches(b.enclave.trace)

    def test_external_sort_merge_split_trace(self) -> None:
        """Merge-split runs read run/read run/write run/write run, exactly
        as the per-block loops did; result stays sorted."""
        rows = [(i * 3 % 13, f"r{i}") for i in range(13)]
        batched, reference = fresh_pair(16, rows)
        external_oblivious_sort(batched, self.KEY, chunk_rows=4)

        # Reference: per-block implementation of the same chunked algorithm.
        def lifted(row):
            return (1,) if row is None else (0,) + self.KEY(row)

        chunk_rows = 4
        n = reference.capacity
        num_chunks = n // chunk_rows
        with reference.enclave.oblivious_buffer(
            2 * chunk_rows * (reference.schema.row_size + 1)
        ):
            for chunk in range(num_chunks):
                lo = chunk * chunk_rows
                rows_ = [reference.read_row(lo + i) for i in range(chunk_rows)]
                rows_.sort(key=lifted)
                reference.enclave.cost.record_comparisons(
                    chunk_rows * max(1, chunk_rows.bit_length())
                )
                for i, row in enumerate(rows_):
                    reference.write_row(lo + i, row)

            def merge_split(left: int, right: int, ascending: bool) -> None:
                lo_left = left * chunk_rows
                lo_right = right * chunk_rows
                rows_ = [reference.read_row(lo_left + i) for i in range(chunk_rows)]
                rows_ += [reference.read_row(lo_right + i) for i in range(chunk_rows)]
                rows_.sort(key=lifted, reverse=not ascending)
                reference.enclave.cost.record_comparisons(
                    2 * chunk_rows * max(1, (2 * chunk_rows).bit_length())
                )
                for i in range(chunk_rows):
                    reference.write_row(lo_left + i, rows_[i])
                for i in range(chunk_rows):
                    reference.write_row(lo_right + i, rows_[chunk_rows + i])

            k = 2
            while k <= num_chunks:
                j = k // 2
                while j >= 1:
                    for i in range(num_chunks):
                        partner = i ^ j
                        if partner > i:
                            merge_split(i, partner, (i & k) == 0)
                    j //= 2
                k *= 2

        assert_traces_match(batched, reference)
        assert batched.rows() == reference.rows()


class TestChunkedPassEquivalence:
    """Full-table passes split into bounded chunks must stay trace-identical.

    ``_CHUNK_BLOCKS`` is shrunk below the table size so every pass crosses
    chunk boundaries (production value is 1024, far above these tables).
    """

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch: pytest.MonkeyPatch) -> None:
        import repro.storage.flat as flat

        monkeypatch.setattr(flat, "_CHUNK_BLOCKS", 3)

    def test_chunked_scan_matches_per_block_reads(self) -> None:
        batched, reference = fresh_pair(8, ROWS)
        got = [unframe_row(SCHEMA, framed) for _, framed in batched.scan_framed()]
        want = [reference.read_row(i) for i in range(reference.capacity)]
        assert got == want
        assert_traces_match(batched, reference)

    def test_chunked_update_pass(self) -> None:
        batched, reference = fresh_pair(8, ROWS)
        predicate = lambda row: row[0] % 2 == 0  # noqa: E731
        assign = lambda row: (row[0], "upd")  # noqa: E731
        batched.update(predicate, assign)
        for index in range(reference.capacity):
            framed = reference.read_framed(index)
            row = unframe_row(SCHEMA, framed)
            if row is not None and predicate(row):
                reference.write_framed(index, frame_row_validated(SCHEMA, assign(row)))
            else:
                reference.write_framed(index, framed)
        assert_traces_match(batched, reference)
        assert sorted(batched.rows()) == sorted(reference.rows())

    @pytest.mark.parametrize(
        "predicate",
        [
            Comparison("k", ">=", 4),  # blocks 1 and 3, a dummy between: continuous
            Comparison("k", "<", 4),  # blocks 0 and 4, real rows between: broken
            Comparison("k", ">", 100),  # no match
        ],
    )
    def test_chunked_statistics_pass(self, predicate) -> None:
        """The planner's statistics pass over batched chunks vs. the seed's
        one ``read_row`` per block: same trace, counters and statistics."""
        batched, reference = fresh_pair(8, ROWS)
        for table in (batched, reference):
            table.write_row(2, None)
        got = scan_statistics(batched, predicate)
        matches = predicate.compile(SCHEMA)
        matched: list[int] = []
        real: list[int] = []
        for index in range(reference.capacity):
            row = reference.read_row(index)
            if row is not None:
                real.append(index)
                if matches(row):
                    matched.append(index)
        between = [i for i in real if matched and matched[0] <= i <= matched[-1]]
        assert got == SelectionStats(
            input_capacity=8,
            matching_rows=len(matched),
            continuous=bool(matched) and between == matched,
            first_match_index=matched[0] if matched else -1,
        )
        assert_traces_match(batched, reference)
        assert batched.enclave.cost.snapshot() == reference.enclave.cost.snapshot()

    def test_chunked_range_write(self) -> None:
        batched, reference = fresh_pair(8, ROWS)
        frames = [frame_row_validated(SCHEMA, (i, "x")) for i in range(7)]
        batched.write_range_framed(0, frames)
        for i, framed in enumerate(frames):
            reference.write_framed(i, framed)
        assert_traces_match(batched, reference)
        assert batched.rows() == reference.rows()


class TestBatchSemantics:
    def test_exchange_pass_rejects_wrong_block_count(self) -> None:
        from repro.enclave.errors import StorageError

        table, _ = fresh_pair(4, ROWS[:2])
        with pytest.raises(StorageError):
            table.enclave.untrusted.exchange_range(
                table.region_name, 0, 4, lambda blocks: blocks[:-1]
            )

    def test_range_read_out_of_bounds(self) -> None:
        from repro.enclave.errors import StorageError

        table, _ = fresh_pair(4, ROWS[:2])
        with pytest.raises(StorageError):
            table.read_range_framed(2, 4)

    def test_batched_ciphertexts_are_fresh(self) -> None:
        """A batched dummy pass must re-randomise every ciphertext."""
        table, _ = fresh_pair(4, ROWS[:2])
        before = [table.enclave.untrusted.peek(table.region_name, i) for i in range(4)]
        table.exchange_framed(0, 4, lambda index, framed: framed)
        after = [table.enclave.untrusted.peek(table.region_name, i) for i in range(4)]
        for old, new in zip(before, after):
            assert old.nonce != new.nonce or old.ciphertext != new.ciphertext


# ---------------------------------------------------------------------------
# Gather/scatter primitives
# ---------------------------------------------------------------------------


class TestGatherScatterEquivalence:
    """``read_at``/``write_at`` must record the per-slot loop's exact trace."""

    INDICES = [0, 2, 5, 12, 3, 3]  # non-contiguous, unordered, repeated

    def _pair(self) -> tuple[Enclave, Enclave]:
        enclaves = []
        for _ in range(2):
            enclave = Enclave(cipher="authenticated", keep_trace_events=True)
            enclave.untrusted.allocate_region("r", 16)
            for i in range(16):
                enclave.untrusted.write("r", i, enclave.seal(bytes([i])))
            enclaves.append(enclave)
        return enclaves[0], enclaves[1]

    def test_read_at_is_n_single_reads(self) -> None:
        batched, reference = self._pair()
        got = batched.untrusted.read_at("r", self.INDICES)
        want = [reference.untrusted.read("r", i) for i in self.INDICES]
        assert [b.ciphertext for b in got] == [
            batched.untrusted.peek("r", i).ciphertext for i in self.INDICES
        ]
        assert len(got) == len(want)
        assert batched.trace.matches(reference.trace)
        assert [(e.op, e.region, e.index) for e in batched.trace.events] == [
            (e.op, e.region, e.index) for e in reference.trace.events
        ]

    def test_write_at_is_n_single_writes(self) -> None:
        batched, reference = self._pair()
        blocks = [batched.seal(bytes([i])) for i in range(len(self.INDICES))]
        batched.untrusted.write_at("r", self.INDICES, blocks)
        for i, block in zip(self.INDICES, blocks):
            reference.untrusted.write("r", i, block)
        assert batched.trace.matches(reference.trace)
        # Repeated index: last write wins, like the loop.
        assert batched.untrusted.peek("r", 3) is blocks[-1]

    def test_out_of_bounds_and_length_mismatch(self) -> None:
        from repro.enclave.errors import StorageError

        enclave, _ = self._pair()
        with pytest.raises(StorageError):
            enclave.untrusted.read_at("r", [0, 16])
        with pytest.raises(StorageError):
            enclave.untrusted.write_at("r", [0, 1], [None])

    def test_cost_model_counts_per_slot(self) -> None:
        batched, reference = self._pair()
        batched.untrusted.read_at("r", self.INDICES)
        batched.untrusted.write_at(
            "r", self.INDICES, [None] * len(self.INDICES)
        )
        for i in self.INDICES:
            reference.untrusted.read("r", i)
        for i in self.INDICES:
            reference.untrusted.write("r", i, None)
        assert batched.cost.snapshot() == reference.cost.snapshot()


# ---------------------------------------------------------------------------
# ORAM path pipelines
# ---------------------------------------------------------------------------


class ReferencePathORAM(PathORAM):
    """The seed's per-bucket Path ORAM: one scalar read/open/seal/write per
    bucket and the O(stash×levels) greedy-eviction rescan.  Constructed with
    the same rng seed as the batched production class, it must stay in
    lockstep: identical traces, payloads, positions, and stash.  The top
    ``treetop_levels`` levels are kept in ``_treetop`` and visited by the
    same per-bucket loops, without the untrusted read and write."""

    def _seal_buckets(self, contents) -> None:
        enclave, ledger, region = self._enclave, self._ledger, self._region
        for index in range(self._num_buckets):
            if index < len(self._treetop):
                self._treetop[index] = [
                    (bid, (bleaf, payload))
                    for bid, bleaf, payload in contents.get(index, [])
                ]
                continue
            plaintext = _pack_bucket(
                contents.get(index, []), self._bucket_size, self._block_size
            )
            revision = ledger.next_revision(region, index)
            aad = ledger.associated_data(region, index, revision)
            enclave.untrusted.write(region, index, enclave.seal(plaintext, aad))
            ledger.commit(region, index, revision)

    def _access(self, block_id, new_data, mutate=None):
        from repro.enclave.errors import ORAMError

        if self._freed:
            raise ORAMError("ORAM has been freed")
        self._enclave.cost.record_oram_access()
        if block_id is not None:
            self.check_block_id(block_id)
            leaf = self._position[block_id]
        else:
            leaf = self._rng.randrange(self._leaves)
        path = self._path_indices(leaf)
        enclave, ledger, region = self._enclave, self._ledger, self._region

        # Read the whole path into the stash, one bucket at a time.
        for index in path:
            if index < len(self._treetop):
                self._stash.update(self._treetop[index])
                continue
            sealed = enclave.untrusted.read(region, index)
            aad = ledger.associated_data(region, index, ledger.current(region, index))
            plaintext = enclave.open(sealed, aad)
            for bid, bleaf, payload in _unpack_bucket(
                plaintext, self._bucket_size, self._block_size
            ):
                self._stash[bid] = (bleaf, payload)

        result = None
        if block_id is not None:
            new_leaf = self._rng.randrange(self._leaves)
            if block_id in self._stash:
                _, payload = self._stash[block_id]
                result = payload
                self._stash[block_id] = (new_leaf, payload)
            if mutate is not None:
                new_data = mutate(result)
            if new_data is not None:
                self._stash[block_id] = (new_leaf, new_data)
            self._position[block_id] = new_leaf
        else:
            self._rng.randrange(self._leaves)

        # Write back leaf→root with the per-level stash rescan.
        for depth in range(len(path) - 1, -1, -1):
            index = path[depth]
            placed = []
            for bid in list(self._stash):
                if len(placed) >= self._bucket_size:
                    break
                bleaf, payload = self._stash[bid]
                if self._ancestor_at_depth(bleaf, depth) == index:
                    placed.append((bid, bleaf, payload))
                    del self._stash[bid]
            if index < len(self._treetop):
                self._treetop[index] = [
                    (bid, (bleaf, payload)) for bid, bleaf, payload in placed
                ]
                continue
            plaintext = _pack_bucket(placed, self._bucket_size, self._block_size)
            revision = ledger.next_revision(region, index)
            aad = ledger.associated_data(region, index, revision)
            enclave.untrusted.write(region, index, enclave.seal(plaintext, aad))
            ledger.commit(region, index, revision)
        return result


class ReferenceRingORAM(RingORAM):
    """The seed's per-slot Ring ORAM: scalar slot IO everywhere, per-level
    stash rescans in the eviction, per-slot init and reshuffle rewrites."""

    def _initialise_slots(self) -> None:
        for index in range(self._num_buckets * self._slots_per_bucket):
            self._write_slot_scalar(index, self._dummy_plaintext)

    def _write_slot_scalar(self, slot_index: int, plaintext: bytes) -> None:
        enclave, ledger, region = self._enclave, self._ledger, self._region
        revision = ledger.next_revision(region, slot_index)
        aad = ledger.associated_data(region, slot_index, revision)
        enclave.untrusted.write(region, slot_index, enclave.seal(plaintext, aad))
        ledger.commit(region, slot_index, revision)

    def _read_slot_scalar(self, slot_index: int):
        enclave, ledger, region = self._enclave, self._ledger, self._region
        sealed = enclave.untrusted.read(region, slot_index)
        aad = ledger.associated_data(region, slot_index, ledger.current(region, slot_index))
        plaintext = enclave.open(sealed, aad)
        block_id, leaf, length = _SLOT_HEADER.unpack_from(plaintext, 0)
        return block_id, leaf, plaintext[_SLOT_HEADER.size : _SLOT_HEADER.size + length]

    # Route the batched helpers through the scalar loop: the production
    # planning logic (slot choice, restock plans) is shared, but every
    # observable access and every seal/open happens one slot at a time.
    def _read_slots(self, slot_indices):
        return [self._read_slot_scalar(index) for index in slot_indices]

    def _write_slots(self, slot_indices, plaintexts) -> None:
        for index, plaintext in zip(slot_indices, plaintexts):
            self._write_slot_scalar(index, plaintext)

    def _reshuffle_bucket(self, bucket_index: int) -> None:
        # Shared planning (same rng draws, same permutation as production),
        # scalar observable I/O: one read per restock slot, one write per
        # bucket slot in ascending order.
        to_read, real_slots = self._restock_plan(bucket_index)
        entries = [
            self._read_slot_scalar(self._slot_index(bucket_index, slot))
            for slot in to_read
        ]
        fresh, plaintexts = self._plan_reshuffle(to_read, real_slots, entries)
        self._meta[bucket_index] = fresh
        for slot, plaintext in enumerate(plaintexts):
            self._write_slot_scalar(
                self._slot_index(bucket_index, slot), plaintext
            )

    def _evict_path(self, leaf: int) -> None:
        path = self._path_buckets(leaf)
        for bucket_index in path:
            to_read, real_slots = self._restock_plan(bucket_index)
            self._restock_merge(
                to_read,
                real_slots,
                [
                    self._read_slot_scalar(self._slot_index(bucket_index, slot))
                    for slot in to_read
                ],
            )
        for depth in range(len(path) - 1, -1, -1):
            bucket_index = path[depth]
            fresh = _BucketMeta(self._z, self._s)
            placed = 0
            slot_order = list(range(self._slots_per_bucket))
            self._rng.shuffle(slot_order)
            for block_id in list(self._stash):
                if placed >= self._z:
                    break
                bleaf, payload = self._stash[block_id]
                if self._ancestor_at_depth(bleaf, depth) == bucket_index:
                    slot = slot_order[placed]
                    fresh.slots[slot] = block_id
                    self._write_slot_scalar(
                        self._slot_index(bucket_index, slot),
                        self._slot_plaintext(block_id, bleaf, payload),
                    )
                    placed += 1
                    del self._stash[block_id]
            for slot in slot_order[placed:]:
                self._write_slot_scalar(
                    self._slot_index(bucket_index, slot), self._dummy_plaintext
                )
            self._meta[bucket_index] = fresh


def assert_enclaves_match(a: Enclave, b: Enclave) -> None:
    assert len(a.trace) == len(b.trace)
    assert [(e.op, e.region, e.index) for e in a.trace.events] == [
        (e.op, e.region, e.index) for e in b.trace.events
    ]
    assert a.trace.matches(b.trace)
    assert a.cost.snapshot() == b.cost.snapshot()


def _oram_workout(oram, capacity: int, steps: int, seed: int = 99) -> list:
    """A fixed mix of writes, reads, dummies and read-modify-writes; returns
    what the reads returned."""
    rng = random.Random(seed)
    mutate = lambda payload: (payload or b"")[:7] + b"+"  # noqa: E731
    returned = []
    for step in range(steps):
        block = rng.randrange(capacity)
        kind = step % 4
        if kind == 0:
            oram.write(block, bytes([rng.randrange(256) for _ in range(8)]))
        elif kind == 1:
            returned.append(oram.read(block))
        elif kind == 2:
            oram.dummy_access()
        else:
            oram.update(block, mutate)
    return returned


class TestPathORAMEquivalence:
    """Batched path pipeline vs. the seed's per-bucket loop, at every
    treetop size: ``0`` is the paper's tree, bit-identical to the seed's."""

    CAPACITY = 24
    LEVELS = 4  # 24 blocks at Z = 4: 8 leaves

    @pytest.fixture(params=[None, *range(LEVELS)])
    def k(self, request) -> int | None:
        return request.param

    def _pair(
        self, k: int | None, seed: int = 7
    ) -> tuple[PathORAM, PathORAM, Enclave, Enclave]:
        enclave_a = Enclave(cipher="authenticated", keep_trace_events=True)
        enclave_b = Enclave(cipher="authenticated", keep_trace_events=True)
        batched = PathORAM(
            enclave_a,
            self.CAPACITY,
            block_size=16,
            rng=random.Random(seed),
            treetop_levels=k,
        )
        reference = ReferencePathORAM(
            enclave_b,
            self.CAPACITY,
            block_size=16,
            rng=random.Random(seed),
            treetop_levels=k,
        )
        assert batched.levels == self.LEVELS
        assert batched.treetop_levels == (self.LEVELS - 1 if k is None else k)
        return batched, reference, enclave_a, enclave_b

    def test_init_trace_matches_per_bucket_loop(self, k) -> None:
        _, _, enclave_a, enclave_b = self._pair(k)
        assert_enclaves_match(enclave_a, enclave_b)

    def test_real_dummy_and_rmw_accesses(self, k) -> None:
        batched, reference, enclave_a, enclave_b = self._pair(k)
        assert _oram_workout(batched, self.CAPACITY, 400) == _oram_workout(
            reference, self.CAPACITY, 400
        )
        assert_enclaves_match(enclave_a, enclave_b)
        # Client state must stay in lockstep too: the vectorized eviction
        # makes exactly the per-level rescan's placements.
        self._assert_state_matches(batched, reference, enclave_a, enclave_b)

    @staticmethod
    def _assert_state_matches(batched, reference, enclave_a, enclave_b) -> None:
        assert batched._position == reference._position
        assert batched._stash == reference._stash
        assert batched._treetop == reference._treetop
        for index in range(len(batched._treetop), batched.num_buckets):
            got = enclave_a.open(
                enclave_a.untrusted.peek(batched.region_name, index),
                batched._ledger.open_at(batched.region_name, [index])[0],
            )
            want = enclave_b.open(
                enclave_b.untrusted.peek(reference.region_name, index),
                reference._ledger.open_at(reference.region_name, [index])[0],
            )
            assert got == want

    def test_load_blocks_matches_per_bucket_loop(self, k) -> None:
        """The chunked sealing pass of ``load_blocks`` vs. one scalar
        seal + write per bucket: same trace (``W 2^k-1..num_buckets-1``),
        same bucket plaintexts, same position map, stash and treetop — then
        the loaded store keeps serving accesses in lockstep."""
        batched, reference, enclave_a, enclave_b = self._pair(k, seed=13)
        blocks = [(block, bytes([block]) * 9) for block in range(self.CAPACITY - 3)]
        before = len(enclave_a.trace)
        batched.load_blocks(blocks)
        reference.load_blocks(blocks)
        assert [(e.op, e.index) for e in enclave_a.trace.events[before:]] == [
            ("W", index)
            for index in range(len(batched._treetop), batched.num_buckets)
        ]
        for block, payload in blocks[::5]:
            assert batched.read(block) == reference.read(block) == payload
        assert_enclaves_match(enclave_a, enclave_b)
        self._assert_state_matches(batched, reference, enclave_a, enclave_b)

    def test_padding_burst_matches_loop(self, k) -> None:
        batched, reference, enclave_a, enclave_b = self._pair(k, seed=3)
        batched.dummy_accesses(7)
        for _ in range(7):
            reference.dummy_access()
        assert_enclaves_match(enclave_a, enclave_b)

    @pytest.mark.parametrize("levels", [None, 0, 1])
    def test_recursive_map_rides_batched_access(
        self, monkeypatch: pytest.MonkeyPatch, levels: int | None
    ) -> None:
        """The recursive position map is routed through the same batched
        access: production vs. per-bucket references for both levels."""
        import repro.oram.recursive as recursive

        enclave_a = Enclave(cipher="authenticated", keep_trace_events=True)
        batched = RecursivePathORAM(
            enclave_a, 16, block_size=12, rng=random.Random(5), treetop_levels=levels
        )
        enclave_b = Enclave(cipher="authenticated", keep_trace_events=True)
        monkeypatch.setattr(recursive, "PathORAM", ReferencePathORAM)
        reference = RecursivePathORAM(
            enclave_b, 16, block_size=12, rng=random.Random(5), treetop_levels=levels
        )
        rng = random.Random(11)
        for step in range(60):
            block = rng.randrange(16)
            if step % 3 == 0:
                payload = bytes([rng.randrange(256) for _ in range(6)])
                batched.write(block, payload)
                reference.write(block, payload)
            elif step % 3 == 1:
                assert batched.read(block) == reference.read(block)
            else:
                batched.dummy_access()
                reference.dummy_access()
        assert_enclaves_match(enclave_a, enclave_b)


class TestTreetopFilteredTraceLaw:
    """Same rng ⇒ a tree caching ``k`` levels returns the payloads, holds
    the position map and stash, and counts the ORAM accesses of the ``k = 0``
    tree, and its trace is the ``k = 0`` trace with every access to a bucket
    index ``< 2^k - 1`` deleted — at every entry point."""

    CAPACITY = 96  # 32 leaves, 6 levels
    LEVELS = 6

    def _run(self, k: int, drive) -> tuple[PathORAM, Enclave, object]:
        enclave = Enclave(cipher="null", keep_trace_events=True)
        oram = PathORAM(
            enclave,
            self.CAPACITY,
            block_size=16,
            rng=random.Random(41),
            treetop_levels=k,
        )
        assert oram.levels == self.LEVELS
        return oram, enclave, drive(oram)

    @staticmethod
    def _events(enclave: Enclave, first_index: int = 0) -> list:
        return [
            (e.op, e.region, e.index)
            for e in enclave.trace.events
            if e.index >= first_index
        ]

    def _assert_law(self, drive) -> None:
        paper, paper_enclave, paper_out = self._run(0, drive)
        for k in range(1, self.LEVELS):
            cached, enclave, out = self._run(k, drive)
            assert out == paper_out, k
            assert cached._position == paper._position, k
            assert cached._stash == paper._stash, k
            assert enclave.cost.oram_accesses == paper_enclave.cost.oram_accesses
            first_uncached = (1 << k) - 1
            events = self._events(enclave)
            assert events == self._events(paper_enclave, first_uncached), k
            assert all(index >= first_uncached for _, _, index in events)
            assert enclave.cost.block_ios == len(events)

    def test_init(self) -> None:
        self._assert_law(lambda oram: None)

    def test_real_dummy_and_rmw_accesses(self) -> None:
        self._assert_law(lambda oram: _oram_workout(oram, self.CAPACITY, 300))

    def test_padding_burst(self) -> None:
        self._assert_law(lambda oram: oram.dummy_accesses(9))

    def test_load_blocks_then_accesses(self) -> None:
        def drive(oram: PathORAM) -> list:
            oram.load_blocks([(block, bytes([block]) * 5) for block in range(0, 90, 2)])
            return [oram.read(block) for block in range(0, 90, 7)]

        self._assert_law(drive)

    def test_scan_buckets_and_resident_blocks_cover_every_block_once(self) -> None:
        """Whatever ``k``, the blocks the enclave holds plus the blocks a
        scan of the whole region finds are the same blocks, each once."""

        def drive(oram: PathORAM) -> list:
            _oram_workout(oram, self.CAPACITY, 200)
            scanned = [
                (block_id, payload)
                for entries in oram.scan_buckets(0, oram.num_buckets)
                for block_id, _, payload in entries
            ]
            blocks = sorted(scanned + list(oram.resident_blocks()))
            assert len({block_id for block_id, _ in blocks}) == len(blocks)
            return blocks

        self._assert_law(drive)

    def test_recursive_map(self) -> None:
        """Both inner trees cache ``k`` levels; each region's trace is its
        own ``k = 0`` trace filtered."""

        def run(k: int) -> tuple[Enclave, list]:
            enclave = Enclave(cipher="null", keep_trace_events=True)
            oram = RecursivePathORAM(
                enclave, 256, block_size=12, rng=random.Random(5), treetop_levels=k
            )
            rng = random.Random(11)
            out = []
            for step in range(90):
                block = rng.randrange(256)
                if step % 3 == 0:
                    oram.write(block, bytes([rng.randrange(256)] * 6))
                elif step % 3 == 1:
                    out.append(oram.read(block))
                else:
                    oram.dummy_access()
            return enclave, out

        paper_enclave, paper_out = run(0)
        for k in (1, 2):  # the map tree has 3 levels
            enclave, out = run(k)
            assert out == paper_out
            assert enclave.cost.oram_accesses == paper_enclave.cost.oram_accesses
            assert self._events(enclave) == self._events(paper_enclave, (1 << k) - 1)


# ---------------------------------------------------------------------------
# Cross-region interleaved exchange
# ---------------------------------------------------------------------------


class TestInterleavedExchangeEquivalence:
    """``exchange_interleaved`` must record the per-step loop's exact trace."""

    def _pair(self) -> tuple[Enclave, Enclave]:
        enclaves = []
        for _ in range(2):
            enclave = Enclave(cipher="authenticated", keep_trace_events=True)
            for name, capacity in (("a", 8), ("b", 8)):
                enclave.untrusted.allocate_region(name, capacity)
                for i in range(capacity):
                    enclave.untrusted.write(name, i, enclave.seal(bytes([i])))
            enclaves.append(enclave)
        return enclaves[0], enclaves[1]

    SCHEDULE = [
        ("R", "a", 0),
        ("W", "b", 3),
        ("R", "a", 5),
        ("R", "b", 1),
        ("W", "a", 2),
        ("W", "b", 0),
    ]

    def test_mixed_schedule_matches_per_step_loop(self) -> None:
        batched, reference = self._pair()
        replacements = [batched.seal(bytes([100 + i])) for i in range(3)]
        batched.untrusted.exchange_interleaved(
            self.SCHEDULE, lambda blocks: list(replacements)
        )
        # Reference: the per-step loop over scalar read/write.
        ref_blocks = [reference.seal(bytes([100 + i])) for i in range(3)]
        writes = iter(ref_blocks)
        for op, region, index in self.SCHEDULE:
            if op == "R":
                reference.untrusted.read(region, index)
            else:
                reference.untrusted.write(region, index, next(writes))
        assert_enclaves_match(batched, reference)
        # Scatter landed in schedule order across both regions.
        assert batched.untrusted.peek("b", 3) is replacements[0]
        assert batched.untrusted.peek("a", 2) is replacements[1]
        assert batched.untrusted.peek("b", 0) is replacements[2]

    def test_failed_compute_records_nothing(self) -> None:
        enclave, _ = self._pair()
        before_len = len(enclave.trace)
        before = [enclave.untrusted.peek("b", i) for i in range(8)]
        with pytest.raises(RuntimeError):
            enclave.untrusted.exchange_interleaved(
                self.SCHEDULE, lambda blocks: (_ for _ in ()).throw(RuntimeError())
            )
        assert len(enclave.trace) == before_len
        assert [enclave.untrusted.peek("b", i) for i in range(8)] == before

    def test_schedule_validation(self) -> None:
        from repro.enclave.errors import StorageError

        enclave, _ = self._pair()
        # Wrong replacement count.
        with pytest.raises(StorageError):
            enclave.untrusted.exchange_interleaved(
                self.SCHEDULE, lambda blocks: []
            )
        # Read of a slot the schedule already wrote: the gathered block
        # would be stale, so the primitive must refuse.
        with pytest.raises(StorageError):
            enclave.untrusted.exchange_interleaved(
                [("W", "a", 1), ("R", "a", 1)], lambda blocks: [None]
            )
        # Out of bounds and unknown op.
        with pytest.raises(StorageError):
            enclave.untrusted.exchange_interleaved(
                [("R", "a", 8)], lambda blocks: []
            )
        with pytest.raises(StorageError):
            enclave.untrusted.exchange_interleaved(
                [("X", "a", 0)], lambda blocks: []
            )

    def test_interleave_to_requires_shared_enclave(self) -> None:
        from repro.enclave.errors import StorageError

        table_a, _ = fresh_pair(4, ROWS[:2])
        table_b, _ = fresh_pair(4, ROWS[:2])
        with pytest.raises(StorageError):
            table_a.interleave_to(table_b, [(0, 0)], lambda offset, frames: frames)


# ---------------------------------------------------------------------------
# Operator paths riding the interleaved exchange
# ---------------------------------------------------------------------------

from repro.operators.aggregate import (  # noqa: E402
    AggregateFunction,
    AggregateSpec,
    _Accumulator,
    _group_output_schema,
    _sorted_group_aggregate,
)
from repro.operators.join import (  # noqa: E402
    _largest_dividing_chunk,
    _neutral_value,
    hash_join,
    joined_schema,
    opaque_join,
    zero_om_join,
)
from repro.operators.predicate import Comparison, TruePredicate  # noqa: E402
from repro.operators.sort import padded_scratch  # noqa: E402
from repro.storage.rows import frame_dummy, framed_size  # noqa: E402
from repro.storage.schema import Row, int_column as _int  # noqa: E402


T2_SCHEMA = Schema([int_column("fk"), str_column("w", 8)])
T1_ROWS = [(i, f"p{i}") for i in range(5)]  # primary side: unique keys
T2_ROWS = [(i % 4, f"f{i}") for i in range(7)]  # foreign side: repeats + misses


def fresh_join_tables(enclave: Enclave) -> tuple[FlatStorage, FlatStorage]:
    table1 = FlatStorage(enclave, SCHEMA, 8)
    for row in T1_ROWS:
        table1.fast_insert(row)
    table2 = FlatStorage(enclave, T2_SCHEMA, 8)
    for row in T2_ROWS:
        table2.fast_insert(row)
    return table1, table2


def reference_hash_join(
    table1: FlatStorage,
    table2: FlatStorage,
    column1: str,
    column2: str,
    oblivious_memory_bytes: int,
) -> FlatStorage:
    """The seed's hash join: per-row build reads, per-row probe R/W loop."""
    enclave = table1.enclave
    key1 = table1.schema.column_index(column1)
    key2 = table2.schema.column_index(column2)
    out_schema = joined_schema(table1.schema, table2.schema)
    row_bytes = framed_size(table1.schema) + 16
    chunk_rows = max(1, oblivious_memory_bytes // row_bytes)
    num_chunks = (table1.capacity + chunk_rows - 1) // chunk_rows
    output = FlatStorage(enclave, out_schema, num_chunks * table2.capacity)
    out_position = 0
    matched = 0
    with enclave.oblivious_buffer(min(chunk_rows, table1.capacity) * row_bytes):
        for chunk in range(num_chunks):
            start = chunk * chunk_rows
            stop = min(start + chunk_rows, table1.capacity)
            hash_table: dict = {}
            for index in range(start, stop):
                row = table1.read_row(index)
                if row is not None:
                    hash_table[row[key1]] = row
            for index in range(table2.capacity):
                row2 = table2.read_row(index)
                row1 = hash_table.get(row2[key2]) if row2 is not None else None
                if row1 is not None:
                    output.write_row(out_position, row1 + row2)
                    matched += 1
                else:
                    output.write_row(out_position, None)
                out_position += 1
    output._used = matched
    return output


def reference_union_scratch(
    table1: FlatStorage, table2: FlatStorage, column1: str, column2: str
) -> tuple[FlatStorage, Schema, int, int]:
    """The seed's per-row copy of both tables into the tagged scratch."""
    out_schema = joined_schema(table1.schema, table2.schema)
    scratch_schema = Schema([_int("_tag")] + list(out_schema.columns))
    capacity = padded_scratch(table1.capacity + table2.capacity)
    scratch = FlatStorage(table1.enclave, scratch_schema, capacity)
    left_width = len(table1.schema)
    right_neutral = tuple(_neutral_value(c) for c in out_schema.columns[left_width:])
    left_neutral = tuple(_neutral_value(c) for c in out_schema.columns[:left_width])
    position = 0
    for index in range(table1.capacity):
        row = table1.read_row(index)
        scratch.write_row(
            position, (0,) + row + right_neutral if row is not None else None
        )
        position += 1
    for index in range(table2.capacity):
        row = table2.read_row(index)
        scratch.write_row(
            position, (1,) + left_neutral + row if row is not None else None
        )
        position += 1
    key1_index = 1 + table1.schema.column_index(column1)
    key2_index = 1 + left_width + table2.schema.column_index(column2)
    return scratch, out_schema, key1_index, key2_index


def reference_merge_scan(
    scratch: FlatStorage,
    out_schema: Schema,
    key1_index: int,
    key2_index: int,
    left_width: int,
) -> FlatStorage:
    """The seed's per-row merge: R scratch[i], W output[i] per row."""
    output = FlatStorage(scratch.enclave, out_schema, scratch.capacity)
    current_primary: Row | None = None
    matched = 0
    for index in range(scratch.capacity):
        row = scratch.read_row(index)
        emit: Row | None = None
        if row is not None:
            if row[0] == 0:
                current_primary = row[1 : 1 + left_width]
            elif (
                current_primary is not None
                and row[key2_index] == current_primary[key1_index - 1]
            ):
                emit = current_primary + row[1 + left_width :]
                matched += 1
        output.write_row(index, emit)
    output._used = matched
    return output


def reference_sort_merge_join(
    table1: FlatStorage,
    table2: FlatStorage,
    column1: str,
    column2: str,
    oblivious_memory_bytes: int | None,
    enclave_rows: int = 1,
) -> FlatStorage:
    """Per-row union + per-row merge around the production (already
    trace-equivalence-tested) sorters: Opaque style when
    ``oblivious_memory_bytes`` is given, 0-OM bitonic otherwise."""
    scratch, out_schema, key1_index, key2_index = reference_union_scratch(
        table1, table2, column1, column2
    )
    left_width = len(table1.schema)
    key_column1 = scratch.schema.columns[key1_index]

    def sort_key(row: Row) -> tuple:
        key = row[key1_index] if row[0] == 0 else row[key2_index]
        return (key_column1.sort_key(key), row[0])

    if oblivious_memory_bytes is not None:
        row_bytes = framed_size(scratch.schema)
        chunk_rows = max(1, oblivious_memory_bytes // (2 * row_bytes))
        chunk_rows = _largest_dividing_chunk(scratch.capacity, chunk_rows)
        external_oblivious_sort(scratch, sort_key, chunk_rows)
    else:
        bitonic_sort(scratch, sort_key, enclave_rows=enclave_rows)
    output = reference_merge_scan(
        scratch, out_schema, key1_index, key2_index, left_width
    )
    scratch.free()
    return output


class TestJoinPathEquivalence:
    """Batched probe/union/merge vs the seed's per-row two-region loops."""

    OM_SINGLE = 1 << 20  # build side fits: one chunk, one probe pass
    OM_MULTI = 80  # ~2 rows per chunk: multi-pass probe

    def _enclaves(self) -> tuple[Enclave, Enclave]:
        return (
            Enclave(cipher="authenticated", keep_trace_events=True),
            Enclave(cipher="authenticated", keep_trace_events=True),
        )

    @pytest.mark.parametrize("om_bytes", [OM_SINGLE, OM_MULTI])
    def test_hash_join_probe(self, om_bytes: int) -> None:
        enclave_a, enclave_b = self._enclaves()
        t1a, t2a = fresh_join_tables(enclave_a)
        t1b, t2b = fresh_join_tables(enclave_b)
        batched = hash_join(t1a, t2a, "k", "fk", om_bytes)
        reference = reference_hash_join(t1b, t2b, "k", "fk", om_bytes)
        assert_enclaves_match(enclave_a, enclave_b)
        assert sorted(batched.rows()) == sorted(reference.rows())
        assert batched._used == reference._used

    def test_hash_join_trace_is_data_independent(self) -> None:
        """All-match and no-match probes must leave identical traces."""
        enclave_a, enclave_b = self._enclaves()
        t1a, t2a = fresh_join_tables(enclave_a)
        t1b = FlatStorage(enclave_b, SCHEMA, 8)
        for i, (_, v) in enumerate(T1_ROWS):
            t1b.fast_insert((100 + i, v))  # keys that never match
        t2b = FlatStorage(enclave_b, T2_SCHEMA, 8)
        for row in T2_ROWS:
            t2b.fast_insert(row)
        hash_join(t1a, t2a, "k", "fk", self.OM_SINGLE)
        hash_join(t1b, t2b, "k", "fk", self.OM_SINGLE)
        assert enclave_a.trace.matches(enclave_b.trace)

    def test_opaque_join_union_and_merge(self) -> None:
        enclave_a, enclave_b = self._enclaves()
        t1a, t2a = fresh_join_tables(enclave_a)
        t1b, t2b = fresh_join_tables(enclave_b)
        batched = opaque_join(t1a, t2a, "k", "fk", 1 << 16)
        reference = reference_sort_merge_join(t1b, t2b, "k", "fk", 1 << 16)
        assert_enclaves_match(enclave_a, enclave_b)
        assert batched.rows() == reference.rows()
        assert batched._used == reference._used

    def test_zero_om_join_union_and_merge(self) -> None:
        enclave_a, enclave_b = self._enclaves()
        t1a, t2a = fresh_join_tables(enclave_a)
        t1b, t2b = fresh_join_tables(enclave_b)
        batched = zero_om_join(t1a, t2a, "k", "fk", enclave_rows=4)
        reference = reference_sort_merge_join(
            t1b, t2b, "k", "fk", None, enclave_rows=4
        )
        assert_enclaves_match(enclave_a, enclave_b)
        assert batched.rows() == reference.rows()

    def test_chunked_join_paths(self, monkeypatch: pytest.MonkeyPatch) -> None:
        """Tiny chunks force every pass across chunk boundaries; the merge
        scan's last-seen-primary state must carry between chunks."""
        import repro.storage.flat as flat

        monkeypatch.setattr(flat, "_CHUNK_BLOCKS", 3)
        enclave_a, enclave_b = self._enclaves()
        t1a, t2a = fresh_join_tables(enclave_a)
        t1b, t2b = fresh_join_tables(enclave_b)
        batched = opaque_join(t1a, t2a, "k", "fk", 1 << 16)
        reference = reference_sort_merge_join(t1b, t2b, "k", "fk", 1 << 16)
        assert_enclaves_match(enclave_a, enclave_b)
        assert batched.rows() == reference.rows()

        enclave_c, enclave_d = self._enclaves()
        t1c, t2c = fresh_join_tables(enclave_c)
        t1d, t2d = fresh_join_tables(enclave_d)
        batched = hash_join(t1c, t2c, "k", "fk", self.OM_SINGLE)
        reference = reference_hash_join(t1d, t2d, "k", "fk", self.OM_SINGLE)
        assert_enclaves_match(enclave_c, enclave_d)
        assert sorted(batched.rows()) == sorted(reference.rows())


def reference_sorted_group_aggregate(
    table: FlatStorage, group_column: str, specs, predicate
) -> FlatStorage:
    """The seed's sort-based grouped aggregation: per-row filter-copy front
    (R table[i], W scratch[i] per row) around the production sorter and the
    unchanged merge-emit loop."""
    enclave = table.enclave
    schema = table.schema
    matches = (predicate or TruePredicate()).compile(schema)
    group_index = schema.column_index(group_column)
    columns = [
        schema.column_index(spec.column) if spec.column is not None else None
        for spec in specs
    ]
    scratch = FlatStorage(enclave, schema, padded_scratch(max(1, table.capacity)))
    dummy = frame_dummy(schema)
    for index in range(table.capacity):
        framed = table.read_framed(index)
        row = unframe_row(schema, framed)
        keep = row is not None and matches(row)
        scratch.write_framed(index, framed if keep else dummy)
    sort_column = schema.column(group_column)

    def sort_key(row: Row) -> tuple:
        return (sort_column.sort_key(row[group_index]),)

    row_bytes = schema.row_size + 1
    chunk_rows = enclave.oblivious.free_bytes // (2 * row_bytes)
    if chunk_rows >= 2 and scratch.capacity >= 2:
        chunk = 1
        while chunk * 2 <= chunk_rows and chunk * 2 <= scratch.capacity:
            chunk *= 2
        external_oblivious_sort(scratch, sort_key, chunk)
    else:
        bitonic_sort(scratch, sort_key)

    out_schema = _group_output_schema(schema, group_column, specs)
    output = FlatStorage(enclave, out_schema, scratch.capacity + 1)
    open_key = None
    accumulators: list[_Accumulator] = []
    emitted = 0

    def completed_row() -> tuple:
        return (open_key,) + tuple(
            float(accumulator.result()) for accumulator in accumulators
        )

    for index in range(scratch.capacity):
        row = scratch.read_row(index)
        group_ended = open_key is not None and (
            row is None or row[group_index] != open_key
        )
        if group_ended:
            output.write_row(index, completed_row())
            emitted += 1
            open_key = None
        else:
            output.write_row(index, None)
        if row is not None:
            if open_key is None:
                open_key = row[group_index]
                accumulators = [_Accumulator(spec) for spec in specs]
            for accumulator, column in zip(accumulators, columns):
                accumulator.add(row[column] if column is not None else None)
    if open_key is not None:
        output.write_row(scratch.capacity, completed_row())
        emitted += 1
    else:
        output.write_row(scratch.capacity, None)
    output._used = emitted
    scratch.free()
    return output


class TestAggregateFilterCopyEquivalence:
    """Batched filter-copy front of the sorted GROUP BY fallback vs the
    seed's per-row R-table/W-scratch loop."""

    SPECS = [
        AggregateSpec(AggregateFunction.COUNT),
        AggregateSpec(AggregateFunction.SUM, "k"),
    ]

    def _tables(self) -> tuple[FlatStorage, FlatStorage]:
        batched, reference = fresh_pair(8, ROWS)
        return batched, reference

    @pytest.mark.parametrize(
        "predicate", [None, Comparison("k", ">=", 2)], ids=["unfiltered", "filtered"]
    )
    def test_filter_copy_front(self, predicate) -> None:
        batched, reference = self._tables()
        got = _sorted_group_aggregate(batched, "k", self.SPECS, predicate)
        want = reference_sorted_group_aggregate(
            reference, "k", self.SPECS, predicate
        )
        assert_traces_match(batched, reference)
        assert sorted(got.rows()) == sorted(want.rows())

    def test_filter_copy_trace_is_data_independent(self) -> None:
        none_match, all_match = self._tables()
        _sorted_group_aggregate(
            none_match, "k", self.SPECS, Comparison("k", ">", 10**6)
        )
        _sorted_group_aggregate(
            all_match, "k", self.SPECS, Comparison("k", ">=", 0)
        )
        assert none_match.enclave.trace.matches(all_match.enclave.trace)

    def test_chunked_filter_copy(self, monkeypatch: pytest.MonkeyPatch) -> None:
        import repro.storage.flat as flat

        monkeypatch.setattr(flat, "_CHUNK_BLOCKS", 3)
        batched, reference = self._tables()
        got = _sorted_group_aggregate(batched, "k", self.SPECS, None)
        want = reference_sorted_group_aggregate(reference, "k", self.SPECS, None)
        assert_traces_match(batched, reference)
        assert sorted(got.rows()) == sorted(want.rows())


class TestCopyToEquivalence:
    """Batched ``copy_to`` vs the per-row loop, across chunk boundaries."""

    def test_chunked_copy_to(self, monkeypatch: pytest.MonkeyPatch) -> None:
        import repro.storage.flat as flat

        monkeypatch.setattr(flat, "_CHUNK_BLOCKS", 3)
        batched, reference = fresh_pair(8, ROWS)
        copied = batched.copy_to(capacity=16)
        target = FlatStorage(reference.enclave, SCHEMA, 16, ledger=reference._ledger)
        for index in range(reference.capacity):
            target.write_framed(index, reference.read_framed(index))
        assert_traces_match(batched, reference)
        assert copied.rows() == target.rows()
        assert copied.used_rows == reference.used_rows


class TestRingORAMEquivalence:
    """Batched slot pipeline vs. the seed's per-slot loops, covering online
    reads, scheduled evictions, and early reshuffles."""

    CAPACITY = 24

    def _pair(
        self, seed: int = 7, **kwargs
    ) -> tuple[RingORAM, RingORAM, Enclave, Enclave]:
        enclave_a = Enclave(cipher="authenticated", keep_trace_events=True)
        enclave_b = Enclave(cipher="authenticated", keep_trace_events=True)
        batched = RingORAM(
            enclave_a, self.CAPACITY, block_size=16, rng=random.Random(seed), **kwargs
        )
        reference = ReferenceRingORAM(
            enclave_b, self.CAPACITY, block_size=16, rng=random.Random(seed), **kwargs
        )
        return batched, reference, enclave_a, enclave_b

    def test_init_trace_matches_per_slot_loop(self) -> None:
        _, _, enclave_a, enclave_b = self._pair()
        assert_enclaves_match(enclave_a, enclave_b)

    def test_reads_writes_dummies_with_evictions(self) -> None:
        batched, reference, enclave_a, enclave_b = self._pair()
        rng = random.Random(13)
        for step in range(300):
            block = rng.randrange(self.CAPACITY)
            kind = step % 3
            if kind == 0:
                payload = bytes([rng.randrange(256) for _ in range(8)])
                batched.write(block, payload)
                reference.write(block, payload)
            elif kind == 1:
                assert batched.read(block) == reference.read(block)
            else:
                batched.dummy_access()
                reference.dummy_access()
        assert_enclaves_match(enclave_a, enclave_b)
        assert batched._position == reference._position
        assert batched._stash == reference._stash
        for meta_a, meta_b in zip(batched._meta, reference._meta):
            assert meta_a.slots == meta_b.slots
            assert meta_a.valid == meta_b.valid
            assert meta_a.reads_since_shuffle == meta_b.reads_since_shuffle

    def test_early_reshuffles_match(self) -> None:
        """A tiny dummy budget (s=2) forces early reshuffles constantly."""
        batched, reference, enclave_a, enclave_b = self._pair(
            seed=21, s=2, eviction_rate=7
        )
        rng = random.Random(17)
        for _ in range(150):
            block = rng.randrange(self.CAPACITY)
            if rng.random() < 0.5:
                payload = bytes([rng.randrange(256) for _ in range(4)])
                batched.write(block, payload)
                reference.write(block, payload)
            else:
                assert batched.read(block) == reference.read(block)
        assert_enclaves_match(enclave_a, enclave_b)


# ---------------------------------------------------------------------------
# Oblivious shuffle & compaction subsystem (repro.oblivious)
# ---------------------------------------------------------------------------

from repro.enclave.integrity import RevisionLedger  # noqa: E402
from repro.oblivious.compact import oblivious_compact  # noqa: E402
from repro.oblivious.shuffle import (  # noqa: E402
    _ENTRY_HEADER,
    oblivious_shuffle,
    plan_shuffle,
    shuffle_geometry,
)


def reference_shuffle(table: FlatStorage, rng: random.Random) -> FlatStorage:
    """The per-row bucket shuffle: same planning (same rng draws, same
    permutation) as production, but every observable access is a scalar
    read/write with scalar seal/open — one trace event per call."""
    enclave = table.enclave
    geometry = shuffle_geometry(table.capacity)
    perm, cells = plan_shuffle(geometry, rng)
    frame_bytes = framed_size(table.schema)
    filler = _ENTRY_HEADER.pack(-1) + b"\x00" * frame_bytes

    scratch_region = enclave.fresh_region_name("shuffle")
    enclave.untrusted.allocate_region(scratch_region, geometry.scratch_capacity)
    ledger = RevisionLedger()

    # Pass 1: scalar read per input slot, scalar sealed write per cell slot.
    for chunk in range(geometry.chunks):
        start = chunk * geometry.chunk_rows
        count = min(geometry.chunk_rows, geometry.n - start)
        frames = [table.read_framed(start + i) for i in range(count)]
        entries: list[bytes] = []
        for bucket in range(geometry.buckets):
            cell = cells[chunk][bucket]
            entries.extend(
                _ENTRY_HEADER.pack(perm[index]) + frames[index - start]
                for index in cell
            )
            entries.extend([filler] * (geometry.cell_slots - len(cell)))
        for slot, entry in zip(geometry.distribute_indices(chunk), entries):
            revision = ledger.next_revision(scratch_region, slot)
            aad = ledger.associated_data(scratch_region, slot, revision)
            enclave.untrusted.write(scratch_region, slot, enclave.seal(entry, aad))
            ledger.commit(scratch_region, slot, revision)

    # Pass 2: scalar read per bucket slot, scalar write per output slot.
    output = FlatStorage(enclave, table.schema, geometry.n)
    for bucket in range(geometry.buckets):
        base = bucket * geometry.bucket_slots
        entries_out = []
        for offset in range(geometry.bucket_slots):
            sealed = enclave.untrusted.read(scratch_region, base + offset)
            aad = ledger.associated_data(
                scratch_region,
                base + offset,
                ledger.current(scratch_region, base + offset),
            )
            plaintext = enclave.open(sealed, aad)
            (target,) = _ENTRY_HEADER.unpack_from(plaintext, 0)
            if target >= 0:
                entries_out.append((target, plaintext[_ENTRY_HEADER.size :]))
        entries_out.sort(key=lambda entry: entry[0])
        seg_start, _ = geometry.segment(bucket)
        for offset, (_, framed) in enumerate(entries_out):
            output.write_framed(seg_start + offset, framed)

    enclave.untrusted.free_region(scratch_region)
    ledger.forget_region(scratch_region)
    output._used = table.used_rows
    output._next_fast_insert = output.capacity
    return output


def reference_compact(table: FlatStorage, keep=None) -> int:
    """The per-block compaction: scalar marking scan, then per level one
    scalar read of i, one of i+D, one write of i — the loops the batched
    schedule pass replaces."""
    n = table.capacity
    schema = table.schema
    flags = []
    for index in range(n):
        framed = table.read_framed(index)
        if keep is None:
            flags.append(not is_dummy(framed))
        else:
            row = unframe_row(schema, framed)
            flags.append(row is not None and keep(row))
    kept = sum(flags)

    shifts = [0] * n
    occupied = [False] * n
    rank = 0
    for index, flag in enumerate(flags):
        if flag:
            shifts[index] = index - rank
            occupied[index] = True
            rank += 1

    from repro.storage.rows import frame_dummy as _dummy_frame

    dummy = _dummy_frame(schema)
    distance = 1
    while distance < n:
        for index in range(n):
            low = table.read_framed(index)
            high = None
            partner = index + distance
            if partner < n:
                high = table.read_framed(partner)
            if partner < n and occupied[partner] and shifts[partner] & distance:
                table.write_framed(index, high)
            elif occupied[index] and not (shifts[index] & distance):
                table.write_framed(index, low)
            else:
                table.write_framed(index, dummy)
        new_shifts = [0] * n
        new_occupied = [False] * n
        for index in range(n):
            if occupied[index] and not (shifts[index] & distance):
                new_shifts[index] = shifts[index]
                new_occupied[index] = True
            partner = index + distance
            if partner < n and occupied[partner] and shifts[partner] & distance:
                new_shifts[index] = shifts[partner] - distance
                new_occupied[index] = True
        shifts, occupied = new_shifts, new_occupied
        distance *= 2

    table._used = kept
    return kept


class TestShuffleEquivalence:
    """Batched bucket shuffle vs the per-row reference, plus the
    data-independence guarantee (trace a pure function of n)."""

    ROWS17 = [(i * 11 % 23, f"s{i}") for i in range(17)]

    def test_trace_payloads_and_permutation_match(self) -> None:
        batched, reference = fresh_pair(24, self.ROWS17)
        out_a = oblivious_shuffle(batched, random.Random(42))
        out_b = reference_shuffle(reference, random.Random(42))
        assert_traces_match(batched, reference)
        got = [
            unframe_row(SCHEMA, framed) for _, framed in out_a.scan_framed()
        ]
        want = [
            unframe_row(SCHEMA, framed) for _, framed in out_b.scan_framed()
        ]
        assert got == want  # same secret permutation applied
        assert sorted(out_a.rows()) == sorted(batched.rows())
        assert out_a.used_rows == batched.used_rows

    def test_trace_is_data_and_permutation_independent(self) -> None:
        """Different plaintexts AND different permutations: same trace."""
        a, _ = fresh_pair(24, self.ROWS17)
        b, _ = fresh_pair(24, [(9, "z")] * 3)
        a.enclave.trace.clear()
        b.enclave.trace.clear()
        oblivious_shuffle(a, random.Random(1))
        oblivious_shuffle(b, random.Random(2))
        assert a.enclave.trace.matches(b.enclave.trace)

    def test_chunked_shuffle(self, monkeypatch: pytest.MonkeyPatch) -> None:
        import repro.storage.flat as flat

        monkeypatch.setattr(flat, "_CHUNK_BLOCKS", 3)
        batched, reference = fresh_pair(24, self.ROWS17)
        out_a = oblivious_shuffle(batched, random.Random(5))
        out_b = reference_shuffle(reference, random.Random(5))
        assert_traces_match(batched, reference)
        assert out_a.rows() == out_b.rows()


class TestCompactEquivalence:
    """Batched compaction network vs the per-block reference loops."""

    SCATTERED = [(i, f"c{i}") for i in range(11)]

    def _pair_with_holes(self) -> tuple[FlatStorage, FlatStorage]:
        batched, reference = fresh_pair(16, [])
        for t in (batched, reference):
            for i, row in zip((0, 2, 3, 7, 8, 9, 13, 15), self.SCATTERED):
                t.write_row(i, row)
                t._used += 1
        return batched, reference

    def test_trace_result_and_order_match(self) -> None:
        batched, reference = self._pair_with_holes()
        kept_a = oblivious_compact(batched)
        kept_b = reference_compact(reference)
        assert kept_a == kept_b == 8
        assert_traces_match(batched, reference)
        rows_a = [batched.read_row(i) for i in range(batched.capacity)]
        rows_b = [reference.read_row(i) for i in range(reference.capacity)]
        assert rows_a == rows_b
        # Order-preserving: the keepers appear in input order, then dummies.
        assert rows_a[:8] == list(self.SCATTERED[:8])
        assert all(row is None for row in rows_a[8:])

    def test_filter_compact_with_predicate(self) -> None:
        batched, reference = self._pair_with_holes()
        keep = lambda row: row[0] % 2 == 0  # noqa: E731
        kept_a = oblivious_compact(batched, keep=keep)
        kept_b = reference_compact(reference, keep=keep)
        assert kept_a == kept_b
        assert_traces_match(batched, reference)
        assert batched.rows() == reference.rows()

    def test_trace_is_selectivity_independent(self) -> None:
        """Zero keepers and all keepers: identical traces."""
        none_keep, all_keep = fresh_pair(16, [(i, "x") for i in range(12)])
        oblivious_compact(none_keep, keep=lambda row: False)
        oblivious_compact(all_keep, keep=lambda row: True)
        assert none_keep.enclave.trace.matches(all_keep.enclave.trace)

    def test_chunked_compact(self, monkeypatch: pytest.MonkeyPatch) -> None:
        """Chunks split the R/R/W step groups mid-group; the carried state
        must keep the result and trace identical."""
        import repro.storage.flat as flat

        monkeypatch.setattr(flat, "_CHUNK_BLOCKS", 3)
        batched, reference = self._pair_with_holes()
        assert oblivious_compact(batched) == reference_compact(reference)
        assert_traces_match(batched, reference)
        assert [batched.read_row(i) for i in range(16)] == [
            reference.read_row(i) for i in range(16)
        ]


class TestFramedGatherScatterEquivalence:
    """read_at_framed / write_at_framed / exchange_schedule_framed must
    record their per-slot loops' exact traces."""

    def test_read_write_at_framed(self) -> None:
        batched, reference = fresh_pair(16, [(i, "x") for i in range(10)])
        indices = [0, 7, 3, 12]
        frames = [frame_row_validated(SCHEMA, (90 + i, "w")) for i in range(4)]
        got = batched.read_at_framed(indices)
        batched.write_at_framed(indices, frames)
        want = [reference.read_framed(i) for i in indices]
        for i, framed in zip(indices, frames):
            reference.write_framed(i, framed)
        assert [is_dummy(f) for f in got] == [is_dummy(f) for f in want]
        assert_traces_match(batched, reference)
        assert batched.rows() == reference.rows()

    def test_chunked_write_at_framed(self, monkeypatch: pytest.MonkeyPatch) -> None:
        import repro.storage.flat as flat

        monkeypatch.setattr(flat, "_CHUNK_BLOCKS", 3)
        batched, reference = fresh_pair(16, [(i, "x") for i in range(10)])
        indices = [1, 5, 9, 0, 14, 2, 11]
        frames = [frame_row_validated(SCHEMA, (50 + i, "y")) for i in range(7)]
        batched.write_at_framed(indices, frames)
        for i, framed in zip(indices, frames):
            reference.write_framed(i, framed)
        assert_traces_match(batched, reference)
        assert batched.rows() == reference.rows()

    def test_schedule_pass_matches_scalar_loop(self) -> None:
        batched, reference = fresh_pair(8, ROWS)
        schedule = [
            ("R", 0), ("R", 3), ("W", 0),
            ("R", 1), ("R", 4), ("W", 1),
            ("R", 2), ("W", 2),
        ]
        swap = frame_row_validated(SCHEMA, (77, "sw"))

        def transform(steps, frames):
            return [swap] * sum(1 for op, _ in steps if op == "W")

        batched.exchange_schedule_framed(schedule, transform)
        for op, index in schedule:
            if op == "R":
                reference.read_framed(index)
            else:
                reference.write_framed(index, swap)
        assert_traces_match(batched, reference)
        assert batched.rows() == reference.rows()

    def test_schedule_rejects_read_after_write_across_chunks(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        from repro.enclave.errors import StorageError

        import repro.storage.flat as flat

        monkeypatch.setattr(flat, "_CHUNK_BLOCKS", 2)
        table, _ = fresh_pair(8, ROWS)
        schedule = [("W", 0), ("W", 1), ("R", 0), ("W", 2)]
        dummy = frame_dummy(SCHEMA)
        with pytest.raises(StorageError, match="stale"):
            table.exchange_schedule_framed(
                schedule,
                lambda steps, frames: [dummy]
                * sum(1 for op, _ in steps if op == "W"),
            )
