"""Shard trace composition: canonical order, data independence, ledgers.

The security contract of the shard subsystem is that the *composed*
observable trace of a sharded pipeline is a pure function of public sizes
— independent of row contents and permutation seeds.  These tests pin
that contract: per-shard recordings compose round-robin by epoch, and the
sharded scan / shuffle / compact trace is equal across tables of the same
shape and to the same operators run shard after shard.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.enclave.counters import CostModel
from repro.enclave.enclave import Enclave
from repro.enclave.errors import StorageError
from repro.enclave.integrity import RevisionLedger
from repro.enclave.trace import AccessTrace
from repro.oblivious.compact import oblivious_compact
from repro.oblivious.shuffle import oblivious_shuffle
from repro.shard import ShardedTable, ShardSpec, ShardTraceRecorder, compose
from repro.storage.schema import Schema, int_column, str_column

ROOT = b"\x2a" * 32
SCHEMA = Schema([int_column("key"), str_column("value", 12)])
ROWS = [(i * 13 % 257, f"r{i}") for i in range(180)]


# ----------------------------------------------------------------------
# compose() unit behaviour
# ----------------------------------------------------------------------
def test_compose_round_robin_by_epoch():
    a = ShardTraceRecorder(0)
    b = ShardTraceRecorder(1)
    a.record_range("R", "s0", 0, 2)
    a.end_epoch()
    a.record_range("W", "s0", 0, 2)
    b.record_range("R", "s1", 0, 3)
    b.end_epoch()
    b.record_range("W", "s1", 0, 3)

    composed = AccessTrace()
    compose(composed, [a, b])

    # Epoch 0 of every shard, then epoch 1 of every shard.
    reference = AccessTrace()
    reference.record_range("R", "s0", 0, 2)
    reference.record_range("R", "s1", 0, 3)
    reference.record_range("W", "s0", 0, 2)
    reference.record_range("W", "s1", 0, 3)
    assert composed.matches(reference)


def test_compose_uneven_epoch_depths():
    a = ShardTraceRecorder(0)
    b = ShardTraceRecorder(1)
    a.record("R", "s0", 0)
    a.end_epoch()
    a.record("R", "s0", 1)
    b.record("R", "s1", 0)  # single epoch: contributes nothing later

    composed = AccessTrace()
    compose(composed, [a, b])
    reference = AccessTrace()
    for op, region, index in (("R", "s0", 0), ("R", "s1", 0), ("R", "s0", 1)):
        reference.record(op, region, index)
    assert composed.matches(reference)


def test_compose_absorbs_costs():
    # The memory layer feeds each recorder's CostModel while the region is
    # attached; compose() adds those per-shard counters into the target.
    recorders = []
    for i in range(3):
        rec = ShardTraceRecorder(i)
        rec.cost.record_read(5 * (i + 1))
        rec.cost.record_write(2)
        recorders.append(rec)
    total = CostModel()
    compose(AccessTrace(), recorders, cost=total)
    assert total.untrusted_reads == 5 + 10 + 15
    assert total.untrusted_writes == 6


def test_compose_deterministic():
    def build():
        rec = ShardTraceRecorder(0)
        rec.record_rw_range("s0", 0, 4)
        rec.record_pair_exchanges("s0", 0, 2)
        rec.record_at("R", "s0", [3, 1, 2])
        trace = AccessTrace()
        compose(trace, [rec])
        return trace

    assert build().matches(build())


def test_replay_segment_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown trace segment"):
        AccessTrace().replay_segment(("record_bogus", "R", "s0", 0))


# ----------------------------------------------------------------------
# Region recorder attach/detach discipline
# ----------------------------------------------------------------------
def test_region_recorder_attach_detach_errors():
    enclave = Enclave(cipher="null", keep_trace_events=False)
    trace, cost = AccessTrace(keep_events=False), CostModel()
    enclave.untrusted.attach_region_recorder("r", trace, cost)
    with pytest.raises(StorageError, match="already has a recorder"):
        enclave.untrusted.attach_region_recorder("r", trace, cost)
    enclave.untrusted.detach_region_recorder("r")
    with pytest.raises(StorageError, match="has no recorder"):
        enclave.untrusted.detach_region_recorder("r")


# ----------------------------------------------------------------------
# The sharded pipelines' composed trace
# ----------------------------------------------------------------------
def run_pipeline(rows, seed):
    """Scan + shuffle + compact on a 4-shard table; the adversary's view."""
    enclave = Enclave(cipher="authenticated", key=ROOT, keep_trace_events=False)
    table = ShardedTable(enclave, "t", SCHEMA, ShardSpec("hash", 4, "key"), rows)
    scanned = table.scan_rows()
    table.shuffle(rng=random.Random(seed))
    table.compact()
    assert Counter(table.scan_rows()) == Counter(rows) == Counter(scanned)
    return enclave.trace.digest(), len(enclave.trace), enclave.cost.snapshot()


def test_pipeline_trace_independent_of_contents_and_seeds():
    """Same keys (hence the same public shard shape), different payloads and
    permutation seeds: the composed trace and cost counters are equal."""
    other = [(key, value[::-1]) for key, value in ROWS]
    assert run_pipeline(ROWS, 0xC0FFEE) == run_pipeline(other, 7)


@pytest.mark.parametrize(
    "spec",
    [
        ShardSpec("hash", 1, "key"),
        ShardSpec("hash", 2, "key"),
        ShardSpec("hash", 3, "key"),
        ShardSpec("range", 3, "key", (80, 160)),
    ],
    ids=["hash-1", "hash-2", "hash-3", "range-3"],
)
def test_pipeline_trace_is_a_function_of_shard_shape(spec):
    """For any partitioner: the same keys in another order, with other
    payloads and another permutation seed, compose the same trace."""

    def run(rows, seed):
        enclave = Enclave(cipher="authenticated", key=ROOT, keep_trace_events=False)
        table = ShardedTable(enclave, "t", SCHEMA, spec, rows)
        table.scan_rows()
        table.shuffle(rng=random.Random(seed))
        assert table.compact() == len(rows)
        assert Counter(table.scan_rows()) == Counter(rows)
        return enclave.trace.digest(), len(enclave.trace), enclave.cost.snapshot()

    other = [(key, f"o{n}") for n, (key, _) in enumerate(reversed(ROWS))]
    assert run(ROWS, 1) == run(other, 2)


def _step(table, step):
    if step == "scan":
        table.scan_rows()
    elif step == "shuffle":
        table.shuffle(rng=random.Random(3))
    else:
        table.compact()


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("step", ["scan", "shuffle", "compact"])
def test_pipeline_step_trace_equals_composition_of_its_recorders(step, shards):
    """Each pipeline adds exactly compose() over its per-shard recorders to
    the enclave's trace and cost counters — nothing recorded outside them."""
    enclave = Enclave(cipher="authenticated", key=ROOT, keep_trace_events=True)
    table = ShardedTable(enclave, "t", SCHEMA, ShardSpec("hash", shards, "key"), ROWS)
    before_events = len(enclave.trace.events)
    before_cost = enclave.cost.snapshot()
    _step(table, step)
    assert len(table.last_recorders) == shards

    rebuilt, cost = AccessTrace(), CostModel()
    compose(rebuilt, table.last_recorders, cost)
    assert enclave.trace.events[before_events:] == rebuilt.events
    delta = enclave.cost.delta_since(before_cost)
    assert delta.untrusted_reads == cost.untrusted_reads
    assert delta.untrusted_writes == cost.untrusted_writes


def _fresh_table(shards=3):
    enclave = Enclave(cipher="authenticated", key=ROOT, keep_trace_events=False)
    table = ShardedTable(enclave, "t", SCHEMA, ShardSpec("hash", shards, "key"), ROWS)
    return enclave, table


def test_shuffle_trace_bit_identical_to_sequential_per_shard_shuffles():
    """Twin construction: the per-bucket clean-up order of one
    ``oblivious_shuffle`` per shard, run back to back on an identical
    table with the same seeds and region names, is the digest the sharded
    shuffle composes to."""
    enclave, table = _fresh_table()
    table.shuffle(rng=random.Random(11))
    sharded = enclave.trace.digest(), len(enclave.trace)

    enclave, table = _fresh_table()
    rng = random.Random(11)
    seeds = [random.Random(rng.getrandbits(64)) for _ in range(table.shards)]
    for index in range(table.shards):
        flat = table.shard(index)
        out_region = f"table:t:shard{index}:g1"
        oblivious_shuffle(
            flat,
            rng=seeds[index],
            name=out_region,
            scratch_name=flat.region_name + ":shufscratch",
            cipher_label=out_region,
        )
        flat.free()
    assert sharded == (enclave.trace.digest(), len(enclave.trace))


def test_compact_trace_bit_identical_to_sequential_per_shard_compactions():
    enclave, table = _fresh_table()
    assert table.compact() == len(ROWS)
    sharded = enclave.trace.digest(), len(enclave.trace)

    enclave, table = _fresh_table()
    kept = sum(oblivious_compact(table.shard(i)) for i in range(table.shards))
    assert kept == len(ROWS)
    assert sharded == (enclave.trace.digest(), len(enclave.trace))


def test_scan_trace_matches_manual_composition():
    """A sharded scan's composed trace equals compose() over its recorders."""
    enclave = Enclave(cipher="authenticated", key=ROOT, keep_trace_events=False)
    table = ShardedTable(enclave, "t", SCHEMA, ShardSpec("hash", 3, "key"), ROWS)
    before = len(enclave.trace)
    table.scan_rows()
    scan_len = len(enclave.trace) - before

    rebuilt = AccessTrace(keep_events=False)
    compose(rebuilt, table.last_recorders)
    assert len(rebuilt) == scan_len
    # And composing twice is stable.
    again = AccessTrace(keep_events=False)
    compose(again, table.last_recorders)
    assert rebuilt.matches(again)


# ----------------------------------------------------------------------
# Region-scoped ledger segments
# ----------------------------------------------------------------------
def test_ledger_absorb_region_shares_by_reference():
    shard = RevisionLedger()
    composite = RevisionLedger()
    shard.commit("r", 0, 1)
    composite.absorb_region(shard, "r")
    assert composite.region_revisions("r") == shard.region_revisions("r")
    # Later commits through the shard ledger are visible to the composite.
    shard.commit("r", 1, 1)
    assert composite.region_revisions("r") == shard.region_revisions("r")
    # region_revisions returns a copy, not the live dict.
    copy = composite.region_revisions("r")
    copy[99] = 7
    assert 99 not in composite.region_revisions("r")


def test_ledger_double_absorb_rejected():
    shard = RevisionLedger()
    composite = RevisionLedger()
    composite.absorb_region(shard, "r")
    with pytest.raises(StorageError, match="already tracks region"):
        composite.absorb_region(shard, "r")
