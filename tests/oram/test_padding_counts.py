"""Padding-burst accounting: ``dummy_accesses(n)`` and the B+ tree budgets.

The obliviousness of every padded operation rests on exact counts: a burst
of ``n`` dummies must spend exactly ``n`` logical accesses (times the
store's declared ``accesses_per_operation`` factor), including at the
boundaries — empty bursts, single dummies, and operations that land exactly
on their worst-case budget and therefore pad by zero.
"""

from __future__ import annotations

import random

import pytest

from repro.enclave import Enclave
from repro.oram.path_oram import PathORAM
from repro.oram.recursive import RecursivePathORAM
from repro.oram.ring_oram import RingORAM
from repro.storage import ObliviousBPlusTree, Schema, int_column, str_column

SCHEMA = Schema([int_column("key"), str_column("value", 8)])


def _enclave() -> Enclave:
    return Enclave(
        oblivious_memory_bytes=1 << 24, cipher="null", keep_trace_events=True
    )


class TestDummyAccessCounts:
    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_path_oram_burst_spends_exactly_count(self, count: int) -> None:
        enclave = _enclave()
        oram = PathORAM(enclave, 16, block_size=8, rng=random.Random(1))
        before = enclave.cost.oram_accesses
        oram.dummy_accesses(count)
        assert enclave.cost.oram_accesses - before == count

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_ring_oram_burst_spends_exactly_count(self, count: int) -> None:
        enclave = _enclave()
        oram = RingORAM(enclave, 16, block_size=8, rng=random.Random(1))
        before = enclave.cost.oram_accesses
        oram.dummy_accesses(count)
        assert enclave.cost.oram_accesses - before == count

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_recursive_burst_scales_by_declared_factor(self, count: int) -> None:
        """The recursive ORAM spends one data + one position-map access per
        logical dummy; its declared factor must match what it spends."""
        enclave = _enclave()
        oram = RecursivePathORAM(enclave, 16, block_size=8, rng=random.Random(1))
        assert oram.accesses_per_operation == 2
        before = enclave.cost.oram_accesses
        oram.dummy_accesses(count)
        assert enclave.cost.oram_accesses - before == 2 * count

    def test_burst_trace_equals_individual_dummies(self) -> None:
        """A burst is exactly n dummy accesses, trace event for event."""
        enclave_a, enclave_b = _enclave(), _enclave()
        burst = RingORAM(enclave_a, 16, block_size=8, rng=random.Random(9))
        loop = RingORAM(enclave_b, 16, block_size=8, rng=random.Random(9))
        burst.dummy_accesses(6)
        for _ in range(6):
            loop.dummy_access()
        assert enclave_a.trace.matches(enclave_b.trace)
        assert enclave_a.cost.snapshot() == enclave_b.cost.snapshot()


class TestBTreePaddingBudgets:
    """Every padded mutation must land *exactly* on its worst-case budget —
    the padding burst makes up whatever the real work left over, including
    the region-boundary cases (first insert into an empty tree, deletes
    that trigger merges) where the real access count differs most."""

    def _tree(self, oram_factory=None) -> tuple[Enclave, ObliviousBPlusTree]:
        enclave = _enclave()
        tree = ObliviousBPlusTree(
            enclave,
            SCHEMA,
            "key",
            capacity=64,
            rng=random.Random(3),
            oram_factory=oram_factory,
        )
        return enclave, tree

    def test_every_insert_costs_exactly_the_budget(self) -> None:
        enclave, tree = self._tree()
        for key in range(24):
            before = enclave.cost.oram_accesses
            tree.insert((key, f"v{key}"))
            spent = enclave.cost.oram_accesses - before
            assert spent == tree._worst_case_insert(tree.oram_levels)

    def test_every_delete_costs_exactly_the_budget(self) -> None:
        enclave, tree = self._tree()
        for key in range(24):
            tree.insert((key, f"v{key}"))
        for key in range(0, 24, 3):
            before = enclave.cost.oram_accesses
            assert tree.delete(key)
            spent = enclave.cost.oram_accesses - before
            # Budget: worst case at the post-rebalance ORAM levels plus the
            # fixed two-leaf walk allowance for separator-equal keys.
            assert spent == tree._worst_case_delete(max(tree.oram_levels, 1)) + 2

    def test_recursive_store_budget_scales_by_factor(self) -> None:
        def factory(enclave, capacity, block_size, rng):
            return RecursivePathORAM(enclave, capacity, block_size, rng=rng)

        enclave, tree = self._tree(oram_factory=factory)
        for key in range(8):
            before = enclave.cost.oram_accesses
            tree.insert((key, f"v{key}"))
            spent = enclave.cost.oram_accesses - before
            assert spent == 2 * tree._worst_case_insert(tree.oram_levels)
