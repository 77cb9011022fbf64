"""Unit tests for the join planner."""

from __future__ import annotations

import pytest

from repro.enclave import Enclave
from repro.engine import run_join_algorithm
from repro.planner import JoinAlgorithm, estimate_join_costs, plan_join
from repro.storage import FlatStorage, Schema, int_column


def load(enclave: Enclave, capacity: int, rows: int, key_mod: int) -> FlatStorage:
    schema = Schema([int_column("k"), int_column("v")])
    table = FlatStorage(enclave, schema, capacity)
    for i in range(rows):
        table.fast_insert((i % key_mod, i))
    return table


class TestCostModel:
    def test_hash_wins_with_big_memory(self) -> None:
        costs = estimate_join_costs(1000, 1000, oblivious_rows=2000)
        assert costs[JoinAlgorithm.HASH] == min(costs.values())

    def test_opaque_beats_zero_om(self) -> None:
        """With any oblivious memory the Opaque join dominates 0-OM."""
        costs = estimate_join_costs(5000, 5000, oblivious_rows=500)
        assert costs[JoinAlgorithm.OPAQUE] < costs[JoinAlgorithm.ZERO_OM]

    def test_a_held_hash_join_reads_each_probe_once(self) -> None:
        """Held: T1 once and T2 once per chunk, nothing written or read
        back."""
        costs = estimate_join_costs(512, 4096, oblivious_rows=512, held=True)
        assert costs[JoinAlgorithm.HASH] == 512 + 4096
        costs = estimate_join_costs(512, 4096, oblivious_rows=200, held=True)
        assert costs[JoinAlgorithm.HASH] == 512 + 3 * 4096

    def test_sort_merge_wins_for_large_tables_small_memory(self) -> None:
        costs = estimate_join_costs(20_000, 20_000, oblivious_rows=50)
        assert costs[JoinAlgorithm.OPAQUE] < costs[JoinAlgorithm.HASH]


class TestPlanJoin:
    def test_hash_when_t1_fits(self, fast_enclave: Enclave) -> None:
        left = load(fast_enclave, 16, 10, 10)
        right = load(fast_enclave, 32, 20, 10)
        decision = plan_join(left, right)
        assert decision.algorithm is JoinAlgorithm.HASH

    def test_zero_om_when_no_memory(self, kv_schema) -> None:
        enclave = Enclave(oblivious_memory_bytes=0, cipher="null")
        left = load(enclave, 8, 4, 4)
        right = load(enclave, 8, 4, 4)
        decision = plan_join(left, right)
        assert decision.algorithm is JoinAlgorithm.ZERO_OM

    def test_force(self, fast_enclave: Enclave) -> None:
        left = load(fast_enclave, 8, 4, 4)
        right = load(fast_enclave, 8, 4, 4)
        decision = plan_join(left, right, force=JoinAlgorithm.OPAQUE)
        assert decision.algorithm is JoinAlgorithm.OPAQUE

    def test_plan_reads_no_data(self, fast_enclave: Enclave) -> None:
        """Join planning uses only recorded sizes: zero block accesses."""
        left = load(fast_enclave, 8, 4, 4)
        right = load(fast_enclave, 8, 4, 4)
        before = fast_enclave.cost.block_ios
        plan_join(left, right)
        assert fast_enclave.cost.block_ios == before

    @pytest.mark.parametrize(
        "force",
        [JoinAlgorithm.HASH, JoinAlgorithm.OPAQUE, JoinAlgorithm.ZERO_OM],
    )
    def test_execute_all_algorithms(self, fast_enclave: Enclave, force: JoinAlgorithm) -> None:
        left = load(fast_enclave, 8, 6, 6)
        right = load(fast_enclave, 16, 12, 6)
        decision = plan_join(left, right, force=force)
        out = run_join_algorithm(
            left, right, "k", "k", decision.algorithm, decision.oblivious_memory_bytes
        )
        # Every right row matches exactly one left row.
        assert len(out.rows()) == 12
        out.free()
