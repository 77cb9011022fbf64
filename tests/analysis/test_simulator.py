"""Tests for the Appendix A simulator: SIM's trace must match real traces."""

from __future__ import annotations

import random

import pytest

from repro.analysis import (
    SelectLeakage,
    real_query_trace,
    real_select_trace,
    simulate_select,
)
from repro.enclave import Enclave
from repro.operators import Comparison
from repro.planner import SelectAlgorithm, plan_select
from repro.storage import FlatStorage, Schema, framed_size, int_column

SCHEMA = Schema([int_column("x"), int_column("payload")])
OM_BYTES = 1 << 14


def build(seed: int, capacity: int, matches: int, contiguous: bool) -> tuple[Enclave, FlatStorage]:
    enclave = Enclave(
        oblivious_memory_bytes=OM_BYTES, cipher="null", keep_trace_events=True
    )
    rng = random.Random(seed)
    if contiguous:
        start = rng.randrange(max(1, capacity - matches))
        positions = set(range(start, start + matches))
    else:
        positions = set(rng.sample(range(capacity), matches))
    table = FlatStorage(enclave, SCHEMA, capacity)
    for index in range(capacity):
        value = 1 if index in positions else rng.randrange(2, 99)
        table.fast_insert((value, rng.randrange(1000)))
    return enclave, table


PREDICATE = Comparison("x", "=", 1)


class TestSimulatorTheorem:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sim_matches_real_small(self, seed: int) -> None:
        enclave, table = build(seed, capacity=32, matches=5, contiguous=False)
        decision = plan_select(table, PREDICATE)
        assert decision.algorithm is SelectAlgorithm.SMALL
        assert not decision.in_enclave  # a direct call runs Small's own passes
        real = real_select_trace(table, PREDICATE, decision)
        sim = simulate_select(
            SelectLeakage.from_decision(SCHEMA.row_size, decision), OM_BYTES
        )
        assert real.matches(sim)

    def test_sim_matches_real_large(self) -> None:
        enclave, table = build(4, capacity=32, matches=28, contiguous=False)
        decision = plan_select(table, PREDICATE, force=SelectAlgorithm.LARGE)
        real = real_select_trace(table, PREDICATE, decision)
        sim = simulate_select(
            SelectLeakage.from_decision(SCHEMA.row_size, decision), OM_BYTES
        )
        assert real.matches(sim)

    def test_sim_matches_real_continuous(self) -> None:
        enclave, table = build(5, capacity=32, matches=6, contiguous=True)
        decision = plan_select(table, PREDICATE, force=SelectAlgorithm.CONTINUOUS)
        real = real_select_trace(table, PREDICATE, decision)
        sim = simulate_select(
            SelectLeakage.from_decision(SCHEMA.row_size, decision), OM_BYTES
        )
        assert real.matches(sim)

    def test_sim_matches_real_hash(self) -> None:
        enclave, table = build(6, capacity=32, matches=5, contiguous=False)
        decision = plan_select(table, PREDICATE, force=SelectAlgorithm.HASH)
        real = real_select_trace(table, PREDICATE, decision)
        sim = simulate_select(
            SelectLeakage.from_decision(SCHEMA.row_size, decision), OM_BYTES
        )
        assert real.matches(sim)

    @pytest.mark.parametrize("oram_kind", ["paper", "path"])
    def test_sim_from_compiled_plan(self, oram_kind: str) -> None:
        """SIM consuming the reified IR: extract the selection leakage from
        a compiled QueryPlan and reproduce the real operator trace — Small's
        full passes on the paper's table, the held scan on the default one
        (where the compiler plans with ``keep=True``)."""
        from repro import ObliDB

        db = ObliDB(
            cipher="null", oblivious_memory_bytes=OM_BYTES, keep_trace_events=True
        )
        db.create_table("s", SCHEMA, 32, oram_kind=oram_kind)
        rng = random.Random(8)
        positions = set(rng.sample(range(32), 5))
        rows = [
            (1 if i in positions else rng.randrange(2, 99), rng.randrange(1000))
            for i in range(32)
        ]
        db.insert_many("s", rows)

        plan = db.explain("SELECT * FROM s WHERE x = 1")
        leakage = SelectLeakage.from_plan(db.table("s").schema.row_size, plan)
        assert leakage.output_size == 5
        assert leakage.in_enclave is (oram_kind == "path")

        flat = db.table("s").require_flat()
        decision = plan_select(flat, PREDICATE, keep=oram_kind != "paper")
        assert decision.algorithm is leakage.algorithm
        assert decision.in_enclave is leakage.in_enclave
        real = real_select_trace(flat, PREDICATE, decision)
        sim = simulate_select(leakage, OM_BYTES)
        assert real.matches(sim)

    @pytest.mark.parametrize("oram_kind", ["path", "paper"])
    @pytest.mark.parametrize(
        "free_rows, r, algorithm",
        [
            # S = 8: held for r ≤ S (0 included), Small resumed above it;
            # the paper's table runs Hash for r = 0.
            (10, 0, None),
            (10, 1, SelectAlgorithm.SMALL),
            (10, 8, SelectAlgorithm.SMALL),
            (10, 9, SelectAlgorithm.SMALL),
            (10, 17, SelectAlgorithm.SMALL),
            (10, 40, SelectAlgorithm.LARGE),
            (2, 25, SelectAlgorithm.HASH),  # S = 1: 25 passes cost more
        ],
    )
    def test_whole_statement_matches_sim_from_its_plan(
        self, oram_kind: str, free_rows: int, r: int, algorithm
    ) -> None:
        """Theorem 1 end to end: a plain ``SELECT`` statement's real trace
        (statistics pass, algorithm, result read) equals SIM run on the
        plan's leakage alone — held, resumed and streamed, Hash, Large, and
        the paper's table, which keeps the pass and Small apart."""
        from repro import ObliDB

        db = ObliDB(
            cipher="null",
            oblivious_memory_bytes=free_rows * framed_size(SCHEMA),
            keep_trace_events=True,
        )
        db.create_table("s", SCHEMA, 64, oram_kind=oram_kind)
        xs = list(range(64))
        random.Random(9).shuffle(xs)
        db.insert_many("s", [(x, x) for x in xs], fast=True)

        real, plan = real_query_trace(db, f"SELECT * FROM s WHERE x < {r}")
        leakage = SelectLeakage.from_plan(SCHEMA.row_size, plan)
        assert leakage.output_size == r
        assert leakage.in_enclave is (oram_kind == "path" and r <= 8)
        assert leakage.resumed is (oram_kind == "path" and r in (9, 17))
        # No ORDER BY sits above a resumed Small: its passes stream.
        assert leakage.streamed is leakage.resumed
        if algorithm is not None:
            assert leakage.algorithm is algorithm
        assert real.matches(simulate_select(leakage))

    def test_sim_differs_when_leakage_differs(self) -> None:
        """SIM given different leakage must produce a different trace —
        otherwise the check would be vacuous."""
        enclave, table = build(7, capacity=32, matches=5, contiguous=False)
        decision = plan_select(table, PREDICATE)
        real = real_select_trace(table, PREDICATE, decision)
        wrong = SelectLeakage(
            input_capacity=32,
            output_size=9,  # wrong output size
            algorithm=decision.algorithm,
            buffer_rows=decision.buffer_rows,
            row_size=SCHEMA.row_size,
        )
        sim = simulate_select(wrong, OM_BYTES)
        assert not real.matches(sim)
