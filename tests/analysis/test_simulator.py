"""Tests for the Appendix A simulator: SIM's trace must match real traces."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.analysis import PublicState, real_query_trace, real_select_trace, simulate
from repro.enclave import Enclave
from repro.operators import Comparison
from repro.planner import SelectAlgorithm, SelectNode, SortNode, plan_select
from repro.engine.padding import PaddingConfig
from repro.storage import FlatStorage, Schema, StorageMethod, framed_size, int_column

SCHEMA = Schema([int_column("x"), int_column("payload")])
OM_BYTES = 1 << 14
PAD = PaddingConfig(pad_rows=20, pad_groups=8)


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
        real, plan, public = real_select_trace(table, PREDICATE, decision)
        assert real.matches(simulate(plan, public))

    def test_sim_matches_real_large(self) -> None:
        enclave, table = build(4, capacity=32, matches=28, contiguous=False)
        decision = plan_select(table, PREDICATE, force=SelectAlgorithm.LARGE)
        real, plan, public = real_select_trace(table, PREDICATE, decision)
        assert real.matches(simulate(plan, public))

    def test_sim_matches_real_continuous(self) -> None:
        enclave, table = build(5, capacity=32, matches=6, contiguous=True)
        decision = plan_select(table, PREDICATE, force=SelectAlgorithm.CONTINUOUS)
        real, plan, public = real_select_trace(table, PREDICATE, decision)
        assert real.matches(simulate(plan, public))

    def test_sim_matches_real_hash(self) -> None:
        enclave, table = build(6, capacity=32, matches=5, contiguous=False)
        decision = plan_select(table, PREDICATE, force=SelectAlgorithm.HASH)
        real, plan, public = real_select_trace(table, PREDICATE, decision)
        assert real.matches(simulate(plan, public))

    @pytest.mark.parametrize("oram_kind", ["paper", "path"])
    def test_sim_from_compiled_plan(self, oram_kind: str) -> None:
        """SIM consuming the reified IR: simulate a compiled QueryPlan and
        reproduce the real operator trace — Small's full passes on the
        paper's table, the held scan on the default one (where the compiler
        plans with ``keep=True``)."""
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

        public = PublicState.of(db)
        plan = db.explain("SELECT * FROM s WHERE x = 1")
        select = plan.find(SelectNode)
        assert select.output_rows == 5
        assert select.in_enclave is (oram_kind == "path")

        flat = db.table("s").require_flat()
        decision = plan_select(flat, PREDICATE, keep=oram_kind != "paper")
        real, hand_planned, _ = real_select_trace(flat, PREDICATE, decision)
        assert hand_planned.root.public_fields() == select.public_fields()
        assert real.matches(simulate(plan, public))

    @pytest.mark.parametrize("oram_kind", ["path", "paper"])
    @pytest.mark.parametrize(
        "shape", ["", " ORDER BY x", " ORDER BY payload DESC LIMIT 3"]
    )
    @pytest.mark.parametrize(
        "free_rows, r, algorithm, padding",
        [
            # S = 8: held for r ≤ S (0 included), Small resumed above it;
            # the paper's table runs Hash for r = 0.
            (10, 0, None, None),
            (10, 1, SelectAlgorithm.SMALL, None),
            (10, 8, SelectAlgorithm.SMALL, None),
            (10, 9, SelectAlgorithm.SMALL, None),
            (10, 17, SelectAlgorithm.SMALL, None),
            (10, 40, SelectAlgorithm.LARGE, None),
            (2, 25, SelectAlgorithm.HASH, None),  # S = 1: 25 passes cost more
            # Padding mode (§7.1): Hash at the padded size, no statistics pass.
            (10, 0, SelectAlgorithm.HASH, PAD),
            (10, 5, SelectAlgorithm.HASH, PAD),
        ],
    )
    def test_whole_statement_matches_sim_from_its_plan(
        self, oram_kind: str, shape: str, free_rows: int, r: int, algorithm, padding
    ) -> None:
        """Theorem 1 end to end: a ``SELECT`` statement's real trace
        (statistics pass, algorithm, ORDER BY, result read) equals SIM run
        on its plan alone — held, resumed and streamed, Hash, Large, padded,
        the paper's table, which keeps the pass and Small apart, and each
        under an in-enclave or bitonic ORDER BY, with DESC and LIMIT."""
        from repro import ObliDB

        db = ObliDB(
            cipher="null",
            oblivious_memory_bytes=free_rows * framed_size(SCHEMA),
            keep_trace_events=True,
            padding=padding,
        )
        db.create_table("s", SCHEMA, 64, oram_kind=oram_kind)
        xs = list(range(64))
        random.Random(9).shuffle(xs)
        db.insert_many("s", [(x, x) for x in xs], fast=True)

        public = PublicState.of(db)
        real, plan = real_query_trace(db, f"SELECT * FROM s WHERE x < {r}{shape}")
        select = plan.find(SelectNode)
        assert isinstance(plan.root, SortNode) is bool(shape)
        if padding is not None:
            assert select.padded and select.output_rows == padding.pad_rows
        else:
            assert select.output_rows == r
            assert select.in_enclave is (oram_kind == "path" and r <= 8)
            assert select.resumed is (oram_kind == "path" and r in (9, 17))
        # A resumed Small with no ORDER BY above it streams its passes.
        assert select.streamed is (select.resumed and not shape)
        if algorithm is not None:
            assert select.algorithm is algorithm
        assert real.matches(simulate(plan, public))

    def test_sim_differs_when_leakage_differs(self) -> None:
        """SIM given different leakage must produce a different trace —
        otherwise the check would be vacuous."""
        enclave, table = build(7, capacity=32, matches=5, contiguous=False)
        decision = plan_select(table, PREDICATE)
        real, plan, public = real_select_trace(table, PREDICATE, decision)
        wrong = replace(plan, root=replace(plan.root, output_rows=9))
        assert not real.matches(simulate(wrong, public))

    def test_public_state_touches_no_untrusted_memory(self) -> None:
        """``PublicState.of`` reads catalog facts only: no trace event."""
        from repro import ObliDB

        db = ObliDB(cipher="null", keep_trace_events=True)
        db.create_table("s", SCHEMA, 32)
        db.create_table(
            "i", SCHEMA, 32, method=StorageMethod.BOTH, key_column="x", oram_kind="paper"
        )
        db.insert_many("i", [(x, x) for x in range(20)])
        before = len(db.enclave.trace)
        public = PublicState.of(db)
        assert len(db.enclave.trace) == before
        assert public.tables["i"].height == db.table("i").indexed.tree.height
        assert public.free_bytes == db.enclave.oblivious.free_bytes
