"""Trace checks for the re-implemented baselines.

The Figure 7/8 comparisons are only fair if our Opaque re-implementation is
itself oblivious (it is the paper's *secure* comparator) and if the naive
ORAM select doesn't accidentally leak either.
"""

from __future__ import annotations

import random

from repro.analysis import assert_indistinguishable, canonicalize, oram_regions_of
from repro.baselines import OpaqueSystem
from repro.enclave import Enclave
from repro.operators import AggregateFunction, AggregateSpec, Comparison, naive_select
from repro.storage import FlatStorage, Schema, int_column

SCHEMA = Schema([int_column("k"), int_column("v")])


def build_opaque(seed: int) -> OpaqueSystem:
    system = OpaqueSystem(
        oblivious_memory_bytes=1 << 14, cipher="null", keep_trace_events=True
    )
    system.create_table("t", SCHEMA, 16)
    rng = random.Random(seed)
    system.load_rows("t", [(rng.randrange(100), i) for i in range(16)])
    return system


class TestOpaqueObliviousness:
    def test_filter_trace_independent_of_data_and_threshold(self) -> None:
        traces = []
        for seed, threshold in ((1, 10), (2, 90), (3, 50)):
            system = build_opaque(seed)
            system.enclave.trace.clear()
            system.filter("t", Comparison("k", "<", threshold)).free()
            traces.append(
                canonicalize(
                    system.enclave.trace.events, oram_regions_of(system.enclave)
                )
            )
        assert_indistinguishable(traces)

    def test_group_by_trace_independent_of_data(self) -> None:
        traces = []
        specs = [AggregateSpec(AggregateFunction.SUM, "v")]
        for seed in (4, 5):
            system = build_opaque(seed)
            system.enclave.trace.clear()
            system.group_by("t", "k", specs).free()
            traces.append(
                canonicalize(
                    system.enclave.trace.events, oram_regions_of(system.enclave)
                )
            )
        assert_indistinguishable(traces)

    def test_join_trace_independent_of_overlap(self) -> None:
        traces = []
        for seed in (6, 7):
            system = OpaqueSystem(
                oblivious_memory_bytes=1 << 14, cipher="null", keep_trace_events=True
            )
            system.create_table("l", SCHEMA, 8)
            system.create_table("r", SCHEMA, 8)
            rng = random.Random(seed)
            system.load_rows("l", [(i, i) for i in range(8)])
            system.load_rows("r", [(rng.randrange(50), i) for i in range(8)])
            system.enclave.trace.clear()
            system.join("l", "r", "k", "k").free()
            traces.append(
                canonicalize(
                    system.enclave.trace.events, oram_regions_of(system.enclave)
                )
            )
        assert_indistinguishable(traces)


class TestNaiveSelectObliviousness:
    def test_select_trace_shape_independent_of_matches(self) -> None:
        """One ORAM op per row whether it matches or not: equal-output-size
        selects over different data are indistinguishable."""
        traces = []
        for seed in (8, 9):
            enclave = Enclave(
                oblivious_memory_bytes=1 << 20, cipher="null", keep_trace_events=True
            )
            table = FlatStorage(enclave, SCHEMA, 12)
            rng = random.Random(seed)
            positions = set(rng.sample(range(12), 3))
            for index in range(12):
                value = 1 if index in positions else rng.randrange(2, 99)
                table.fast_insert((value, index))
            enclave.trace.clear()
            output = naive_select(
                table, Comparison("k", "=", 1), 3, rng=random.Random(1)
            )
            assert output.used_rows == 3
            traces.append(
                canonicalize(enclave.trace.events, oram_regions_of(enclave))
            )
            output.free()
        assert_indistinguishable(traces)
