"""Property-based tests for the SQL engine against a Python list model."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ObliDB
from repro.analysis import assert_indistinguishable, canonicalize, oram_regions_of
from repro.enclave import Enclave
from repro.operators import Comparison
from repro.engine import run_select_algorithm
from repro.planner import plan_select
from repro.storage import FlatStorage, Schema, int_column


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 9)), max_size=20
    ),
    threshold=st.integers(min_value=0, max_value=30),
)
def test_sql_select_matches_model(rows, threshold) -> None:
    db = ObliDB(cipher="null", seed=1)
    db.sql("CREATE TABLE t (k INT, g INT) CAPACITY 32")
    for k, g in rows:
        db.sql(f"INSERT INTO t VALUES ({k}, {g})")
    result = db.sql(f"SELECT * FROM t WHERE k < {threshold}")
    assert sorted(result.rows) == sorted(row for row in rows if row[0] < threshold)


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 4)), max_size=20
    ),
)
def test_sql_group_by_matches_model(rows) -> None:
    db = ObliDB(cipher="null", seed=2)
    db.sql("CREATE TABLE t (k INT, g INT) CAPACITY 32")
    for k, g in rows:
        db.sql(f"INSERT INTO t VALUES ({k}, {g})")
    result = db.sql("SELECT g, SUM(k) FROM t GROUP BY g")
    expected: dict[int, float] = {}
    for k, g in rows:
        expected[g] = expected.get(g, 0.0) + k
    assert sorted(result.rows) == sorted(expected.items())


@settings(max_examples=10, deadline=None)
@given(
    data=st.data(),
    capacity=st.integers(min_value=8, max_value=24),
    matches=st.integers(min_value=1, max_value=6),
)
def test_planned_select_trace_depends_only_on_leakage(data, capacity, matches) -> None:
    """Randomised obliviousness property: two tables with the same size and
    the same number of (scattered) matches produce identical traces under
    the planned selection."""
    matches = min(matches, capacity - 2)
    schema = Schema([int_column("x"), int_column("p")])
    traces = []
    algorithms = []
    for run in range(2):
        positions = set(
            data.draw(
                st.lists(
                    st.integers(0, capacity - 1),
                    min_size=matches,
                    max_size=matches,
                    unique=True,
                )
            )
        )
        # Avoid accidentally contiguous match sets, which would legitimately
        # change the (leaked) plan: force non-contiguity when possible.
        payloads = data.draw(
            st.lists(
                st.integers(2, 999), min_size=capacity, max_size=capacity
            )
        )
        enclave = Enclave(
            oblivious_memory_bytes=1 << 16, cipher="null", keep_trace_events=True
        )
        table = FlatStorage(enclave, schema, capacity)
        for index in range(capacity):
            value = 1 if index in positions else payloads[index]
            table.fast_insert((value, index))
        predicate = Comparison("x", "=", 1)
        decision = plan_select(table, predicate, allow_continuous=False)
        algorithms.append(decision.algorithm)
        enclave.trace.clear()
        out = run_select_algorithm(
            table,
            predicate,
            decision.algorithm,
            decision.stats.matching_rows,
            buffer_rows=decision.buffer_rows,
            compact_output=decision.compact_output,
        )
        traces.append(canonicalize(enclave.trace.events, oram_regions_of(enclave)))
        out.free()
    if algorithms[0] == algorithms[1]:
        assert_indistinguishable(traces)
