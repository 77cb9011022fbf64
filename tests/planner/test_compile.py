"""Tests for the compiled physical-plan IR and the planner cost-model
boundaries.

Two families:

* **Plan snapshots** — the quickstart queries compile to *stable* plans:
  same database state ⇒ same ``QueryPlan`` (bit-identical ``cache_key``
  and rendered tree).  The snapshots pin the compiler's decisions so an
  accidental planning change shows up as a diff, not silently as a new
  leakage profile.

* **Cost-model boundaries** — threshold-bracketing cases on both sides of
  every switch: the Small algorithm's multi-pass ↔ compaction-front
  switch, the hash-vs-continuous (adjacency) and small-vs-hash
  crossovers, and the hash-vs-opaque / zero-OM join crossovers.
"""

from __future__ import annotations

import pytest

from repro import ObliDB, Comparison
from repro.enclave import Enclave
from repro.oblivious.compact import compaction_levels
from repro.operators import select as select_ops
from repro.planner import (
    CompactNode,
    IndexLookupNode,
    JoinAlgorithm,
    JoinNode,
    ScanNode,
    SelectAlgorithm,
    SelectNode,
    SortNode,
    estimate_join_costs,
    plan_join,
    plan_select,
)
from repro.storage import FlatStorage, Schema, int_column
from repro.storage.rows import framed_size


# ----------------------------------------------------------------------
# Plan snapshots for the quickstart queries
# ----------------------------------------------------------------------
QUICKSTART_QUERIES = [
    "SELECT * FROM employees WHERE id = 4",
    "SELECT name, salary FROM employees WHERE id >= 2 AND id <= 5 AND dept = 'eng'",
    "SELECT COUNT(*), AVG(salary) FROM employees WHERE dept = 'eng'",
    "SELECT dept, SUM(salary) FROM employees GROUP BY dept",
    "SELECT name FROM employees WHERE salary > 1100 ORDER BY salary DESC LIMIT 3",
]


@pytest.fixture
def quickstart_db() -> ObliDB:
    db = ObliDB(cipher="null", seed=7, oblivious_memory_bytes=1 << 20)
    db.sql(
        "CREATE TABLE employees (id INT, name STR(16), dept STR(8), salary INT)"
        " CAPACITY 128 METHOD both KEY id"
    )
    people = [
        (1, "ada", "eng", 1200),
        (2, "grace", "eng", 1400),
        (3, "edsger", "research", 1100),
        (4, "barbara", "eng", 1500),
        (5, "donald", "research", 1300),
        (6, "leslie", "ops", 1000),
    ]
    db.insert_many("employees", people)
    return db


class TestPlanSnapshots:
    def test_quickstart_plans_are_stable(self, quickstart_db: ObliDB) -> None:
        """Compiling twice (and against an identically built database)
        yields bit-identical plans — the determinism the Appendix-A
        checker relies on."""
        first = [quickstart_db.explain(sql) for sql in QUICKSTART_QUERIES]
        second = [quickstart_db.explain(sql) for sql in QUICKSTART_QUERIES]
        for a, b in zip(first, second):
            assert a.cache_key == b.cache_key
            assert a.describe() == b.describe()
            assert a.to_dict() == b.to_dict()

    # ``buffer_rows`` is 80 % of the oblivious memory left free by the
    # index's reservation: position map + stash + a 5-level treetop.
    @pytest.mark.parametrize(
        "sql, labels",
        [
            (
                QUICKSTART_QUERIES[0],
                [
                    "index_lookup table=employees access_method=index_range"
                    " segment_rows=1 in_enclave=True",
                ],
            ),
            (
                "SELECT name FROM employees WHERE id >= 2 AND id <= 5"
                " ORDER BY salary DESC LIMIT 2",
                [
                    "index_lookup table=employees access_method=index_range"
                    " segment_rows=4 in_enclave=True",
                    "sort order_by=salary descending=True rows=4 in_enclave=True",
                ],
            ),
            (
                QUICKSTART_QUERIES[2],
                [
                    "scan table=employees access_method=flat_scan rows=128",
                    "aggregate labels=['count(*)', 'avg(salary)'] input_rows=128",
                ],
            ),
            (
                QUICKSTART_QUERIES[3],
                [
                    "scan table=employees access_method=flat_scan rows=128",
                    "group_by group_column=dept labels=['dept', 'sum(salary)']"
                    " input_rows=128 output_rows=? in_enclave=True",
                ],
            ),
            (
                QUICKSTART_QUERIES[4],
                [
                    "scan table=employees access_method=flat_scan rows=128",
                    "select algorithm=small input_rows=128 output_rows=4 buffer_rows=19408"
                    " padded=False in_enclave=True resumed=False streamed=False",
                    "sort order_by=salary descending=True rows=4 in_enclave=True",
                ],
            ),
            (
                "SELECT * FROM employees WHERE dept = 'nobody'",
                [
                    "scan table=employees access_method=flat_scan rows=128",
                    "select algorithm=small input_rows=128 output_rows=0 buffer_rows=19408"
                    " padded=False in_enclave=True resumed=False streamed=False",
                ],
            ),
            (
                "DELETE FROM employees WHERE id = 1",
                ["delete employees capacity=128 access_method=index_range"],
            ),
            (
                "DELETE FROM employees WHERE dept = 'nobody'",
                ["delete employees capacity=128 access_method=index_linear"],
            ),
            (
                "INSERT INTO employees VALUES (99, 'zed', 'ops', 1)",
                ["insert employees capacity=128"],
            ),
        ],
    )
    def test_node_labels(self, quickstart_db: ObliDB, sql: str, labels: list) -> None:
        """The one-line rendering of every node kind (the join's is pinned
        in ``TestFusedJoinPlan.test_plan_snapshot``): what ``EXPLAIN`` and
        the examples print."""
        plan = quickstart_db.explain(sql)
        assert [node.label() for node in plan.root.walk()] == labels

    def test_point_query_plan_shape(self, quickstart_db: ObliDB) -> None:
        """The one-row segment fits oblivious memory: the lookup is the
        whole plan, with no selection over it."""
        plan = quickstart_db.explain(QUICKSTART_QUERIES[0])
        lookup = plan.find(IndexLookupNode)
        assert isinstance(lookup, IndexLookupNode)
        assert lookup.segment_rows == 1
        assert lookup.in_enclave is True
        assert plan.root is lookup
        assert plan.find(SelectNode) is None

    def test_range_query_uses_index_segment(self, quickstart_db: ObliDB) -> None:
        plan = quickstart_db.explain(QUICKSTART_QUERIES[1])
        lookup = plan.find(IndexLookupNode)
        assert isinstance(lookup, IndexLookupNode)
        assert lookup.segment_rows == 4  # ids 2..5

    def test_aggregate_plan_is_fused(self, quickstart_db: ObliDB) -> None:
        plan = quickstart_db.explain(QUICKSTART_QUERIES[2])
        assert plan.root.kind == "aggregate"
        assert plan.find(SelectNode) is None  # no intermediate selection

    def test_group_by_plan(self, quickstart_db: ObliDB) -> None:
        plan = quickstart_db.explain(QUICKSTART_QUERIES[3])
        assert plan.root.kind == "group_by"
        assert plan.root.output_rows is None  # observed at run, not planned

    def test_order_by_plan_has_sort_decision(self, quickstart_db: ObliDB) -> None:
        plan = quickstart_db.explain(QUICKSTART_QUERIES[4])
        sort = plan.find(SortNode)
        assert isinstance(sort, SortNode)
        assert sort.in_enclave is True  # 3 matching rows easily fit 1 MiB
        assert plan.limit == 3

    def test_executed_plan_matches_compiled_plan(self, quickstart_db: ObliDB) -> None:
        for sql in QUICKSTART_QUERIES:
            compiled = quickstart_db.explain(sql)
            executed = quickstart_db.sql(sql)
            assert executed.plan is not None
            if executed.plan.root.kind == "group_by":
                # The groups fit and are held: nothing is observed, so the
                # executed plan is the compiled one.
                assert executed.plan.root.in_enclave
                assert executed.plan.root.output_rows is None
            assert executed.plan.cache_key == compiled.cache_key

    def test_describe_renders_one_line_per_node(self, quickstart_db: ObliDB) -> None:
        plan = quickstart_db.explain(QUICKSTART_QUERIES[4])
        lines = plan.describe().splitlines()
        nodes = sum(1 for _ in plan.root.walk())
        assert len(lines) == nodes + 1  # header + one line per node

    def test_cache_key_sensitive_to_sizes(self, quickstart_db: ObliDB) -> None:
        """Different leaked sizes must produce different plan identities."""
        narrow = quickstart_db.explain("SELECT * FROM employees WHERE id = 4")
        wide = quickstart_db.explain(
            "SELECT * FROM employees WHERE id >= 2 AND id <= 5"
        )
        assert narrow.cache_key != wide.cache_key


class TestScanSourceDecisions:
    def test_flat_scan_when_no_index_interval(self, quickstart_db: ObliDB) -> None:
        plan = quickstart_db.explain("SELECT * FROM employees WHERE salary = 1200")
        scan = plan.find(ScanNode)
        assert isinstance(scan, ScanNode)
        assert scan.access_method.value == "flat_scan"

    def test_index_linear_fallback_for_index_only_table(self) -> None:
        db = ObliDB(cipher="null", seed=9)
        db.sql(
            "CREATE TABLE ix (k INT, v INT) CAPACITY 16 METHOD indexed KEY k"
        )
        for i in range(4):
            db.sql(f"INSERT INTO ix VALUES ({i}, {i * 2})")
        plan = db.explain("SELECT * FROM ix WHERE v = 4")
        scan = plan.find(ScanNode)
        assert isinstance(scan, ScanNode)
        assert scan.access_method.value == "index_linear"
        result = db.sql("SELECT * FROM ix WHERE v = 4")
        assert result.rows == [(2, 4)]


#: Statements naming a column their source lacks, and the error each raises.
UNKNOWN_COLUMNS = [
    ("SELECT * FROM t WHERE nosuch < 3", "SchemaError"),
    ("SELECT nosuch FROM t WHERE amount < 3", "SchemaError"),
    ("SELECT k FROM t WHERE k >= 1 AND k <= 4 ORDER BY nosuch", "SchemaError"),
    ("SELECT nosuch FROM t JOIN u ON k = k", "SchemaError"),
    ("SELECT COUNT(*), SUM(nosuch) FROM t WHERE amount < 3", "SchemaError"),
    ("SELECT nosuch, COUNT(*) FROM t GROUP BY nosuch", "SchemaError"),
    ("SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY amount", "QueryError"),
]


class TestUnknownColumns:
    @pytest.mark.parametrize("oram_kind", ["path", "paper"])
    @pytest.mark.parametrize("method", ["flat", "indexed", "both"])
    @pytest.mark.parametrize("sql, error", UNKNOWN_COLUMNS)
    def test_rejected_before_any_untrusted_access(
        self, sql: str, error: str, method: str, oram_kind: str
    ) -> None:
        """One check against the source schema (the joined one for a join)
        refuses the statement before a leaf is materialised: no index
        lookup, statistics pass, scratch copy or operator runs first."""
        from repro import enclave
        from repro.storage import StorageMethod

        db = ObliDB(cipher="null", keep_trace_events=True, seed=1)
        schemas = {
            "t": Schema([int_column("k"), int_column("grp"), int_column("amount")]),
            "u": Schema([int_column("k"), int_column("x")]),
        }
        for name, schema in schemas.items():
            db.create_table(
                name,
                schema,
                64 if name == "t" else 16,
                method=StorageMethod(method),
                key_column="k",
                oram_kind=oram_kind,
            )
        db.insert_many("t", [(i, i % 4, i) for i in range(40)])
        db.insert_many("u", [(i, i) for i in range(10)])
        db.enclave.trace.clear()
        with pytest.raises(getattr(enclave, error)):
            db.sql(sql)
        assert len(db.enclave.trace) == 0


# ----------------------------------------------------------------------
# The fused join: plan snapshot and plan fidelity
# ----------------------------------------------------------------------
FUSED_JOIN_SQL = (
    "SELECT region, amount FROM users JOIN visits ON users.uid = visits.uid"
    " WHERE visits.day < 3"
)


def fused_join_db(oblivious_memory_bytes: int = 1 << 20) -> ObliDB:
    db = ObliDB(cipher="null", seed=7, oblivious_memory_bytes=oblivious_memory_bytes)
    db.sql("CREATE TABLE users (uid INT, region INT, pad STR(24)) CAPACITY 8")
    db.sql("CREATE TABLE visits (vid INT, uid INT, day INT, amount INT) CAPACITY 32")
    db.insert_many("users", [(u, u % 3, "x") for u in range(8)], fast=True)
    db.insert_many(
        "visits", [(v, v % 8, v % 5, 10 * v) for v in range(30)], fast=True
    )
    return db


class TestFusedJoinPlan:
    def test_plan_snapshot(self) -> None:
        """The join carries the WHERE and the select list; nothing sits
        above it, and nothing about the plan waits for the join's output."""
        plan = fused_join_db().explain(FUSED_JOIN_SQL)
        assert plan.describe() == "\n".join(
            [
                "plan[select] tables=users,visits columns=region,amount",
                "`-- join algorithm=hash on=uid=uid t1=8 t2=32 oblivious_rows=18396"
                " oblivious_bytes=1048576 filtered=True columns=(region, amount)"
                " in_enclave=True",
                "    |-- scan table=users access_method=flat_scan rows=8",
                "    `-- scan table=visits access_method=flat_scan rows=32",
            ]
        )
        assert plan.find(SelectNode) is None

    def test_columns_are_what_the_rest_of_the_plan_reads(self) -> None:
        db = fused_join_db()
        tail = "FROM users JOIN visits ON users.uid = visits.uid"

        def join_of(sql: str) -> JoinNode:
            return db.explain(sql).find(JoinNode)

        everything = ("uid", "region", "pad", "vid", "r_uid", "day", "amount")
        assert join_of(f"SELECT * {tail}").columns == everything
        assert not join_of(f"SELECT * {tail}").filtered
        # ORDER BY on a column outside the select list, in joined-schema order
        assert join_of(f"SELECT amount {tail} ORDER BY region").columns == (
            "region",
            "amount",
        )
        assert join_of(
            f"SELECT region, SUM(amount) {tail} WHERE day < 2 GROUP BY region"
            " ORDER BY region"
        ).columns == ("region", "amount")
        assert join_of(f"SELECT MAX(day) {tail}").columns == ("day",)
        # A bare COUNT(*) reads no column: the left join key stands in.
        assert join_of(f"SELECT COUNT(*) {tail}").columns == ("uid",)

    def test_sort_over_join_is_decided_at_compile_time(self) -> None:
        """|T2| bound and projected row size are public: no deferred
        fields, and the executed plan is the compiled plan.  A held join's
        rows are sorted where they are held; an output table is compacted
        to |T2| first."""
        db = fused_join_db()
        sql = FUSED_JOIN_SQL + " ORDER BY amount DESC LIMIT 4"
        compiled = db.explain(sql)
        sort = compiled.find(SortNode)
        assert isinstance(sort, SortNode)
        assert (sort.rows, sort.in_enclave) == (32, True)
        assert isinstance(sort.source, JoinNode) and sort.source.in_enclave
        assert compiled.find(CompactNode) is None
        tight = fused_join_db(300).explain(sql)
        sort = tight.find(SortNode)
        assert (sort.rows, sort.in_enclave) == (32, False)
        assert isinstance(sort.source, CompactNode) and sort.source.bound == 32
        assert not sort.source.source.in_enclave
        count = "SELECT COUNT(*) FROM users JOIN visits ON uid = uid"
        for statement in (sql, FUSED_JOIN_SQL, count):
            assert db.sql(statement).plan.cache_key == db.explain(statement).cache_key

    def test_explain_runs_no_join(self) -> None:
        """A held join runs in the runner, never in compile: EXPLAIN of a
        join statement touches no untrusted memory and holds nothing."""
        db = fused_join_db()
        cost = db.enclave.cost.snapshot()
        count = "SELECT COUNT(*) FROM users JOIN visits ON uid = uid"
        for sql in (FUSED_JOIN_SQL, FUSED_JOIN_SQL + " ORDER BY amount DESC", count):
            assert db.explain(sql).find(JoinNode).in_enclave
        assert db.enclave.cost.snapshot() == cost
        assert db.enclave.oblivious.free_bytes == 1 << 20

    def test_unknown_column_rejected_at_compile_time(self) -> None:
        from repro.enclave import SchemaError

        db = fused_join_db()
        regions = db.enclave.untrusted.region_names()
        tail = "FROM users JOIN visits ON users.uid = visits.uid"
        for sql in (
            f"SELECT ghost {tail}",
            f"SELECT region {tail} ORDER BY ghost",
            f"SELECT region {tail} WHERE ghost = 1",
        ):
            with pytest.raises(SchemaError, match="ghost"):
                db.sql(sql)
        assert db.enclave.untrusted.region_names() == regions

    @pytest.mark.parametrize("oblivious_memory_bytes", [1 << 20, 300])
    def test_hash_join_cost_is_the_nodes_closed_form(
        self, oblivious_memory_bytes: int, monkeypatch
    ) -> None:
        """Plan fidelity: the measured ``CostModel`` delta of a fused
        hash-join statement equals the closed form in the node's public
        fields — the planner prices what the runner executes."""
        import functools

        from repro.planner import compile as plan_compiler

        monkeypatch.setattr(
            plan_compiler,
            "plan_join",
            functools.partial(plan_join, force=JoinAlgorithm.HASH),
        )
        result = fused_join_db(oblivious_memory_bytes).sql(FUSED_JOIN_SQL)
        join = result.plan.find(JoinNode)
        chunks = -(-join.t1 // join.oblivious_rows)
        held = oblivious_memory_bytes == 1 << 20
        assert (chunks, join.in_enclave) == ((1, True) if held else (2, False))
        if held:
            # reads: build (T1 once), probe (T2 per chunk); the output is
            # held in the enclave, so nothing is written or read back.
            assert join.capacity == join.t2
            assert result.cost["untrusted_reads"] == join.t1 + chunks * join.t2
            assert result.cost["untrusted_writes"] == 0
        else:
            # reads: build, probe, result read-back; writes: the output's
            # allocation pass, then one frame per probe.
            assert join.capacity == chunks * join.t2
            assert result.cost["untrusted_reads"] == join.t1 + 2 * chunks * join.t2
            assert result.cost["untrusted_writes"] == 2 * chunks * join.t2
        assert len(result.rows) == 18  # day in {0, 1, 2}


# ----------------------------------------------------------------------
# Cost-model boundaries
# ----------------------------------------------------------------------
SCHEMA = Schema([int_column("id"), int_column("payload")])


def build_table(
    capacity: int,
    matches: int,
    contiguous: bool,
    oblivious_memory_bytes: int,
) -> FlatStorage:
    """A table whose first/scattered ``matches`` rows satisfy ``id < 0``."""
    enclave = Enclave(
        oblivious_memory_bytes=oblivious_memory_bytes, cipher="null"
    )
    table = FlatStorage(enclave, SCHEMA, capacity)
    if contiguous:
        positions = set(range(matches))
    else:
        positions = {(i * 3) % capacity for i in range(matches)}
        while len(positions) < matches:  # collisions when 3 | capacity
            positions.add(len(positions))
    rows = [
        (-1 if index in positions else index + 1, index)
        for index in range(capacity)
    ]
    table.fast_insert_many(rows)
    return table


def om_bytes_for_buffer(buffer_rows: int) -> int:
    """An OM budget that yields exactly ``buffer_rows`` Small-buffer rows."""
    row_bytes = framed_size(SCHEMA)
    # plan_select: buffer = int((free // row_bytes) * 0.8)
    return int(buffer_rows / 0.8 + 1) * row_bytes


PREDICATE = Comparison("id", "<", 0)


class TestSelectCrossover:
    def test_adjacency_flips_hash_to_continuous(self) -> None:
        """Same sizes, same (tiny) buffer: scattered matches pick Hash,
        adjacent matches pick Continuous — the only difference is the
        leaked adjacency bit."""
        scattered = build_table(64, 22, contiguous=False, oblivious_memory_bytes=8)
        adjacent = build_table(64, 22, contiguous=True, oblivious_memory_bytes=8)
        assert (
            plan_select(scattered, PREDICATE).algorithm is SelectAlgorithm.HASH
        )
        assert (
            plan_select(adjacent, PREDICATE).algorithm
            is SelectAlgorithm.CONTINUOUS
        )

    def test_continuous_disabled_falls_back(self) -> None:
        adjacent = build_table(64, 22, contiguous=True, oblivious_memory_bytes=8)
        decision = plan_select(adjacent, PREDICATE, allow_continuous=False)
        assert decision.algorithm is SelectAlgorithm.HASH

    def test_small_vs_hash_crossover_bracketed(self) -> None:
        """With a 1-row buffer the Small cost is N·R + R versus Hash's
        21·N: at N=64 the crossover sits between R=20 and R=22."""
        one_row = om_bytes_for_buffer(1)
        below = build_table(64, 20, contiguous=False, oblivious_memory_bytes=one_row)
        above = build_table(64, 22, contiguous=False, oblivious_memory_bytes=one_row)
        assert plan_select(below, PREDICATE).algorithm is SelectAlgorithm.SMALL
        assert plan_select(above, PREDICATE).algorithm is SelectAlgorithm.HASH

    def test_large_threshold_bracketed(self) -> None:
        """Selectivity ≥ 0.5 admits Large (4·N), which then beats a
        1-row-buffer Small; just below the threshold Large is ineligible."""
        one_row = om_bytes_for_buffer(1)
        at = build_table(64, 32, contiguous=False, oblivious_memory_bytes=one_row)
        under = build_table(64, 31, contiguous=False, oblivious_memory_bytes=one_row)
        assert plan_select(at, PREDICATE).algorithm is SelectAlgorithm.LARGE
        assert plan_select(under, PREDICATE).algorithm is not SelectAlgorithm.LARGE

    def test_big_buffer_prefers_small(self) -> None:
        """One pass of Small (N + R) beats every alternative when the
        whole output fits the buffer."""
        table = build_table(
            64, 22, contiguous=True, oblivious_memory_bytes=1 << 20
        )
        assert plan_select(table, PREDICATE).algorithm is SelectAlgorithm.SMALL


class TestSmallCompactSwitch:
    """The multi-pass ↔ compaction-front switch inside small_select.

    The operator switches to the compaction front when the pass count
    exceeds ``3 + 3·ceil(log2 N)`` — both sides bracketed here, with a
    monkeypatched probe observing which implementation ran.
    """

    def _run(self, monkeypatch, capacity: int, matches: int, buffer_rows: int) -> bool:
        table = build_table(
            capacity, matches, contiguous=False, oblivious_memory_bytes=1 << 20
        )
        called = []
        original = select_ops.compact_select
        monkeypatch.setattr(
            select_ops,
            "compact_select",
            lambda *args, **kwargs: called.append(True) or original(*args, **kwargs),
        )
        output = select_ops.small_select(table, PREDICATE, matches, buffer_rows)
        assert sorted(row[1] for row in output.rows()) == sorted(
            row[1] for row in table.rows() if row[0] < 0
        )
        output.free()
        return bool(called)

    def test_pass_count_above_threshold_switches(self, monkeypatch) -> None:
        capacity = 32
        threshold = 3 + 3 * compaction_levels(capacity)
        matches = threshold + 1  # 1-row buffer ⇒ passes == matches
        assert self._run(monkeypatch, capacity, matches, buffer_rows=1)

    def test_pass_count_at_threshold_stays_multipass(self, monkeypatch) -> None:
        capacity = 32
        threshold = 3 + 3 * compaction_levels(capacity)
        matches = threshold  # passes == threshold: not strictly greater
        assert not self._run(monkeypatch, capacity, matches, buffer_rows=1)


class TestJoinCrossover:
    def _tables(self, n1: int, n2: int, oblivious_memory_bytes: int):
        enclave = Enclave(
            oblivious_memory_bytes=oblivious_memory_bytes, cipher="null"
        )
        return (
            FlatStorage(enclave, SCHEMA, n1),
            FlatStorage(enclave, SCHEMA, n2),
        )

    def test_hash_when_om_holds_t1(self) -> None:
        left, right = self._tables(64, 64, oblivious_memory_bytes=1 << 20)
        assert plan_join(left, right).algorithm is JoinAlgorithm.HASH

    def test_zero_om_when_no_oblivious_memory(self) -> None:
        left, right = self._tables(64, 64, oblivious_memory_bytes=16)
        assert plan_join(left, right).algorithm is JoinAlgorithm.ZERO_OM

    def test_hash_opaque_crossover_bracketed(self) -> None:
        """At |T1| = |T2| = 1024 the cost curves cross between 4 and 16
        oblivious rows: chunked re-reads of T2 sink the hash join first."""
        n = 1024
        row_bytes = framed_size(SCHEMA) + 16
        costs_low = estimate_join_costs(n, n, oblivious_rows=4)
        costs_high = estimate_join_costs(n, n, oblivious_rows=16)
        assert costs_low[JoinAlgorithm.OPAQUE] < costs_low[JoinAlgorithm.HASH]
        assert costs_high[JoinAlgorithm.HASH] < costs_high[JoinAlgorithm.OPAQUE]

        left, right = self._tables(n, n, oblivious_memory_bytes=4 * row_bytes)
        assert plan_join(left, right).algorithm is JoinAlgorithm.OPAQUE
        left, right = self._tables(n, n, oblivious_memory_bytes=16 * row_bytes)
        assert plan_join(left, right).algorithm is JoinAlgorithm.HASH

    def test_join_node_records_cost_model_inputs(self) -> None:
        """The compiled JoinNode carries exactly the sizes the cost model
        consumed — the join's whole leakage."""
        db = ObliDB(cipher="null", seed=11)
        db.sql("CREATE TABLE a (k INT, x INT) CAPACITY 32")
        db.sql("CREATE TABLE b (k INT, y INT) CAPACITY 8")
        plan = db.explain("SELECT * FROM a JOIN b ON a.k = b.k")
        join = plan.find(JoinNode)
        assert isinstance(join, JoinNode)
        assert (join.t1, join.t2) == (32, 8)
        assert join.oblivious_rows >= 1

    @pytest.mark.parametrize("oram_kind", ["path", "paper"])
    def test_join_compact_only_under_order_by(self, oram_kind: str) -> None:
        """An output table is compacted under ORDER BY; a held join (not on
        the paper's tables) has no table to compact."""
        db = ObliDB(cipher="null", seed=12)
        db.create_table("a", SCHEMA, 16, oram_kind=oram_kind)
        db.create_table("b", SCHEMA, 4, oram_kind=oram_kind)
        bare = db.explain("SELECT * FROM a JOIN b ON a.id = b.id")
        ordered = db.explain("SELECT * FROM a JOIN b ON a.id = b.id ORDER BY payload")
        def compacted_join(plan):
            return any(
                isinstance(node, CompactNode) and isinstance(node.source, JoinNode)
                for node in plan.root.walk()
            )
        assert bare.find(JoinNode).in_enclave is (oram_kind == "path")
        assert not compacted_join(bare)
        assert compacted_join(ordered) is (oram_kind == "paper")
