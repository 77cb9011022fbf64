"""Theorem 1's SIM for joins, aggregates and GROUP BY over flat sources.

Each case runs a whole SQL statement (compile, operator, result read) and
checks its real trace against SIM run on its plan and the public state
alone — under the default tables and ``oram_kind="paper"``.  One control
per node shows SIM given a different plan gives a different trace.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

import pytest

from repro import ObliDB, PaddingConfig
from repro.analysis import PublicState, real_query_trace, simulate
from repro.planner import JoinAlgorithm
from repro.planner.compile import CompactNode, GroupByNode, JoinNode, SortNode
from repro.storage import Schema, framed_size, int_column, str_column

USERS = Schema([int_column("uid"), str_column("name", 64)])
VISITS = Schema(
    [int_column("vid"), int_column("uid"), int_column("day"), int_column("amount")]
)
#: Oblivious memory one left row takes in the hash join's table.
HASH_ROW = framed_size(USERS) + 16
KINDS = ["path", "paper"]

#: name -> (users, visits, oblivious-memory budget, algorithm, hash chunks)
JOINS = {
    "hash-one-chunk": (32, 16, 64 * HASH_ROW, JoinAlgorithm.HASH, 1),
    # Room for the hash table, not for any output beside it.
    "hash-one-chunk-table": (32, 16, 32 * HASH_ROW + 100, JoinAlgorithm.HASH, 1),
    "hash-four-chunks": (32, 8, 8 * HASH_ROW, JoinAlgorithm.HASH, 4),
    # Room beside the table for eight frames of one INT: an aggregate's.
    "hash-four-chunks-held": (32, 8, 8 * HASH_ROW + 8 * 9, JoinAlgorithm.HASH, 4),
    # Two hash-table rows, and room for the sort's pair of one-row chunks.
    "opaque": (512, 512, 240, JoinAlgorithm.OPAQUE, None),
    "zero-om": (32, 16, HASH_ROW, JoinAlgorithm.ZERO_OM, None),
}

JOIN_STATEMENTS = {
    "star": "SELECT * FROM users JOIN visits ON uid = uid",
    "star-where": "SELECT * FROM users JOIN visits ON uid = uid WHERE day < 10",
    "columns": "SELECT name, amount FROM users JOIN visits ON uid = uid",
    "columns-where": (
        "SELECT name, amount FROM users JOIN visits ON uid = uid WHERE day < 10"
    ),
}


#: ORDER BY over a join: sorted where a held join holds its rows, else
#: over its output compacted to |T2|.  Off the Opaque configuration.
JOIN_ORDERS = {
    "columns-order": "SELECT name, amount FROM users JOIN visits ON uid = uid ORDER BY amount",
    "columns-where-order-desc-limit": (
        "SELECT name, amount FROM users JOIN visits ON uid = uid WHERE day < 10"
        " ORDER BY amount DESC LIMIT 3"
    ),
}


JOIN_AGGREGATES = {
    "join": "SELECT COUNT(*), SUM(amount) FROM users JOIN visits ON uid = uid",
    "join-where": (
        "SELECT COUNT(*), SUM(amount) FROM users JOIN visits ON uid = uid"
        " WHERE day < 10"
    ),
}

#: GROUP BY over a join: held where the join is, else over its output
#: table.  Off the Opaque configuration.
JOIN_GROUPS = {
    "join-group-by": (
        "SELECT day, COUNT(*), SUM(amount) FROM users JOIN visits ON uid = uid"
        " GROUP BY day"
    ),
    "join-group-by-where-order": (
        "SELECT day, MAX(amount) FROM users JOIN visits ON uid = uid"
        " WHERE day < 10 GROUP BY day ORDER BY day DESC LIMIT 3"
    ),
}

#: config -> the statements whose output is held on the default tables.
HELD = {
    "hash-one-chunk": {*JOIN_STATEMENTS, *JOIN_ORDERS, *JOIN_AGGREGATES, *JOIN_GROUPS},
    "hash-four-chunks-held": set(JOIN_AGGREGATES),
}

#: Every join configuration but Opaque's (each Opaque case costs seconds).
CHEAP_JOINS = [config for config in JOINS if config != "opaque"]


def held(config: str, statement: str, oram_kind: str) -> bool:
    return oram_kind == "path" and statement in HELD.get(config, ())


def build_join_db(config: str, oram_kind: str) -> ObliDB:
    """Users and visits, a few slots of each left empty."""
    users, visits, budget, _, _ = JOINS[config]
    db = ObliDB(
        cipher="null",
        oblivious_memory_bytes=budget,
        keep_trace_events=True,
        seed=3,
    )
    db.create_table("users", USERS, users, oram_kind=oram_kind)
    db.create_table("visits", VISITS, visits, oram_kind=oram_kind)
    rng = random.Random(3)
    db.insert_many("users", [(u, f"u{u}") for u in range(users - 2)], fast=True)
    db.insert_many(
        "visits",
        [
            (v, rng.randrange(users), rng.randrange(30), rng.randrange(100))
            for v in range(visits - 3)
        ],
        fast=True,
    )
    return db


@pytest.fixture(scope="module")
def join_db():
    """Each database is built once for the module: the statements only read."""
    return functools.cache(build_join_db)


def replace_root(plan, **fields):
    """``plan`` with its root node's ``fields`` changed."""
    return replace(plan, root=replace(plan.root, **fields))


class TestJoin:
    @pytest.mark.parametrize("oram_kind", KINDS)
    @pytest.mark.parametrize(
        "config, statement",
        [(config, statement) for statement in JOIN_STATEMENTS for config in JOINS]
        + [(config, statement) for statement in JOIN_ORDERS for config in CHEAP_JOINS],
    )
    def test_real_equals_sim(
        self, join_db, config: str, statement: str, oram_kind: str
    ) -> None:
        db = join_db(config, oram_kind)
        public = PublicState.of(db)
        real, plan = real_query_trace(db, {**JOIN_STATEMENTS, **JOIN_ORDERS}[statement])
        join = plan.find(JoinNode)
        _, _, _, algorithm, chunks = JOINS[config]
        assert join.algorithm is algorithm
        if chunks is not None:
            assert -(-join.t1 // join.oblivious_rows) == chunks
        assert join.filtered is ("where" in statement)
        assert join.in_enclave is held(config, statement, oram_kind)
        if statement in JOIN_ORDERS:
            # A join output table is compacted before the sort.
            assert isinstance(plan.root, SortNode)
            assert isinstance(plan.root.source, CompactNode) is not join.in_enclave
        assert real.matches(simulate(plan, public))

    def test_sim_differs_when_leakage_differs(self, join_db) -> None:
        """Half the budget the plan declares doubles the hash chunks."""
        db = join_db("hash-four-chunks", "path")
        public = PublicState.of(db)
        real, plan = real_query_trace(db, JOIN_STATEMENTS["star"])
        wrong = replace_root(plan, oblivious_bytes=plan.root.oblivious_bytes // 2)
        assert not real.matches(simulate(wrong, public))

    @pytest.mark.parametrize("config", ["hash-one-chunk", "hash-one-chunk-table"])
    def test_a_held_join_is_the_table_join_without_its_output(
        self, join_db, config: str
    ) -> None:
        """One chunk: T1 + T2 reads held; the table join adds the output's
        allocation, the probe's writes and the read-back.  SIM told to
        write the held output to a table does not match."""
        db = join_db(config, "path")
        public = PublicState.of(db)
        real, plan = real_query_trace(db, JOIN_STATEMENTS["columns"])
        users, visits = db.table("users").capacity, db.table("visits").capacity
        if plan.root.in_enclave:
            assert real.length == users + visits
            assert not real.matches(simulate(replace_root(plan, in_enclave=False), public))
        else:
            assert real.length == users + visits + 3 * visits


AGGREGATES = {
    "count-sum": "SELECT COUNT(*), SUM(amount) FROM visits",
    "count-sum-where": "SELECT COUNT(*), SUM(amount) FROM visits WHERE day < 10",
    "min-max-avg": "SELECT MIN(amount), MAX(day), AVG(amount) FROM visits",
    "min-max-avg-where": (
        "SELECT MIN(amount), MAX(day), AVG(amount) FROM visits"
        " WHERE uid = 3 OR day > 20"
    ),
}

class TestAggregate:
    @pytest.mark.parametrize("oram_kind", KINDS)
    @pytest.mark.parametrize("statement", AGGREGATES)
    def test_real_equals_sim_over_a_table(
        self, join_db, statement: str, oram_kind: str
    ) -> None:
        db = join_db("hash-one-chunk", oram_kind)
        public = PublicState.of(db)
        real, plan = real_query_trace(db, AGGREGATES[statement])
        assert real.length == db.table("visits").capacity  # one read pass
        assert real.matches(simulate(plan, public))

    @pytest.mark.parametrize("oram_kind", KINDS)
    @pytest.mark.parametrize("statement", [*JOIN_AGGREGATES, *JOIN_GROUPS])
    @pytest.mark.parametrize("config", CHEAP_JOINS)
    def test_real_equals_sim_over_a_join(
        self, join_db, config: str, statement: str, oram_kind: str
    ) -> None:
        """Ungrouped, and grouped: over a held join the groups never leave
        the enclave, over a join's output table the plan records g."""
        db = join_db(config, oram_kind)
        public = PublicState.of(db)
        real, plan = real_query_trace(db, {**JOIN_AGGREGATES, **JOIN_GROUPS}[statement])
        join = plan.find(JoinNode)
        assert join.in_enclave is held(config, statement, oram_kind)
        if statement in JOIN_GROUPS:
            assert isinstance(plan.root, GroupByNode)
            assert (plan.root.output_rows is None) is join.in_enclave
        assert real.matches(simulate(plan, public))

    def test_sim_differs_when_leakage_differs(self, join_db) -> None:
        db = join_db("hash-one-chunk", "path")
        public = PublicState.of(db)
        real, plan = real_query_trace(db, AGGREGATES["count-sum"])
        wrong = replace_root(plan, source=replace(plan.root.source, rows=15))
        assert not real.matches(simulate(wrong, public))


GROUPED = Schema([int_column("k"), int_column("grp"), int_column("amount")])

#: name -> (capacity, oblivious-memory budget, distinct groups, overflows)
GROUPINGS = {
    "one-group": (64, 4096, 1, False),
    "ten-groups": (64, 4096, 10, False),
    "above-the-buffer": (64, 256, 40, True),
    "wide-above-the-buffer": (256, 1024, 200, True),
}

GROUP_STATEMENTS = {
    "plain": "SELECT grp, COUNT(*), SUM(amount) FROM t GROUP BY grp",
    "where": "SELECT grp, MAX(amount) FROM t WHERE amount < 50 GROUP BY grp",
    "order-limit": "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp DESC LIMIT 3",
}


def grouped_db(config: str, oram_kind: str) -> ObliDB:
    capacity, budget, groups, _ = GROUPINGS[config]
    db = ObliDB(
        cipher="null",
        oblivious_memory_bytes=budget,
        keep_trace_events=True,
        seed=5,
    )
    db.create_table("t", GROUPED, capacity, oram_kind=oram_kind)
    rng = random.Random(5)
    rows = [(i, i % groups, rng.randrange(100)) for i in range(capacity - 3)]
    db.insert_many("t", rows, fast=True)
    return db


def sorted_fallback(node: GroupByNode) -> bool:
    """The group table overflowed: the sort fallback's padded output is
    larger than the input."""
    return node.output_rows is not None and node.output_rows > node.input_rows


class TestGroupBy:
    @pytest.mark.parametrize("oram_kind", KINDS)
    @pytest.mark.parametrize("statement", GROUP_STATEMENTS)
    @pytest.mark.parametrize("config", GROUPINGS)
    def test_real_equals_sim(self, config: str, statement: str, oram_kind: str) -> None:
        """Below the buffer the executed plan records g on the paper's table
        and nothing on the default one, which holds the groups; above it,
        the sort fallback's padded size.  SIM reads either off the plan."""
        db = grouped_db(config, oram_kind)
        public = PublicState.of(db)
        real, plan = real_query_trace(db, GROUP_STATEMENTS[statement])
        node = plan.root
        _, _, groups, overflows = GROUPINGS[config]
        assert sorted_fallback(node) is overflows
        assert node.in_enclave is (oram_kind == "path")
        if not overflows and oram_kind == "path":
            assert node.output_rows is None
            # The hash build's read pass is the whole trace.
            assert real.length == GROUPINGS[config][0]
        elif not overflows and statement != "where":
            assert node.output_rows == groups
        assert real.matches(simulate(plan, public))

    @pytest.mark.parametrize("oram_kind", KINDS)
    def test_sim_differs_when_leakage_differs(self, oram_kind: str) -> None:
        db = grouped_db("ten-groups", oram_kind)
        public = PublicState.of(db)
        real, plan = real_query_trace(db, GROUP_STATEMENTS["plain"])
        if plan.root.in_enclave:
            # Held, as if it had not been: an output table of the ten groups.
            wrong = replace_root(plan, in_enclave=False, output_rows=10)
        else:
            wrong = replace_root(plan, output_rows=plan.root.output_rows + 1)
        assert not real.matches(simulate(wrong, public))

    @pytest.mark.parametrize("oram_kind", KINDS)
    def test_empty_group_by_equals_sim(self, oram_kind: str) -> None:
        """g = 0 and g = 1 share one plan and one trace: ``output_rows`` = 1
        and its one output slot written on the paper's table, the read pass
        alone where the groups are held."""
        db = grouped_db("ten-groups", oram_kind)
        public = PublicState.of(db)
        real, plan = real_query_trace(
            db, "SELECT grp, COUNT(*) FROM t WHERE amount < 0 GROUP BY grp"
        )
        assert plan.root.output_rows == (None if oram_kind == "path" else 1)
        one, one_plan = real_query_trace(
            db, "SELECT grp, COUNT(*) FROM t WHERE grp = 3 GROUP BY grp"
        )
        assert one_plan.cache_key == plan.cache_key
        assert real.matches(simulate(plan, public))
        assert real.matches(one)

    def test_padded_group_counts_share_one_trace(self) -> None:
        """Padding mode (§7.1) hides the group count: 1, 3 and 8 groups under
        ``pad_groups=8`` are one plan and one trace, SIM's."""
        traces, keys = [], set()
        for groups in (1, 3, 8):
            db = ObliDB(
                cipher="null",
                keep_trace_events=True,
                padding=PaddingConfig(pad_rows=32, pad_groups=8),
                seed=5,
            )
            db.create_table("t", GROUPED, 32)
            db.insert_many("t", [(i, i % groups, i) for i in range(29)], fast=True)
            public = PublicState.of(db)
            real, plan = real_query_trace(
                db, "SELECT grp, COUNT(*), SUM(amount) FROM t GROUP BY grp"
            )
            assert plan.root.output_rows == 8
            assert real.matches(simulate(plan, public))
            traces.append(real)
            keys.add(plan.cache_key)
        assert len(keys) == 1
        assert all(trace.matches(traces[0]) for trace in traces)

    def test_held_group_counts_share_one_trace(self) -> None:
        """Held groups never leave the enclave: 1, 3 and 8 groups that fit
        are one plan and one trace, the read pass, SIM's."""
        traces, keys = [], set()
        for groups in (1, 3, 8):
            db = ObliDB(cipher="null", keep_trace_events=True, seed=5)
            db.create_table("t", GROUPED, 32)
            db.insert_many("t", [(i, i % groups, i) for i in range(29)], fast=True)
            public = PublicState.of(db)
            real, plan = real_query_trace(
                db, "SELECT grp, COUNT(*), SUM(amount) FROM t GROUP BY grp"
            )
            assert (plan.root.in_enclave, plan.root.output_rows) == (True, None)
            assert real.length == 32
            assert real.matches(simulate(plan, public))
            traces.append(real)
            keys.add(plan.cache_key)
        assert len(keys) == 1
        assert all(trace.matches(traces[0]) for trace in traces)

    def test_overflow_finishes_the_read_pass(self) -> None:
        """Two 2 048-row tables (two scan chunks) whose group tables overflow
        in the first chunk and in the second: the hash pass reads all N
        blocks before the sort fallback either way, so one plan, one trace."""
        traces, keys = [], set()
        for late in (False, True):
            db = ObliDB(
                cipher="null", oblivious_memory_bytes=4096, keep_trace_events=True, seed=5
            )
            db.create_table("t", GROUPED, 2048)
            # 300 groups, 16 bytes each, against 4 096 bytes: the table
            # overflows at the 257th distinct key.
            rows = [(i, 0 if late and i < 1024 else i % 300, i) for i in range(2048)]
            db.insert_many("t", rows, fast=True)
            public = PublicState.of(db)
            real, plan = real_query_trace(db, "SELECT grp, COUNT(*) FROM t GROUP BY grp")
            assert sorted_fallback(plan.root)
            assert real.matches(simulate(plan, public))
            traces.append(real)
            keys.add(plan.cache_key)
        assert len(keys) == 1
        assert traces[0].matches(traces[1])


class TestSelfJoin:
    @pytest.mark.parametrize("oram_kind", KINDS)
    def test_real_equals_sim(self, oram_kind: str) -> None:
        """Both sides of a self-join read the one table; SIM's dummy is
        one table too."""
        db = ObliDB(cipher="null", keep_trace_events=True, seed=31)
        db.create_table("t", GROUPED, 32, oram_kind=oram_kind)
        db.insert_many("t", [(i, i % 3, 10 * i) for i in range(10)], fast=True)
        public = PublicState.of(db)
        real, plan = real_query_trace(db, "SELECT COUNT(*) FROM t JOIN t ON k = k")
        assert plan.tables == ("t", "t")
        assert real.matches(simulate(plan, public))


class TestZeroGroups:
    @pytest.mark.parametrize("oram_kind", KINDS)
    @pytest.mark.parametrize("budget", [0, 8, 64, 4096])
    def test_real_equals_sim(self, budget: int, oram_kind: str) -> None:
        """No group matches: zero groups fit in any budget, so the default
        kind holds them even with no free byte, and the paper's writes its
        one output slot; g = 0 and g = 1 leave one trace, so SIM builds g = 0."""
        db = ObliDB(
            cipher="null", oblivious_memory_bytes=budget, keep_trace_events=True, seed=5
        )
        db.create_table("t", GROUPED, 16, oram_kind=oram_kind)
        db.insert_many("t", [(i, i % 3, i) for i in range(12)], fast=True)
        public = PublicState.of(db)
        real, plan = real_query_trace(
            db, "SELECT grp, COUNT(*) FROM t WHERE k > 99 GROUP BY grp"
        )
        assert plan.root.in_enclave is (oram_kind == "path")
        assert real.matches(simulate(plan, public))
