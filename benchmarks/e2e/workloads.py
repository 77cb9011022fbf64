"""The four seeded workloads, their sqlite3 oracle, and the child-process
runner that measures one of them.

Everything the program under test sees is SQL text (or a typed
``insert_many`` batch) generated here from ``--seed``; sizes and mixes are
constants of this file.  Run length is a statement count — the per-workload
count below, scaled by ``--seconds / REFERENCE_SECONDS`` — never a deadline,
so both sides of a later comparison do identical work.

Why these four (the README has the long form):

* ``point_lookup``  — index only: B+ tree -> Path ORAM -> path-sized crypto.
* ``analytic_scan`` — flat only: batched scans, joins, aggregates over a
  table larger than oblivious memory; no ORAM access at all.
* ``write_durable`` — the write passes of both storage methods plus the WAL,
  then a kill and a recovery from the log alone.
* ``serving_mix``   — the only one with waiting: two sessions, open-loop
  arrivals, coalescing, write queues, reads invalidated by writes.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import random
import resource
import sqlite3
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from harness import ROW_BYTES, percentile, quiet_half

from repro import ObliDB, ObliDBServer
from repro.enclave.counters import CostModel
from repro.enclave.crypto import AuthenticatedCipher
from repro.enclave.errors import ObliDBError
from repro.serving.server import ServerHooks
from repro.storage.rows import framed_size

OBLIVIOUS_MEMORY_BYTES = 1 << 20
#: ``--seconds`` at which the statement counts below apply unscaled
#: (``run_seconds`` of ``BENCHMARK.json``); on the reference host the four
#: workloads' measured phases then last 9-27 s, 16 s on average.
REFERENCE_SECONDS = 15.0
#: Arrival rate of ``serving_mix``'s open loop, about a third of the capacity
#: its closed loop measures.
OFFERED_PER_S = 40.0
#: An index range covers 6-10 consecutive keys, 8 on average.  The widths
#: vary because nothing else about an index statement's cost does: with one
#: width ``point_lookup``'s modeled time is bit-equal for every key and seed
#: (that is obliviousness), which the benchmark driver reads as a constant.
RANGE_KEYS = (6, 10)


def _pad_width(int_columns: int) -> int:
    return ROW_BYTES - 8 * int_columns


@dataclass
class TableSpec:
    name: str
    int_columns: tuple[str, ...]
    capacity: int
    rows: list[tuple]
    key: str | None = None  # set: METHOD both KEY <key>

    def create_sql(self) -> str:
        columns = ", ".join(f"{column} INT" for column in self.int_columns)
        method = f"METHOD both KEY {self.key}" if self.key else "METHOD flat"
        return (
            f"CREATE TABLE {self.name} ({columns}, pad STR({_pad_width(len(self.int_columns))}))"
            f" CAPACITY {self.capacity} {method}"
        )


@dataclass
class Plan:
    """One workload's generated inputs.  A statement is SQL text, or a
    ``(table, rows)`` pair for ``Session.insert_many``.

    A run is one or more *rounds*.  Each round sets up a fresh database and
    then runs its own closed loop, one statement stream per client;
    ``setup_s`` is the median set-up and every other metric pools the
    rounds.  Rounds are how a run repeats the set-up without leaving the
    program idle, and how ``write_durable``, whose fixed capacities bound a
    stream's length, gets enough statements behind its percentiles."""

    tables: list[TableSpec]
    warmup: list[str]
    rounds: list[list[list]]  # round -> client -> statements
    segment: int  # statements of one client in one equal-work segment
    wal: bool = False
    recover: bool = False  # kill the last round's database and rebuild it from its WAL
    open_loop: list[tuple[float, str]] = field(default_factory=list)  # (due s, sql)


# ----------------------------------------------------------------------
# Data and statement generators
# ----------------------------------------------------------------------
def _accounts(rng: random.Random, rows: int, capacity: int) -> TableSpec:
    data = [
        (key, rng.randrange(100), rng.randrange(10_000), f"account-{key:07d}")
        for key in range(rows)
    ]
    rng.shuffle(data)  # an index built from sorted input is the easy case
    return TableSpec("accounts", ("id", "owner", "balance"), capacity, data, key="id")


def _visits(rng: random.Random, rows: int, users: int) -> TableSpec:
    # ``amount`` is unique, so ORDER BY amount LIMIT k has one right answer.
    amounts = rng.sample(range(8 * rows), rows)
    data = [
        (vid, rng.randrange(users), rng.randrange(365), amounts[vid], f"visit-{vid:07d}")
        for vid in range(rows)
    ]
    return TableSpec("visits", ("vid", "uid", "day", "amount"), rows, data)


def _users(rng: random.Random, rows: int) -> TableSpec:
    data = [
        (uid, rng.randrange(16), rng.randrange(1000), f"user-{uid:07d}")
        for uid in range(rows)
    ]
    return TableSpec("users", ("uid", "region", "score"), rows, data)


def _lookup(key: int) -> str:
    return f"SELECT * FROM accounts WHERE id = {key}"


def _key_range(rng: random.Random, low: int, rows: int) -> str:
    low = min(low, rows - RANGE_KEYS[1])
    return f"SELECT * FROM accounts WHERE id >= {low} AND id < {low + rng.randint(*RANGE_KEYS)}"


def _filtered_aggregate(rng: random.Random, visits: int) -> str:
    return (
        f"SELECT COUNT(*), SUM(amount) FROM visits WHERE day < {rng.randrange(60, 300)}"
        f" AND amount > {rng.randrange(2 * visits, 6 * visits)}"
    )


def _group_by(rng: random.Random) -> str:
    return (
        "SELECT uid, COUNT(*), SUM(amount) FROM visits"
        f" WHERE day >= {rng.randrange(30, 180)} GROUP BY uid"
    )


def _scaled(count: int, factor: float, floor: int = 1) -> int:
    return max(floor, round(count * factor))


def _blocks(order: random.Random, blocks: int, mix: dict[str, int], make: dict) -> list:
    """``blocks`` blocks shuffled by ``order``, each holding every kind of
    statement exactly ``mix[kind]`` times.  The mix is then the same for
    every seed — drawn per statement it moved ``serving_mix``'s modeled time
    and ``write_durable``'s ``space_amp`` by 5 % between seeds — and only keys
    and constants vary.
    Statements are built in their final order (the writers track state)."""
    statements = []
    for _ in range(blocks):
        kinds = [kind for kind, count in mix.items() for _ in range(count)]
        order.shuffle(kinds)
        statements.extend(make[kind]() for kind in kinds)
    return statements


def plan_point_lookup(rng: random.Random, scale: float, run: float) -> Plan:
    rows = _scaled(1024, scale, 64)
    table = _accounts(rng, rows, rows)
    mix = {"lookup": 90, "range": 10}
    make = {
        "lookup": lambda: _lookup(rng.randrange(rows)),
        "range": lambda: _key_range(rng, rng.randrange(rows), rows),
    }
    warmup = [_lookup(key) for key in range(16)]
    warmup += [_key_range(rng, 0, rows), _key_range(rng, rows // 2, rows)]
    # Two rounds: an index build is 6 ms a row, so a third would cost the
    # run more than its timed statements do.
    rounds = [[_blocks(rng, _scaled(12, scale * run), mix, make)] for _ in range(2)]
    return Plan([table], warmup, rounds, segment=sum(mix.values()))


def _analytic_cycle(rng: random.Random, visits: int) -> list[str]:
    """Six statements with fresh constants: the unique-key table is on the
    left of the join, which is the side the engine's FK join requires."""
    week = rng.randrange(30, 330)
    low = rng.randrange(visits - 40)
    return [
        "SELECT users.region, visits.amount FROM users JOIN visits"
        f" ON users.uid = visits.uid WHERE visits.day < {rng.randrange(120, 240)}",
        _group_by(rng),
        _filtered_aggregate(rng, visits),
        f"SELECT * FROM visits WHERE amount < {rng.randrange(15 * visits // 4, 17 * visits // 4)}",
        f"SELECT * FROM visits WHERE vid >= {low} AND vid < {low + 40}",
        f"SELECT vid, amount FROM visits WHERE day >= {week} AND day < {week + 7}"
        " ORDER BY amount DESC LIMIT 20",
    ]


def plan_analytic_scan(rng: random.Random, scale: float, run: float) -> Plan:
    visits = _scaled(4096, scale, 128)
    users = _scaled(512, scale, 16)
    tables = [_visits(rng, visits, users), _users(rng, users)]
    warmup = _analytic_cycle(rng, visits)
    cycles = _scaled(12, scale * run)  # 3 x 12 x 6 = 216 statements at full size
    rounds = [
        [[statement for _ in range(cycles) for statement in _analytic_cycle(rng, visits)]]
        for _ in range(3)
    ]
    return Plan(tables, warmup, rounds, segment=len(warmup))


def plan_write_durable(rng: random.Random, scale: float, run: float) -> Plan:
    accounts = _scaled(128, scale, 16)
    ledger_rows = _scaled(256, scale, 16)
    batch = 8
    ledger = TableSpec(
        "ledger",
        ("lid", "account", "delta"),
        4 * ledger_rows,
        [
            (lid, rng.randrange(accounts), rng.randrange(-500, 500), f"entry-{lid:07d}")
            for lid in range(ledger_rows)
        ],
    )
    tables = [_accounts(rng, accounts, 4 * accounts), ledger]
    mix = {"insert": 7, "update": 4, "delete": 2, "ledger": 3, "batch": 2, "lookup": 2}
    # Capacities are fixed, so a round may be at most this many times the
    # reference length before an insert would not fit.
    blocks = min(
        _scaled(15, scale * run),
        (tables[0].capacity - accounts) // (mix["insert"] - mix["delete"]),
        (ledger.capacity - ledger_rows) // (mix["ledger"] + batch * mix["batch"]),
    )

    def one_round() -> list:
        """A stream for a freshly loaded database: it tracks the live keys."""
        live = list(range(accounts))
        ids = itertools.count(accounts)
        entries = itertools.count(ledger_rows)

        def insert() -> str:
            live.append(next(ids))
            return (
                f"INSERT INTO accounts VALUES ({live[-1]}, {rng.randrange(100)},"
                f" {rng.randrange(10_000)}, 'account-{live[-1]:07d}')"
            )

        def entry() -> tuple:
            return (next(entries), rng.choice(live), rng.randrange(-500, 500))

        make = {
            "insert": insert,
            "update": lambda: (
                f"UPDATE accounts SET balance = {rng.randrange(10_000)}"
                f" WHERE id = {rng.choice(live)}"
            ),
            "delete": lambda: (
                f"DELETE FROM accounts WHERE id = {live.pop(rng.randrange(len(live)))}"
            ),
            "ledger": lambda: "INSERT INTO ledger VALUES ({}, {}, {}, 'single')".format(*entry()),
            "batch": lambda: ("ledger", [(*entry(), "batch") for _ in range(batch)]),
            "lookup": lambda: _lookup(rng.choice(live)),
        }
        return _blocks(rng, blocks, mix, make)

    warmup = [_lookup(key) for key in range(8)]
    # Three rounds of 300 statements; the last round's database is the one
    # that is killed and recovered.
    rounds = [[one_round()] for _ in range(3)]
    return Plan(tables, warmup, rounds, segment=sum(mix.values()), wal=True, recover=True)


def plan_serving_mix(rng: random.Random, scale: float, run: float) -> Plan:
    accounts = _scaled(1024, scale, 64)
    visits = _scaled(2048, scale, 128)
    users = _scaled(256, scale, 16)
    tables = [_accounts(rng, accounts, accounts), _visits(rng, visits, users), _users(rng, users)]
    # Zipf(1.1) over a shuffled key space: hot keys are not neighbours.
    keys = list(range(accounts))
    rng.shuffle(keys)
    cumulative = list(itertools.accumulate(1.0 / rank**1.1 for rank in range(1, accounts + 1)))

    def zipf_key() -> int:
        return keys[bisect.bisect_left(cumulative, rng.random() * cumulative[-1])]

    # Shares are exact, so with 5 % of GROUP BY, the slowest kind, p95 would
    # sit on the boundary between it and the next slowest kind, and which
    # side it fell on would be chance.  At 80 / 4 / 4 / 4 / 8 both
    # percentiles sit inside one kind's latencies.
    mix = {"lookup": 20, "range": 1, "aggregate": 1, "group_by": 1, "update": 2}
    make = {
        "lookup": lambda: _lookup(zipf_key()),
        "range": lambda: _key_range(rng, zipf_key(), accounts),
        "aggregate": lambda: _filtered_aggregate(rng, visits),
        "group_by": lambda: _group_by(rng),
        "update": lambda: (
            f"UPDATE accounts SET balance = {rng.randrange(10_000)} WHERE id = {zipf_key()}"
        ),
    }
    # The arrival times and the order of statement kinds are this workload's
    # own constants; the seed picks keys and constants only.  An open loop's
    # tail is made of coincidences (an update arriving behind a GROUP BY),
    # so a schedule redrawn per seed moved p95 by 23 % between seeds.
    arrivals = random.Random("serving_mix/arrivals")
    due = 0.0
    open_loop = []
    for statement in _blocks(arrivals, _scaled(16, scale * run), mix, make):
        due += arrivals.expovariate(OFFERED_PER_S)  # Poisson
        open_loop.append((due, statement))
    # Two rounds of two clients.  The open loop runs in the second round,
    # between its set-up and its closed loop, so the two closed loops are 16 s
    # apart and one episode of host interference cannot cover both.
    rounds = [
        [_blocks(rng, _scaled(14, scale * run), mix, make) for _ in range(2)] for _ in range(2)
    ]
    warmup = [_lookup(0), _key_range(rng, 0, accounts)]
    warmup += [_filtered_aggregate(rng, visits), _group_by(rng)]
    return Plan(
        tables, warmup, rounds, segment=sum(mix.values()), wal=True, open_loop=open_loop
    )


PLANS = {
    "point_lookup": plan_point_lookup,
    "analytic_scan": plan_analytic_scan,
    "write_durable": plan_write_durable,
    "serving_mix": plan_serving_mix,
}


# ----------------------------------------------------------------------
# Independent oracle
# ----------------------------------------------------------------------
class Oracle:
    """The same tables in stdlib sqlite3.  Every load and write is mirrored
    and every answer compared, outside the timed intervals."""

    def __init__(self, tables: list[TableSpec]) -> None:
        self._db = sqlite3.connect(":memory:")
        for table in tables:
            columns = ", ".join((*table.int_columns, "pad"))
            self._db.execute(f"CREATE TABLE {table.name} ({columns})")
            self.insert_many(table.name, table.rows)

    def insert_many(self, table: str, rows: list[tuple]) -> None:
        marks = ", ".join("?" * len(rows[0]))
        self._db.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)

    def rows(self, table: str) -> list[tuple]:
        return self._db.execute(f"SELECT * FROM {table}").fetchall()

    def close(self) -> None:
        self._db.close()

    def agrees(self, statement, outcome) -> bool:
        """Apply ``statement`` here and compare with what ObliDB returned."""
        if isinstance(outcome, BaseException):
            return False
        if not isinstance(statement, str):
            self.insert_many(*statement)
            return True
        cursor = self._db.execute(statement)
        if not statement.startswith("SELECT"):
            return cursor.rowcount == outcome.affected
        expected, got = cursor.fetchall(), list(outcome.rows)
        if " ORDER BY " not in statement:
            expected.sort()
            got.sort()
        return got == expected


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _issue(session, statement):
    if isinstance(statement, str):
        return session.execute(statement)
    return session.insert_many(*statement)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rows_out: int = 0
    rows_written: int = 0

    def record(self, statement, outcome, agreed: bool) -> None:
        self.attempted += 1
        self.failed += not agreed
        if isinstance(outcome, BaseException):
            return
        if not isinstance(statement, str):
            self.rows_written += len(statement[1])
        elif statement.startswith("SELECT"):
            self.rows_out += len(outcome.rows)
        else:
            self.rows_written += outcome.affected


class Environment:
    """One freshly set-up database behind an ``ObliDBServer``."""

    def __init__(self, plan: Plan, seed: int) -> None:
        self.db = ObliDB(
            oblivious_memory_bytes=OBLIVIOUS_MEMORY_BYTES, wal=plan.wal, seed=seed
        )
        #: Executions in serialization order, for the multi-client oracle.
        self.executed: list[tuple[str, object]] = []
        hooks = ServerHooks(
            on_statement_executed=lambda text, result: self.executed.append((text, result))
        )
        # The hook is the only departure from ``ObliDBServer(db)`` defaults,
        # and only where two clients make the serialization order unknown.
        clients = len(plan.rounds[0])
        self.server = ObliDBServer(self.db, hooks=hooks if clients > 1 else None)
        self.sessions = [self.server.session(f"client{i}") for i in range(clients)]
        session = self.sessions[0]
        for table in plan.tables:
            session.execute(table.create_sql())
            session.insert_many(table.name, table.rows, fast=True)
        self.warmup_outcomes = [session.execute(statement) for statement in plan.warmup]
        self.executed.clear()

    def live_user_bytes(self) -> int:
        return sum(
            self.db.table(name).used_rows * framed_size(self.db.table(name).schema)
            for name in self.db.table_names()
        )

    def wal_bytes(self) -> int:
        if self.db.wal is None:
            return 0
        return self.db.enclave.untrusted.region(self.db.wal.region_name).stored_bytes()

    def close(self) -> None:
        self.server.close()
        self.db.close()


def _closed_loop(session, statements: list, oracle: Oracle, tally: Tally) -> list[float]:
    """One client, zero think time.  Each statement is timed alone and
    checked against the oracle before the next one is sent, so the oracle's
    work sits between the timed intervals, not inside them."""
    latencies = []
    clock = time.perf_counter
    for statement in statements:
        start = clock()
        try:
            outcome = _issue(session, statement)
        except ObliDBError as error:
            outcome = error
        latencies.append(clock() - start)
        tally.record(statement, outcome, oracle.agrees(statement, outcome))
    return latencies


def _check_concurrent(env: Environment, issued: list, oracle: Oracle, tally: Tally) -> None:
    """Replay the server's serialization-order log into the oracle, then
    require every client's answer to be one of the verified executions of
    its text (a coalesced follower holds a copy of its leader's)."""
    verified: dict[str, list] = {}
    for text, result in env.executed:
        if oracle.agrees(text, result):
            verified.setdefault(text, []).append((result.rows, result.affected))
    env.executed.clear()
    for statement, outcome in issued:
        agreed = not isinstance(outcome, BaseException) and (
            (outcome.rows, outcome.affected) in verified.get(statement, [])
        )
        tally.record(statement, outcome, agreed)


def _open_loop(env: Environment, schedule: list[tuple[float, str]]) -> tuple[list, list, list]:
    """Send each statement at its due time whatever the backlog; latency
    runs from the *due* time, so a stall is charged to everything behind it."""
    clock = time.perf_counter
    finished = [0.0] * len(schedule)
    stamped = threading.Semaphore(0)

    def stamp(index: int) -> None:
        finished[index] = clock()
        stamped.release()

    futures, lag = [], []
    origin = clock() + 0.05
    for index, (due, statement) in enumerate(schedule):
        delay = origin + due - clock()
        if delay > 0:
            time.sleep(delay)
        lag.append(clock() - (origin + due))
        future = env.sessions[index % len(env.sessions)].submit(statement)
        future.add_done_callback(lambda _, index=index: stamp(index))
        futures.append(future)
    for _ in futures:  # a future's waiters wake before its callbacks run
        stamped.acquire()
    issued = [
        (statement, future.exception() or future.result())
        for future, (_, statement) in zip(futures, schedule)
    ]
    latencies = [finished[i] - (origin + due) for i, (due, _) in enumerate(schedule)]
    return latencies, lag, issued


def _closed_loop_threads(env: Environment, streams: list[list]) -> tuple[float, list[list], list]:
    """One thread per client, each waiting for its reply before sending; a
    statement's latency includes its wait for the other clients' statements.
    Returns the wall time, each client's latencies and every answer."""
    issued: list[list] = [[] for _ in streams]
    latencies: list[list] = [[] for _ in streams]
    barrier = threading.Barrier(len(streams) + 1)
    clock = time.perf_counter

    def client(index: int) -> None:
        session = env.sessions[index]
        barrier.wait()
        for statement in streams[index]:
            start = clock()
            try:
                outcome = session.execute(statement)
            except ObliDBError as error:
                outcome = error
            latencies[index].append(clock() - start)
            issued[index].append((statement, outcome))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(streams))]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = clock()
    for thread in threads:
        thread.join()
    wall = clock() - start
    return wall, latencies, sum(issued, [])


def crypto_floor_us_per_block() -> float:
    """A standalone ``seal_many`` + ``open_many`` pass over 4 096 half-KB
    blocks: what the cipher alone costs per block, nothing else on the path."""
    blocks = 4096
    cipher = AuthenticatedCipher(bytes(32))
    plaintexts = [bytes([i % 251]) * (ROW_BYTES + 1) for i in range(blocks)]
    aads = [i.to_bytes(8, "little") for i in range(blocks)]
    passes = []
    for _ in range(3):  # a floor: the quietest pass
        start = time.perf_counter()
        cipher.open_many(cipher.seal_many(plaintexts, aads), aads)
        passes.append(time.perf_counter() - start)
    return min(passes) / (2 * blocks) * 1e6


def run_workload(name: str, seed: int, seconds: float, scale: float, recorder=None) -> dict:
    """Set up, measure and check one workload in this process.

    Returns the end-to-end metrics and the layer metrics that are counts;
    with a span ``recorder`` installed the caller adds the timed ones.
    """
    plan = PLANS[name](random.Random(f"{name}/{seed}"), scale, seconds / REFERENCE_SECONDS)
    clients = len(plan.rounds[0])
    tally = Tally()
    layers: dict[str, float] = {}
    setup_seconds = []
    segments: list[list[float]] = []  # equal-work slices of the closed loops
    closed_wall = 0.0
    cost = CostModel()  # every round's timed statements
    wal_records = wal_bytes = 0
    served: Counter = Counter()
    env = oracle = None
    for number, streams in enumerate(plan.rounds):
        if env is not None:
            env.close()
            oracle.close()
            env = oracle = None
            gc.collect()
        if recorder is not None:
            recorder.phase = "setup"
        start = time.perf_counter()
        env = Environment(plan, seed)
        setup_seconds.append(time.perf_counter() - start)
        oracle = Oracle(plan.tables)
        for statement, outcome in zip(plan.warmup, env.warmup_outcomes):
            tally.record(statement, outcome, oracle.agrees(statement, outcome))

        before = env.db.enclave.cost.snapshot()
        wal_records_before = env.db.wal.count if env.db.wal else 0
        wal_bytes_before = env.wal_bytes()
        if recorder is not None:
            recorder.cost = env.db.enclave.cost
        if plan.open_loop and number == len(plan.rounds) - 1:
            if recorder is not None:
                recorder.phase = "open_loop"
            from_due, lag, issued = _open_loop(env, plan.open_loop)
            _check_concurrent(env, issued, oracle, tally)
            from_due.sort()
            layers["loadgen.open_p50_ms"] = percentile(from_due, 0.50) * 1000.0
            layers["loadgen.open_p95_ms"] = percentile(from_due, 0.95) * 1000.0
            layers["loadgen.lag_p95_ms"] = percentile(sorted(lag), 0.95) * 1000.0
            layers["loadgen.offered_per_s"] = len(plan.open_loop) / plan.open_loop[-1][0]
        if recorder is not None:
            recorder.phase = "timed"
        if clients > 1:
            wall, latencies, issued = _closed_loop_threads(env, streams)
            _check_concurrent(env, issued, oracle, tally)
        else:
            latencies = [_closed_loop(env.sessions[0], streams[0], oracle, tally)]
            wall = sum(latencies[0])
        if recorder is not None:
            recorder.phase = "after"
        closed_wall += wall
        # Segment i is every client's i-th block: the same mix, issued at
        # about the same time.
        segments.extend(
            [latency for client in latencies for latency in client[low : low + plan.segment]]
            for low in range(0, len(streams[0]), plan.segment)
        )
        cost.absorb(env.db.enclave.cost.delta_since(before))
        wal_records += (env.db.wal.count if env.db.wal else 0) - wal_records_before
        wal_bytes += env.wal_bytes() - wal_bytes_before
        stats = env.server.stats.snapshot()
        served.update({key: stats[key] for key in ("admitted", "rejected", "coalesced")})
        served["write_queue_peak"] = max(served["write_queue_peak"], stats["write_queue_peak"])

    closed_statements = sum(len(stream) for streams in plan.rounds for stream in streams)
    statements = len(plan.open_loop) + closed_statements
    stored = env.db.enclave.untrusted.total_stored_bytes()
    quiet, slow_half_excess = quiet_half(segments)
    latencies = sorted(itertools.chain.from_iterable(quiet))
    end_to_end = {
        "setup_s": statistics.median(setup_seconds),
        "stmts_per_s": clients * len(latencies) / sum(latencies),
        "lat_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "lat_p95_ms": percentile(latencies, 0.95) * 1000.0,
        "modeled_ms_per_stmt": cost.modeled_time_ms() / statements,
        "space_amp": stored / env.live_user_bytes(),
    }
    layers.update(
        {
            "loadgen.slow_half_excess": slow_half_excess,
            "operators.block_reads_per_row_out": cost.untrusted_reads / max(1, tally.rows_out),
            "oram.accesses_per_stmt": cost.oram_accesses / statements,
            "enclave.memory.block_reads_per_stmt": cost.untrusted_reads / statements,
            "enclave.memory.block_writes_per_stmt": cost.untrusted_writes / statements,
            "enclave.memory.stored_bytes": stored,
            "engine.wal.records_per_stmt": wal_records / statements,
            "engine.wal.bytes_per_user_byte": wal_bytes
            / max(1, tally.rows_written * (ROW_BYTES + 1)),
            "serving.coalesced_frac": served["coalesced"] / max(1, served["admitted"]),
            "serving.rejected_frac": served["rejected"]
            / max(1, served["admitted"] + served["rejected"]),
            "serving.write_queue_peak": served["write_queue_peak"],
        }
    )
    if plan.recover:
        end_to_end["recover_s"] = _kill_and_recover(env, oracle, tally, layers, recorder)
    else:
        env.close()
    end_to_end["failed_frac"] = tally.failed / tally.attempted
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "workload": name,
        "seed": seed,
        "statements": statements,
        "latency_samples": len(latencies),
        "attempted": tally.attempted,
        "failed": tally.failed,
        # What the spans' coverage and the crypto floor are taken against:
        # every closed loop, whole (an open loop lasts as long as its
        # schedule, whatever the program).
        "closed_wall_s": closed_wall,
        "clients": clients,
        "end_to_end": end_to_end,
        "per_layer": layers,
    }


def _kill_and_recover(
    env: Environment, oracle: Oracle, tally: Tally, layers: dict, recorder
) -> float:
    """Drop the database keeping only its log, rebuild from the log alone,
    and count every acknowledged row that cannot be read back as a failure."""
    wal = env.db.wal
    env.close()
    del env.db, env.server, env.sessions
    gc.collect()
    fresh = ObliDB(oblivious_memory_bytes=OBLIVIOUS_MEMORY_BYTES, wal=True)
    if recorder is not None:
        recorder.phase = "recover"
    start = time.perf_counter()
    report = fresh.recover(wal)
    recover_s = time.perf_counter() - start
    start = time.perf_counter()
    unsound = not fresh.verify().ok
    layers["engine.wal.verify_s"] = time.perf_counter() - start
    layers["engine.wal.replayed_records"] = report.replayed
    if recorder is not None:
        recorder.phase = "after"
    lost = 0
    for name in fresh.table_names():
        expected, got = Counter(oracle.rows(name)), Counter(fresh.table(name).rows())
        lost += sum(((expected - got) + (got - expected)).values())
    tally.failed += min(tally.attempted - tally.failed, lost + unsound)
    fresh.close()
    return recover_s
