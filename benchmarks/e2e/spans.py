"""Outside-in layer spans for the traced benchmark run.

Nothing under ``src/`` is edited or knows about this file.  ``install``
replaces the layers' *public* callables with timing wrappers in the
workload's own child process.  A call through a batch-level entry point
leaves one span in memory — ``(name, start, end, parent id, id, statement
id, phase, units, self seconds)``, where ``name`` is ``"<layer>:<callable>"``
and the layer is the module the callable lives in — and a span's self time
is its duration minus what its child spans cover.  Nothing is written
anywhere; ``layer_metrics`` reads the spans when the workload has ended.

The five per-block entry points of the enclave layers (``UntrustedMemory.
read/write``, ``AccessTrace.record``, ``AuthenticatedCipher.seal/open``) are
*tallied* instead: timed and charged like a span, but only their count and
self time are kept, per phase.  The planner's statistics pass reads tables
one block at a time, so on ``analytic_scan`` they run ~10 000 times per
statement; spans for them would cost hundreds of MB and a third of the
run.  Per-row accessors above them (``FlatStorage.read_row``,
``RevisionLedger.verify`` ...) are left unwrapped and stay in their caller's
self time.  ``spans.overhead_frac`` reports what the wrappers cost.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from typing import Callable

from harness import percentile

# Span fields.
NAME, START, END, PARENT, ID, STATEMENT, PHASE, UNITS, SELF = range(9)


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: name -> phase -> [calls, self seconds] of the tallied callables.
        self.tallies: dict[str, dict[str, list]] = {}
        #: Label copied into each span as it closes; the workload sets it
        #: between phases (setup / open_loop / timed / recover), when no
        #: span is open.
        self.phase = "setup"
        #: Largest Path ORAM stash seen after any access.
        self.stash_peak = 0
        #: The running database's ``CostModel`` (set by the workload), read
        #: by the wrappers that count block I/O inside their span.
        self.cost = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._statement_ids = itertools.count(1)

    def block_ios(self) -> int:
        return self.cost.block_ios if self.cost is not None else 0

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        units: Callable[[tuple], float] | None = None,
        probe: Callable[[], float] | None = None,
        after: Callable[[tuple], None] | None = None,
    ) -> Callable:
        """``fn`` recorded as one span per call.

        ``units(args)`` is stored with the span (blocks in a crypto batch);
        ``probe()`` is sampled before and after and the difference stored
        instead (block I/O inside a compile); ``after(args)`` runs once the
        span has closed (the stash-size sample).
        """
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        next_id = self._ids.__next__
        next_statement = self._statement_ids.__next__
        get_stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = get_stack()
            if stack:
                parent = stack[-1]
            else:
                parent = None
                local.statement = next_statement()  # nobody caused this call
            frame = [next_id(), 0.0]  # id, seconds covered by children
            amount = units(args) if units is not None else 1
            if probe is not None:
                amount = -probe()
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                if probe is not None:
                    amount += probe()
                spans.append(
                    (
                        name,
                        start,
                        start + elapsed,
                        parent[0] if parent is not None else 0,
                        frame[0],
                        local.statement,
                        self.phase,
                        amount,
                        elapsed - frame[1],
                    )
                )
                if after is not None:
                    after(args)

        return wrapper

    def wrap_tally(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed and charged like a span, but only counted: calls and
        self seconds per phase.  For per-block entry points, which run under
        the engine lock (one thread at a time) and always inside a span."""
        clock = time.perf_counter
        get_stack = self._stack
        by_phase: dict[str, list] = {}
        self.tallies[name] = by_phase

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = get_stack()
            frame = [0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                try:
                    tally = by_phase[self.phase]
                except KeyError:
                    tally = by_phase[self.phase] = [0, 0.0]
                tally[0] += 1
                tally[1] += elapsed - frame[1]

        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function timed as one span per resumption, so the
        consumer's work between items is not charged to the producer."""
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                yield item

        return wrapper


def _patch_method(
    recorder: Recorder, layer: str, cls: type, method: str, tally: bool = False, **hooks
) -> None:
    fn = vars(cls)[method]
    name = f"{layer}:{cls.__name__}.{method}"
    if tally:
        setattr(cls, method, recorder.wrap_tally(name, fn))
    elif inspect.isgeneratorfunction(fn):
        setattr(cls, method, recorder.wrap_generator(name, fn))
    else:
        setattr(cls, method, recorder.wrap(name, fn, **hooks))


def _patch_function(recorder: Recorder, layer: str, fn: Callable, **hooks) -> None:
    """Replace a module-level function everywhere ``repro`` bound it by name
    (``from .sql import parse`` copies the reference into the importer)."""
    wrapper = recorder.wrap(f"{layer}:{fn.__name__}", fn, **hooks)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attribute, wrapper)


def install() -> Recorder:
    """Wrap every layer boundary the default SQL path crosses; call once,
    before the workload builds its database."""
    from repro.enclave.crypto import AuthenticatedCipher
    from repro.enclave.integrity import RevisionLedger
    from repro.enclave.memory import UntrustedMemory
    from repro.enclave.trace import AccessTrace
    from repro.engine.database import ObliDB
    from repro.engine.executor import PlanRunner
    from repro.engine.sql import parse
    from repro.engine.wal import WriteAheadLog
    from repro.oblivious.compact import filter_copy, materialize_prefix, oblivious_compact
    from repro.oblivious.shuffle import oblivious_shuffle
    from repro.operators.write import oblivious_delete, oblivious_insert, oblivious_update
    from repro.oram.path_oram import PathORAM
    from repro.planner.compile import compile_statement
    from repro.serving.server import Session
    from repro.storage.btree import ObliviousBPlusTree
    from repro.storage.flat import FlatStorage

    recorder = Recorder()

    def methods(layer: str, cls: type, names: str, **options) -> None:
        for method in names.split():
            _patch_method(recorder, layer, cls, method, **options)

    methods("serving", Session, "execute insert_many")
    methods("engine", ObliDB, "execute execute_sql insert_many recover verify")
    _patch_function(recorder, "engine.sql", parse)
    _patch_function(recorder, "planner", compile_statement, probe=recorder.block_ios)
    methods("operators", PlanRunner, "run")
    for fn in (oblivious_insert, oblivious_update, oblivious_delete):
        _patch_function(recorder, "operators", fn)
    methods(
        "storage.flat",
        FlatStorage,
        "read_range_framed read_range_sealed write_range_framed exchange_framed"
        " exchange_pairs_framed read_at_framed write_at_framed"
        " exchange_schedule_framed interleave_to insert insert_many fast_insert"
        " update delete scan_framed_chunks rows copy_to free",
    )
    methods("storage.flat", FlatStorage, "fast_insert_many", units=lambda args: len(args[1]))
    methods("storage.btree", ObliviousBPlusTree, "search range_scan insert delete update")

    def sample_stash(args: tuple) -> None:
        if args[0].stash_size > recorder.stash_peak:
            recorder.stash_peak = args[0].stash_size

    methods("oram", PathORAM, "read write update dummy_access scan_buckets", after=sample_stash)
    for fn in (oblivious_shuffle, oblivious_compact, filter_copy, materialize_prefix):
        _patch_function(recorder, "oblivious", fn)
    methods(
        "enclave.integrity",
        RevisionLedger,
        "commit_range open_range stage_range advance_range open_at stage_at"
        " commit_at open_steps stage_steps commit_steps forget_region",
    )
    methods("enclave.crypto", AuthenticatedCipher, "seal open", tally=True)
    methods(
        "enclave.crypto",
        AuthenticatedCipher,
        "seal_many open_many",
        units=lambda args: len(args[1]),
    )
    methods(
        "enclave.memory",
        UntrustedMemory,
        "allocate_region free_region read_range write_range read_at write_at"
        " exchange_range exchange_pairs exchange_interleaved",
    )
    methods("enclave.memory", UntrustedMemory, "read write", tally=True)
    methods(
        "enclave.trace",
        AccessTrace,
        "record_range record_at record_interleaved record_rw_range record_pair_exchanges",
    )
    methods("enclave.trace", AccessTrace, "record", tally=True)
    methods(
        "engine.wal",
        WriteAheadLog,
        "append append_many read_all read_committed recover_into replay_into",
    )
    return recorder


# ----------------------------------------------------------------------
# Derivation, when the workload has ended
# ----------------------------------------------------------------------
#: Phases whose statements the workload measures (``open_loop`` exists on
#: ``serving_mix`` only; ``timed`` is every workload's closed loop).
MEASURED = ("open_loop", "timed")

LAYERS = (
    "serving",
    "engine",
    "engine.sql",
    "planner",
    "operators",
    "storage.flat",
    "storage.btree",
    "oram",
    "oblivious",
    "enclave.integrity",
    "enclave.crypto",
    "enclave.memory",
    "enclave.trace",
    "engine.wal",
)


def _layer(name: str) -> str:
    return name.partition(":")[0]


def _inclusive(spans: list[tuple]) -> float:
    return sum(span[END] - span[START] for span in spans)


def layer_metrics(recorder: Recorder, run: dict, floor_us: float) -> dict[str, float]:
    """The time-based per-layer metrics of one traced workload run.

    ``run`` is ``workloads.run_workload``'s result.  Its ``clients`` is how
    many closed-loop clients were inside ``Session`` calls at once, so that
    ``spans.covered_frac`` compares the layers' self time with the time
    there was to cover.
    """
    spans = recorder.spans
    statements = run["statements"]
    measured = [span for span in spans if span[PHASE] in MEASURED]
    layer_by_id = {span[ID]: _layer(span[NAME]) for span in spans}
    totals = {
        layer: {"self_s": 0.0, "calls": 0, "units": 0, "inclusive_s": 0.0} for layer in LAYERS
    }
    closed_self = 0.0
    for span in measured:
        layer = _layer(span[NAME])
        total = totals[layer]
        total["self_s"] += span[SELF]
        total["calls"] += 1
        total["units"] += span[UNITS]
        if layer_by_id.get(span[PARENT]) != layer:  # entered from another layer
            total["inclusive_s"] += span[END] - span[START]
        if span[PHASE] == "timed":
            closed_self += span[SELF]
    tallied = {"seal": 0, "open": 0}
    closed_tallied_blocks = 0
    for name, by_phase in recorder.tallies.items():
        for phase in MEASURED:
            calls, self_s = by_phase.get(phase, (0, 0.0))
            totals[_layer(name)]["self_s"] += self_s
            if phase == "timed":
                closed_self += self_s
            operation = name.rpartition(".")[2]
            if operation in tallied:  # the cipher's per-block seal / open
                tallied[operation] += calls
                closed_tallied_blocks += calls if phase == "timed" else 0

    by_callable: dict[tuple[str, str], list[tuple]] = {}
    for span in spans:
        by_callable.setdefault((span[PHASE], span[NAME].partition(":")[2]), []).append(span)

    def named(phases: tuple[str, ...], *names: str) -> list[tuple]:
        return [s for phase in phases for name in names for s in by_callable.get((phase, name), [])]

    per_stmt_ms = 1000.0 / statements
    metrics = {
        f"{layer}.self_ms_per_stmt": totals[layer]["self_s"] * per_stmt_ms
        for layer in LAYERS
        if layer != "engine.sql"  # a leaf: its self time is parse_ms_per_stmt
    }
    btree_calls = totals["storage.btree"]["calls"]
    oram_calls = totals["oram"]["calls"]
    sealed = named(MEASURED, "AuthenticatedCipher.seal_many")
    opened = named(MEASURED, "AuthenticatedCipher.open_many")
    closed_blocks = closed_tallied_blocks + sum(
        s[UNITS] for s in sealed + opened if s[PHASE] == "timed"
    )
    waits = sorted(span[SELF] for span in measured if span[PARENT] == 0)
    index_build = named(("setup",), "ObliviousBPlusTree.insert")
    flat_load = named(("setup",), "FlatStorage.fast_insert_many")
    replay = named(("recover",), "WriteAheadLog.recover_into")
    metrics.update(
        {
            "engine.sql.parse_ms_per_stmt": totals["engine.sql"]["self_s"] * per_stmt_ms,
            "planner.compile_ms_per_stmt": totals["planner"]["inclusive_s"] * per_stmt_ms,
            "planner.compile_block_ios_per_stmt": totals["planner"]["units"] / statements,
            "storage.flat.calls_per_stmt": totals["storage.flat"]["calls"] / statements,
            "storage.btree.oram_accesses_per_call": oram_calls / max(1, btree_calls),
            "oram.self_ms_per_access": totals["oram"]["self_s"] * 1000.0 / max(1, oram_calls),
            "oram.stash_peak": recorder.stash_peak,
            "setup.index_build_ms_per_row": _inclusive(index_build) * 1000.0
            / max(1, len(index_build)),
            "setup.flat_load_ms_per_row": _inclusive(flat_load) * 1000.0
            / max(1, sum(s[UNITS] for s in flat_load)),
            "enclave.crypto.blocks_sealed_per_stmt": (
                tallied["seal"] + sum(s[UNITS] for s in sealed)
            )
            / statements,
            "enclave.crypto.blocks_opened_per_stmt": (
                tallied["open"] + sum(s[UNITS] for s in opened)
            )
            / statements,
            "enclave.crypto.floor_us_per_block": floor_us,
            "enclave.crypto.floor_multiple": run["closed_wall_s"] * 1e6
            / max(1.0, closed_blocks * floor_us),
            "engine.wal.append_ms_per_stmt": _inclusive(
                named(MEASURED, "WriteAheadLog.append", "WriteAheadLog.append_many")
            )
            * per_stmt_ms,
            "engine.wal.replay_ms_per_record": _inclusive(replay) * 1000.0
            / max(1, run["per_layer"].get("engine.wal.replayed_records", 0)),
            "serving.wait_ms_p50": percentile(waits, 0.50) * 1000.0,
            "serving.wait_ms_p95": percentile(waits, 0.95) * 1000.0,
            "spans.per_stmt": len(measured) / statements,
            "spans.covered_frac": closed_self / (run["clients"] * run["closed_wall_s"]),
        }
    )
    return metrics
